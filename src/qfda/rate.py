"""Entropy-based rate model for quantized DCT frequencies.

Each frequency's coefficient distribution is estimated with a Gaussian
kernel density over the bootstrap sample quantizer.bootstrap_frequencies
draws.  The probability mass p_t landing in each cell of the staircase,
whose edges QuantizerSpec.edges gives, comes from the closed-form mixture
CDF, and the per-frequency rate is the interval entropy

    r_k = -sum_t p_t log2 p_t        (0 log 0 = 0)

averaged over the 64 frequencies to a single scalar.

r_k depends only on (ell_k, m_k) and on the density, which is fitted once
per run, so each term is computed once and stored on the density under
(k, ell_k, m_k); every later evaluation, in any thread, reads it back.

A CDF value is the mean of ndtr((x - sample) / h) over the samples, and
only the samples within SATURATION bandwidths of x can move it.  ndtr
rounds to exactly 1.0 from about z = 8.29 on, so a sample at z >= SATURATION
adds exactly its count; one at z <= -SATURATION adds at most 5.3e-17, so
leaving all of those out moves the mean by less than half the spacing of
doubles near 1.  The density keeps each frequency's samples sorted and
de-duplicated (a bootstrap pool repeats whole images), so the saturated
samples are one cumulative count and ndtr runs only on the window between.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .blockdct import SpectrumSet
from .quantizer import NUM_FREQUENCIES, QuantizerSpec, bootstrap_frequencies

BANDWIDTH_FLOOR = 1e-6
SATURATION = 8.3  # |z| beyond which a kernel's CDF term is 0 or 1 to rounding


@dataclass(frozen=True)
class FrequencyDensity:
    """Gaussian-KDE model per frequency: sample points plus bandwidths.

    `rates` holds every r_k computed so far, keyed by (k, ell_k, m_k), and
    `support` holds each frequency's sorted distinct samples, their counts
    and the cumulative counts before each, for the life of the density;
    `samples` and `bandwidth` must therefore not be changed after fitting.
    """

    samples: np.ndarray    # (64, N) pooled coefficients, image-major order
    bandwidth: np.ndarray  # (64,) positive reals
    seed: int
    s: int
    rates: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_FREQUENCIES:
            raise ValueError("samples must be a (64, N) array")
        if self.samples.shape[1] < 1:
            raise ValueError("every frequency needs at least one sample")
        if (self.bandwidth <= 0).any():
            raise ValueError("bandwidths must be positive")
        support = []
        for row in self.samples:
            values, counts = np.unique(row, return_counts=True)
            support.append((values, counts.astype(np.float64),
                            np.concatenate([[0.0], np.cumsum(counts, dtype=np.float64)])))
        object.__setattr__(self, "support", tuple(support))

    def cdf(self, k: int, x) -> np.ndarray:
        """Mixture CDF of frequency k evaluated at x (scalar or array).

        Samples at least SATURATION bandwidths below x count in full and
        those as far above are left out; ndtr runs on the samples between,
        so the value equals the sum over every sample up to rounding.
        """
        x = np.asarray(x, dtype=np.float64)
        values, counts, before = self.support[k]
        h = self.bandwidth[k]
        flat = x.ravel()
        lo = np.searchsorted(values, flat - SATURATION * h, side="right")
        width = np.searchsorted(values, flat + SATURATION * h, side="left") - lo
        # edge i's terms are starts[i]:starts[i] + width[i] of one flat array
        starts = np.cumsum(width) - width
        window = np.arange(width.sum()) + np.repeat(lo - starts, width)
        z = (np.repeat(flat, width) - values[window]) / h
        terms = counts[window] * ndtr(z)
        inside = np.zeros(flat.shape)
        nonempty = width > 0
        if nonempty.any():
            inside[nonempty] = np.add.reduceat(terms, starts[nonempty])
        return ((before[lo] + inside) / self.samples.shape[1]).reshape(x.shape)


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Rowwise Silverman rule 0.9 min(sigma, IQR/1.34) N^(-1/5), floored."""
    n = samples.shape[-1]
    sigma = samples.std(axis=-1)
    q75, q25 = np.percentile(samples, [75, 25], axis=-1)
    spread = np.minimum(sigma, (q75 - q25) / 1.34)
    return np.maximum(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def fit_density(train: SpectrumSet, s: int, seed: int) -> FrequencyDensity:
    """Fit per-frequency KDEs over the pool bootstrap_frequencies draws.

    Passing the same (s, seed) as estimate_bounds reuses the identical pool.
    """
    samples = bootstrap_frequencies(train, s, seed)
    return FrequencyDensity(
        samples=samples,
        bandwidth=silverman_bandwidth(samples),
        seed=seed,
        s=s,
    )


def interval_partition(spec: QuantizerSpec, k: int):
    """Preimage intervals of the m_k output levels, ordered left to right.

    Returned as (lower, upper) float pairs covering the whole real line:
    the finite bounds are QuantizerSpec.edges(k), and the outermost are
    -inf/+inf because the tails fold into the extreme levels.
    """
    bounds = np.concatenate([[-np.inf], spec.edges(k), [np.inf]])
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass
class RateReport:
    """Per-frequency entropy rates in bits and their average."""

    per_frequency: np.ndarray  # (64,)
    average: float


def interval_masses(density: FrequencyDensity, spec: QuantizerSpec, k: int):
    """Probability mass of each quantization interval of frequency k."""
    intervals = interval_partition(spec, k)
    interior = np.array([hi for _, hi in intervals[:-1]])
    cdf = density.cdf(k, interior)
    masses = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return masses, intervals


def rate(density: FrequencyDensity, spec: QuantizerSpec) -> RateReport:
    """Entropy rate of every frequency under the given quantizer.

    Terms missing from `density.rates` are computed and stored.  Two threads
    that miss the same key compute the same bits, so no lock is taken.
    """
    per_frequency = np.empty(NUM_FREQUENCIES)
    for k in range(NUM_FREQUENCIES):
        key = (k, int(spec.bounds.ell[k]), int(spec.levels.m[k]))
        r_k = density.rates.get(key)
        if r_k is None:
            masses, _ = interval_masses(density, spec, k)
            positive = masses[masses > 0.0]
            r_k = density.rates[key] = -(positive * np.log2(positive)).sum()
        per_frequency[k] = r_k
    return RateReport(per_frequency=per_frequency, average=float(per_frequency.mean()))
