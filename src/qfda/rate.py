"""Entropy-based rate model for quantized DCT frequencies.

Each frequency's coefficient distribution is estimated with a Gaussian
kernel density over a bootstrap sample.  The probability mass p_t landing
in each quantization interval comes from the closed-form mixture CDF, and
the per-frequency rate is the interval entropy

    r_k = -sum_t p_t log2 p_t        (0 log 0 = 0)

averaged over the 64 frequencies to a single scalar.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .blockdct import SpectrumSet
from .errors import DataError
from .quantizer import NUM_FREQUENCIES, QuantizerSpec, bootstrap_indices

BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class FrequencyDensity:
    """Gaussian-KDE model per frequency: sample points plus bandwidths."""

    samples: np.ndarray    # (64, N) pooled coefficients, image-major order
    bandwidth: np.ndarray  # (64,) positive reals
    seed: int
    s: int

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_FREQUENCIES:
            raise ValueError("samples must be a (64, N) array")
        if self.samples.shape[1] < 1:
            raise ValueError("every frequency needs at least one sample")
        if (self.bandwidth <= 0).any():
            raise ValueError("bandwidths must be positive")

    def cdf(self, k: int, x) -> np.ndarray:
        """Mixture CDF of frequency k evaluated at x (scalar or array)."""
        x = np.asarray(x, dtype=np.float64)
        z = (x[..., None] - self.samples[k]) / self.bandwidth[k]
        return ndtr(z).mean(axis=-1)


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Rowwise Silverman rule 0.9 min(sigma, IQR/1.34) N^(-1/5), floored."""
    n = samples.shape[-1]
    sigma = samples.std(axis=-1)
    q75, q25 = np.percentile(samples, [75, 25], axis=-1)
    spread = np.minimum(sigma, (q75 - q25) / 1.34)
    return np.maximum(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def fit_density(train: SpectrumSet, s: int, seed: int) -> FrequencyDensity:
    """Fit per-frequency KDEs over the bootstrap sample used for bounds.

    Passing the same (s, seed) as estimate_bounds reuses the identical image
    sample; all blocks of every sampled image are pooled per frequency.
    """
    if train.n < 1:
        raise DataError("cannot fit densities to an empty training set")
    idx = bootstrap_indices(train.n, s, seed)
    blocks = train.layout.blocks_per_image
    sub = train.coeffs[:, idx].reshape(blocks, NUM_FREQUENCIES, len(idx))
    samples = np.transpose(sub, (2, 0, 1)).reshape(-1, NUM_FREQUENCIES).T.copy()
    return FrequencyDensity(
        samples=samples,
        bandwidth=silverman_bandwidth(samples),
        seed=seed,
        s=s,
    )


def interval_partition(spec: QuantizerSpec, k: int):
    """Preimage intervals of the m_k output levels, ordered left to right.

    Returned as (lower, upper) float pairs covering the whole real line;
    the outermost bounds are -inf/+inf because clipping folds the tails
    into the extreme levels.  Negative finite boundaries belong to the
    interval on their left, positive ones to the interval on their right.
    """
    t1, _, _, breakpoints = spec.params(k)
    m = int(spec.levels.m[k])
    negatives = breakpoints[: t1 - 1 if m % 2 else t1 - 2]
    edges = np.concatenate([-negatives[::-1], breakpoints])
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
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
    """Entropy rate of every frequency under the given quantizer."""
    per_frequency = np.empty(NUM_FREQUENCIES)
    for k in range(NUM_FREQUENCIES):
        masses, _ = interval_masses(density, spec, k)
        positive = masses[masses > 0.0]
        per_frequency[k] = -(positive * np.log2(positive)).sum()
    return RateReport(per_frequency=per_frequency, average=float(per_frequency.mean()))


def rate_report_csv(report: RateReport, spec: QuantizerSpec) -> str:
    """CSV text: one (k, m_k, bits) row per frequency plus an average row."""
    lines = ["k,m,bits"]
    for k in range(NUM_FREQUENCIES):
        lines.append(
            f"{k},{int(spec.levels.m[k])},{float(report.per_frequency[k])!r}")
    lines.append(f"average,,{report.average!r}")
    return "\n".join(lines) + "\n"
