"""Entropy-based rate model for quantized DCT frequencies.

Each frequency's coefficient distribution is estimated with a Gaussian
kernel density over the bootstrap sample quantizer.bootstrap_frequencies
draws.  The probability mass p_t landing in each cell of the staircase,
whose edges QuantizerSpec.cell_edges gives, comes from the mixture CDF, and
the per-frequency rate is the interval entropy

    r_k = -sum_t p_t log2 p_t        (0 log 0 = 0)

averaged over the 64 frequencies to a single scalar.

Exact CDF.  A CDF value is the mean of ndtr((x - sample) / h) over the
samples, and only the samples within SATURATION bandwidths of x can move it.
ndtr rounds to exactly 1.0 from about z = 8.29 on, so a sample at
z >= SATURATION adds exactly its count; one at z <= -SATURATION adds at most
5.3e-17, so leaving all of those out moves the mean by less than half the
spacing of doubles near 1.  The density keeps each frequency's samples
sorted and de-duplicated (a bootstrap pool repeats whole images), so the
saturated samples are one cumulative count and ndtr runs only on the window
between.  FrequencyDensity.cdf is this sum.

CDF tables (a binned KDE: Silverman, Applied Statistics 1982; Wand, JCGS
1994).  A fill reads every cell edge, all 64 frequencies in one pass, into
tables of their CDFs, built once per density, and differences the values:
one interpolation per edge however many samples there are.  The table has
GRID_STEPS points per bandwidth and reaches GRID_MARGIN bandwidths beyond
the outermost samples; an edge outside it reads exactly 0 or 1.  The samples
are linearly binned onto the grid and convolved with ndtr(j / GRID_STEPS) by
one FFT, and the samples already saturated at a point add their cumulative
count.  Linear binning and linear interpolation each move a CDF value by at
most (delta/h)^2 max|phi'| / 8, so a table value is within TABLE_ERROR =
phi(1) / (4 GRID_STEPS^2) = 1.5e-5 of the exact sum.  A frequency whose table
would need more than TABLE_LIMIT points per sample (fewer than 289 samples,
or a wide span at a small bandwidth) keeps the exact sum instead.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .blockdct import SpectrumSet
from .quantizer import NUM_FREQUENCIES, QuantizerSpec, bootstrap_frequencies

BANDWIDTH_FLOOR = 1e-6
SATURATION = 8.3  # |z| beyond which a kernel's CDF term is 0 or 1 to rounding
GRID_STEPS = 64   # CDF table points per bandwidth
GRID_MARGIN = 9   # bandwidths of table beyond the outermost samples
TABLE_LIMIT = 4   # most table points per sample; a larger table keeps the exact sum
TABLE_ERROR = float(np.exp(-0.5) / np.sqrt(2 * np.pi)) / (4 * GRID_STEPS ** 2)


@dataclass(frozen=True)
class FrequencyDensity:
    """Gaussian-KDE model per frequency: sample points plus bandwidths.

    `support` holds each frequency's sorted distinct samples, their counts
    and the cumulative counts before each.  `flat` is (values, offset, size,
    start): the 64 CDF tables end to end in one array, and per frequency its
    table's offset into it, its size (0 where the exact sum is kept) and its
    first grid point (NaN where exact), so frequency k's table is
    values[offset[k]:offset[k] + size[k]].  Both are built with the density,
    so `samples` and `bandwidth` must not be changed after fitting.
    """

    samples: np.ndarray    # (64, N) pooled coefficients, image-major order
    bandwidth: np.ndarray  # (64,) positive reals
    seed: int
    s: int
    support: tuple = field(init=False, repr=False, compare=False)
    flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] != NUM_FREQUENCIES \
                or self.samples.shape[1] < 1 or not np.isfinite(self.samples).all():
            raise ValueError("samples must be a finite (64, N) array with N >= 1")
        if np.shape(self.bandwidth) != (NUM_FREQUENCIES,) \
                or not (np.isfinite(self.bandwidth) & np.greater(self.bandwidth, 0)).all():
            raise ValueError("bandwidth must be a (64,) array of finite positive values")
        support = []
        for row in self.samples:
            values, counts = np.unique(row, return_counts=True)
            support.append((values, counts.astype(np.float64),
                            np.concatenate([[0.0], np.cumsum(counts, dtype=np.float64)])))
        object.__setattr__(self, "support", tuple(support))
        kernels = {}  # FFT length -> transform of the ndtr kernel
        start, tables = zip(*(self._table(k, kernels) for k in range(NUM_FREQUENCIES)))
        size = np.array([len(t) for t in tables])
        offset = np.cumsum(size) - size
        object.__setattr__(self, "flat", (np.concatenate(tables), offset, size, np.array(start)))

    def _table(self, k: int, kernels: dict):
        """Frequency k's first grid point and CDF table; NaN, empty if exact."""
        values, counts, _ = self.support[k]
        n = self.samples.shape[1]
        h = self.bandwidth[k]
        step = h / GRID_STEPS
        margin = GRID_MARGIN * GRID_STEPS
        span = (values[-1] - values[0]) / step
        if span + 2 * margin + 1 > TABLE_LIMIT * n:
            return np.nan, np.empty(0)
        size = int(np.ceil(span)) + 2 * margin + 1
        # linear binning: each distinct sample splits its count between the
        # two grid points around it
        u = margin + (values - values[0]) / step
        below = np.floor(u).astype(np.intp)
        above = (u - below) * counts
        weights = np.bincount(np.concatenate([below, below + 1]),
                              np.concatenate([counts - above, above]), minlength=size)
        # table[i] = sum_j weights[j] ndtr((i - j) / GRID_STEPS): the terms with
        # |i - j| <= reach by one FFT, the saturated ones (i - j > reach) as a
        # cumulative count
        reach = int(np.ceil(SATURATION * GRID_STEPS))
        length = 1 << (size + reach - 1).bit_length()
        if length not in kernels:
            kernel = ndtr(np.arange(-reach, reach + 1) / GRID_STEPS)
            kernels[length] = np.fft.rfft(kernel, length)
        table = np.fft.irfft(np.fft.rfft(weights, length) * kernels[length],
                             length)[reach:reach + size]
        table[reach + 1:] += np.cumsum(weights)[:size - reach - 1]
        return values[0] - margin * step, np.clip(table / n, 0.0, 1.0)

    def cdf(self, k: int, x) -> np.ndarray:
        """Mixture CDF of frequency k evaluated at x (scalar or array).

        Samples at least SATURATION bandwidths below x count in full and
        those as far above are left out; ndtr runs on the samples between,
        so the value equals the sum over every sample up to rounding.
        """
        if not 0 <= k < NUM_FREQUENCIES:
            raise ValueError(f"frequency index k={k} outside 0..{NUM_FREQUENCIES - 1}")
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

    def table_cdf(self, k, x) -> np.ndarray:
        """Mixture CDF at x, on the table of each point's frequency.

        k is an int or an array shaped like x, every entry in 0..63.  Within
        TABLE_ERROR of cdf, which a frequency without a table keeps.
        """
        x = np.asarray(x, dtype=np.float64)
        k = np.asarray(k)
        if k.size and not 0 <= k.min() <= k.max() < NUM_FREQUENCIES:
            bad = k.min() if k.min() < 0 else k.max()
            raise ValueError(f"frequency index k={bad} outside 0..{NUM_FREQUENCIES - 1}")
        k = np.broadcast_to(k, x.shape)
        flat, offset, size, start = self.flat
        out = np.empty(x.shape)
        tabled = size[k] > 0
        for j in np.unique(k[~tabled]):
            out[k == j] = self.cdf(j, x[k == j])
        k, x = k[tabled], x[tabled]
        u = (x - start[k]) / (self.bandwidth[k] / GRID_STEPS)
        i = np.clip(np.floor(u), 0, size[k] - 2).astype(np.intp)
        lo, hi = flat[offset[k] + i], flat[offset[k] + i + 1]
        inside = lo + (u - i) * (hi - lo)
        out[tabled] = np.where(u <= 0, 0.0, np.where(u >= size[k] - 1, 1.0, inside))
        return out


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
    """Frequency k's cell masses, as rate reads them, beside interval_partition."""
    masses = np.diff(density.table_cdf(k, spec.edges(k)), prepend=0.0, append=1.0)
    return masses, interval_partition(spec, k)


def rate(density: FrequencyDensity, spec: QuantizerSpec) -> RateReport:
    """Entropy rate of every frequency under the given quantizer, in one pass."""
    m = spec.levels.m
    freq = np.repeat(np.arange(NUM_FREQUENCIES), m - 1)
    ends = np.cumsum(m + 1)  # one past each frequency's 0, CDF values, 1
    padded = np.zeros(ends[-1])
    padded[ends - 1] = 1.0
    padded[np.arange(len(freq)) + 2 * freq + 1] = density.table_cdf(freq, spec.cell_edges())
    masses = np.diff(padded)  # the 1 to the next frequency's 0 reads -1
    positive = masses > 0.0
    terms = masses[positive] * np.log2(masses[positive])
    last = np.cumsum(positive)[ends[:-1] - 2]  # positive masses up to each frequency's end
    per_frequency = -np.array([t.sum() for t in np.split(terms, last)])  # each in its own order
    return RateReport(per_frequency=per_frequency, average=float(per_frequency.mean()))
