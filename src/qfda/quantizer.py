"""Per-frequency uniform quantization of block-DCT coefficients.

Every frequency k shares one staircase across all blocks and images, built
from a clipping bound ell_k and a level count m_k in {2, ..., ell_k}:

    t1 = floor(m_k / 2) + 1

which is the paper's parity form, (m_k + 2) / 2 for even m_k and
(m_k + 1) / 2 for odd m_k, in one expression.  The staircase maps a value to

    sign(x) * ell_k / (t1 - 1) * floor(t1 |x| / ell_k)

with the floor result capped at t1 - 1 for x >= 0, so the top output level
is exactly ell_k, and at m_k - t1 for x < 0, so the negative side has
m_k - t1 levels; for odd m_k that cap is t1 - 1, the same as the positive
side's.  The float floor, capped at t1 - 1, is corrected by one level up or
down where |x| lies across a breakpoint j * ell_k / t1 (the integer j * ell_k
divided once by t1), which is exact where the float floor alone can land one
level off.  ell_k and m_k broadcast, so one call quantizes all 64 frequencies.
"""

from dataclasses import dataclass

import numpy as np

from .blockdct import SpectrumSet
from .errors import DataError

NUM_FREQUENCIES = 64


@dataclass(frozen=True)
class BoundVector:
    """Per-frequency level bounds estimated from a bootstrap sample."""

    ell: np.ndarray  # (64,) int64, each >= 2
    bootstrap_seed: int = 0
    bootstrap_size: int = 0

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=np.int64)
        if ell.shape != (NUM_FREQUENCIES,):
            raise ValueError("bound vector must have 64 entries")
        if (ell < 2).any():
            raise ValueError("every bound must be at least 2")
        object.__setattr__(self, "ell", ell)

    def to_line(self) -> str:
        return ",".join(str(int(v)) for v in self.ell)


@dataclass(frozen=True)
class LevelVector:
    """Per-frequency quantization level counts, the optimization variable."""

    m: np.ndarray  # (64,) int64

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.int64)
        if m.shape != (NUM_FREQUENCIES,):
            raise ValueError("level vector must have 64 entries")
        object.__setattr__(self, "m", m)

    def to_line(self) -> str:
        return ",".join(str(int(v)) for v in self.m)


def vector_from_line(line: str) -> np.ndarray:
    return np.array([int(t) for t in line.strip().split(",")], dtype=np.int64)


def _first_level(ell, m):
    """t1 = floor(m / 2) + 1, elementwise, after checking 2 <= m <= ell."""
    ell, m = np.broadcast_arrays(ell, m)
    bad = (m < 2) | (m > ell)
    if bad.any():
        raise ValueError(f"level counts {m[bad]} outside [2, ell] for ell = {ell[bad]}")
    return m // 2 + 1


def staircase_params(ell: int, m: int):
    """(t1, t2, step, breakpoints) of the frequency staircase for (ell, m)."""
    t1 = int(_first_level(ell, m))
    t2 = ell * (t1 - 2) / t1
    step = ell / (t1 - 1)
    breakpoints = np.arange(1, t1) * ell / t1
    return t1, t2, step, breakpoints


def quantize_values(values: np.ndarray, ell, m) -> np.ndarray:
    """Apply the staircase of (ell, m), which broadcast against values.

    Scalars apply one frequency's staircase; (64, 1) columns over a
    (blocks, 64, n) view apply all 64 in one pass.
    """
    t1 = _first_level(ell, m)
    # values at or below -(m - t1) ell / t1, a breakpoint or 0, take the
    # negative side's last level, m - t1
    mag = np.abs(np.maximum(values, -(m - t1) * ell / t1))
    level = np.floor(mag * t1 / ell)
    # up one where |x| reaches breakpoint level + 1, cap at t1 - 1, down one
    # where |x| is below breakpoint level; out= holds the full-size arrays at
    # three, as numpy cannot reuse a temporary that meets a broadcast operand
    edge = np.add(level, 1)
    level += np.divide(np.multiply(edge, ell, out=edge), t1, out=edge) <= mag
    np.minimum(level, t1 - 1, out=level)
    level -= np.divide(np.multiply(level, ell, out=edge), t1, out=edge) > mag
    out = np.sign(values, out=mag)
    out *= ell / (t1 - 1)
    out *= level
    return out


@dataclass(frozen=True)
class QuantizerSpec:
    """A bound vector plus a level vector, validated against each other."""

    bounds: BoundVector
    levels: LevelVector

    def __post_init__(self):
        _first_level(self.bounds.ell, self.levels.m)

    def cell_edges(self) -> np.ndarray:
        """Each frequency's m_k - 1 cell edges j ell_k / t1, k after k.

        j runs over -(m_k - t1)..t1 - 1 but 0: the negative side keeps the
        first m_k - t1 breakpoints.  An edge is in the cell farther from zero.
        """
        m, ell = self.levels.m, self.bounds.ell
        t1 = _first_level(ell, m)
        freq = np.repeat(np.arange(NUM_FREQUENCIES), m - 1)
        first = np.cumsum(m - 1) - (m - 1)  # each frequency's first edge
        j = np.arange(len(freq)) - (first + m - t1)[freq]
        j += j >= 0
        return j * ell[freq] / t1[freq]

    def edges(self, k: int) -> np.ndarray:
        """Frequency k's m_k - 1 cell edges, its slice of cell_edges()."""
        if not 0 <= k < NUM_FREQUENCIES:
            raise ValueError(f"frequency index k={k} outside 0..{NUM_FREQUENCIES - 1}")
        end = int(np.sum(self.levels.m[:k + 1] - 1))
        return self.cell_edges()[end - int(self.levels.m[k]) + 1:end]


def bootstrap_indices(n: int, s: int, seed: int) -> np.ndarray:
    """Seeded with-replacement sample of s image indices out of n."""
    if n < 1:
        raise DataError("cannot bootstrap from an empty set")
    if s < 1:
        raise ValueError("bootstrap size must be at least 1")
    return np.random.default_rng(seed).integers(0, n, size=s)


def bootstrap_frequencies(train: SpectrumSet, s: int, seed: int) -> np.ndarray:
    """(64, N) coefficients of a bootstrap sample, image-major, per frequency.

    Every block of the s images bootstrap_indices(train.n, s, seed) draws is
    pooled; estimate_bounds and fit_density both read this pool.
    """
    idx = bootstrap_indices(train.n, s, seed)
    sub = train.coeffs[:, idx].reshape(train.layout.blocks_per_image, NUM_FREQUENCIES, s)
    return np.transpose(sub, (2, 0, 1)).reshape(-1, NUM_FREQUENCIES).T.copy()


def estimate_bounds(train: SpectrumSet, s: int, seed: int) -> BoundVector:
    """Per-frequency bounds: round the max |coefficient| over a bootstrap.

    The max runs over the bootstrap_frequencies pool; the result is
    floored at 2 so the admissible level set {2..ell_k} is never empty.
    """
    peak = np.abs(bootstrap_frequencies(train, s, seed)).max(axis=1)
    ell = np.maximum(2, np.floor(peak + 0.5).astype(np.int64))
    return BoundVector(ell=ell, bootstrap_seed=seed, bootstrap_size=s)


def quantize(spectra: SpectrumSet, spec: QuantizerSpec) -> SpectrumSet:
    """Quantize every coefficient with its frequency's staircase."""
    stacked = spectra.coeffs.reshape(spectra.layout.blocks_per_image, NUM_FREQUENCIES, spectra.n)
    out = quantize_values(stacked, spec.bounds.ell[:, None], spec.levels.m[:, None])
    return SpectrumSet(out.reshape(spectra.coeffs.shape), spectra.layout, spectra.labels.copy())


def project_levels(raw, bounds: BoundVector) -> LevelVector:
    """Project an arbitrary real 64-vector onto the feasible level lattice.

    Values above ell_k clamp to ell_k, values below 2 clamp to 2, and
    in-range values round via ceil(m - 0.5).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (NUM_FREQUENCIES,):
        raise ValueError("expected a 64-entry vector")
    if not np.isfinite(raw).all():
        raise ValueError("level vector entries must be finite")
    ell = bounds.ell.astype(np.float64)
    rounded = np.ceil(raw - 0.5)
    projected = np.where(raw > ell, ell, np.where(raw < 2.0, 2.0, rounded))
    return LevelVector(m=projected.astype(np.int64))
