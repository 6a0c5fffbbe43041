"""Fisher discriminant subspaces in matrix form, solved in the span of the data.

Scatter matrices are built without explicit per-sample loops: with the
centering matrix H = I - (1/n) 1 1^T,

    S_T = X H X^T
    S_W = sum_j X_j H_j X_j^T

and the subspace maximizing tr(U^T S_T U) / tr(U^T S_W U) comes from the
generalized eigenproblem S_T u = lambda (|S_W| + eps I) u, where |S_W| is
the spectral absolute value of S_W.  The quantized variants replace one
factor of X with the quantized spectra X' and add a cross term weighted by
lambda; the products are symmetrized, which leaves both traces unchanged.
That cross term can make the quantized S_W indefinite; for the plain
scatters S_W is semidefinite and |S_W| = S_W, so one pencil covers both.

Each scatter is one product A (B - M)^T.  H and H_W, which applies each
class's H_j to that class's columns, are symmetric, so A H B^T = A (B H)^T
and sum_j A_j H_j B_j^T = A (B H_W)^T, where B H is B less its mean column
and B H_W is B less each column's class mean.  The plain pair takes
A = B = X; the quantized pair A = X' + lambda X and B = X'.

Every scatter has the form X A X'^T, so it lives in the span of the stacked
columns [X, X'].  A ScatterPair stands for an orthonormal basis Q (d' x r)
of a space holding that span, with the r x r scatters T = Q^T S_T Q and
W = Q^T S_W Q.  With fewer stacked columns than d' coordinates, Q comes from
the QR factorization [X, X'] = Q R (r <= 2n) and the scatters are built by
the same products on the coordinates R; otherwise Q = I (r = d') and they
are the d' x d' scatters.  This is exact: S_T = Q T Q^T, |S_W| = Q |W| Q^T,
and outside span(Q) S_T = 0, so the pencil's eigenvalues there are 0 and its
top p eigenpairs, when non-negative, are those of the r x r pencil
(T, |W| + eps I) lifted by Q.  Q is kept as the QR's Householder reflectors:
lifting the p eigenvectors and taking them back are each one LAPACK dormqr
on p columns, and the explicit d' x r Q is formed only when something reads
ScatterPair.basis.  Solve cost therefore scales with min(2n, d'), and no
d' x d' matrix is formed for undersampled data unless a caller reads s_t,
s_w or s_b.

One LAPACK, through scipy's wrappers, both makes the reflectors (dgeqrf)
and applies them (dormqr, dorgqr).  Those wrappers let other Python threads
run while LAPACK works, so solves running side by side in a thread pool
overlap their QRs; numpy's QR holds the interpreter for the whole call.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .blockdct import SpectrumSet
from .errors import ConsistencyError, DataError, NumericError


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


class ScatterPair:
    """Total and within-class scatter of one spectra set, S = Q M Q^T.

    The given matrices are the symmetric r x r scatters T and W in the
    coordinates of the basis Q (d' x r, orthonormal columns).  Q is held as
    reflectors = (a, tau), the Householder vectors of a QR factorization in
    LAPACK's layout (a is d' x r), or None for Q = I (r = d').  lift and
    coordinates apply Q and Q^T to a few columns without forming Q; basis,
    s_t, s_w and s_b form their d' x r or d' x d' arrays only when read.
    """

    def __init__(self, s_t: np.ndarray, s_w: np.ndarray, lam: float, kind: str,
                 reflectors: tuple[np.ndarray, np.ndarray] | None = None):
        self.t = s_t
        self.w = s_w
        self.lam = lam
        self.kind = kind  # "plain" or "quantized"
        self.reflectors = reflectors

    @property
    def shape(self) -> tuple[int, int]:
        """(d', r), the shape of Q."""
        r = self.t.shape[0]
        return (r, r) if self.reflectors is None else (self.reflectors[0].shape[0], r)

    def _apply(self, trans: str, c: np.ndarray) -> np.ndarray:
        """Q c ("N") or Q^T c ("T"), overwriting c, a Fortran-ordered d' x k array."""
        return _lapack(lapack.dormqr, "L", trans, *self.reflectors, c, overwrite_c=1)[0]

    def lift(self, z: np.ndarray) -> np.ndarray:
        """Q z: columns z in the pair's r coordinates as d' vectors."""
        if self.reflectors is None:
            return z
        padded = np.zeros((self.shape[0], z.shape[1]), order="F")
        padded[:z.shape[0]] = z
        return self._apply("N", padded)

    def coordinates(self, u: np.ndarray) -> np.ndarray:
        """Q^T u: d' vectors u in the pair's r coordinates."""
        if self.reflectors is None:
            return u
        return self._apply("T", np.array(u, order="F"))[:self.shape[1]]

    @cached_property
    def basis(self) -> np.ndarray:
        """Q itself, d' x r; np.eye(d') when Q = I."""
        if self.reflectors is None:
            return np.eye(self.shape[1])
        a, tau = self.reflectors
        return _lapack(lapack.dorgqr, a.copy(order="F"), tau, overwrite_a=1)[0]

    def _lift(self, a: np.ndarray) -> np.ndarray:
        return _sym(self.basis @ a @ self.basis.T)

    @cached_property
    def s_t(self) -> np.ndarray:
        return self._lift(self.t)

    @cached_property
    def s_w(self) -> np.ndarray:
        return self._lift(self.w)

    @property
    def s_b(self) -> np.ndarray:
        return self.s_t - self.s_w


def _lapack(routine, *args, **kwargs):
    """The outputs of a scipy LAPACK wrapper before its workspace and info.

    The call gets the workspace that a query (lwork = -1) asks for, so LAPACK
    takes its blocked path with the block size numpy's QR gets; the
    wrappers' default workspace (3n) forces a block of 3 columns, which is
    slower and rounds differently.  Pass overwrite_* = 1 for an array the caller owns: the
    query then reads it without a copy.  A non-zero info raises NumericError.
    """
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, info = routine(*args, lwork=lwork, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {routine.__name__} returned info = {info}")
    return out[:-1]


def _span_coordinates(*blocks: np.ndarray):
    """(reflectors, coordinates): the Householder reflectors (a, tau) of the
    QR factorization of the blocks' stacked columns, and each block in its
    basis Q, the column blocks of R = Q^T [blocks].  The stack is built
    Fortran-ordered and LAPACK's dgeqrf factors it in place, with the
    workspace it asks for: the call numpy's QR makes, so a, tau and R keep
    numpy's bytes, but scipy's wrapper lets other threads run while it
    works, so the swarm pool's evaluations overlap their QRs.  R is
    C-ordered like the reduced QR's, so the scatter products see the same
    bytes in the same layout.  With at least as many columns as rows there
    is no QR: the reflectors are None (Q = I) and the blocks are their own
    coordinates."""
    cols = sum(b.shape[1] for b in blocks)
    if cols >= blocks[0].shape[0]:
        return None, blocks
    stacked = np.empty((blocks[0].shape[0], cols), order="F")
    a, tau = _lapack(lapack.dgeqrf, np.concatenate(blocks, axis=1, out=stacked),
                     overwrite_a=1)
    r = np.ascontiguousarray(np.triu(a[:cols]))
    return (a, tau), np.hsplit(r, len(blocks))


def _scatter_products(a: np.ndarray, b: np.ndarray, labels: np.ndarray):
    """(A H B^T, A H_W B^T) as A (B - M)^T, with M the mean column of B and
    then each column's class mean; class ids may come in any order, with gaps."""
    _, cls, counts = np.unique(labels, return_inverse=True, return_counts=True)
    class_means = (b @ np.eye(counts.size)[cls]) / counts
    s_t = a @ (b - b.mean(axis=1, keepdims=True)).T
    s_w = a @ (b - class_means[:, cls]).T
    return s_t, s_w


def plain_scatters(spectra: SpectrumSet) -> ScatterPair:
    """S_T and S_W of unquantized spectra."""
    reflectors, (x,) = _span_coordinates(spectra.coeffs)
    s_t, s_w = _scatter_products(x, x, spectra.labels)
    return ScatterPair(s_t=_sym(s_t), s_w=_sym(s_w), lam=0.0, kind="plain",
                       reflectors=reflectors)


def quantized_scatters(
    spectra: SpectrumSet, quantized: SpectrumSet, lam: float
) -> ScatterPair:
    """Scatters mixing quantized spectra with a lam-weighted cross term."""
    if spectra.coeffs.shape != quantized.coeffs.shape:
        raise ConsistencyError("spectra and quantized spectra differ in shape")
    if not np.array_equal(spectra.labels, quantized.labels):
        raise ConsistencyError("spectra and quantized spectra labels differ")
    reflectors, (x, xq) = _span_coordinates(spectra.coeffs, quantized.coeffs)
    s_t, s_w = _scatter_products(xq + lam * x, xq, spectra.labels)
    return ScatterPair(s_t=_sym(s_t), s_w=_sym(s_w), lam=float(lam),
                       kind="quantized", reflectors=reflectors)


@dataclass
class Subspace:
    """Discriminant directions, one per column, best first."""

    u: np.ndarray            # (d', p)
    eigenvalues: np.ndarray  # (p,) descending
    epsilon: float

    @property
    def dim(self) -> int:
        return self.u.shape[1]


def solve_subspace(pair: ScatterPair, p: int, epsilon: float) -> Subspace:
    """Top-p generalized eigenpairs of (S_T, |S_W| + eps I), spectrum descending.

    The solve runs on the pair's r x r scatters (T, W): S_T vanishes outside
    the span of the pair's basis, so eigenvalues there are 0 and every
    non-zero one belongs to the r x r pencil (T, |W| + eps I).  With
    sym(W) = V diag(w) V^T, that pencil is whitened by
    B = V diag(|w| + eps)^(-1/2), and the top p eigenvectors Y of B^T T B
    lift back to d' coordinates as U = Q B Y.  The quantized within scatter
    is indefinite (its cross term subtracts an error-correlation matrix), so
    no tiny diagonal shift makes it definite; its spectral absolute value
    penalizes those artifact directions by the magnitude of their
    within-class energy and leaves semidefinite inputs unchanged.  Columns
    keep unit norm under |S_W| + eps I, with the largest-magnitude entry made
    positive so repeated solves agree exactly.  Asking for more directions
    than the span holds (p > r) raises DataError: the rest would be
    arbitrary directions with eigenvalue 0.
    """
    d, r = pair.shape
    if not 1 <= p <= d:
        raise ValueError(f"subspace dimension {p} outside [1, {d}]")
    if p > r:
        raise DataError(f"cannot take {p} discriminant directions from data "
                        f"spanning only r = {r} of {d} dimensions")
    try:
        w, v = np.linalg.eigh(pair.w)
        whiten = v / np.sqrt(np.abs(w) + epsilon)
        m_std = _sym(whiten.T @ pair.t @ whiten)
        vals, y = scipy.linalg.eigh(m_std, subset_by_index=[r - p, r - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigensolve failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NumericError("eigensolve produced non-finite eigenvalues")
    vecs = pair.lift(whiten @ y)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1]  # eigh sorts ascending
    anchors = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[anchors, np.arange(p)])
    signs[signs == 0] = 1.0
    return Subspace(u=vecs * signs, eigenvalues=vals, epsilon=float(epsilon))


def criterion(pair: ScatterPair, subspace: Subspace, q: int | None = None) -> float:
    """tr(U^T S_T U) / tr(U^T (S_W + eps I) U) over the first q directions.

    Uses the shift the subspace was solved with.  The columns of an eigen-U
    are normalized under |S_W| + eps I, not S_W + eps I, so the denominator
    is q only when S_W is semidefinite, as for the plain scatters; for an
    indefinite quantized S_W it is close to q but not equal.  The scatter
    traces are taken in the pair's basis, with V = Q^T U against the r x r
    scatters; only the shift term needs U itself.
    """
    u = subspace.u if q is None else subspace.u[:, :q]
    v = pair.coordinates(u)
    num = np.trace(v.T @ pair.t @ v)
    den = np.trace(v.T @ pair.w @ v) + subspace.epsilon * np.trace(u.T @ u)
    if den <= 0:
        raise NumericError(f"within-class trace {den!r} is not positive")
    return float(num / den)
