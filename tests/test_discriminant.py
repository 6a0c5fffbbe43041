import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qfda.blockdct import BlockLayout, SpectrumSet
from qfda.discriminant import (
    ScatterPair,
    Subspace,
    _lapack,
    _scatter_products,
    criterion,
    plain_scatters,
    quantized_scatters,
    solve_subspace,
)
from qfda.errors import ConsistencyError, DataError, FormatError, NumericError
from qfda.modelio import load_subspace, save_subspace
from qfda.pso import CostContext, evaluate_cost
from qfda.quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    estimate_bounds,
    quantize,
)
from qfda.rate import fit_density

from helpers import gaussian_class_spectra

EPS = 1e-7


def spectrum_set(coeffs, labels):
    layout = BlockLayout.for_image(8, 8 * (coeffs.shape[0] // 64))
    return SpectrumSet(coeffs=coeffs, layout=layout,
                       labels=np.asarray(labels, dtype=np.int64))


def scatter_oracle(x, labels):
    """Per-sample outer-product sums, the textbook definitions."""
    d, n = x.shape
    mu = x.mean(axis=1)
    s_t = np.zeros((d, d))
    for i in range(n):
        diff = x[:, i] - mu
        s_t += np.outer(diff, diff)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for j in np.unique(labels):
        xj = x[:, labels == j]
        mu_j = xj.mean(axis=1)
        for i in range(xj.shape[1]):
            diff = xj[:, i] - mu_j
            s_w += np.outer(diff, diff)
        gap = mu_j - mu
        s_b += xj.shape[1] * np.outer(gap, gap)
    return s_t, s_w, s_b


class TestPlainScatters:
    def test_hand_example(self):
        # two samples (1,1) and (3,1) in the first two coordinates: the
        # centered outer products give S_T = [[2,0],[0,0]]
        coeffs = np.zeros((64, 2))
        coeffs[0] = [1.0, 3.0]
        coeffs[1] = [1.0, 1.0]
        pair = plain_scatters(spectrum_set(coeffs, [0, 0]))
        np.testing.assert_allclose(pair.s_t[:2, :2], [[2, 0], [0, 0]],
                                   atol=1e-12)
        assert np.abs(pair.s_t[2:]).max() == 0
        np.testing.assert_allclose(pair.s_w, pair.s_t, atol=1e-12)

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = rng.integers(10, 60)
            c = rng.integers(2, 6)
            x = rng.normal(0, 3, size=(64, n))
            labels = rng.integers(0, c, size=n)
            labels[:c] = np.arange(c)  # every class occupied
            pair = plain_scatters(spectrum_set(x, labels))
            s_t, s_w, s_b = scatter_oracle(x, labels)
            scale = np.abs(s_t).max()
            np.testing.assert_allclose(pair.s_t, s_t, atol=1e-8 * scale)
            np.testing.assert_allclose(pair.s_w, s_w, atol=1e-8 * scale)
            np.testing.assert_allclose(pair.s_b, s_b, atol=1e-8 * scale)

    def test_singleton_classes_have_zero_within(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 5))
        pair = plain_scatters(spectrum_set(x, np.arange(5)))
        np.testing.assert_array_equal(pair.s_w, np.zeros((64, 64)))


class TestQuantizedScatters:
    def test_identity_quantizer_lam_zero_reduces_to_plain(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=(64, 30))
        labels = np.arange(30) % 3
        spectra = spectrum_set(x, labels)
        pair = quantized_scatters(spectra, spectra, lam=0.0)
        plain = plain_scatters(spectra)
        np.testing.assert_allclose(pair.s_t, plain.s_t, atol=1e-10)
        np.testing.assert_allclose(pair.s_w, plain.s_w, atol=1e-10)

    def test_identity_quantizer_lam_doubles(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 2, size=(64, 20))
        spectra = spectrum_set(x, np.arange(20) % 2)
        pair = quantized_scatters(spectra, spectra, lam=1.0)
        plain = plain_scatters(spectra)
        np.testing.assert_allclose(pair.s_t, 2 * plain.s_t, atol=1e-10)
        np.testing.assert_allclose(pair.s_w, 2 * plain.s_w, atol=1e-10)

    def test_lam_zero_uses_quantized_spectra_only(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 4, size=(64, 25))
        labels = np.arange(25) % 2
        spectra = spectrum_set(x, labels)
        coarse = spectrum_set(np.round(x), labels)
        pair = quantized_scatters(spectra, coarse, lam=0.0)
        plain_q = plain_scatters(coarse)
        np.testing.assert_allclose(pair.s_t, plain_q.s_t, atol=1e-10)
        np.testing.assert_allclose(pair.s_w, plain_q.s_w, atol=1e-10)

    def test_outputs_exactly_symmetric(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 4, size=(64, 25))
        labels = np.arange(25) % 2
        pair = quantized_scatters(spectrum_set(x, labels),
                                  spectrum_set(np.round(x), labels), lam=0.7)
        np.testing.assert_array_equal(pair.s_t, pair.s_t.T)
        np.testing.assert_array_equal(pair.s_w, pair.s_w.T)

    def test_mismatches_rejected(self):
        rng = np.random.default_rng(11)
        a = spectrum_set(rng.normal(size=(64, 10)), np.zeros(10))
        b = spectrum_set(rng.normal(size=(64, 9)), np.zeros(9))
        with pytest.raises(ConsistencyError):
            quantized_scatters(a, b, lam=0.5)
        c = spectrum_set(rng.normal(size=(64, 10)), np.arange(10) % 2)
        with pytest.raises(ConsistencyError):
            quantized_scatters(a, c, lam=0.5)


def random_pd_pair(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d + 3))
    h = rng.normal(size=(d, d + 3))
    a = g @ g.T
    b = h @ h.T + np.eye(d)
    return ScatterPair(s_t=a, s_w=b, lam=0.0, kind="plain")


class TestSolveSubspace:
    def test_matches_generic_eigensolver(self):
        for seed in range(5):
            pair = random_pd_pair(12, seed)
            sub = solve_subspace(pair, p=5, epsilon=EPS)
            vals = scipy.linalg.eig(pair.s_t, pair.s_w + EPS * np.eye(12),
                                    right=False)
            vals = np.sort(vals.real)[::-1][:5]
            np.testing.assert_allclose(sub.eigenvalues, vals, rtol=1e-8)

    def test_residual_bound(self):
        pair = random_pd_pair(20, 42)
        sub = solve_subspace(pair, p=6, epsilon=EPS)
        shifted = pair.s_w + EPS * np.eye(20)
        for i in range(6):
            u = sub.u[:, i]
            resid = pair.s_t @ u - sub.eigenvalues[i] * (shifted @ u)
            assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(pair.s_t)

    def test_descending_order_and_normalization(self):
        pair = random_pd_pair(15, 3)
        sub = solve_subspace(pair, p=15, epsilon=EPS)
        assert (np.diff(sub.eigenvalues) <= 1e-9).all()
        gram = sub.u.T @ (pair.s_w + EPS * np.eye(15)) @ sub.u
        np.testing.assert_allclose(gram, np.eye(15), atol=1e-8)

    def test_sign_convention_and_determinism(self):
        pair = random_pd_pair(10, 4)
        a = solve_subspace(pair, p=4, epsilon=EPS)
        b = solve_subspace(pair, p=4, epsilon=EPS)
        assert a.u.tobytes() == b.u.tobytes()
        anchors = np.abs(a.u).argmax(axis=0)
        assert (a.u[anchors, np.arange(4)] > 0).all()

    def test_dimension_validation(self):
        pair = random_pd_pair(6, 5)
        with pytest.raises(ValueError):
            solve_subspace(pair, p=0, epsilon=EPS)
        with pytest.raises(ValueError):
            solve_subspace(pair, p=7, epsilon=EPS)

    def test_indefinite_within_falls_back_to_spectral_abs(self):
        # an indefinite within matrix defeats the Cholesky route; the
        # fallback must agree with solving against Q |w| Q^T + eps I
        rng = np.random.default_rng(13)
        g = rng.normal(size=(8, 10))
        a = g @ g.T
        w = np.array([4.0, 2.0, 1.0, 0.5, 0.1, -0.2, -1.0, -3.0])
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        b = q @ np.diag(w) @ q.T
        pair = ScatterPair(s_t=a, s_w=0.5 * (b + b.T), lam=1.0,
                           kind="quantized")
        sub = solve_subspace(pair, p=3, epsilon=EPS)

        ww, qq = np.linalg.eigh(0.5 * (b + b.T))
        b_abs = (qq * np.abs(ww)) @ qq.T + EPS * np.eye(8)
        vals, vecs = scipy.linalg.eigh(0.5 * (a + a.T), b_abs)
        np.testing.assert_allclose(sub.eigenvalues, vals[::-1][:3], rtol=1e-6)
        for i in range(3):
            v = vecs[:, ::-1][:, i]
            v = v * np.sign(v[np.abs(v).argmax()])
            np.testing.assert_allclose(sub.u[:, i], v, atol=1e-6)

    def test_one_route_never_passes_a_second_matrix(self, monkeypatch):
        # definite and indefinite within matrices take the same whitening
        # route: eigh only ever sees standard (single-matrix) problems
        calls = []
        eigh = scipy.linalg.eigh

        def recording_eigh(a, b=None, *args, **kwargs):
            calls.append(b)
            return eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        indefinite = q @ np.diag([3.0, 1.0, 0.5, 0.1, -0.1, -0.5, -1.0, -2.0]) @ q.T
        definite = random_pd_pair(8, 23)
        pairs = [definite,
                 ScatterPair(s_t=definite.s_t, s_w=indefinite, lam=1.0,
                             kind="quantized")]
        for pair in pairs:
            for p in (3, 8):
                solve_subspace(pair, p=p, epsilon=EPS)
        assert len(calls) == 4
        assert all(b is None for b in calls)

    def test_quantized_pipeline_scatters_solvable(self):
        # coarse quantization with a cross term drives the within scatter
        # indefinite; the solve must still return a usable subspace
        x, labels = gaussian_class_spectra(n_per_class=25, seed=2)
        spectra = spectrum_set(x * 3.0, labels)
        bounds = BoundVector(
            ell=np.maximum(2, np.ceil(np.abs(spectra.coeffs).max(axis=1))
                           .astype(np.int64)))
        spec = QuantizerSpec(bounds=bounds,
                             levels=LevelVector(m=np.full(64, 2, np.int64)))
        pair = quantized_scatters(spectra, quantize(spectra, spec), lam=2.0)
        assert np.linalg.eigvalsh(pair.s_w).min() < -EPS
        sub = solve_subspace(pair, p=5, epsilon=EPS)
        assert np.isfinite(sub.u).all()
        assert criterion(pair, sub) > 0


class TestCriterion:
    def test_proportional_pencil_gives_exact_ratio(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(9, 12))
        b = h @ h.T
        a = 2.0 * (b + EPS * np.eye(9))
        pair = ScatterPair(s_t=a, s_w=b, lam=0.0, kind="plain")
        sub = solve_subspace(pair, p=4, epsilon=EPS)
        assert criterion(pair, sub) == pytest.approx(2.0, abs=1e-9)

    def test_eigen_subspace_maximizes(self):
        pair = random_pd_pair(10, 15)
        sub = solve_subspace(pair, p=3, epsilon=EPS)
        best = criterion(pair, sub)
        rng = np.random.default_rng(16)
        for _ in range(100):
            u, _ = np.linalg.qr(rng.normal(size=(10, 3)))
            trial = criterion(pair, Subspace(u=u, eigenvalues=np.zeros(3),
                                             epsilon=EPS))
            assert trial <= best + 1e-9

    def test_q_slice_matches_manual_trace(self):
        pair = random_pd_pair(8, 17)
        sub = solve_subspace(pair, p=5, epsilon=EPS)
        u = sub.u[:, :2]
        manual = np.trace(u.T @ pair.s_t @ u) / (
            np.trace(u.T @ pair.s_w @ u) + EPS * np.trace(u.T @ u))
        assert criterion(pair, sub, q=2) == pytest.approx(manual, rel=1e-12)

    def test_zero_denominator_rejected(self):
        pair = random_pd_pair(5, 18)
        dead = Subspace(u=np.zeros((5, 2)), eigenvalues=np.zeros(2),
                        epsilon=EPS)
        with pytest.raises(NumericError):
            criterion(pair, dead)


def quantized_pair_spectra(d, n, seed):
    """Two-class spectra with d' = d and a coarse 2-level quantization."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, size=(d, n))
    x[:, 1::2] += rng.normal(0, 3, size=(d, 1))
    labels = np.arange(n) % 2
    spectra = spectrum_set(x, labels)
    bounds = BoundVector(ell=np.full(64, int(np.ceil(np.abs(x).max()))))
    spec = QuantizerSpec(bounds=bounds,
                         levels=LevelVector(m=np.full(64, 2, np.int64)))
    return spectra, quantize(spectra, spec)


class TestSpanReduction:
    def test_lifted_scatters_match_oracle_and_direct_products(self):
        rng = np.random.default_rng(30)
        d, n = 1024, 30
        x = rng.normal(0, 3, size=(d, n))
        labels = np.arange(n) % 3
        pair = plain_scatters(spectrum_set(x, labels))
        assert pair.basis.shape == (d, n) and pair.t.shape == (n, n)
        s_t, s_w, s_b = scatter_oracle(x, labels)
        scale = np.abs(s_t).max()
        np.testing.assert_allclose(pair.s_t, s_t, atol=1e-8 * scale)
        np.testing.assert_allclose(pair.s_w, s_w, atol=1e-8 * scale)
        np.testing.assert_allclose(pair.s_b, s_b, atol=1e-8 * scale)

        xq = np.round(x)
        lam = 0.7
        mixed = quantized_scatters(spectrum_set(x, labels),
                                   spectrum_set(xq, labels), lam)
        assert mixed.basis.shape == (d, 2 * n)
        xqc = xq - xq.mean(axis=1, keepdims=True)
        direct_t = xq @ xqc.T + lam * x @ xqc.T
        direct_w = np.zeros((d, d))
        for j in range(3):
            xj, xqj = x[:, labels == j], xq[:, labels == j]
            xqjc = xqj - xqj.mean(axis=1, keepdims=True)
            direct_w += xqj @ xqjc.T + lam * xj @ xqjc.T
        direct_t, direct_w = 0.5 * (direct_t + direct_t.T), 0.5 * (direct_w + direct_w.T)
        scale = np.abs(direct_t).max()
        np.testing.assert_allclose(mixed.s_t, direct_t, atol=1e-8 * scale)
        np.testing.assert_allclose(mixed.s_w, direct_w, atol=1e-8 * scale)
        np.testing.assert_array_equal(mixed.s_t, mixed.s_t.T)

    def test_reduced_solve_solves_the_full_pencil(self):
        # a shift of 1 keeps this pencil well conditioned; at EPS the top
        # eigenvalue is 1/eps-sized and its residual is rounding noise on
        # the d' path as much as on the reduced one
        d, p, eps = 256, 5, 1.0
        spectra, quantized = quantized_pair_spectra(d, 40, seed=31)
        pair = quantized_scatters(spectra, quantized, lam=2.0)
        assert pair.t.shape == (80, 80)
        sub = solve_subspace(pair, p, eps)
        w, q = np.linalg.eigh(pair.s_w)
        assert w.min() < -eps  # the indefinite case the spectral |S_W| is for
        shifted = (q * np.abs(w)) @ q.T + eps * np.eye(d)
        norm_t = np.linalg.norm(pair.s_t, 2)
        for i in range(p):
            u = sub.u[:, i]
            resid = np.linalg.norm(pair.s_t @ u - sub.eigenvalues[i] * (shifted @ u))
            assert resid <= 1e-6 * norm_t
        np.testing.assert_allclose(sub.u.T @ shifted @ sub.u, np.eye(p), atol=1e-8)
        vals = scipy.linalg.eigh(pair.s_t, shifted, eigvals_only=True)
        np.testing.assert_allclose(sub.eigenvalues, vals[::-1][:p], rtol=1e-8)
        u = sub.u
        manual = np.trace(u.T @ pair.s_t @ u) / (
            np.trace(u.T @ pair.s_w @ u) + eps * np.trace(u.T @ u))
        assert criterion(pair, sub) == pytest.approx(manual, rel=1e-10)

    def test_identity_basis_when_columns_reach_d_prime(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(64, 64))
        labels = np.arange(64) % 2
        plain = plain_scatters(spectrum_set(x, labels))
        np.testing.assert_array_equal(plain.basis, np.eye(64))
        np.testing.assert_array_equal(plain.s_t, 0.5 * (plain.t + plain.t.T))
        half = spectrum_set(x[:, :32], labels[:32])
        np.testing.assert_array_equal(quantized_scatters(half, half, lam=0.5).basis,
                                      np.eye(64))
        fewer = spectrum_set(x[:, :31], labels[:31])
        assert quantized_scatters(fewer, fewer, lam=0.5).basis.shape == (64, 62)

    def test_cost_path_forms_no_d_prime_square(self):
        d = 2048
        spectra, quantized = quantized_pair_spectra(d, 40, seed=33)
        tracemalloc.start()
        try:
            pair = quantized_scatters(spectra, quantized, lam=0.5)
            criterion(pair, solve_subspace(pair, 20, EPS))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 / 4

    def test_more_directions_than_the_span_rejected(self):
        rng = np.random.default_rng(34)
        pair = plain_scatters(spectrum_set(rng.normal(size=(64, 5)),
                                           np.arange(5) % 2))
        assert solve_subspace(pair, 5, EPS).dim == 5
        with pytest.raises(DataError, match="6 .* r = 5"):
            solve_subspace(pair, 6, EPS)


class TestHouseholderBasis:
    def test_scatters_are_the_products_on_the_reduced_qr_r(self):
        # the reflectors come from the same QR as the reduced factorization,
        # so T and W are the bytes the explicit-Q code built
        d, n, lam = 1024, 60, 0.5
        spectra, quantized = quantized_pair_spectra(d, n, seed=36)
        x, xq, labels = spectra.coeffs, quantized.coeffs, spectra.labels
        r = np.linalg.qr(np.hstack([x, xq]))[1]
        rx, rq = np.hsplit(r, 2)
        s_t, s_w = _scatter_products(rq + lam * rx, rq, labels)
        pair = quantized_scatters(spectra, quantized, lam)
        np.testing.assert_array_equal(pair.t, 0.5 * (s_t + s_t.T))
        np.testing.assert_array_equal(pair.w, 0.5 * (s_w + s_w.T))

        s_t, s_w = _scatter_products(*[np.linalg.qr(x)[1]] * 2, labels)
        plain = plain_scatters(spectra)
        np.testing.assert_array_equal(plain.t, 0.5 * (s_t + s_t.T))
        np.testing.assert_array_equal(plain.w, 0.5 * (s_w + s_w.T))

    @pytest.mark.parametrize("d", [256, 64])
    def test_lift_and_coordinates_match_the_explicit_basis(self, d):
        # d' = 256 keeps reflectors of an 80-column span; d' = 64 is Q = I
        spectra, quantized = quantized_pair_spectra(d, 40, seed=37)
        pair = quantized_scatters(spectra, quantized, lam=2.0)
        _, r = pair.shape
        assert pair.basis.shape == (d, min(d, 80))
        rng = np.random.default_rng(38)
        z = rng.normal(size=(r, 7))
        u = rng.normal(size=(d, 7))
        expected = pair.basis @ z
        np.testing.assert_allclose(pair.lift(z), expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())
        expected = pair.basis.T @ u
        got = pair.coordinates(u)
        assert got.shape == (r, 7)
        np.testing.assert_allclose(got, expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_allclose(pair.coordinates(pair.lift(z)), z,
                                   rtol=0, atol=1e-12 * np.abs(z).max())

    def test_cost_path_never_forms_q(self):
        spectra, quantized = quantized_pair_spectra(1024, 60, seed=39)
        pair = quantized_scatters(spectra, quantized, lam=0.5)
        sub = solve_subspace(pair, 20, EPS)
        u = sub.u.copy()
        criterion(pair, sub)
        assert "basis" not in vars(pair)
        assert "s_t" not in vars(pair) and "s_w" not in vars(pair)
        # coordinates works on its own copy: the subspace is left as solved
        np.testing.assert_array_equal(sub.u, u)



class TestLapackFactorization:
    """The span QR is scipy's dgeqrf with its queried workspace: numpy's
    blocked factorization, byte for byte, without numpy's QR on the cost path."""

    def test_reflectors_are_numpys_raw_qr(self):
        # 240 stacked columns take LAPACK's blocked path
        spectra, quantized = quantized_pair_spectra(1024, 120, seed=40)
        x, xq = spectra.coeffs, quantized.coeffs
        for pair, blocks in [(quantized_scatters(spectra, quantized, lam=0.5), [x, xq]),
                             (plain_scatters(spectra), [x])]:
            h, tau = np.linalg.qr(np.hstack(blocks), mode="raw")
            a, got_tau = pair.reflectors
            np.testing.assert_array_equal(a, h.T)
            np.testing.assert_array_equal(got_tau, tau)

    def test_basis_is_numpys_reduced_q(self):
        spectra, quantized = quantized_pair_spectra(1024, 120, seed=41)
        pair = quantized_scatters(spectra, quantized, lam=0.5)
        a = pair.reflectors[0].copy()
        q = np.linalg.qr(np.hstack([spectra.coeffs, quantized.coeffs]))[0]
        np.testing.assert_array_equal(pair.basis, q)
        # forming Q leaves the reflectors that lift and coordinates apply
        np.testing.assert_array_equal(pair.reflectors[0], a)

    def test_cost_path_never_calls_numpys_qr(self, monkeypatch):
        # numpy's QR holds the GIL for the whole call, so a swarm pool's
        # evaluations would queue behind each other's factorizations
        spectra, quantized = quantized_pair_spectra(1024, 40, seed=42)
        bounds = estimate_bounds(spectra, s=15, seed=0)
        density = fit_density(spectra, s=15, seed=0)
        ctx = CostContext(spectra=spectra, bounds=bounds, density=density,
                          epsilon=EPS, subspace_dim=5)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.qr called on the cost path")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        assert plain_scatters(spectra).reflectors is not None
        pair = quantized_scatters(spectra, quantized, lam=0.5)
        assert pair.reflectors is not None
        assert np.isfinite(criterion(pair, solve_subspace(pair, 5, EPS)))
        m = np.maximum(2, bounds.ell // 2)
        assert np.isfinite(evaluate_cost(m, ctx, gamma=0.1, lam=0.5).total)

    def test_nonzero_info_raises(self):
        def failing(a, lwork):
            return a, np.array([float(a.shape[0])]), -1

        with pytest.raises(NumericError, match="failing returned info = -1"):
            _lapack(failing, np.ones((4, 2)))

def quantized_scatter_oracle(x, xq, labels, lam):
    """The quantized scatters as a per-class loop of centered products."""
    def centered(a, b):
        return a @ (b - b.mean(axis=1, keepdims=True)).T

    def sym(a):
        return 0.5 * (a + a.T)

    s_t = sym(centered(xq, xq) + lam * centered(x, xq))
    s_w = np.zeros_like(s_t)
    for j in np.unique(labels):
        xj, xqj = x[:, labels == j], xq[:, labels == j]
        s_w += sym(centered(xqj, xqj) + lam * centered(xj, xqj))
    return s_t, s_w


class TestClassCentering:
    # unequal classes interleaved in a shuffled order, ids with gaps, one
    # singleton; d' = 256 takes the basis path, d' = 64 < n the Q = I path
    @pytest.mark.parametrize("d", [256, 64])
    def test_scatters_match_per_class_loop(self, d):
        rng = np.random.default_rng(35)
        labels = rng.permutation(np.repeat([7, 3, 12], [40, 29, 1]))
        x = rng.normal(0, 3, size=(d, labels.size))
        x += 4 * rng.normal(size=(d, 13))[:, labels]
        xq = np.round(x / 2) * 2
        lam = 0.7

        pair = plain_scatters(spectrum_set(x, labels))
        assert (pair.basis.shape[1] == d) == (d < labels.size)
        s_t, s_w, s_b = scatter_oracle(x, labels)
        scale = np.abs(s_t).max()
        np.testing.assert_allclose(pair.s_t, s_t, atol=1e-8 * scale)
        np.testing.assert_allclose(pair.s_w, s_w, atol=1e-8 * scale)
        np.testing.assert_allclose(pair.s_b, s_b, atol=1e-8 * scale)

        mixed = quantized_scatters(spectrum_set(x, labels),
                                   spectrum_set(xq, labels), lam)
        assert (mixed.basis.shape[1] == d) == (d < labels.size)
        s_t, s_w = quantized_scatter_oracle(x, xq, labels, lam)
        scale = np.abs(s_t).max()
        np.testing.assert_allclose(mixed.s_t, s_t, atol=1e-8 * scale)
        np.testing.assert_allclose(mixed.s_w, s_w, atol=1e-8 * scale)


class TestSubspaceIO:
    def test_round_trip_exact(self, tmp_path):
        pair = random_pd_pair(11, 20)
        sub = solve_subspace(pair, p=4, epsilon=EPS)
        path = tmp_path / "subspace.bin"
        save_subspace(path, sub)
        back = load_subspace(path)
        np.testing.assert_array_equal(back.u, sub.u)
        np.testing.assert_array_equal(back.eigenvalues, sub.eigenvalues)
        assert back.epsilon == sub.epsilon

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "subspace.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_subspace(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        pair = random_pd_pair(5, 21)
        sub = solve_subspace(pair, p=2, epsilon=EPS)
        path = tmp_path / "subspace.bin"
        save_subspace(path, sub)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_subspace(path)

    def test_truncated_file_rejected(self, tmp_path):
        sub = solve_subspace(random_pd_pair(6, 24), p=3, epsilon=EPS)
        path = tmp_path / "subspace.bin"
        save_subspace(path, sub)
        data = path.read_bytes()
        for cut in (0, 3, 4, 10, 12, 19, 20, 21, 20 + 8 * 6, len(data) - 8,
                    len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_subspace(path)
