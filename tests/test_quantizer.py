import numpy as np
import pytest

from qfda.blockdct import forward_dct
from qfda.blockdct import BlockLayout, SpectrumSet
from qfda.dataset import CenteredImageSet
from qfda.errors import DataError
from qfda.quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    bootstrap_indices,
    estimate_bounds,
    project_levels,
    quantize,
    quantize_values,
    staircase_params,
    vector_from_line,
)


def quantize_literal(values, ell, m):
    """Direct evaluation of the staircase definition, one value at a time.

    Valid away from breakpoints, where floor(t1|x|/ell) is unambiguous.
    """
    t1 = (m + 2) // 2 if m % 2 == 0 else (m + 1) // 2
    t2 = ell * (t1 - 2) / t1
    out = np.empty_like(values, dtype=np.float64)
    for i, x in enumerate(np.ravel(values)):
        x = min(max(x, -float(ell)), float(ell))
        if m % 2 == 0 and x <= -t2:
            x = -t2
        level = min(int(np.floor(t1 * abs(x) / ell)), t1 - 1)
        out[i] = np.sign(x) * (ell / (t1 - 1)) * level
    return out.reshape(np.shape(values))


def away_from_breakpoints(xs, ell, m, margin=1e-9):
    _, _, _, breakpoints = staircase_params(ell, m)
    keep = np.ones(len(xs), dtype=bool)
    for b in breakpoints:
        keep &= np.abs(np.abs(xs) - b) > margin
    return xs[keep]


class TestStaircaseParams:
    def test_figure_values(self):
        # ell=7 with m=5 and m=4 both have t1=3 and t2=7/3
        for m in (5, 4):
            t1, t2, step, breakpoints = staircase_params(7, m)
            assert t1 == 3
            assert t2 == pytest.approx(7 / 3, abs=0)
            assert step == pytest.approx(3.5, abs=0)
            np.testing.assert_allclose(breakpoints, [7 / 3, 14 / 3])

    def test_level_bounds_enforced(self):
        with pytest.raises(ValueError):
            staircase_params(7, 1)
        with pytest.raises(ValueError):
            staircase_params(7, 8)


class TestQuantizeValues:
    def test_five_level_alphabet(self):
        xs = away_from_breakpoints(np.arange(-8, 8.005, 0.01), 7, 5)
        ys = quantize_values(xs, 7, 5)
        assert set(np.unique(ys)) == {-7.0, -3.5, 0.0, 3.5, 7.0}

    def test_four_level_alphabet(self):
        xs = away_from_breakpoints(np.arange(-8, 8.005, 0.01), 7, 4)
        ys = quantize_values(xs, 7, 4)
        assert set(np.unique(ys)) == {-3.5, 0.0, 3.5, 7.0}

    def test_monotone_nondecreasing(self):
        xs = np.arange(-8, 8.005, 0.01)
        for m in (2, 3, 4, 5, 6, 7):
            ys = quantize_values(xs, 7, m)
            assert (np.diff(ys) >= 0).all()

    def test_matches_literal_definition(self):
        rng = np.random.default_rng(17)
        for ell in (2, 3, 5, 7, 11, 16):
            xs = rng.uniform(-ell - 1, ell + 1, size=500)
            for m in range(2, ell + 1):
                pts = away_from_breakpoints(xs, ell, m)
                np.testing.assert_array_equal(
                    quantize_values(pts, ell, m),
                    quantize_literal(pts, ell, m),
                )

    def test_alphabet_size_is_m(self):
        xs = np.arange(-16.5, 16.5, 0.001)
        for ell in range(2, 17):
            for m in range(2, ell + 1):
                pts = away_from_breakpoints(xs, ell, m)
                ys = quantize_values(pts, ell, m)
                assert len(np.unique(ys)) == m, (ell, m)

    def test_idempotent_bitwise(self):
        xs = np.arange(-9.0, 9.0, 0.0037)
        for ell in (3, 7, 9):
            for m in range(2, ell + 1):
                once = quantize_values(xs, ell, m)
                twice = quantize_values(once, ell, m)
                np.testing.assert_array_equal(once, twice)

    def test_odd_m_is_odd_function(self):
        xs = np.arange(0, 8, 0.01)
        for m in (3, 5, 7):
            plus = quantize_values(xs, 7, m)
            minus = quantize_values(-xs, 7, m)
            np.testing.assert_array_equal(minus, -plus)

    def test_even_m_negative_side_collapses(self):
        # even m keeps one fewer negative level: everything at or below -t2
        # lands on -t2's reconstruction value
        ys = quantize_values(np.array([-7.0, -5.0, -2.4]), 7, 4)
        np.testing.assert_array_equal(ys, [-3.5, -3.5, -3.5])


class TestVectors:
    def test_bound_vector_validation(self):
        with pytest.raises(ValueError):
            BoundVector(ell=np.ones(63, dtype=np.int64) * 4)
        with pytest.raises(ValueError):
            BoundVector(ell=np.concatenate([[1], np.full(63, 4)]))

    def test_line_round_trip(self):
        ell = np.arange(2, 66, dtype=np.int64)
        bounds = BoundVector(ell=ell)
        np.testing.assert_array_equal(vector_from_line(bounds.to_line()), ell)

    def test_spec_validation(self):
        bounds = BoundVector(ell=np.full(64, 5, dtype=np.int64))
        with pytest.raises(ValueError):
            QuantizerSpec(bounds=bounds,
                          levels=LevelVector(m=np.full(64, 6, dtype=np.int64)))
        with pytest.raises(ValueError):
            QuantizerSpec(bounds=bounds,
                          levels=LevelVector(m=np.full(64, 1, dtype=np.int64)))


class TestCellEdges:
    @staticmethod
    def staircase_edges(ell, m):
        t1, _, _, breakpoints = staircase_params(ell, m)
        return np.concatenate([-breakpoints[:m - t1][::-1], breakpoints])

    def test_matches_staircase_breakpoints_bytes(self):
        # m = 2, odd m, even m and m = ell on random ell up to 400: the
        # negative side must keep exactly the first m - t1 breakpoints
        rng = np.random.default_rng(11)
        for trial in range(40):
            ell = rng.integers(2, 401, size=64)
            ell[0] = 2
            odd = np.minimum(2 * rng.integers(1, ell // 2 + 1) + 1, ell)
            even = 2 * rng.integers(1, ell // 2 + 1)
            m = [np.full(64, 2), odd, even, ell][trial % 4].copy()
            m[1:4] = [min(3, ell[1]), 2 * (ell[2] // 2), ell[3]]
            spec = QuantizerSpec(bounds=BoundVector(ell=ell), levels=LevelVector(m=m))
            expected = [self.staircase_edges(int(ell[k]), int(m[k])) for k in range(64)]
            assert spec.cell_edges().tobytes() == np.concatenate(expected).tobytes()
            for k in (0, 1, 2, 3, 63):
                assert spec.edges(k).tobytes() == expected[k].tobytes()


class TestBootstrap:
    def test_deterministic_and_in_range(self):
        a = bootstrap_indices(50, 20, seed=9)
        b = bootstrap_indices(50, 20, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 50 and len(a) == 20

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            bootstrap_indices(0, 5, seed=0)


def spectra_fixture(pixels, h, w):
    n = pixels.shape[1]
    return forward_dct(CenteredImageSet(
        pixels=pixels, mean_image=np.zeros(h * w), height=h, width=w,
        labels=np.zeros(n, dtype=np.int64)))


class TestEstimateBounds:
    def test_rounding_of_peak(self):
        # constant images: DC = 8 * value, every other frequency 0
        pixels = np.full((64, 10), 1.3)
        spectra = spectra_fixture(pixels, 8, 8)
        bounds = estimate_bounds(spectra, s=10, seed=0)
        assert bounds.ell[0] == max(2, int(np.floor(8 * 1.3 + 0.5)))
        np.testing.assert_array_equal(bounds.ell[1:], np.full(63, 2))

    def test_bootstrap_contract(self):
        rng = np.random.default_rng(4)
        pixels = rng.uniform(-100, 100, size=(256, 30))
        spectra = spectra_fixture(pixels, 16, 16)
        idx = bootstrap_indices(30, 12, seed=5)
        manual = np.empty(64, dtype=np.int64)
        sampled = spectra.coeffs[:, idx]
        for k in range(64):
            peak = np.abs(sampled[k::64, :]).max()
            manual[k] = max(2, int(np.floor(peak + 0.5)))
        bounds = estimate_bounds(spectra, s=12, seed=5)
        np.testing.assert_array_equal(bounds.ell, manual)


class TestQuantizeSpectra:
    def test_per_frequency_application(self):
        rng = np.random.default_rng(21)
        pixels = rng.uniform(-80, 80, size=(256, 8))
        spectra = spectra_fixture(pixels, 16, 16)
        bounds = estimate_bounds(spectra, s=8, seed=1)
        m = np.minimum(bounds.ell, 4)
        spec = QuantizerSpec(bounds=bounds, levels=LevelVector(m=m))
        out = quantize(spectra, spec)
        for k in (0, 1, 13, 63):
            np.testing.assert_array_equal(
                out.coeffs[k::64, :],
                quantize_values(spectra.coeffs[k::64, :],
                                int(bounds.ell[k]), int(m[k])),
            )

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        pixels = rng.uniform(-80, 80, size=(64, 6))
        spectra = spectra_fixture(pixels, 8, 8)
        bounds = estimate_bounds(spectra, s=6, seed=0)
        spec = QuantizerSpec(
            bounds=bounds,
            levels=LevelVector(m=np.minimum(bounds.ell, 3)))
        once = quantize(spectra, spec)
        twice = quantize(once, spec)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_exact_breakpoints_match_searchsorted_reference(self):
        # every (ell <= 40, m) gets its own frequency of one spec; each is fed
        # its exact breakpoints, their float neighbours, +-0, +-ell and +-1e9,
        # and must give the bytes of a breakpoint search after the negative clip
        def reference(values, ell, m):
            t1, _, step, breakpoints = staircase_params(ell, m)
            clipped = np.maximum(values, -(m - t1) * ell / t1)
            return np.sign(values) * step * np.searchsorted(breakpoints, np.abs(clipped),
                                                            side="right")

        def inputs(ell, m):
            b = staircase_params(ell, m)[3]
            b = np.concatenate([b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)])
            return np.concatenate([b, -b, [0.0, -0.0, ell, -ell, 1e9, -1e9]])

        pairs = [(ell, m) for ell in range(2, 41) for m in range(2, ell + 1)]
        pairs = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
        layout = BlockLayout.for_image(16, 16)
        blocks = layout.blocks_per_image
        n = -(-len(inputs(40, 40)) // blocks)  # the most inputs of any pair
        for start in range(0, len(pairs), 64):
            chunk = pairs[start:start + 64]
            chunk += [(2, 2)] * (64 - len(chunk))
            stacked = np.zeros((64, blocks * n))
            for k, (ell, m) in enumerate(chunk):
                xs = inputs(ell, m)
                stacked[k, :len(xs)] = xs
            # row b * 64 + k of a spectrum holds frequency k of block b
            coeffs = stacked.reshape(64, blocks, n).transpose(1, 0, 2).reshape(-1, n)
            spectra = SpectrumSet(coeffs=coeffs.copy(), layout=layout,
                                  labels=np.zeros(n, dtype=np.int64))
            ell, m = (np.array(v, dtype=np.int64) for v in zip(*chunk))
            spec = QuantizerSpec(bounds=BoundVector(ell=ell), levels=LevelVector(m=m))
            got = quantize(spectra, spec).coeffs.reshape(blocks, 64, n)
            for k, (ell_k, m_k) in enumerate(chunk):
                expected = reference(coeffs.reshape(blocks, 64, n)[:, k, :], ell_k, m_k)
                assert got[:, k, :].tobytes() == expected.tobytes(), (ell_k, m_k)


class TestProjectLevels:
    def test_clamping_and_rounding(self):
        bounds = BoundVector(ell=np.full(64, 6, dtype=np.int64))
        raw = np.full(64, 3.2)
        raw[0] = 9.7    # above ell -> 6
        raw[1] = -4.0   # below 2 -> 2
        raw[2] = 4.5    # half rounds down -> 4
        raw[3] = 4.51   # -> 5
        out = project_levels(raw, bounds)
        assert out.m[0] == 6 and out.m[1] == 2
        assert out.m[2] == 4 and out.m[3] == 5
        assert (out.m[4:] == 3).all()

    def test_nonfinite_rejected(self):
        bounds = BoundVector(ell=np.full(64, 6, dtype=np.int64))
        raw = np.full(64, 3.0)
        raw[5] = np.nan
        with pytest.raises(ValueError):
            project_levels(raw, bounds)
