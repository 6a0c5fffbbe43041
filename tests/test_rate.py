import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from qfda.blockdct import forward_dct
from qfda.dataset import CenteredImageSet
from qfda.quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    bootstrap_indices,
    estimate_bounds,
    quantize_values,
)
from qfda.rate import (
    BANDWIDTH_FLOOR,
    GRID_STEPS,
    SATURATION,
    TABLE_ERROR,
    FrequencyDensity,
    fit_density,
    interval_masses,
    interval_partition,
    rate,
    silverman_bandwidth,
)


def uniform_spec(ell, m):
    return QuantizerSpec(
        bounds=BoundVector(ell=np.full(64, ell, dtype=np.int64)),
        levels=LevelVector(m=np.full(64, m, dtype=np.int64)),
    )


def tabled(density):
    """Which frequencies have a CDF table: a nonzero size in density.flat."""
    return density.flat[2] > 0


def table_of(density, k):
    """Frequency k's first grid point and its CDF table, a slice of density.flat."""
    values, offset, size, start = density.flat
    return start[k], values[offset[k]:offset[k] + size[k]]


def flat_density(samples_1d, bandwidth=1.0):
    """Same 1-D sample set replicated over all 64 frequencies."""
    samples = np.tile(np.asarray(samples_1d, dtype=np.float64), (64, 1))
    return FrequencyDensity(
        samples=samples,
        bandwidth=np.full(64, bandwidth),
        seed=0,
        s=len(samples_1d),
    )


class TestIntervalPartition:
    def test_interval_count_matches_levels(self):
        for ell in (2, 5, 7, 11):
            for m in range(2, ell + 1):
                intervals = interval_partition(uniform_spec(ell, m), 0)
                assert len(intervals) == m, (ell, m)

    def test_contiguous_cover_of_real_line(self):
        intervals = interval_partition(uniform_spec(9, 6), 3)
        assert intervals[0][0] == -np.inf
        assert intervals[-1][1] == np.inf
        for (_, hi), (lo, _) in zip(intervals[:-1], intervals[1:]):
            assert hi == lo

    def test_two_level_shape(self):
        intervals = interval_partition(uniform_spec(7, 2), 0)
        assert intervals == [(-np.inf, 3.5), (3.5, np.inf)]

    def test_five_level_boundaries(self):
        intervals = interval_partition(uniform_spec(7, 5), 0)
        edges = [hi for _, hi in intervals[:-1]]
        np.testing.assert_allclose(edges, [-14 / 3, -7 / 3, 7 / 3, 14 / 3])

    def test_four_level_boundaries(self):
        intervals = interval_partition(uniform_spec(7, 4), 0)
        edges = [hi for _, hi in intervals[:-1]]
        np.testing.assert_allclose(edges, [-7 / 3, 7 / 3, 14 / 3])

    def test_agrees_with_quantizer_outputs(self):
        # points strictly inside one interval share an output level and
        # neighboring intervals produce different levels
        for ell, m in [(7, 5), (7, 4), (9, 2), (11, 8)]:
            intervals = interval_partition(uniform_spec(ell, m), 0)
            outputs = []
            for lo, hi in intervals:
                lo = max(lo, -ell - 1.0)
                hi = min(hi, ell + 1.0)
                pts = np.linspace(lo, hi, 41)[1:-1]
                ys = np.unique(quantize_values(pts, ell, m))
                assert len(ys) == 1, (ell, m, lo, hi)
                outputs.append(ys[0])
            assert len(set(outputs)) == m


class TestIntervalMasses:
    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(3)
        density = flat_density(rng.normal(0, 3, size=40), bandwidth=0.8)
        for ell, m in [(7, 5), (7, 2), (12, 9)]:
            masses, intervals = interval_masses(density, uniform_spec(ell, m), 0)
            assert len(masses) == len(intervals) == m
            assert (masses >= 0).all()
            assert abs(masses.sum() - 1.0) <= 1e-9

    def test_quadrature_oracle(self):
        # independent check: integrate the KDE pdf over each interval with
        # the trapezoid rule and compare interval masses
        samples = np.array([-4.0, -1.5, 0.2, 2.8, 5.0])
        bw = 1.1
        density = flat_density(samples, bandwidth=bw)
        spec = uniform_spec(7, 4)
        masses, intervals = interval_masses(density, spec, 0)

        lo_cut = samples.min() - 12 * bw
        hi_cut = samples.max() + 12 * bw
        expected = []
        for lo, hi in intervals:
            lo = max(lo, lo_cut)
            hi = min(hi, hi_cut)
            xs = np.linspace(lo, hi, 200001)
            z = (xs[:, None] - samples) / bw
            pdf = np.exp(-0.5 * z * z).mean(axis=1) / (bw * np.sqrt(2 * np.pi))
            expected.append(np.trapezoid(pdf, xs))
        np.testing.assert_allclose(masses, expected, atol=1e-6)


class TestFrequencyIndex:
    @pytest.mark.parametrize("read", [
        pytest.param(lambda density, spec, k: spec.edges(k), id="edges"),
        pytest.param(lambda density, spec, k: interval_partition(spec, k),
                     id="interval_partition"),
        pytest.param(lambda density, spec, k: interval_masses(density, spec, k),
                     id="interval_masses"),
        pytest.param(lambda density, spec, k: density.cdf(k, 0.0), id="cdf"),
    ])
    @pytest.mark.parametrize("k", [-1, 64])
    def test_index_outside_0_to_63_names_k(self, read, k):
        # -1 must not read frequency 63, nor give the whole line as one cell
        density = flat_density([-1.0, 0.5, 2.0])
        with pytest.raises(ValueError, match=f"k={k} "):
            read(density, uniform_spec(9, 6), k)

    @pytest.mark.parametrize("samples", [
        pytest.param(np.random.default_rng(5).normal(0, 2, size=1600), id="tabled"),
        pytest.param([-1.0, 0.5, 2.0], id="exact"),
    ])
    @pytest.mark.parametrize("as_array", [False, True], ids=["int-k", "array-k"])
    @pytest.mark.parametrize("k", [-1, 64])
    def test_table_cdf_index_outside_0_to_63_names_k(self, samples, as_array, k):
        # on a tabled density -1 must not read frequency 63's table, nor 64
        # raise a bare IndexError
        density = flat_density(samples)
        assert tabled(density).all() == (len(samples) == 1600)
        index = np.array([0, k]) if as_array else k
        with pytest.raises(ValueError, match=f"k={k} "):
            density.table_cdf(index, [0.0, 1.0])


class TestRate:
    def test_entropy_bounds(self):
        rng = np.random.default_rng(11)
        density = flat_density(rng.normal(0, 4, size=30))
        for m in (2, 3, 5, 7):
            report = rate(density, uniform_spec(7, m))
            assert (report.per_frequency >= 0).all()
            assert (report.per_frequency <= np.log2(m) + 1e-9).all()

    def test_average_is_mean(self):
        rng = np.random.default_rng(12)
        density = flat_density(rng.normal(0, 2, size=25))
        report = rate(density, uniform_spec(9, 4))
        assert report.average == pytest.approx(
            report.per_frequency.mean(), abs=1e-12)

    def test_equiprobable_hits_log2_m(self):
        # two samples per interval, far from every boundary, with a tiny
        # bandwidth: each interval carries mass 1/5 and entropy is log2(5)
        pts = []
        for lo, hi in interval_partition(uniform_spec(7, 5), 0):
            mid = (max(lo, -6.0) + min(hi, 6.0)) / 2
            pts += [mid - 0.05, mid + 0.05]
        density = flat_density(pts, bandwidth=1e-6)
        report = rate(density, uniform_spec(7, 5))
        np.testing.assert_allclose(
            report.per_frequency, np.log2(5), atol=1e-9)

    def test_single_sample_in_one_interval_gives_zero(self):
        density = flat_density([0.0], bandwidth=1e-6)
        report = rate(density, uniform_spec(7, 5))
        np.testing.assert_allclose(report.per_frequency, 0.0, atol=1e-9)


def spec_of(ell, m):
    return QuantizerSpec(bounds=BoundVector(ell=np.asarray(ell, dtype=np.int64)),
                         levels=LevelVector(m=np.asarray(m, dtype=np.int64)))


def report_bytes(report):
    return report.per_frequency.tobytes(), np.float64(report.average).tobytes()


class TestRateTable:
    """A density's fills do not depend on the fills before them."""

    samples = np.random.default_rng(14).normal(0, 3, size=35)

    def specs(self):
        k = np.arange(64)
        ell = 6 + k % 5
        return [spec_of(ell, 2 + k % 3), spec_of(ell, 2 + (k + 1) % 3),
                spec_of(ell, 2 + k % 3), spec_of(ell, np.full(64, 3))]

    def test_warm_table_gives_cold_bytes(self):
        warm = flat_density(self.samples, bandwidth=0.9)
        for spec in self.specs():
            cold = rate(flat_density(self.samples, bandwidth=0.9), spec)
            for _ in range(2):  # the first call may fill, the second only reads
                assert report_bytes(rate(warm, spec)) == report_bytes(cold)

    def test_bound_is_part_of_the_key(self):
        shared = flat_density(self.samples, bandwidth=0.9)
        for ell in (7, 9):
            spec = uniform_spec(ell, 5)
            cold = rate(flat_density(self.samples, bandwidth=0.9), spec)
            assert report_bytes(rate(shared, spec)) == report_bytes(cold)
        assert rate(shared, uniform_spec(7, 5)).average != \
            rate(shared, uniform_spec(9, 5)).average


class TestSilverman:
    def test_hand_computed_row(self):
        samples = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        sigma = samples[0].std()
        iqr = np.percentile(samples[0], 75) - np.percentile(samples[0], 25)
        expected = 0.9 * min(sigma, iqr / 1.34) * 5 ** (-0.2)
        assert silverman_bandwidth(samples)[0] == pytest.approx(expected)

    def test_constant_row_floored(self):
        samples = np.vstack([np.full(10, 3.0), np.arange(10.0)])
        bw = silverman_bandwidth(samples)
        assert bw[0] == BANDWIDTH_FLOOR
        assert bw[1] > BANDWIDTH_FLOOR


def spectra_fixture(pixels, h, w):
    n = pixels.shape[1]
    return forward_dct(CenteredImageSet(
        pixels=pixels, mean_image=np.zeros(h * w), height=h, width=w,
        labels=np.zeros(n, dtype=np.int64)))


class TestFitDensity:
    def test_single_block_pooling(self):
        rng = np.random.default_rng(8)
        pixels = rng.uniform(-50, 50, size=(64, 12))
        spectra = spectra_fixture(pixels, 8, 8)
        density = fit_density(spectra, s=5, seed=3)
        idx = bootstrap_indices(12, 5, seed=3)
        np.testing.assert_array_equal(density.samples,
                                      spectra.coeffs[:, idx])

    def test_multi_block_pooling_order(self):
        # image-major, block-major within each image
        rng = np.random.default_rng(9)
        pixels = rng.uniform(-50, 50, size=(256, 6))
        spectra = spectra_fixture(pixels, 16, 16)
        density = fit_density(spectra, s=4, seed=1)
        idx = bootstrap_indices(6, 4, seed=1)
        blocks = spectra.layout.blocks_per_image
        assert blocks == 4
        for k in (0, 17, 63):
            for i, img in enumerate(idx):
                for b in range(blocks):
                    assert density.samples[k, i * blocks + b] == \
                        spectra.coeffs[b * 64 + k, img]

    def test_same_seed_as_bounds_sees_same_images(self):
        rng = np.random.default_rng(10)
        pixels = rng.uniform(-50, 50, size=(64, 20))
        spectra = spectra_fixture(pixels, 8, 8)
        bounds = estimate_bounds(spectra, s=7, seed=6)
        density = fit_density(spectra, s=7, seed=6)
        peaks = np.abs(density.samples).max(axis=1)
        np.testing.assert_array_equal(
            bounds.ell, np.maximum(2, np.floor(peaks + 0.5).astype(np.int64)))


def with_entry(shape, index, value):
    array = np.ones(shape)
    array[index] = value
    return array


class TestDensityValidation:
    @pytest.mark.parametrize("samples, bandwidth, name", [
        pytest.param(np.zeros((64, 4)), np.ones(63), "bandwidth", id="bandwidth-63"),
        pytest.param(np.zeros((64, 4)), np.ones((64, 1)), "bandwidth", id="bandwidth-64x1"),
        pytest.param(np.zeros((64, 4)), with_entry(64, 5, np.nan), "bandwidth", id="bandwidth-nan"),
        pytest.param(np.zeros((64, 4)), with_entry(64, 5, np.inf), "bandwidth", id="bandwidth-inf"),
        pytest.param(with_entry((64, 4), (7, 2), np.inf), np.ones(64), "samples",
                     id="samples-inf"),
        pytest.param(with_entry((64, 4), (7, 2), -np.inf), np.ones(64), "samples",
                     id="samples-minus-inf"),
        pytest.param(with_entry((64, 4), (7, 2), np.nan), np.ones(64), "samples",
                     id="samples-nan"),
        pytest.param(np.zeros((64, 0)), np.ones(64), "samples", id="samples-none"),
    ])
    def test_bad_input_names_the_field(self, samples, bandwidth, name):
        with pytest.raises(ValueError, match=name):
            FrequencyDensity(samples=samples, bandwidth=bandwidth, seed=0, s=4)

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            FrequencyDensity(samples=np.zeros((63, 4)),
                             bandwidth=np.ones(63), seed=0, s=4)

    def test_nonpositive_bandwidth_rejected(self):
        bw = np.ones(64)
        bw[5] = 0.0
        with pytest.raises(ValueError):
            FrequencyDensity(samples=np.zeros((64, 4)),
                             bandwidth=bw, seed=0, s=4)

    def test_cdf_monotone_with_saturating_tails(self):
        density = flat_density([-1.0, 0.5, 2.0], bandwidth=0.7)
        vals = density.cdf(0, np.array([-100.0, -1.0, 0.0, 1.0, 100.0]))
        assert (np.diff(vals) >= 0).all()
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


class TestWindowedCdf:
    """cdf sums over a window of distinct samples; the full sum is the oracle."""

    @staticmethod
    def full_sum(density, k, x):
        x = np.asarray(x, dtype=np.float64)
        return ndtr((x[..., None] - density.samples[k]) / density.bandwidth[k]).mean(-1)

    def assert_matches_full_sum(self, density, k, x):
        got = density.cdf(k, x)
        want = self.full_sum(density, k, x)
        assert got.shape == np.shape(x)
        gap = np.abs(got - want).max()
        assert gap <= 1e-12, f"largest gap {gap:.3g} at frequency {k}"

    def bootstrap_density(self):
        # whole images drawn with replacement repeat their coefficients
        rng = np.random.default_rng(21)
        images = rng.normal(0, rng.uniform(0.5, 40, size=(64, 1)), size=(64, 150))
        samples = images[:, rng.integers(0, 150, size=1200)]
        return FrequencyDensity(samples=samples,
                                bandwidth=silverman_bandwidth(samples), seed=0, s=150)

    def test_repeated_bootstrap_samples(self):
        density = self.bootstrap_density()
        for k in (0, 9, 63):
            values, counts, before = density.support[k]
            assert len(values) < density.samples.shape[1]
            assert counts.sum() == before[-1] == density.samples.shape[1]
            lo, hi = values[0], values[-1]
            self.assert_matches_full_sum(density, k, np.linspace(lo, hi, 37))

    def test_edges_far_in_both_tails(self):
        density = self.bootstrap_density()
        for k in (3, 40):
            values, _, _ = density.support[k]
            h = density.bandwidth[k]
            x = np.array([-1e6, values[0] - 40 * h, values[0] - SATURATION * h,
                          values[0], values[-1], values[-1] + SATURATION * h,
                          values[-1] + 40 * h, 1e6])
            self.assert_matches_full_sum(density, k, x)
            assert density.cdf(k, -1e6) == 0.0
            assert density.cdf(k, 1e6) == 1.0

    def test_constant_row_at_bandwidth_floor(self):
        # even frequencies hold one value; odd ones a second value in a third
        samples = np.tile(np.arange(64.0)[:, None], (1, 30))
        samples[1::2, ::3] += 0.5
        density = FrequencyDensity(samples=samples,
                                   bandwidth=np.full(64, BANDWIDTH_FLOOR), seed=0, s=30)
        for k, mass_below in [(0, 1.0), (7, 2 / 3)]:
            x = k + np.array([-1.0, -3e-6, 0.0, 2e-6, 0.25, 0.5, 0.5 + 1e-6, 2.0])
            self.assert_matches_full_sum(density, k, x)
            assert density.cdf(k, k) == pytest.approx(mass_below / 2, abs=1e-15)
            assert density.cdf(k, k + 0.25) == pytest.approx(mass_below, abs=1e-15)

    def test_scalar_and_2d_points(self):
        density = self.bootstrap_density()
        values = density.support[5][0]
        self.assert_matches_full_sum(density, 5, float(np.median(values)))
        grid = np.linspace(values[0] - 1, values[-1] + 1, 24).reshape(4, 6)
        self.assert_matches_full_sum(density, 5, grid)


def entropy_bits(masses):
    positive = masses[masses > 0.0]
    return -(positive * np.log2(positive)).sum()


class TestCdfTable:
    """Fills interpolate a per-frequency CDF table; cdf stays the exact sum."""

    @staticmethod
    def bootstrap_density(draws=1600, seed=22):
        # whole images drawn with replacement, as the bootstrap pool draws them
        rng = np.random.default_rng(seed)
        images = rng.normal(0, rng.uniform(0.5, 40, size=(64, 1)), size=(64, 120))
        samples = images[:, rng.integers(0, 120, size=draws)]
        return FrequencyDensity(samples=samples,
                                bandwidth=silverman_bandwidth(samples), seed=0, s=120)

    @staticmethod
    def exact_masses(density, spec, k):
        cdf = density.cdf(k, spec.edges(k))
        return np.diff(np.concatenate([[0.0], cdf, [1.0]]))

    def test_table_within_stated_bound_of_exact_cdf(self):
        density = self.bootstrap_density()
        assert tabled(density).all()
        for k in (0, 1, 17, 40, 63):
            values = density.support[k][0]
            h = density.bandwidth[k]
            x = np.linspace(values[0] - 10 * h, values[-1] + 10 * h, 5001)
            gap = np.abs(density.table_cdf(k, x) - density.cdf(k, x)).max()
            assert gap <= TABLE_ERROR, f"gap {gap:.3g} at frequency {k}"

    def test_rate_terms_within_1e_5_bits_of_exact(self):
        density = self.bootstrap_density()
        rng = np.random.default_rng(5)
        peaks = np.abs(density.samples).max(axis=1)
        ell = np.maximum(2, np.floor(peaks + 0.5)).astype(np.int64)
        worst = 0.0
        for _ in range(10):
            spec = spec_of(ell, rng.integers(2, ell + 1))
            report = rate(density, spec)
            exact = [entropy_bits(self.exact_masses(density, spec, k)) for k in range(64)]
            worst = max(worst, np.abs(report.per_frequency - exact).max())
        assert worst <= 1e-5, f"largest |dr_k| {worst:.3g} bits"

    def test_edges_outside_the_table_read_exactly_0_and_1(self):
        density = self.bootstrap_density()
        for k in (3, 50):
            start, table = table_of(density, k)
            step = density.bandwidth[k] / 64
            end = start + (len(table) - 1) * step
            x = np.array([-1e9, start - step, start, end, end + step, 1e9])
            got = density.table_cdf(k, x)
            assert got[[0, 1, 2]].tolist() == [0.0, 0.0, 0.0]
            assert got[[3, 4, 5]].tolist() == [1.0, 1.0, 1.0]

    def test_table_cdf_matches_floor_clip_lerp_bytes(self):
        # reference: the floor/clip/lerp written out; table_cdf must keep its bytes
        def floor_clip_lerp(density, k, x):
            start, table = table_of(density, k)
            u = (np.asarray(x, dtype=np.float64) - start) / (density.bandwidth[k] / GRID_STEPS)
            i = np.clip(np.floor(u), 0, len(table) - 2).astype(np.intp)
            inside = table[i] + (u - i) * (table[i + 1] - table[i])
            return np.where(u <= 0, 0.0, np.where(u >= len(table) - 1, 1.0, inside))

        density = self.bootstrap_density()
        rng = np.random.default_rng(7)
        for k in (0, 3, 17, 40, 63):
            start, table = table_of(density, k)
            step = density.bandwidth[k] / GRID_STEPS
            grid = start + np.arange(len(table)) * step
            end = grid[-1]
            x = np.concatenate([
                grid, (grid[:-1] + grid[1:]) / 2,
                rng.uniform(start, end, size=2000),
                [-1e9, start - 5 * step, start - step, end + step, end + 5 * step, 1e9],
                np.nextafter([start, end], -np.inf), np.nextafter([start, end], np.inf),
            ])
            assert density.table_cdf(k, x).tobytes() == floor_clip_lerp(density, k, x).tobytes()

    def test_fill_builds_no_intervals(self, monkeypatch):
        def refuse(spec, k):
            raise AssertionError("a rate fill built the (lo, hi) intervals")

        tabled_density = self.bootstrap_density()
        exact = flat_density(np.random.default_rng(4).normal(0, 3, size=40), bandwidth=0.9)
        assert tabled(tabled_density).all()
        assert not tabled(exact).any()
        monkeypatch.setattr("qfda.rate.interval_partition", refuse)
        for density in (tabled_density, exact):
            report = rate(density, uniform_spec(9, 6))
            assert np.isfinite(report.per_frequency).all()

    def test_small_sample_keeps_exact_sum(self):
        # criterion 5's sample counts: every table would exceed the limit
        rng = np.random.default_rng(6)
        for n in (5, 40, 144):
            density = flat_density(rng.normal(0, 3, size=n), bandwidth=0.9)
            assert not tabled(density).any()
            spec = uniform_spec(7, 5)
            masses, _ = interval_masses(density, spec, 0)
            assert masses.tobytes() == self.exact_masses(density, spec, 0).tobytes()

    @classmethod
    def floored_density(cls):
        """test_bandwidth_floor_with_wide_span_keeps_exact_sum's density:
        every frequency tabled but 9, whose floored bandwidth spans too wide."""
        samples = cls.bootstrap_density().samples.copy()
        samples[9] = 0.0
        samples[9, ::400] = 30.0
        return FrequencyDensity(samples=samples,
                                bandwidth=silverman_bandwidth(samples), seed=0, s=120)

    @staticmethod
    def per_frequency_rate(density, spec):
        """The rate filled frequency by frequency, each term summed on its own."""
        per_frequency = np.empty(64)
        for k in range(64):
            masses = np.diff(density.table_cdf(k, spec.edges(k)), prepend=0.0, append=1.0)
            positive = masses[masses > 0.0]
            per_frequency[k] = -(positive * np.log2(positive)).sum()
        return per_frequency.tobytes(), np.float64(per_frequency.mean()).tobytes()

    def test_one_pass_fill_matches_per_frequency_bytes(self):
        # tabled, exact and mixed densities; random m, m = 2 and m = ell
        exact = flat_density(np.random.default_rng(4).normal(0, 3, size=40), bandwidth=0.9)
        densities = {"tabled": self.bootstrap_density(), "exact": exact,
                     "mixed": self.floored_density()}
        assert tabled(densities["tabled"]).all()
        assert not tabled(exact).any()
        assert np.flatnonzero(~tabled(densities["mixed"])).tolist() == [9]
        rng = np.random.default_rng(9)
        for name, density in densities.items():
            peaks = np.abs(density.samples).max(axis=1)
            ell = np.maximum(2, np.floor(peaks + 0.5)).astype(np.int64)
            levels = [np.full(64, 2), ell] + [rng.integers(2, ell + 1) for _ in range(8)]
            for m in levels:
                spec = spec_of(ell, m)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = report_bytes(rate(density, spec))
                assert got == self.per_frequency_rate(density, spec), name

    def test_fill_makes_one_table_lookup(self, monkeypatch):
        calls = []
        lookup = FrequencyDensity.table_cdf

        def counting(density, k, x):
            calls.append(np.shape(k))
            return lookup(density, k, x)

        def refuse(density, k, x):
            raise AssertionError("a fully tabled density fell back to the exact sum")

        density = self.bootstrap_density()
        monkeypatch.setattr(FrequencyDensity, "table_cdf", counting)
        monkeypatch.setattr(FrequencyDensity, "cdf", refuse)
        spec = spec_of(np.full(64, 9), np.arange(64) % 8 + 2)
        for fill in range(1, 4):
            rate(density, spec)
            assert len(calls) == fill
        assert calls[0] == (int(np.sum(spec.levels.m - 1)),)

    def test_bandwidth_floor_with_wide_span_keeps_exact_sum(self):
        density = self.bootstrap_density()
        samples = density.samples.copy()
        samples[9] = 0.0
        samples[9, ::400] = 30.0  # a few far outliers pin the IQR at zero
        floored = FrequencyDensity(samples=samples,
                                   bandwidth=silverman_bandwidth(samples), seed=0, s=120)
        assert floored.bandwidth[9] == BANDWIDTH_FLOOR
        assert not tabled(floored)[9]
        assert tabled(floored)[8]
        spec = uniform_spec(31, 7)
        masses, _ = interval_masses(floored, spec, 9)
        assert masses.tobytes() == self.exact_masses(floored, spec, 9).tobytes()
        assert masses[-1] == pytest.approx(4 / 1600, abs=1e-15)
