import dataclasses
import tracemalloc

import numpy as np
import pytest

import qfda.experiment
import qfda.pso

from qfda.blockdct import BlockLayout, SpectrumSet, forward_dct, inverse_dct
from qfda.config import ExperimentConfig
from qfda.dataset import read_pgm
from qfda.discriminant import (
    Subspace,
    plain_scatters,
    quantized_scatters,
    solve_subspace,
)
from qfda.errors import ConsistencyError, DataError
from qfda.experiment import (
    EvalReport,
    PreparedData,
    cost_context,
    errors_csv,
    export_eigenfaces,
    export_quantized_images,
    grid_csv,
    knn_error,
    levels_csv,
    prepare,
    run_baseline_fda,
    run_experiment,
    run_grid,
    split_reports,
    trace_csv,
)
from qfda.modelio import load_model, save_model
from qfda.pso import evaluate_cost
from qfda.quantizer import LevelVector, QuantizerSpec, estimate_bounds, quantize

from helpers import gaussian_class_spectra, write_two_class_idx


def knn_oracle(train_coords, train_labels, eval_coords, eval_labels, k):
    """Brute-force reference: explicit loops and explicit tie rules."""
    wrong = 0
    for e in range(eval_coords.shape[1]):
        scored = []
        for t in range(train_coords.shape[1]):
            d2 = float(((eval_coords[:, e] - train_coords[:, t]) ** 2).sum())
            scored.append((d2, t))
        scored.sort()
        votes = [train_labels[t] for _, t in scored[:k]]
        counts = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        best = min(counts, key=lambda c: (-counts[c], c))
        wrong += int(best != eval_labels[e])
    return wrong / eval_coords.shape[1]


class TestKnnError:
    def test_matches_brute_force_on_integer_grids(self):
        # integer coordinates make squared distances exact, so distance
        # ties actually occur and both tie rules get exercised; class ids
        # come dense and with gaps
        rng = np.random.default_rng(23)
        for ids in (np.arange(3), np.array([2, 5, 9])):
            for trial in range(10):
                rows = int(rng.integers(1, 6))
                n_train = int(rng.integers(10, 50))
                n_eval = int(rng.integers(5, 30))
                k = int(rng.integers(1, min(8, n_train) + 1))
                tc = rng.integers(0, 5, size=(rows, n_train)).astype(np.float64)
                ec = rng.integers(0, 5, size=(rows, n_eval)).astype(np.float64)
                tl = ids[rng.integers(0, 3, size=n_train)]
                el = ids[rng.integers(0, 3, size=n_eval)]
                got = knn_error(tc, tl, ec, el, k)
                expected = [knn_oracle(tc[:q], tl, ec[:q], el, k)
                            for q in range(1, rows + 1)]
                assert got.tolist() == expected

    def test_matches_full_stable_sort_under_heavy_ties(self):
        # reference: stable-argsort each whole row and vote with its first k;
        # coordinates in {0, 1, 2} tie most distances, and k reaches past
        # crowds of ties at the k-th distance
        def full_sort(tc, tl, ec, el, k):
            classes = np.unique(tl)
            d2 = np.zeros((ec.shape[1], tc.shape[1]))
            errors = []
            for train_row, eval_row in zip(tc, ec):
                d2 += (eval_row[:, None] - train_row[None, :]) ** 2
                order = np.argsort(d2, axis=1, kind="stable")[:, :k]
                votes = (tl[order][:, :, None] == classes).sum(axis=1)
                errors.append(np.mean(classes[votes.argmax(axis=1)] != el))
            return np.array(errors)

        rng = np.random.default_rng(31)
        ids = np.array([1, 4, 6, 11])
        for trial in range(12):
            n_train = int(rng.integers(40, 160))
            n_eval = int(rng.integers(20, 80))
            k = int(rng.integers(1, n_train + 1)) if trial % 3 == 0 else int(rng.integers(1, 16))
            tc = rng.integers(0, 3, size=(6, n_train)).astype(np.float64)
            ec = rng.integers(0, 3, size=(6, n_eval)).astype(np.float64)
            tl = ids[rng.integers(0, 4, size=n_train)]
            el = ids[rng.integers(0, 4, size=n_eval)]
            got = knn_error(tc, tl, ec, el, k)
            assert got.tobytes() == full_sort(tc, tl, ec, el, k).tobytes(), (trial, k)

    def test_self_evaluation_is_zero(self):
        rng = np.random.default_rng(24)
        coords = rng.normal(size=(3, 30))
        labels = rng.integers(0, 4, size=30)
        np.testing.assert_array_equal(knn_error(coords, labels, coords, labels, 1),
                                      np.zeros(3))

    def test_distance_tie_takes_smaller_train_index(self):
        train, labels = np.zeros((1, 2)), np.array([1, 0])
        assert knn_error(train, labels, np.zeros((1, 1)), np.array([1]), 1).tolist() == [0.0]
        assert knn_error(train, labels, np.zeros((1, 1)), np.array([0]), 1).tolist() == [1.0]

    def test_vote_tie_takes_smaller_class_id(self):
        train, labels = np.zeros((1, 2)), np.array([1, 0])
        assert knn_error(train, labels, np.zeros((1, 1)), np.array([0]), 2).tolist() == [0.0]

    def test_validation(self):
        train, labels = np.zeros((2, 5)), np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError):
            knn_error(train, labels, np.zeros((2, 3)), np.zeros(3), 6)
        with pytest.raises(ConsistencyError):
            knn_error(train, labels, np.zeros((3, 3)), np.zeros(3), 1)
        with pytest.raises(DataError):
            knn_error(train, labels, np.zeros((2, 0)), np.zeros(0), 1)


class TestEvalReport:
    def test_population_moments(self):
        errors = [0.1, 0.2, 0.4]
        report = EvalReport.from_errors(errors)
        assert report.mean == pytest.approx(np.mean(errors), abs=1e-12)
        assert report.std == pytest.approx(np.std(errors), abs=1e-12)

    def test_single_entry_has_zero_std(self):
        report = EvalReport.from_errors([0.25])
        assert report.mean == 0.25 and report.std == 0.0


def separable_sets():
    x, labels = gaussian_class_spectra(n_per_class=30, separation=8.0, seed=4)
    layout = BlockLayout.for_image(8, 8)
    train = SpectrumSet(coeffs=x[:, ::2], layout=layout, labels=labels[::2])
    evl = SpectrumSet(coeffs=x[:, 1::2], layout=layout, labels=labels[1::2])
    return train, evl


def val_report(subspace, train, evl, config):
    """split_reports' val report, with evl as the val split."""
    prepared = PreparedData(train=train, val=evl, test=evl,
                            mean_image=np.zeros(train.layout.d_prime), split_indices=())
    return split_reports(subspace, prepared, config, splits=("val",))["val"]


class TestEvaluateSubspace:
    def test_separated_clusters_score_zero(self):
        train, evl = separable_sets()
        config = ExperimentConfig(max_dims=5, k_nn=3)
        sub = solve_subspace(plain_scatters(train), 5, config.epsilon)
        report = val_report(sub, train, evl, config)
        assert report.per_dim_errors.shape == (5,)
        np.testing.assert_array_equal(report.per_dim_errors, np.zeros(5))

    def test_first_entry_is_single_direction_knn(self):
        train, evl = separable_sets()
        config = ExperimentConfig(max_dims=4, k_nn=3)
        sub = solve_subspace(plain_scatters(train), 8, config.epsilon)
        report = val_report(sub, train, evl, config)
        assert len(report.per_dim_errors) == 4
        one = knn_oracle(sub.u[:, :1].T @ train.coeffs, train.labels,
                         sub.u[:, :1].T @ evl.coeffs, evl.labels, 3)
        assert report.per_dim_errors[0] == one

    def test_peak_memory_is_a_few_eval_by_train_arrays(self):
        # a (q, eval, train) difference tensor would be 20 such arrays
        rng = np.random.default_rng(25)
        layout = BlockLayout.for_image(8, 8)
        train = SpectrumSet(coeffs=rng.normal(size=(64, 600)), layout=layout,
                            labels=rng.integers(0, 2, size=600))
        evl = SpectrumSet(coeffs=rng.normal(size=(64, 200)), layout=layout,
                          labels=rng.integers(0, 2, size=200))
        sub = Subspace(u=np.linalg.qr(rng.normal(size=(64, 20)))[0],
                       eigenvalues=np.zeros(20), epsilon=1e-5)
        config = ExperimentConfig(max_dims=20, k_nn=3)
        tracemalloc.start()
        try:
            report = val_report(sub, train, evl, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.per_dim_errors.shape == (20,)
        assert peak < 8 * 200 * 600 * 8


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixture")
    return write_two_class_idx(directory, n=60, height=16, width=16, seed=3)


def small_config(idx_paths, out, **overrides):
    values = dict(
        dataset_kind="idx",
        dataset_path=str(idx_paths[0]),
        max_dims=4,
        k_nn=3,
        gamma_grid=[0.1],
        lambda_grid=[0.5],
        particles=3,
        iterations=3,
        eigenface_count=3,
        output_dir=str(out),
    )
    values.update(overrides)
    return ExperimentConfig(**values)


class TestPrepare:
    def test_split_sizes_and_geometry(self, idx_paths, tmp_path):
        prepared = prepare(small_config(idx_paths, tmp_path))
        assert (prepared.train.n, prepared.val.n, prepared.test.n) == (36, 12, 12)
        assert (prepared.layout.height, prepared.layout.width) == (16, 16)
        assert prepared.layout.d_prime == 256
        tr, va, te = prepared.split_indices
        merged = np.concatenate([tr, va, te])
        assert len(np.unique(merged)) == 60
        for idx in (tr, va, te):
            assert (np.diff(idx) > 0).all()

    def test_eval_splits_centered_with_training_mean(self, idx_paths, tmp_path):
        from qfda.dataset import load_idx, subset

        config = small_config(idx_paths, tmp_path)
        prepared = prepare(config)
        raw = load_idx(config.dataset_path, None)
        tr, va, _ = prepared.split_indices
        train_mean = subset(raw, tr).pixels.mean(axis=1)
        np.testing.assert_allclose(prepared.mean_image, train_mean, atol=1e-9)
        val_pixels = inverse_dct(prepared.val).pixels
        np.testing.assert_allclose(
            val_pixels, subset(raw, va).pixels - train_mean[:, None], atol=1e-9)

    def test_split_settings_reach_the_split(self, idx_paths, tmp_path):
        # val and test differ in size, so a swapped fraction would show
        from qfda.dataset import load_idx, split_indices

        config = small_config(idx_paths, tmp_path, train_fraction=0.5, val_fraction=0.3,
                              test_fraction=0.2, split_seed=5)
        prepared = prepare(config)
        assert (prepared.train.n, prepared.val.n, prepared.test.n) == (30, 18, 12)
        raw = load_idx(config.dataset_path, None)
        expected = split_indices(raw, 0.5, 0.3, 0.2, 5)
        for got, want in zip(prepared.split_indices, expected):
            np.testing.assert_array_equal(got, want)
        # and seed 5 splits unlike the default seed 0
        default = split_indices(raw, 0.5, 0.3, 0.2, 0)
        assert any(not np.array_equal(a, b) for a, b in zip(expected, default))

    def test_train_cap_is_balanced(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, max_train_samples=10)
        prepared = prepare(config)
        assert prepared.train.n == 10
        counts = np.bincount(prepared.train.labels)
        np.testing.assert_array_equal(counts, [5, 5])

    def test_class_selection(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, classes=[0, 1],
                              images_per_class=10)
        prepared = prepare(config)
        total = prepared.train.n + prepared.val.n + prepared.test.n
        assert total == 20
        for spectra in (prepared.train, prepared.val, prepared.test):
            assert set(spectra.labels.tolist()) == {0, 1}
        # one class is no discrimination problem
        with pytest.raises(DataError, match="at least two classes"):
            prepare(small_config(idx_paths, tmp_path, classes=[1]))

    def test_resampling_shrinks_geometry(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, resample_factor=0.5)
        prepared = prepare(config)
        assert (prepared.layout.height, prepared.layout.width) == (8, 8)
        assert prepared.layout.d_prime == 64


class TestBaseline:
    def test_reports_cover_all_splits(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path)
        prepared = prepare(config)
        reports = run_baseline_fda(prepared, config)
        assert set(reports) == {"train", "val", "test"}
        for report in reports.values():
            assert report.per_dim_errors.shape == (4,)
            assert ((report.per_dim_errors >= 0)
                    & (report.per_dim_errors <= 1)).all()

    def test_identity_quantizer_reduces_to_plain_scatters(self, idx_paths,
                                                          tmp_path):
        # on real spectra the lam=0 identity-quantized scatters must agree
        # with the baseline scatters to rounding; eigenvectors of the
        # near-singular pencil would amplify that rounding, so the contract
        # is checked at the matrix level
        prepared = prepare(small_config(idx_paths, tmp_path))
        plain = plain_scatters(prepared.train)
        mixed = quantized_scatters(prepared.train, prepared.train, 0.0)
        scale = np.abs(plain.s_t).max()
        np.testing.assert_allclose(mixed.s_t, plain.s_t, atol=1e-8 * scale)
        np.testing.assert_allclose(mixed.s_w, plain.s_w, atol=1e-8 * scale)


class TestSplitReports:
    @staticmethod
    def quantizer(prepared):
        bounds = estimate_bounds(prepared.train, prepared.train.n, 0)
        return QuantizerSpec(bounds=bounds, levels=LevelVector(np.maximum(2, bounds.ell // 2)))

    @pytest.mark.parametrize("quantized", [False, True], ids=["plain", "spec"])
    def test_reports_are_knn_on_explicit_projections(self, idx_paths, tmp_path, quantized):
        # a 6-direction subspace scored at max_dims = 4, train among the splits
        config = small_config(idx_paths, tmp_path)
        prepared = prepare(config)
        sub = solve_subspace(plain_scatters(prepared.train), 6, config.epsilon)
        spec = self.quantizer(prepared) if quantized else None
        reports = split_reports(sub, prepared, config, spec, ("test", "train", "val"))
        assert list(reports) == ["test", "train", "val"]
        u = sub.u[:, :4]

        def coords(split):
            spectra = getattr(prepared, split)
            return u.T @ (spectra if spec is None else quantize(spectra, spec)).coeffs

        for split, report in reports.items():
            want = EvalReport.from_errors(knn_error(coords("train"), prepared.train.labels,
                                                    coords(split), getattr(prepared, split).labels,
                                                    config.k_nn))
            assert report.per_dim_errors.tobytes() == want.per_dim_errors.tobytes(), split
            assert (report.mean, report.std) == (want.mean, want.std), split

    def test_each_split_is_quantized_once(self, idx_paths, tmp_path, monkeypatch):
        calls = []

        def counted(spectra, spec):
            calls.append(spectra.n)
            return quantize(spectra, spec)

        monkeypatch.setattr(qfda.experiment, "quantize", counted)
        config = small_config(idx_paths, tmp_path)
        prepared = prepare(config)
        sub = solve_subspace(plain_scatters(prepared.train), 4, config.epsilon)
        split_reports(sub, prepared, config, self.quantizer(prepared), ("train", "val", "test"))
        assert calls == [prepared.train.n, prepared.val.n, prepared.test.n]


@pytest.fixture(scope="module")
def experiment(idx_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = small_config(idx_paths, out, lambda_grid=[0.5, 2.0])
    return config, run_experiment(config)


class TestGrid:
    def test_cells_and_tie_break(self, experiment):
        config, result = experiment
        grid = result.grid
        assert [(c.gamma, c.lam) for c in grid.cells] == [(0.1, 0.5), (0.1, 2.0)]
        best_mean = min(c.val_report.mean for c in grid.cells)
        candidates = [c for c in grid.cells if c.val_report.mean == best_mean]
        assert grid.chosen is candidates[0]
        assert grid.model.bounds.bootstrap_size == 36

    def test_budget_and_level_bounds(self, experiment):
        _, result = experiment
        for cell in result.grid.cells:
            assert cell.pso.evaluations <= 3 * 3
            assert (cell.pso.best.m >= 2).all()
            assert (cell.pso.best.m <= result.grid.model.bounds.ell).all()

    def test_grid_csv_layout(self, experiment):
        config, result = experiment
        text = grid_csv(result.grid, config)
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,0.5,2.0"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == 0.1
        assert float(row[1]) == result.grid.cells[0].val_report.mean
        assert float(row[2]) == result.grid.cells[1].val_report.mean


class TestRunExperiment:
    def test_output_tree(self, experiment):
        config, result = experiment
        out = result.output_dir
        expected = ["config.txt", "grid.csv", "levels.csv", "trace.csv"]
        expected += [f"errors_fda_{s}.csv" for s in ("train", "val", "test")]
        expected += [f"errors_qfda_{s}.csv" for s in ("train", "val", "test")]
        for name in expected:
            assert (out / name).is_file(), name
        for name in ("train", "val", "test"):
            assert (out / "splits" / f"{name}.txt").is_file()
        for cell in result.grid.cells:
            cell_dir = out / f"cell_g{cell.gamma!r}_l{cell.lam!r}"
            assert (cell_dir / "trace.csv").is_file()
            assert (cell_dir / "levels.csv").is_file()
        assert (out / "model" / "model.json").is_file()
        assert (out / "model" / "subspace.bin").is_file()
        assert len(list((out / "eigenfaces").glob("*.pgm"))) == 3
        assert len(list((out / "quantized").glob("*.pgm"))) == 18

    def test_csv_values_match_reports(self, experiment):
        _, result = experiment
        report = result.qfda_reports["val"]
        lines = errors_csv(report).strip().split("\n")
        assert lines[0] == "q,error"
        assert len(lines) == len(report.per_dim_errors) + 3
        for q, line in enumerate(lines[1:-2], start=1):
            qs, err = line.split(",")
            assert int(qs) == q
            assert float(err) == report.per_dim_errors[q - 1]
        assert float(lines[-2].split(",")[1]) == report.mean
        assert float(lines[-1].split(",")[1]) == report.std

    def test_val_report_is_the_chosen_cells(self, experiment):
        # the grid already scored the chosen quantizer on val; it is not rescored
        _, result = experiment
        assert result.qfda_reports["val"] is result.grid.chosen.val_report

    def test_levels_and_trace_csv(self, experiment):
        _, result = experiment
        lines = levels_csv(result.bundle.levels).strip().split("\n")
        assert lines[0] == "k,m"
        assert len(lines) == 65
        assert [int(line.split(",")[1]) for line in lines[1:]] == \
            result.bundle.levels.m.tolist()
        trace_lines = trace_csv(result.grid.chosen.pso).strip().split("\n")
        assert trace_lines[0] == "round,particle,cost,best_cost"
        assert len(trace_lines) == len(result.grid.chosen.pso.trace) + 1

    def test_saved_model_round_trips(self, experiment):
        _, result = experiment
        bundle = load_model(result.output_dir / "model")
        np.testing.assert_array_equal(bundle.bounds.ell,
                                      result.bundle.bounds.ell)
        np.testing.assert_array_equal(bundle.levels.m, result.bundle.levels.m)
        np.testing.assert_array_equal(bundle.subspace.u,
                                      result.bundle.subspace.u)
        assert bundle.gamma == result.bundle.gamma
        assert bundle.lam == result.bundle.lam
        assert bundle.layout == result.bundle.layout
        assert bundle.breakdown.total == result.bundle.breakdown.total

    def test_model_bytes_deterministic(self, experiment, tmp_path):
        _, result = experiment
        save_model(tmp_path / "again", result.bundle)
        original = (result.output_dir / "model" / "model.json").read_bytes()
        assert (tmp_path / "again" / "model.json").read_bytes() == original
        original_sub = (result.output_dir / "model" / "subspace.bin").read_bytes()
        assert (tmp_path / "again" / "subspace.bin").read_bytes() == original_sub


class TestExports:
    def test_eigenfaces_render_at_image_geometry(self, experiment, tmp_path):
        _, result = experiment
        paths = export_eigenfaces(result.bundle.subspace,
                                  result.bundle.layout, 2, tmp_path / "eig")
        assert [p.name for p in paths] == ["eigenface_00.pgm",
                                           "eigenface_01.pgm"]
        image = read_pgm(paths[0])
        assert image.shape == (16, 16)
        with pytest.raises(DataError):
            export_eigenfaces(result.bundle.subspace, result.bundle.layout,
                              99, tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_quantized_export_panels(self, experiment, tmp_path):
        config, result = experiment
        prepared = prepare(config)
        spec = QuantizerSpec(bounds=result.bundle.bounds,
                             levels=result.bundle.levels)
        paths = export_quantized_images(prepared.train, spec,
                                        prepared.mean_image,
                                        tmp_path / "q", count=2)
        names = sorted(p.name for p in paths)
        assert names == [
            "sample_00_centered.pgm", "sample_00_original.pgm",
            "sample_00_quantized.pgm", "sample_01_centered.pgm",
            "sample_01_original.pgm", "sample_01_quantized.pgm",
        ]
        assert read_pgm(paths[0]).shape == (16, 16)

    def test_quantized_export_count_below_one(self, experiment, tmp_path):
        config, result = experiment
        prepared = prepare(config)
        spec = QuantizerSpec(bounds=result.bundle.bounds,
                             levels=result.bundle.levels)
        with pytest.raises(DataError):
            export_quantized_images(prepared.train, spec, prepared.mean_image,
                                    tmp_path / "q", count=0)
        assert not (tmp_path / "q").exists()

    def test_requantizing_quantized_spectra_changes_nothing(self, experiment,
                                                            tmp_path):
        # exporting already-quantized spectra: the original and quantized
        # panels coincide because the quantizer is idempotent
        config, result = experiment
        prepared = prepare(config)
        spec = QuantizerSpec(bounds=result.bundle.bounds,
                             levels=result.bundle.levels)
        already = quantize(prepared.train, spec)
        export_quantized_images(already, spec, prepared.mean_image,
                                tmp_path / "idem", count=2)
        for i in range(2):
            original = (tmp_path / "idem" / f"sample_{i:02d}_original.pgm")
            quantized = (tmp_path / "idem" / f"sample_{i:02d}_quantized.pgm")
            assert original.read_bytes() == quantized.read_bytes()


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, idx_paths, tmp_path):
        config_a = small_config(idx_paths, tmp_path / "a")
        config_b = small_config(idx_paths, tmp_path / "b")
        a = run_experiment(config_a)
        b = run_experiment(config_b)
        for name in ("grid.csv", "levels.csv", "trace.csv"):
            assert (a.output_dir / name).read_bytes() == \
                (b.output_dir / name).read_bytes()
        assert (a.output_dir / "model" / "model.json").read_bytes() == \
            (b.output_dir / "model" / "model.json").read_bytes()
        assert (a.output_dir / "model" / "subspace.bin").read_bytes() == \
            (b.output_dir / "model" / "subspace.bin").read_bytes()


class TestOneSolvePerLevelVector:
    def test_only_swarm_and_baseline_solve(self, idx_paths, tmp_path, monkeypatch):
        calls = []
        for module in (qfda.pso, qfda.experiment):
            original = module.solve_subspace

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "solve_subspace", counted)
        config = small_config(idx_paths, tmp_path, lambda_grid=[0.5, 2.0])
        result = run_experiment(config)
        fresh = sum(cell.pso.evaluations for cell in result.grid.cells)
        assert len(calls) == fresh + 1  # the plain baseline solves once

    def test_model_subspace_is_the_chosen_cells_solve(self, experiment):
        config, result = experiment
        chosen = result.grid.chosen
        prepared = prepare(config)
        spec = QuantizerSpec(bounds=result.grid.model.bounds, levels=chosen.pso.best)
        pair = quantized_scatters(prepared.train, quantize(prepared.train, spec),
                                  chosen.lam)
        expected = solve_subspace(pair, min(config.max_dims, prepared.layout.d_prime),
                                  config.epsilon)
        assert result.bundle.subspace.u.tobytes() == expected.u.tobytes()
        assert result.bundle.subspace.eigenvalues.tobytes() == \
            expected.eigenvalues.tobytes()

    def test_grid_model_is_the_chosen_cells_search(self, experiment):
        config, result = experiment
        grid = result.grid
        chosen, model = grid.chosen, grid.model
        assert model is result.bundle
        assert model.levels is chosen.pso.best
        assert model.subspace is chosen.pso.breakdown.subspace
        assert model.breakdown is chosen.pso.breakdown
        assert (model.gamma, model.lam) == (chosen.gamma, chosen.lam)
        prepared = prepare(config)
        assert model.layout == prepared.layout
        bounds = cost_context(prepared, config).bounds
        assert np.array_equal(model.bounds.ell, bounds.ell)
        assert (model.bounds.bootstrap_seed, model.bounds.bootstrap_size) == \
            (bounds.bootstrap_seed, bounds.bootstrap_size)

    def test_saved_breakdown_carries_no_subspace(self, experiment):
        _, result = experiment
        assert result.bundle.breakdown.subspace is result.bundle.subspace
        assert load_model(result.output_dir / "model").breakdown.subspace is None


class TestObjectiveScale:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: with n < d' the quantized criterion "
                              "f_Q scales as 1/epsilon")
    def test_criterion_does_not_track_epsilon(self, tmp_path):
        images, _ = write_two_class_idx(tmp_path, n=200)
        config = ExperimentConfig(dataset_path=str(images), output_dir=str(tmp_path))
        ctx = cost_context(prepare(config), config)
        m = np.maximum(2, ctx.bounds.ell // 2)  # admissible: 2 <= m_k <= ell_k
        f_q = [evaluate_cost(m, dataclasses.replace(ctx, epsilon=eps), 0.0, 0.5).criterion
               for eps in (1e-9, 1e-7, 1e-5)]
        assert max(f_q) < 1.01 * min(f_q), f_q

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP items 2(b) and 21: f_Q dwarfs the rate, so gamma "
                              "never changes the chosen levels")
    def test_gamma_changes_the_chosen_levels(self, tmp_path):
        # the default budget and grids: two gamma cells per lambda
        moved = []
        for seed in (1, 2, 3):
            images, _ = write_two_class_idx(tmp_path / str(seed), n=60, height=16, width=16,
                                            seed=seed)
            config = ExperimentConfig(dataset_path=str(images), output_dir=str(tmp_path),
                                      max_dims=4, k_nn=3, split_seed=seed,
                                      bootstrap_seed=seed, pso_seed=seed)
            levels = {}
            for cell in run_grid(prepare(config), config).cells:
                levels.setdefault(cell.lam, set()).add(cell.pso.best.m.tobytes())
            moved.append(any(len(chosen) > 1 for chosen in levels.values()))
        assert any(moved), moved

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2(b): f_Q scales as 1/epsilon, so the chosen "
                              "levels follow rounding, not the objective")
    def test_chosen_levels_do_not_track_epsilon(self, tmp_path):
        # the default budget and grids; epsilon x100 must leave every cell's best m
        moved = []
        for seed in (1, 2, 3):
            images, _ = write_two_class_idx(tmp_path / str(seed), n=60, height=16, width=16,
                                            seed=seed)
            config = ExperimentConfig(dataset_path=str(images), output_dir=str(tmp_path),
                                      max_dims=4, k_nn=3, split_seed=seed,
                                      bootstrap_seed=seed, pso_seed=seed)
            prepared = prepare(config)
            chosen = [[cell.pso.best.m.tobytes() for cell in
                       run_grid(prepared, dataclasses.replace(config, epsilon=eps)).cells]
                      for eps in (1e-7, 1e-5)]
            moved.append(sum(a != b for a, b in zip(*chosen)))
        assert not any(moved), moved

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 14: with n > d' the coarsest quantizer "
                              "scores a higher f_Q than the finest")
    @pytest.mark.parametrize("seed", [1, 2])
    def test_coarse_levels_score_below_fine_when_oversampled(self, tmp_path, seed):
        # 120 training images of 8x8 against d' = 64; one direction, as S_B has rank 1
        images, _ = write_two_class_idx(tmp_path, n=200, height=8, width=8, seed=seed)
        config = ExperimentConfig(dataset_path=str(images), output_dir=str(tmp_path),
                                  max_dims=1, split_seed=seed, bootstrap_seed=seed,
                                  pso_seed=seed)
        prepared = prepare(config)
        assert prepared.train.n == 120 and prepared.layout.d_prime == 64
        ctx = cost_context(prepared, config)
        coarse = evaluate_cost(np.full(64, 2), ctx, 0.0, 0.5).criterion
        fine = evaluate_cost(ctx.bounds.ell.copy(), ctx, 0.0, 0.5).criterion
        assert coarse < fine, (coarse, fine)


class TestOneSolvePerRun:
    def test_gamma_cells_share_solves(self, idx_paths, tmp_path, monkeypatch):
        calls = []
        for module in (qfda.pso, qfda.experiment):
            original = module.solve_subspace

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "solve_subspace", counted)
        config = small_config(idx_paths, tmp_path, gamma_grid=[0.1, 1.0], iterations=1)
        result = run_experiment(config)
        first, second = result.grid.cells
        # one round from the same seed: the second cell's vectors are all memo hits
        assert second.pso.evaluations == first.pso.evaluations
        assert len(calls) == first.pso.evaluations + 1  # the plain baseline solves once

    def test_pool_matches_serial_on_a_two_by_two_grid(self, idx_paths, tmp_path):
        outputs = []
        for threads in (1, 2):
            config = small_config(idx_paths, tmp_path / f"t{threads}", threads=threads,
                                  gamma_grid=[0.1, 1.0], lambda_grid=[0.5, 2.0])
            outputs.append(run_experiment(config).output_dir)
        serial, pooled = outputs
        names = ["grid.csv", "levels.csv"]
        names += [f"model/{p.name}" for p in sorted((serial / "model").iterdir())]
        assert len(names) > 2
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
