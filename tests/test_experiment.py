import numpy as np
import pytest

import qfda.experiment
import qfda.pso

from qfda.blockdct import BlockLayout, SpectrumSet, forward_dct, inverse_dct
from qfda.config import ExperimentConfig
from qfda.dataset import read_pgm
from qfda.discriminant import (
    Projection,
    plain_scatters,
    quantized_scatters,
    solve_subspace,
)
from qfda.errors import ConsistencyError, DataError
from qfda.experiment import (
    EvalReport,
    errors_csv,
    evaluate_subspace,
    export_eigenfaces,
    export_quantized_images,
    grid_csv,
    knn_error,
    levels_csv,
    prepare,
    run_baseline_fda,
    run_experiment,
    run_grid,
    trace_csv,
)
from qfda.modelio import load_model, save_model
from qfda.quantizer import QuantizerSpec, estimate_bounds, quantize

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


def proj(coords, labels):
    return Projection(coords=np.asarray(coords, dtype=np.float64),
                      labels=np.asarray(labels, dtype=np.int64))


class TestKnnError:
    def test_matches_brute_force_on_integer_grids(self):
        # integer coordinates make squared distances exact, so distance
        # ties actually occur and both tie rules get exercised
        rng = np.random.default_rng(23)
        for trial in range(10):
            q = rng.integers(1, 4)
            n_train = int(rng.integers(10, 50))
            n_eval = int(rng.integers(5, 30))
            k = int(rng.integers(1, min(8, n_train) + 1))
            tc = rng.integers(0, 5, size=(q, n_train)).astype(np.float64)
            ec = rng.integers(0, 5, size=(q, n_eval)).astype(np.float64)
            tl = rng.integers(0, 3, size=n_train)
            el = rng.integers(0, 3, size=n_eval)
            got = knn_error(proj(tc, tl), proj(ec, el), k)
            assert got == knn_oracle(tc, tl, ec, el, k)

    def test_self_evaluation_is_zero(self):
        rng = np.random.default_rng(24)
        coords = rng.normal(size=(3, 30))
        labels = rng.integers(0, 4, size=30)
        assert knn_error(proj(coords, labels), proj(coords, labels), 1) == 0.0

    def test_distance_tie_takes_smaller_train_index(self):
        train = proj([[0.0, 0.0]], [1, 0])
        assert knn_error(train, proj([[0.0]], [1]), 1) == 0.0
        assert knn_error(train, proj([[0.0]], [0]), 1) == 1.0

    def test_vote_tie_takes_smaller_class_id(self):
        train = proj([[0.0, 0.0]], [1, 0])
        assert knn_error(train, proj([[0.0]], [0]), 2) == 0.0

    def test_validation(self):
        train = proj(np.zeros((2, 5)), np.zeros(5))
        with pytest.raises(ValueError):
            knn_error(train, proj(np.zeros((2, 3)), np.zeros(3)), 6)
        with pytest.raises(ConsistencyError):
            knn_error(train, proj(np.zeros((3, 3)), np.zeros(3)), 1)
        with pytest.raises(DataError):
            knn_error(train, proj(np.zeros((2, 0)), np.zeros(0)), 1)


class TestEvalReport:
    def test_population_moments(self):
        errors = [0.1, 0.2, 0.4]
        report = EvalReport.from_errors("fda", "val", errors)
        assert report.mean == pytest.approx(np.mean(errors), abs=1e-12)
        assert report.std == pytest.approx(np.std(errors), abs=1e-12)

    def test_single_entry_has_zero_std(self):
        report = EvalReport.from_errors("qfda", "test", [0.25])
        assert report.mean == 0.25 and report.std == 0.0


def separable_sets():
    x, labels = gaussian_class_spectra(n_per_class=30, separation=8.0, seed=4)
    layout = BlockLayout.for_image(8, 8)
    train = SpectrumSet(coeffs=x[:, ::2], layout=layout, labels=labels[::2])
    evl = SpectrumSet(coeffs=x[:, 1::2], layout=layout, labels=labels[1::2])
    return train, evl


class TestEvaluateSubspace:
    def test_separated_clusters_score_zero(self):
        train, evl = separable_sets()
        config = ExperimentConfig(max_dims=5, k_nn=3)
        sub = solve_subspace(plain_scatters(train), 5, config.epsilon)
        report = evaluate_subspace(sub, train, evl, config, "fda", "val")
        assert report.per_dim_errors.shape == (5,)
        np.testing.assert_array_equal(report.per_dim_errors, np.zeros(5))

    def test_first_entry_is_single_direction_knn(self):
        train, evl = separable_sets()
        config = ExperimentConfig(max_dims=4, k_nn=3)
        sub = solve_subspace(plain_scatters(train), 8, config.epsilon)
        report = evaluate_subspace(sub, train, evl, config, "fda", "val")
        assert len(report.per_dim_errors) == 4
        one = knn_error(
            proj(sub.u[:, :1].T @ train.coeffs, train.labels),
            proj(sub.u[:, :1].T @ evl.coeffs, evl.labels), 3)
        assert report.per_dim_errors[0] == one


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
        assert (prepared.height, prepared.width) == (16, 16)
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

    def test_train_cap_is_balanced(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, max_train_samples=10)
        prepared = prepare(config)
        assert prepared.train.n == 10
        counts = np.bincount(prepared.train.labels)
        np.testing.assert_array_equal(counts, [5, 5])

    def test_class_selection(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, classes=[1],
                              images_per_class=20)
        prepared = prepare(config)
        total = prepared.train.n + prepared.val.n + prepared.test.n
        assert total == 20
        for spectra in (prepared.train, prepared.val, prepared.test):
            assert (spectra.labels == 0).all()

    def test_resampling_shrinks_geometry(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path, resample_factor=0.5)
        prepared = prepare(config)
        assert (prepared.height, prepared.width) == (8, 8)
        assert prepared.layout.d_prime == 64


class TestBaseline:
    def test_reports_cover_all_splits(self, idx_paths, tmp_path):
        config = small_config(idx_paths, tmp_path)
        prepared = prepare(config)
        _, reports = run_baseline_fda(prepared, config)
        assert set(reports) == {"train", "val", "test"}
        for split, report in reports.items():
            assert report.method == "fda" and report.split == split
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
        assert grid.bootstrap_size == 36

    def test_budget_and_level_bounds(self, experiment):
        _, result = experiment
        for cell in result.grid.cells:
            assert cell.pso.evaluations <= 3 * 3
            assert (cell.best_m.m >= 2).all()
            assert (cell.best_m.m <= result.grid.bounds.ell).all()

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
        with pytest.raises(ValueError):
            export_eigenfaces(result.bundle.subspace, result.bundle.layout,
                              99, tmp_path / "bad")

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
        spec = QuantizerSpec(bounds=result.grid.bounds, levels=chosen.best_m)
        pair = quantized_scatters(prepared.train, quantize(prepared.train, spec),
                                  chosen.lam)
        expected = solve_subspace(pair, min(config.max_dims, prepared.layout.d_prime),
                                  config.epsilon)
        assert result.bundle.subspace.u.tobytes() == expected.u.tobytes()
        assert result.bundle.subspace.eigenvalues.tobytes() == \
            expected.eigenvalues.tobytes()

    def test_saved_breakdown_carries_no_subspace(self, experiment):
        _, result = experiment
        assert result.bundle.breakdown.subspace is result.bundle.subspace
        assert load_model(result.output_dir / "model").breakdown.subspace is None
