import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qfda.__main__ import BLAS_THREAD_VARIABLES
from qfda.cli import main
from qfda.dataset import load_split_indices, write_idx
from qfda.discriminant import Subspace
from qfda.modelio import load_subspace, save_subspace

from helpers import two_class_images, write_two_class_idx


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_fixture")
    return write_two_class_idx(directory, n=60, height=16, width=16, seed=3)


def base_args(idx_paths, out):
    return [
        "--set", f"dataset_path={idx_paths[0]}",
        "--set", "max_dims=4", "--set", "k_nn=3",
        "--set", "gamma_grid=0.1", "--set", "lambda_grid=0.5",
        "--set", "particles=3", "--set", "iterations=3",
        "--set", "eigenface_count=3",
        "--output-dir", str(out),
    ]


class TestGridCommand:
    def test_full_run_and_report(self, idx_paths, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["grid"] + base_args(idx_paths, out)) == 0
        stdout = capsys.readouterr().out
        assert "chosen gamma=0.1 lambda=0.5" in stdout
        for split in ("train", "val", "test"):
            assert f"{split}: fda" in stdout
        assert (out / "grid.csv").is_file()
        assert (out / "model" / "model.json").is_file()

        assert main(["report", "--output-dir", str(out)]) == 0
        report = capsys.readouterr().out
        assert "== grid.csv ==" in report
        assert "qfda test: mean" in report

    def test_low_band_note_printed_once_and_not_raised(self, idx_paths, tmp_path, capsys):
        # this budget and seed end at low-band mean 51.12 < high-band mean 63.62
        args = ["--set", "particles=1", "--set", "iterations=1", "--set", "pso_seed=136"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["grid"] + base_args(idx_paths, tmp_path / "run") + args) == 0
        captured = capsys.readouterr()
        notes = [line for line in captured.out.splitlines()
                 if line.startswith("warning: optimum levels favor high frequencies")]
        assert len(notes) == 1, captured.out
        assert "51.12 < high-band mean 63.62" in notes[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert captured.err == ""


class TestPrepareCommand:
    def test_caches_spectra_and_splits(self, idx_paths, tmp_path, capsys):
        out = tmp_path / "prep"
        assert main(["prepare"] + base_args(idx_paths, out)) == 0
        assert "36/12/12" in capsys.readouterr().out
        assert not (out / "cache").exists()
        idx = load_split_indices(out / "splits" / "val.txt")
        assert len(idx) == 12

    def test_seed_changes_the_split(self, idx_paths, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["prepare", "--seed", "1"] + base_args(idx_paths, out_a)) == 0
        assert main(["prepare", "--seed", "2"] + base_args(idx_paths, out_b)) == 0
        a = load_split_indices(out_a / "splits" / "train.txt")
        b = load_split_indices(out_b / "splits" / "train.txt")
        assert not np.array_equal(a, b)


@pytest.fixture(scope="module")
def model_dir(idx_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("opt")
    code = main(["optimize", "--gamma", "0.1", "--lambda", "0.5"]
                + base_args(idx_paths, out))
    assert code == 0
    return out


class TestOptimizeEvaluateExport:
    def test_optimize_outputs(self, model_dir, capsys):
        assert (model_dir / "levels.csv").is_file()
        assert (model_dir / "trace.csv").is_file()
        assert (model_dir / "model" / "model.json").is_file()
        assert (model_dir / "model" / "subspace.bin").is_file()

    def test_evaluate_saved_model(self, idx_paths, model_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--model", str(model_dir / "model")]
                    + base_args(idx_paths, out))
        assert code == 0
        stdout = capsys.readouterr().out
        for split in ("train", "val", "test"):
            assert f"{split}: " in stdout
            assert (out / f"errors_qfda_{split}.csv").is_file()

    def test_evaluate_reproduces_grid_errors(self, idx_paths, tmp_path, capsys):
        grid_out, eval_out = tmp_path / "grid", tmp_path / "eval"
        assert main(["grid"] + base_args(idx_paths, grid_out)) == 0
        assert main(["evaluate", "--model", str(grid_out / "model")]
                    + base_args(idx_paths, eval_out)) == 0
        for split in ("train", "val", "test"):
            name = f"errors_qfda_{split}.csv"
            assert (eval_out / name).read_bytes() == (grid_out / name).read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "export-quantized"])
    def test_evaluate_on_other_image_size_exits_1(self, model_dir, tmp_path, capsys, command):
        small = write_two_class_idx(tmp_path / "small", n=60, height=8, width=8, seed=3)
        code = main([command, "--model", str(model_dir / "model")]
                    + base_args(small, tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "16x16" in err and "8x8" in err
        assert not (tmp_path / "out" / "quantized").exists()

    def test_optimize_matches_the_grid_cell(self, idx_paths, tmp_path):
        opt, grid = tmp_path / "opt", tmp_path / "grid"
        args = ["--seed", "4", "--set", "particles=2", "--set", "iterations=2"]
        assert main(["optimize", "--gamma", "1.0", "--lambda", "2.0"]
                    + base_args(idx_paths, opt) + args) == 0
        assert main(["grid"] + base_args(idx_paths, grid) + args
                    + ["--set", "gamma_grid=1.0", "--set", "lambda_grid=2.0"]) == 0
        for name in ("levels.csv", "trace.csv", "model/model.json", "model/subspace.bin"):
            assert (opt / name).read_bytes() == (grid / name).read_bytes(), name

    def test_export_commands(self, idx_paths, model_dir, tmp_path, capsys):
        out = tmp_path / "exports"
        code = main(["export-eigenfaces", "--model", str(model_dir / "model"),
                     "--count", "2"] + base_args(idx_paths, out))
        assert code == 0
        assert len(list((out / "eigenfaces").glob("*.pgm"))) == 2
        code = main(["export-quantized", "--model", str(model_dir / "model"),
                     "--count", "1"] + base_args(idx_paths, out))
        assert code == 0
        assert len(list((out / "quantized").glob("*.pgm"))) == 3


class TestErrorPaths:
    def test_unknown_config_key(self, capsys):
        assert main(["grid", "--set", "nope=1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_error_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("max_dims = 4\nnope = 1\n")
        assert main(["baseline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: line 2: unknown config key 'nope'\n"

    def test_override_error_names_the_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_dims = 4\n")
        code = main(["baseline", "--config", str(cfg),
                     "--set", "k_nn=3", "--set", "max_dims=few"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: --set max_dims=few: bad value for 'max_dims': ")

    def test_missing_dataset_file(self, tmp_path, capsys):
        code = main(["baseline",
                     "--set", "dataset_path=/no/such-images-idx3-ubyte",
                     "--output-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_underivable_labels_path(self, tmp_path, capsys):
        code = main(["baseline", "--set", "dataset_path=/does/not/exist",
                     "--output-dir", str(tmp_path)])
        assert code == 1
        assert "labels" in capsys.readouterr().err

    def test_corrupt_dataset_file(self, tmp_path, capsys):
        bad = tmp_path / "bad-images-idx3-ubyte"
        bad.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 16)
        code = main(["baseline", "--set", f"dataset_path={bad}",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_dataset_header(self, tmp_path, capsys):
        bad = tmp_path / "cut-images-idx3-ubyte"
        bad.write_bytes(b"\x00\x00\x08\x03\x00\x00")
        code = main(["prepare", "--set", f"dataset_path={bad}",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err

    def test_hash_inside_an_override_path_is_kept(self, idx_paths, tmp_path):
        # '#' starts a comment only at line start or after whitespace
        data = tmp_path / "d#1"
        shutil.copytree(idx_paths[0].parent, data)
        out = tmp_path / "out"
        assert main(["baseline"] + base_args((data / idx_paths[0].name,), out)) == 0
        assert (out / "errors_fda_val.csv").is_file()

    def test_config_file_and_overrides_compose(self, idx_paths, tmp_path,
                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset_path = {idx_paths[0]}\n"
                       "max_dims = 4\nk_nn = 3\n")
        out = tmp_path / "out"
        code = main(["baseline", "--config", str(cfg),
                     "--set", "max_dims=2", "--output-dir", str(out)])
        assert code == 0
        text = (out / "errors_fda_val.csv").read_text()
        assert text.startswith("q,error\n1,")
        assert len(text.strip().split("\n")) == 2 + 1 + 2  # header, q=1..2, mean/std

    @pytest.mark.parametrize("override", ["train_fraction=0.5", "dataset_kind=zip",
                                          "k_nn=0", "max_dims=0"])
    def test_invalid_config_value(self, idx_paths, override, tmp_path, capsys):
        code = main(["baseline"] + base_args(idx_paths, tmp_path)
                    + ["--set", override])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["particles=0", "iterations=0",
                                          "resample_factor=2", "resample_factor=0",
                                          "max_train_samples=0",
                                          "images_per_class=-1", "epsilon=-1",
                                          "eigenface_count=0", "eigenface_count=-1",
                                          "bootstrap_size=-1", "k_nn=100",
                                          "threads=0", "threads=-2",
                                          "split_seed=-1", "bootstrap_seed=-1",
                                          "pso_seed=-1", "epsilon=inf",
                                          "gamma_grid=-5", "gamma_grid=0.1,nan",
                                          "lambda_grid=inf", "classes=0,0,1",
                                          "gamma_grid=0.1,0.1",
                                          "lambda_grid=0.5,0.5"])
    def test_out_of_range_config_value(self, idx_paths, override, tmp_path,
                                       capsys):
        code = main(["grid"] + base_args(idx_paths, tmp_path)
                    + ["--set", override])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("fractions", [(1.2, -0.1, -0.1), (0, 0.5, 0.5)],
                             ids=["above-one", "zero"])
    def test_split_fraction_outside_unit_interval(self, idx_paths, fractions,
                                                  tmp_path, capsys):
        sets = []
        for name, value in zip(("train", "val", "test"), fractions):
            sets += ["--set", f"{name}_fraction={value}"]
        code = main(["baseline"] + base_args(idx_paths, tmp_path) + sets)
        assert code == 1
        assert "error: bad config" in capsys.readouterr().err

    def test_threads_flag_is_validated(self, idx_paths, tmp_path, capsys):
        code = main(["grid"] + base_args(idx_paths, tmp_path) + ["--threads", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_negative_seed_flag_is_validated(self, idx_paths, tmp_path, capsys):
        code = main(["grid"] + base_args(idx_paths, tmp_path) + ["--seed", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_export_eigenfaces_count_defaults_to_config(self, idx_paths, model_dir,
                                                        tmp_path):
        code = main(["export-eigenfaces", "--model", str(model_dir / "model")]
                    + base_args(idx_paths, tmp_path))
        assert code == 0
        assert len(list((tmp_path / "eigenfaces").glob("*.pgm"))) == 3  # eigenface_count

    @pytest.mark.parametrize("command", ["export-eigenfaces", "export-quantized"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_export_count_below_one(self, idx_paths, model_dir, command, count,
                                    tmp_path, capsys):
        code = main([command, "--model", str(model_dir / "model"),
                     "--count", count] + base_args(idx_paths, tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.pgm"))

    @pytest.mark.parametrize("classes", ["0,5", "1,5"])
    def test_requested_class_without_images_exits_1(self, idx_paths, classes,
                                                     tmp_path, capsys):
        code = main(["baseline"] + base_args(idx_paths, tmp_path)
                    + ["--set", f"classes={classes}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "[5]" in err
        assert not list(tmp_path.glob("errors_*.csv"))

    def test_label_ids_with_gaps(self, tmp_path, capsys):
        # ids {3, 7} and {0, 1} on the same images give the same errors
        raw = two_class_images(n=60, height=16, width=16, seed=3)
        dense = raw.labels.copy()
        for ids in ((3, 7), (0, 1)):
            raw.labels = np.where(dense == 0, *ids)
            name = f"ids{ids[0]}{ids[1]}"
            images = tmp_path / f"{name}-images-idx3-ubyte"
            write_idx(raw, images, tmp_path / f"{name}-labels-idx1-ubyte")
            code = main(["baseline"] + base_args((images, None), tmp_path / name)
                        + ["--set", f"classes={ids[0]},{ids[1]}"])
            assert code == 0, capsys.readouterr().err
        for split in ("train", "val", "test"):
            csv = f"errors_fda_{split}.csv"
            assert (tmp_path / "ids37" / csv).read_bytes() == \
                (tmp_path / "ids01" / csv).read_bytes()

    @pytest.mark.parametrize("damage", ["bad-mean", "no-mean"])
    def test_report_on_damaged_errors_file_exits_1(self, idx_paths, damage,
                                                   tmp_path, capsys):
        assert main(["baseline"] + base_args(idx_paths, tmp_path)) == 0
        path = tmp_path / "errors_fda_val.csv"
        lines = path.read_text().splitlines()
        if damage == "bad-mean":
            lines = [line if not line.startswith("mean,") else "mean,abc" for line in lines]
        else:
            lines = [line for line in lines if not line.startswith("mean,")]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err

    @pytest.mark.parametrize("gamma, lam", [("-5", "0.5"), ("nan", "0.5"),
                                            ("0.1", "inf"), ("0.1", "nan")])
    def test_optimize_checks_gamma_and_lambda_like_the_grid(self, idx_paths, gamma, lam,
                                                            tmp_path, capsys):
        code = main(["optimize", "--gamma", gamma, "--lambda", lam]
                    + base_args(idx_paths, tmp_path))
        assert code == 1
        assert "error: bad config" in capsys.readouterr().err
        assert not (tmp_path / "levels.csv").exists()

    def test_report_without_results_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "no-such-run"
        assert main(["report", "--output-dir", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(missing) in err

    def test_too_few_training_images_for_max_dims(self, idx_paths, tmp_path,
                                                  capsys):
        # 6 training images span only 6 dimensions: 20 directions cannot exist
        code = main(["baseline"] + base_args(idx_paths, tmp_path)
                    + ["--set", "max_train_samples=6", "--set", "max_dims=20"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "20" in err and "r = 6" in err


class TestDamagedModel:
    @pytest.mark.parametrize("damage", ["subspace.bin", "height", "width"])
    def test_export_eigenfaces_exits_1(self, model_dir, tmp_path, damage,
                                       capsys):
        # damage is the truncated file or the model.json key removed
        model = tmp_path / "model"
        shutil.copytree(model_dir / "model", model)
        if damage == "subspace.bin":
            path = model / "subspace.bin"
            path.write_bytes(path.read_bytes()[:-5])
        else:
            payload = json.loads((model / "model.json").read_text())
            del payload[damage]
            (model / "model.json").write_text(json.dumps(payload))
        code = main(["export-eigenfaces", "--model", str(model),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "null"])
    def test_model_json_not_an_object_exits_1(self, idx_paths, model_dir, tmp_path,
                                              value, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir / "model", model)
        (model / "model.json").write_text(value + "\n")
        code = main(["evaluate", "--model", str(model)]
                    + base_args(idx_paths, tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model / 'model.json'}: ")
        assert "JSON object" in err
        assert not (tmp_path / "out").exists()

    def test_subspace_size_differs_from_model_exits_1(self, idx_paths, model_dir,
                                                       tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir / "model", model)
        sub = load_subspace(model / "subspace.bin")
        save_subspace(model / "subspace.bin", Subspace(
            u=sub.u[:64], eigenvalues=sub.eigenvalues, epsilon=sub.epsilon))
        code = main(["evaluate", "--model", str(model)]
                    + base_args(idx_paths, tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "64" in err and "256" in err

    @pytest.mark.parametrize("damage", ["nan-direction", "inf-eigenvalue",
                                        "bad-magic", "truncated-header"])
    def test_damaged_subspace_file_exits_1(self, idx_paths, model_dir, tmp_path,
                                           damage, capsys):
        model = tmp_path / "model"
        shutil.copytree(model_dir / "model", model)
        path = model / "subspace.bin"
        sub = load_subspace(path)
        if damage == "nan-direction":
            sub.u[0, 0] = np.nan
            save_subspace(path, sub)
        elif damage == "inf-eigenvalue":
            sub.eigenvalues[-1] = np.inf
            save_subspace(path, sub)
        elif damage == "bad-magic":
            path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        else:
            path.write_bytes(path.read_bytes()[:12])
        code = main(["evaluate", "--model", str(model)]
                    + base_args(idx_paths, tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("levels", "a,b"), ("bounds", "3,4"), ("height", "x"),
    ("levels", ",".join(["1"] * 64)), ("levels", "ell+1"),
    ("height", 0), ("width", -3), ("height", True)],
    ids=["levels-not-integers", "bounds-2-entries", "height-string",
         "levels-below-2", "levels-above-ell", "height-zero", "width-negative",
         "height-boolean"])
def test_damaged_model_value_exits_1(idx_paths, model_dir, tmp_path, key, value,
                                     capsys):
    model = tmp_path / "model"
    shutil.copytree(model_dir / "model", model)
    payload = json.loads((model / "model.json").read_text())
    if value == "ell+1":
        ell = [int(v) for v in payload["bounds"].split(",")]
        levels = [int(v) for v in payload["levels"].split(",")]
        levels[0] = ell[0] + 1
        value = ",".join(str(v) for v in levels)
    payload[key] = value
    (model / "model.json").write_text(json.dumps(payload))
    code = main(["evaluate", "--model", str(model)] + base_args(idx_paths, tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["model.json", "errors csv", "class map", "config"])
def test_undecodable_file_exits_1(idx_paths, model_dir, tmp_path, target, capsys):
    out = tmp_path / "out"
    if target == "config":
        path = tmp_path / "bad.cfg"
        argv = ["baseline", "--config", str(path)] + base_args(idx_paths, out)
    elif target == "model.json":
        model = tmp_path / "model"
        shutil.copytree(model_dir / "model", model)
        path = model / "model.json"
        argv = ["evaluate", "--model", str(model)] + base_args(idx_paths, out)
    elif target == "errors csv":
        assert main(["baseline"] + base_args(idx_paths, out)) == 0
        path = out / "errors_fda_val.csv"
        argv = ["report", "--output-dir", str(out)]
    else:
        path = tmp_path / "classes.map"
        argv = ["baseline", "--set", "dataset_kind=pgm_dir",
                "--set", f"dataset_path={tmp_path}", "--set", f"class_map={path}",
                "--output-dir", str(out)]
    path.write_bytes(b"\xff" + (path.read_bytes() if path.exists() else b"a = 0\n"))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestConsoleEntry:
    """The console entry pins one BLAS thread before numpy loads, unless set."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    VARIABLES = BLAS_THREAD_VARIABLES
    # runs the entry as the console script does, then prints what it left set
    CODE = "\n".join([
        "import os, sys",
        "from qfda.__main__ import main",
        "assert 'numpy' not in sys.modules",
        "sys.argv = ['qfda', '--help']",
        "try:",
        "    main()",
        "except SystemExit as exc:",
        "    assert exc.code == 0",
        "assert 'numpy' in sys.modules",
        f"print(*(os.environ.get(name) for name in {VARIABLES!r}))",
    ])

    def run(self, args, **blas):
        env = {k: v for k, v in os.environ.items() if k not in self.VARIABLES}
        env.update(blas, PYTHONPATH=str(self.SRC))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)

    def test_unset_variables_read_one(self):
        done = self.run(["-c", self.CODE])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == ["1"] * len(self.VARIABLES)

    def test_a_value_the_user_set_is_kept(self):
        done = self.run(["-c", self.CODE], OPENBLAS_NUM_THREADS="2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == [
            "2" if name == "OPENBLAS_NUM_THREADS" else "1" for name in self.VARIABLES]

    def test_python_m_qfda_runs_the_cli(self):
        done = self.run(["-m", "qfda", "--help"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: qfda")
