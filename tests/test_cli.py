import numpy as np
import pytest

from qfda.blockdct import load_spectra
from qfda.cli import main
from qfda.dataset import load_split_indices

from helpers import write_two_class_idx


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


class TestPrepareCommand:
    def test_caches_spectra_and_splits(self, idx_paths, tmp_path, capsys):
        out = tmp_path / "prep"
        assert main(["prepare"] + base_args(idx_paths, out)) == 0
        assert "36/12/12" in capsys.readouterr().out
        train = load_spectra(out / "cache" / "train.spc")
        assert train.n == 36 and train.layout.d_prime == 256
        mean = np.fromfile(out / "cache" / "mean.f64", dtype=np.float64)
        assert mean.shape == (256,)
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
