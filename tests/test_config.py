import dataclasses

import pytest

from qfda.config import (
    ExperimentConfig,
    apply_overrides,
    config_text,
    load_config,
    parse_config_text,
)
from qfda.errors import FormatError


class TestParsing:
    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config_text(config_text(cfg)) == cfg

    def test_round_trip_customized(self):
        cfg = ExperimentConfig(dataset_kind="pgm_dir", dataset_path="faces",
                               classes=[3, 7], gamma_grid=[0.5],
                               lambda_grid=[0.1, 0.2, 0.3], threads=4)
        assert parse_config_text(config_text(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# a comment\n"
            "\n"
            "split_seed = 9   # trailing note\n"
            "gamma_grid = 0.1, 1.0\n")
        assert cfg.split_seed == 9
        assert cfg.gamma_grid == [0.1, 1.0]

    def test_hash_inside_a_value_is_kept(self):
        cfg = ExperimentConfig(output_dir="run#2")
        assert parse_config_text(config_text(cfg)) == cfg
        assert apply_overrides(cfg, ["dataset_path=d#1/x # note"]).dataset_path == "d#1/x"

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_config_text("split_seed = 1\nsplitseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(FormatError):
            parse_config_text("split_seed 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(FormatError, match="split_seed"):
            parse_config_text("split_seed = soon\n")

    def test_empty_list_value(self):
        cfg = parse_config_text("classes =\n")
        assert cfg.classes == []

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dataset_path = data/images\nmax_dims = 12\n")
        cfg = load_config(path)
        assert cfg.dataset_path == "data/images"
        assert cfg.max_dims == 12


class TestOverrides:
    def test_overrides_win_and_base_is_untouched(self):
        base = ExperimentConfig(split_seed=1, threads=2)
        out = apply_overrides(base, ["split_seed=5", "k_nn=3"])
        assert out.split_seed == 5 and out.k_nn == 3 and out.threads == 2
        assert base.split_seed == 1 and base.k_nn == 10

    def test_bad_override_rejected(self):
        with pytest.raises(FormatError):
            apply_overrides(ExperimentConfig(), ["nope=1"])


class TestValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ExperimentConfig(train_fraction=0.5, val_fraction=0.2,
                             test_fraction=0.2)
        with pytest.raises(ValueError):
            parse_config_text("train_fraction = 0.9\n")

    def test_dataset_kind_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_kind="csv")

    def test_grids_must_be_nonempty(self):
        with pytest.raises(ValueError):
            parse_config_text("gamma_grid =\n")

    def test_config_text_covers_every_field(self):
        text = config_text(ExperimentConfig())
        for f in dataclasses.fields(ExperimentConfig):
            assert f"{f.name} = " in text

    def test_dims_and_neighbors_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(max_dims=0)
        with pytest.raises(ValueError):
            parse_config_text("k_nn = 0\n")

    @pytest.mark.parametrize("key", ["inertia", "cognitive", "social"])
    def test_swarm_coefficients_are_not_config_keys(self, key):
        # the swarm always uses the constriction constants in qfda.pso
        with pytest.raises(FormatError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 0.5\n")

    def test_zero_gamma_accepted(self):
        assert parse_config_text("gamma_grid = 0, 1\n").gamma_grid == [0.0, 1.0]
