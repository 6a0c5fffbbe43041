"""Experiment configuration: a flat dataclass, a `key = value` file format,
and command-line overrides.

Config files hold one assignment per line; blank lines are ignored, and `#`
at line start or after whitespace starts a comment (`run#2` keeps its `#`).
List-valued keys take comma-separated entries.  Unknown keys are rejected,
and an error names its source: the file and line, or the `--set` entry.
"""

import dataclasses
import math
from dataclasses import dataclass, field, fields

from .errors import FormatError, read_text, strip_comment


@dataclass
class ExperimentConfig:
    # data source
    dataset_kind: str = "idx"      # "idx" or "pgm_dir"
    dataset_path: str = ""
    labels_path: str = ""          # empty: derived from dataset_path for idx
    class_map: str = ""            # pgm_dir only: 'subdirectory = id' file
    classes: list = field(default_factory=list)   # empty: keep all classes
    images_per_class: int = 0      # 0: keep all images
    resample_factor: float = 1.0   # shrink factor in (0, 1]

    # split
    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    split_seed: int = 0
    max_train_samples: int = 2000

    # model
    epsilon: float = 1e-7
    max_dims: int = 20
    k_nn: int = 10

    # quantizer search
    gamma_grid: list = field(default_factory=lambda: [0.1, 1.0])
    lambda_grid: list = field(default_factory=lambda: [0.5, 2.0])
    particles: int = 5
    iterations: int = 10
    pso_seed: int = 0
    bootstrap_size: int = 0        # 0: min(100, training set size)
    bootstrap_seed: int = 0

    # execution
    output_dir: str = "out"
    threads: int = 1
    eigenface_count: int = 18

    def __post_init__(self):
        fractions = (self.train_fraction, self.val_fraction, self.test_fraction)
        if not all(0 < f < 1 for f in fractions):
            raise ValueError(f"split fractions {fractions!r} must each lie in (0, 1)")
        fr = sum(fractions)
        if abs(fr - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {fr!r}, expected 1")
        if self.dataset_kind not in ("idx", "pgm_dir"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if not self.gamma_grid or not self.lambda_grid:
            raise ValueError("gamma and lambda grids must be nonempty")
        for name in _LIST_KEYS:
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} {entries!r} repeats an entry")
        if self.max_dims < 1 or self.k_nn < 1:
            raise ValueError("max_dims and k_nn must be at least 1")
        if self.particles < 1 or self.iterations < 1:
            raise ValueError("particles and iterations must be at least 1")
        if not 0 < self.resample_factor <= 1:
            raise ValueError(f"resample_factor {self.resample_factor!r} outside (0, 1]")
        if self.max_train_samples < 1:
            raise ValueError("max_train_samples must be at least 1")
        if self.images_per_class < 0:
            raise ValueError("images_per_class must be at least 0")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon {self.epsilon!r} must be positive and finite")
        if not all(0 <= g < math.inf for g in self.gamma_grid):
            raise ValueError(f"gamma_grid {self.gamma_grid!r} must be finite and >= 0")
        if not all(map(math.isfinite, self.lambda_grid)):
            raise ValueError(f"lambda_grid {self.lambda_grid!r} must be finite")
        if min(self.split_seed, self.pso_seed, self.bootstrap_seed) < 0:
            raise ValueError("split_seed, pso_seed and bootstrap_seed must be at least 0")
        if self.eigenface_count < 1 or self.threads < 1:
            raise ValueError("eigenface_count and threads must be at least 1")
        if self.bootstrap_size < 0:
            raise ValueError("bootstrap_size must be at least 0")


_LIST_KEYS = {"classes": int, "gamma_grid": float, "lambda_grid": float}


def _parse_value(name: str, text: str, target_type):
    text = text.strip()
    if name in _LIST_KEYS:
        if not text:
            return []
        return [_LIST_KEYS[name](tok) for tok in text.split(",")]
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    return text


def _parse_lines(lines, base: ExperimentConfig | None) -> ExperimentConfig:
    """Apply (where, line) pairs on top of a copy of base; where begins any error."""
    cfg = dataclasses.replace(base) if base is not None else ExperimentConfig()
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    for where, raw in lines:
        line = strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{where}: expected 'key = value', got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        if name not in by_name:
            raise FormatError(f"{where}: unknown config key {name!r}")
        try:
            setattr(cfg, name, _parse_value(name, value, by_name[name].type))
        except ValueError as exc:
            raise FormatError(f"{where}: bad value for {name!r}: {exc}") from exc
    cfg.__post_init__()
    return cfg


def parse_config_text(text: str, base: ExperimentConfig | None = None,
                      source: str = "config") -> ExperimentConfig:
    """Parse config file text; an error names the source and the line."""
    lines = ((f"{source}: line {lineno}", raw)
             for lineno, raw in enumerate(text.splitlines(), start=1))
    return _parse_lines(lines, base)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    return parse_config_text(read_text(path), base=base, source=str(path))


def apply_overrides(cfg: ExperimentConfig, pairs: list) -> ExperimentConfig:
    """Apply 'key=value' strings on top of a parsed config; an error names its --set."""
    return _parse_lines(((f"--set {pair}", pair) for pair in pairs), cfg)


def config_text(cfg: ExperimentConfig) -> str:
    """Render a config back to the file format, one key per line."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
