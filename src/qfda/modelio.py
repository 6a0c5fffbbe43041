"""Saving and loading a trained quantized-discriminant model.

A model directory holds two files: ``model.json`` with the quantizer
(bounds and levels as comma-separated integers), the cost weights, and a
reference to the subspace file; and ``subspace.bin`` with the projection
matrix.  The JSON is written with sorted keys so identical models produce
identical bytes.
"""

import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .blockdct import BlockLayout
from .discriminant import Subspace, load_subspace, save_subspace
from .errors import FormatError
from .pso import CostBreakdown
from .quantizer import BoundVector, LevelVector, QuantizerSpec, vector_from_line

MODEL_FILE = "model.json"
SUBSPACE_FILE = "subspace.bin"


@dataclass
class ModelBundle:
    bounds: BoundVector
    levels: LevelVector
    subspace: Subspace
    layout: BlockLayout
    gamma: float
    lam: float
    breakdown: CostBreakdown


def save_model(directory, bundle: ModelBundle) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_subspace(directory / SUBSPACE_FILE, bundle.subspace)
    payload = {
        "bounds": bundle.bounds.to_line(),
        "bootstrap_seed": bundle.bounds.bootstrap_seed,
        "bootstrap_size": bundle.bounds.bootstrap_size,
        "cost": bundle.breakdown.total,
        "criterion": bundle.breakdown.criterion,
        "epsilon": bundle.subspace.epsilon,
        "gamma": bundle.gamma,
        "height": bundle.layout.height,
        "lambda": bundle.lam,
        "levels": bundle.levels.to_line(),
        "padded_height": bundle.layout.padded_height,
        "padded_width": bundle.layout.padded_width,
        "rate": bundle.breakdown.rate,
        "subspace_dim": bundle.subspace.dim,
        "subspace_file": SUBSPACE_FILE,
        "width": bundle.layout.width,
    }
    path = directory / MODEL_FILE
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _parsed(payload, key, parse):
    """parse(payload[key]); a value it rejects raises a FormatError naming key."""
    try:
        return parse(payload[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"model file has a bad {key!r}: {exc}") from exc


def load_model(directory) -> ModelBundle:
    directory = Path(directory)
    try:
        with open(directory / MODEL_FILE, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"unreadable model file: {exc}") from exc
    for key in ("bounds", "levels", "gamma", "lambda", "subspace_file",
                "height", "width", "padded_height", "padded_width"):
        if key not in payload:
            raise FormatError(f"model file is missing {key!r}")
    subspace = load_subspace(_parsed(payload, "subspace_file", lambda name: directory / name))
    layout = BlockLayout(**{key: _parsed(payload, key, operator.index) for key in
                            ("height", "width", "padded_height", "padded_width")})
    if subspace.u.shape[0] != layout.d_prime:
        raise FormatError(f"subspace has d' = {subspace.u.shape[0]}, but the model's "
                          f"padded image is {layout.padded_height}x{layout.padded_width} "
                          f"= {layout.d_prime}")
    bounds = _parsed(payload, "bounds", lambda line: BoundVector(
        ell=vector_from_line(line),
        bootstrap_seed=payload.get("bootstrap_seed", 0),
        bootstrap_size=payload.get("bootstrap_size", 0),
    ))
    # the spec rejects any m_k outside [2, ell_k]
    levels = _parsed(payload, "levels", lambda line: QuantizerSpec(
        bounds, LevelVector(m=vector_from_line(line))).levels)
    return ModelBundle(
        bounds=bounds,
        levels=levels,
        subspace=subspace,
        layout=layout,
        gamma=payload["gamma"],
        lam=payload["lambda"],
        breakdown=CostBreakdown(
            criterion=payload.get("criterion", float("nan")),
            rate=payload.get("rate", float("nan")),
            total=payload.get("cost", float("nan")),
        ),
    )
