"""Saving and loading a trained quantized-discriminant model.

A model directory holds two files: ``model.json`` with the quantizer
(bounds and levels as comma-separated integers), the cost weights and the
image size; and ``subspace.bin`` with the projection matrix, its
eigenvalues and the epsilon it was solved with.  Each value lives in one
file only.  The JSON is written with sorted keys so identical models produce
identical bytes; keys the loader does not read are ignored.
"""

import json
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockdct import BlockLayout
from .discriminant import Subspace
from .errors import FormatError, read_text, write_text
from .pso import CostBreakdown
from .quantizer import BoundVector, LevelVector, QuantizerSpec, vector_from_line

MODEL_FILE = "model.json"
SUBSPACE_FILE = "subspace.bin"
SUBSPACE_MAGIC = b"QSUB"


@dataclass
class ModelBundle:
    bounds: BoundVector
    levels: LevelVector
    subspace: Subspace
    layout: BlockLayout
    gamma: float
    lam: float
    breakdown: CostBreakdown

    @property
    def spec(self) -> QuantizerSpec:
        return QuantizerSpec(bounds=self.bounds, levels=self.levels)


def save_subspace(path, subspace: Subspace) -> None:
    """Binary layout: magic, d', p, epsilon, column-major U, eigenvalues."""
    d, p = subspace.u.shape
    with open(path, "wb") as fh:
        fh.write(SUBSPACE_MAGIC)
        fh.write(struct.pack("<2i", d, p))
        fh.write(struct.pack("<d", subspace.epsilon))
        fh.write(np.ascontiguousarray(subspace.u.T).tobytes())
        fh.write(subspace.eigenvalues.astype(np.float64).tobytes())


def load_subspace(path) -> Subspace:
    """Read save_subspace's layout; a damaged file raises FormatError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SUBSPACE_MAGIC:
        raise FormatError(f"{path}: bad subspace magic {data[:4]!r}")
    if len(data) < 20:
        raise FormatError(f"{path}: truncated subspace header")
    d, p = struct.unpack_from("<2i", data, 4)
    (epsilon,) = struct.unpack_from("<d", data, 12)
    if d < 1 or p < 1:
        raise FormatError(f"{path}: bad subspace shape {d} x {p}")
    if len(data) != 20 + 8 * p * (d + 1):
        raise FormatError(f"{path}: subspace payload is {len(data) - 20} bytes, "
                          f"expected {8 * p * (d + 1)} for {d} x {p}")
    u = np.frombuffer(data, dtype="<f8", count=d * p, offset=20).reshape(p, d).T.copy()
    vals = np.frombuffer(data, dtype="<f8", count=p, offset=20 + 8 * d * p).copy()
    if not (np.isfinite(u).all() and np.isfinite(vals).all()):
        raise FormatError(f"{path}: non-finite subspace directions or eigenvalues")
    return Subspace(u=u, eigenvalues=vals, epsilon=epsilon)


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
        "gamma": bundle.gamma,
        "height": bundle.layout.height,
        "lambda": bundle.lam,
        "levels": bundle.levels.to_line(),
        "rate": bundle.breakdown.rate,
        "width": bundle.layout.width,
    }
    path = directory / MODEL_FILE
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _parsed(path, payload, key, parse):
    """parse(payload[key]); a value it rejects raises a FormatError naming path and key."""
    try:
        return parse(payload[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: model file has a bad {key!r}: {exc}") from exc


def _image_side(value) -> int:
    """A JSON integer of at least 1; a JSON boolean is not one."""
    if isinstance(value, bool) or operator.index(value) < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return value


def load_model(directory) -> ModelBundle:
    """Read save_model's directory; a damaged model.json raises FormatError naming it."""
    directory = Path(directory)
    path = directory / MODEL_FILE
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: unreadable model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: model file's top-level value is not a JSON object")
    for key in ("bounds", "levels", "gamma", "lambda", "height", "width"):
        if key not in payload:
            raise FormatError(f"{path}: model file is missing {key!r}")
    subspace_path = directory / SUBSPACE_FILE
    subspace = load_subspace(subspace_path)
    layout = BlockLayout.for_image(_parsed(path, payload, "height", _image_side),
                                   _parsed(path, payload, "width", _image_side))
    # subspace.bin is outside input, so its d' must match the image size
    if subspace.u.shape[0] != layout.d_prime:
        raise FormatError(f"{subspace_path}: subspace has d' = {subspace.u.shape[0]}, but "
                          f"the model's padded image is "
                          f"{layout.padded_height}x{layout.padded_width} = {layout.d_prime}")
    bounds = _parsed(path, payload, "bounds", lambda line: BoundVector(
        ell=vector_from_line(line),
        bootstrap_seed=payload.get("bootstrap_seed", 0),
        bootstrap_size=payload.get("bootstrap_size", 0),
    ))
    # the spec rejects any m_k outside [2, ell_k]
    levels = _parsed(path, payload, "levels", lambda line: QuantizerSpec(
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
