"""End-to-end protocol: ingest, split, transform, optimize, evaluate, export.

The pipeline mirrors the deployment story: images are centered with the
training mean, block-DCT transformed, and (for the quantized method) run
through the optimized per-frequency quantizer.  Classification quality is
10-NN error averaged over subspaces of 1..max_dims leading directions,
reported as mean and population standard deviation.  The quantized method
embeds the quantized spectra; the baseline embeds the original spectra.
"""

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blockdct import BlockLayout, SpectrumSet, forward_dct, inverse_dct
from .config import ExperimentConfig, config_text
from .dataset import (
    RawImageSet,
    SplitSpec,
    center,
    load_idx,
    load_pgm_dir,
    parse_class_map,
    resample,
    save_split_indices,
    select_classes,
    split_indices,
    subset,
    write_pgm,
)
from .discriminant import (
    Projection,
    Subspace,
    plain_scatters,
    project,
    quantized_scatters,  # unused here; perfbench's tracer looks it up in this module
    solve_subspace,
)
from .errors import ConsistencyError, DataError
from .modelio import ModelBundle, save_model
from .pso import CostContext, PsoConfig, PsoResult, run_pso
from .quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    estimate_bounds,
    quantize,
)
from .rate import fit_density

SPLITS = ("train", "val", "test")


def knn_error(train_proj: Projection, eval_proj: Projection, k: int) -> float:
    """Misclassification fraction of Euclidean k-NN majority vote.

    Distance ties resolve to the smaller training index (stable sort) and
    vote ties to the smaller class id, so repeated runs agree exactly.
    """
    if eval_proj.coords.shape[1] == 0:
        raise DataError("cannot evaluate on an empty set")
    if train_proj.coords.shape[0] != eval_proj.coords.shape[0]:
        raise ConsistencyError("projections have different dimensionality")
    n_train = train_proj.coords.shape[1]
    if not 1 <= k <= n_train:
        raise ValueError(f"k={k} outside [1, {n_train}]")
    diff = eval_proj.coords[:, :, None] - train_proj.coords[:, None, :]
    d2 = np.einsum("qet,qet->et", diff, diff)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = train_proj.labels[order]
    predicted = np.array([np.bincount(row).argmax() for row in votes])
    return float(np.mean(predicted != eval_proj.labels))


@dataclass
class EvalReport:
    """k-NN error over leading-direction counts q = 1..len(per_dim_errors)."""

    method: str   # "fda" or "qfda"
    split: str    # "train", "val", "test"
    per_dim_errors: np.ndarray
    mean: float
    std: float

    @classmethod
    def from_errors(cls, method, split, errors) -> "EvalReport":
        errors = np.asarray(errors, dtype=np.float64)
        return cls(
            method=method,
            split=split,
            per_dim_errors=errors,
            mean=float(errors.mean()),
            std=float(errors.std()),
        )


def evaluate_subspace(
    subspace: Subspace,
    train: SpectrumSet,
    eval_set: SpectrumSet,
    config: ExperimentConfig,
    method: str,
    split: str,
) -> EvalReport:
    """k-NN error for every leading-direction count up to max_dims."""
    q_max = min(config.max_dims, subspace.dim)
    train_full = project(train, subspace, q_max)
    eval_full = project(eval_set, subspace, q_max)
    errors = []
    for q in range(1, q_max + 1):
        tp = Projection(coords=train_full.coords[:q], labels=train_full.labels)
        ep = Projection(coords=eval_full.coords[:q], labels=eval_full.labels)
        errors.append(knn_error(tp, ep, config.k_nn))
    return EvalReport.from_errors(method, split, errors)


@dataclass
class PreparedData:
    """Centered block-DCT spectra of the three splits plus geometry."""

    train: SpectrumSet
    val: SpectrumSet
    test: SpectrumSet
    mean_image: np.ndarray
    height: int
    width: int
    split_indices: tuple  # (train, val, test) indices into the loaded set

    @property
    def layout(self) -> BlockLayout:
        return self.train.layout


def load_dataset(config: ExperimentConfig) -> RawImageSet:
    if config.dataset_kind == "idx":
        labels_path = config.labels_path or None
        return load_idx(config.dataset_path, labels_path)
    class_map = parse_class_map(config.class_map) if config.class_map else None
    return load_pgm_dir(config.dataset_path, class_map)


def _cap_train(indices: np.ndarray, labels: np.ndarray, cap: int) -> np.ndarray:
    """Trim a train index set to at most cap entries, round-robin by class."""
    if len(indices) <= cap:
        return indices
    per_class = [indices[labels[indices] == j] for j in np.unique(labels[indices])]
    kept = []
    depth = 0
    while len(kept) < cap:
        for group in per_class:
            if depth < len(group) and len(kept) < cap:
                kept.append(group[depth])
        depth += 1
    return np.sort(np.array(kept))


def prepare(config: ExperimentConfig) -> PreparedData:
    """Load, subset, resample, split, center with the training mean, DCT."""
    raw = load_dataset(config)
    if config.classes or config.images_per_class:
        classes = config.classes or np.unique(raw.labels).tolist()
        raw = select_classes(raw, classes, per_class=config.images_per_class or None)
    if config.resample_factor != 1:
        raw = resample(raw, config.resample_factor)
    spec = SplitSpec(
        train_fraction=config.train_fraction,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        seed=config.split_seed,
    )
    train_idx, val_idx, test_idx = split_indices(raw, spec)
    train_idx = _cap_train(train_idx, raw.labels, config.max_train_samples)
    train_c = center(subset(raw, train_idx), provenance="train")
    val_c = center(subset(raw, val_idx), mean_image=train_c.mean_image, provenance="val")
    test_c = center(subset(raw, test_idx), mean_image=train_c.mean_image, provenance="test")
    return PreparedData(
        train=forward_dct(train_c),
        val=forward_dct(val_c),
        test=forward_dct(test_c),
        mean_image=train_c.mean_image,
        height=raw.height,
        width=raw.width,
        split_indices=(train_idx, val_idx, test_idx),
    )


def _subspace_dim(config: ExperimentConfig, prepared: PreparedData) -> int:
    return min(config.max_dims, prepared.layout.d_prime)


def run_baseline_fda(prepared: PreparedData, config: ExperimentConfig):
    """Plain discriminant subspace on non-quantized spectra, all splits."""
    pair = plain_scatters(prepared.train)
    sub = solve_subspace(pair, _subspace_dim(config, prepared), config.epsilon)
    reports = {
        split: evaluate_subspace(sub, prepared.train, getattr(prepared, split), config,
                                 "fda", split)
        for split in SPLITS
    }
    return sub, reports


def quantized_reports(
    subspace: Subspace,
    spec: QuantizerSpec,
    prepared: PreparedData,
    config: ExperimentConfig,
    splits=SPLITS,
) -> dict:
    """Quantize the training split and each named split; k-NN error per split."""
    train_q = quantize(prepared.train, spec)
    return {
        split: evaluate_subspace(
            subspace,
            train_q,
            train_q if split == "train" else quantize(getattr(prepared, split), spec),
            config,
            "qfda",
            split,
        )
        for split in splits
    }


@dataclass
class GridCell:
    gamma: float
    lam: float
    best_m: LevelVector
    val_report: EvalReport
    pso: PsoResult


@dataclass
class GridResult:
    cells: list
    chosen: GridCell
    bounds: BoundVector
    bootstrap_size: int


def cost_context(prepared: PreparedData, config: ExperimentConfig) -> CostContext:
    """Bounds and densities from one bootstrap sample of the training split."""
    s = config.bootstrap_size or min(100, prepared.train.n)
    return CostContext(
        spectra=prepared.train,
        bounds=estimate_bounds(prepared.train, s, config.bootstrap_seed),
        density=fit_density(prepared.train, s, config.bootstrap_seed),
        epsilon=config.epsilon,
        subspace_dim=_subspace_dim(config, prepared),
    )


def pso_config(config: ExperimentConfig, gamma: float, lam: float) -> PsoConfig:
    return PsoConfig(
        gamma=gamma,
        lam=lam,
        particles=config.particles,
        iterations=config.iterations,
        inertia=config.inertia,
        cognitive=config.cognitive,
        social=config.social,
        seed=config.pso_seed,
    )


def run_grid(prepared: PreparedData, config: ExperimentConfig) -> GridResult:
    """Swarm-optimize the level vector for every (gamma, lambda) pair.

    Each cell scores its best quantizer by validation error, in the subspace
    the swarm solved for it; the winning cell has minimal mean error, ties
    broken toward smaller gamma then smaller lambda.
    """
    ctx = cost_context(prepared, config)
    cells = []
    for gamma in config.gamma_grid:
        for lam in config.lambda_grid:
            result = run_pso(ctx, pso_config(config, gamma, lam), threads=config.threads)
            spec = QuantizerSpec(bounds=ctx.bounds, levels=result.best)
            report = quantized_reports(result.breakdown.subspace, spec, prepared, config,
                                       ("val",))["val"]
            cells.append(
                GridCell(gamma=gamma, lam=lam, best_m=result.best,
                         val_report=report, pso=result)
            )
    chosen = min(cells, key=lambda c: (c.val_report.mean, c.gamma, c.lam))
    return GridResult(cells=cells, chosen=chosen, bounds=ctx.bounds,
                      bootstrap_size=ctx.density.s)


def finalize_model(prepared: PreparedData, config: ExperimentConfig, grid: GridResult):
    """Bundle the chosen cell's quantizer and subspace; evaluate all splits.

    The subspace is the one the swarm solved for the chosen level vector
    and lambda, so nothing is solved again here.
    """
    cell = grid.chosen
    spec = QuantizerSpec(bounds=grid.bounds, levels=cell.best_m)
    sub = cell.pso.breakdown.subspace
    reports = quantized_reports(sub, spec, prepared, config)
    bundle = ModelBundle(
        bounds=grid.bounds,
        levels=cell.best_m,
        subspace=sub,
        layout=prepared.layout,
        gamma=cell.gamma,
        lam=cell.lam,
        breakdown=cell.pso.breakdown,
    )
    return bundle, reports


def _normalize_to_byte(image: np.ndarray) -> np.ndarray:
    lo, hi = image.min(), image.max()
    if hi - lo < 1e-12:
        return np.zeros(image.shape, dtype=np.float64)
    return (image - lo) * (255.0 / (hi - lo))


def export_eigenfaces(subspace: Subspace, layout: BlockLayout, count: int, output_dir):
    """Render the leading directions as images via the inverse transform."""
    if not 1 <= count <= subspace.dim:
        raise ValueError(f"count {count} outside [1, {subspace.dim}]")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    spectra = SpectrumSet(
        coeffs=subspace.u[:, :count].copy(),
        layout=layout,
        labels=np.zeros(count, dtype=np.int64),
    )
    rendered = inverse_dct(spectra)
    paths = []
    for i in range(count):
        image = _normalize_to_byte(rendered.pixels[:, i]).reshape(layout.height, layout.width)
        path = output_dir / f"eigenface_{i:02d}.pgm"
        write_pgm(path, image)
        paths.append(path)
    return paths


def export_quantized_images(
    spectra: SpectrumSet,
    spec: QuantizerSpec,
    mean_image: np.ndarray,
    output_dir,
    count: int = 6,
):
    """Write original, centered, and quantized renderings per sample.

    Original and quantized panels add the mean back and clamp to [0,255];
    the centered panel is min-max scaled since it is signed by construction.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    count = min(count, spectra.n)
    centered = inverse_dct(spectra)
    quantized = inverse_dct(quantize(spectra, spec))
    h, w = centered.height, centered.width
    paths = []
    for i in range(count):
        panels = {
            "original": np.clip(centered.pixels[:, i] + mean_image, 0.0, 255.0),
            "centered": _normalize_to_byte(centered.pixels[:, i]),
            "quantized": np.clip(quantized.pixels[:, i] + mean_image, 0.0, 255.0),
        }
        for name, image in panels.items():
            path = output_dir / f"sample_{i:02d}_{name}.pgm"
            write_pgm(path, image.reshape(h, w))
            paths.append(path)
    return paths


def _fmt(value: float) -> str:
    return repr(float(value))


def grid_csv(grid: GridResult, config: ExperimentConfig) -> str:
    """Validation mean errors, rows over gamma, columns over lambda."""
    header = "gamma" + "".join(f",{_fmt(l)}" for l in config.lambda_grid)
    by_pair = {(c.gamma, c.lam): c for c in grid.cells}
    lines = [header]
    for gamma in config.gamma_grid:
        row = [_fmt(gamma)]
        for lam in config.lambda_grid:
            row.append(_fmt(by_pair[(gamma, lam)].val_report.mean))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def errors_csv(report: EvalReport) -> str:
    lines = ["q,error"]
    for q, err in enumerate(report.per_dim_errors, start=1):
        lines.append(f"{q},{_fmt(err)}")
    lines.append(f"mean,{_fmt(report.mean)}")
    lines.append(f"std,{_fmt(report.std)}")
    return "\n".join(lines) + "\n"


def levels_csv(levels: LevelVector) -> str:
    lines = ["k,m"]
    for k, m in enumerate(levels.m):
        lines.append(f"{k},{int(m)}")
    return "\n".join(lines) + "\n"


def trace_csv(pso: PsoResult) -> str:
    lines = ["round,particle,cost,best_cost"]
    for round_idx, particle, cost, best in pso.trace:
        lines.append(f"{round_idx},{particle},{_fmt(cost)},{_fmt(best)}")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_errors(output_dir, method: str, reports: dict) -> None:
    """One errors_{method}_{split}.csv per report."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for split, report in reports.items():
        write_text(output_dir / f"errors_{method}_{split}.csv", errors_csv(report))


def write_splits(output_dir, split_indices) -> None:
    """One splits/{split}.txt index list per split."""
    splits_dir = Path(output_dir) / "splits"
    splits_dir.mkdir(parents=True, exist_ok=True)
    for name, idx in zip(SPLITS, split_indices):
        save_split_indices(splits_dir / f"{name}.txt", idx)


@dataclass
class ExperimentResult:
    output_dir: Path
    fda_reports: dict
    qfda_reports: dict
    grid: GridResult
    bundle: ModelBundle
    warnings: list = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Full protocol: baseline, grid search, final model, file exports."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "config.txt", config_text(config))

    prepared = prepare(config)
    write_splits(out, prepared.split_indices)

    _, fda_reports = run_baseline_fda(prepared, config)
    write_errors(out, "fda", fda_reports)

    grid = run_grid(prepared, config)
    write_text(out / "grid.csv", grid_csv(grid, config))
    for cell in grid.cells:
        cell_dir = out / f"cell_g{_fmt(cell.gamma)}_l{_fmt(cell.lam)}"
        cell_dir.mkdir(exist_ok=True)
        write_text(cell_dir / "trace.csv", trace_csv(cell.pso))
        write_text(cell_dir / "levels.csv", levels_csv(cell.best_m))

    bundle, qfda_reports = finalize_model(prepared, config, grid)
    write_errors(out, "qfda", qfda_reports)
    write_text(out / "levels.csv", levels_csv(bundle.levels))
    write_text(out / "trace.csv", trace_csv(grid.chosen.pso))
    save_model(out / "model", bundle)

    export_eigenfaces(
        bundle.subspace,
        prepared.layout,
        min(config.eigenface_count, bundle.subspace.dim),
        out / "eigenfaces",
    )
    export_quantized_images(
        prepared.train,
        QuantizerSpec(bounds=bundle.bounds, levels=bundle.levels),
        prepared.mean_image,
        out / "quantized",
    )

    notes = []
    m = bundle.levels.m
    low, high = float(m[:8].mean()), float(m[56:].mean())
    if low < high:
        message = (
            f"optimum levels favor high frequencies (low-band mean {low:.2f} "
            f"< high-band mean {high:.2f}); small swarm budgets can do this"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        notes.append(message)

    return ExperimentResult(
        output_dir=out,
        fda_reports=fda_reports,
        qfda_reports=qfda_reports,
        grid=grid,
        bundle=bundle,
        warnings=notes,
    )
