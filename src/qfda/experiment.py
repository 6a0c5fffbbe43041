"""End-to-end protocol: ingest, split, transform, optimize, evaluate, export.

The pipeline mirrors the deployment story: images are centered with the
training mean, block-DCT transformed, and (for the quantized method) run
through the optimized per-frequency quantizer.  Classification quality is
k-NN error (k = k_nn) averaged over subspaces of 1..max_dims leading
directions, reported as mean and population standard deviation; one sweep
over the directions scores every subspace of a split.  The quantized
method embeds the quantized spectra; the baseline embeds the original
spectra.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blockdct import BlockLayout, SpectrumSet, forward_dct, inverse_dct
from .config import ExperimentConfig, config_text
from .dataset import (
    RawImageSet,
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
    Subspace,
    plain_scatters,
    quantized_scatters,  # unused here; perfbench's tracer looks it up in this module
    solve_subspace,
)
from .errors import ConsistencyError, DataError, FormatError, read_text, write_text
from .modelio import ModelBundle, save_model
from .pso import CostContext, PsoConfig, PsoResult, run_pso
from .quantizer import LevelVector, QuantizerSpec, estimate_bounds, quantize
from .rate import fit_density

SPLITS = ("train", "val", "test")


def knn_error(
    train_coords: np.ndarray,
    train_labels: np.ndarray,
    eval_coords: np.ndarray,
    eval_labels: np.ndarray,
    k: int,
) -> np.ndarray:
    """Misclassification fraction of Euclidean k-NN majority vote, per q.

    Entry q - 1 scores the first q rows (directions) of the (rows, n)
    coordinate arrays.  Squared distances are accumulated one direction at
    a time, so memory stays at one (eval, train) array.  Class ids may be
    any integers.  The neighbours are the first k of a stable sort of each
    row, found by partial selection: every distance below the k-th smallest,
    then the lowest-index entries equal to it.  Vote ties go to the smaller
    class id (the first maximum over the sorted ids), so repeated runs agree
    exactly.
    """
    if eval_coords.shape[1] == 0:
        raise DataError("cannot evaluate on an empty set")
    if train_coords.shape[0] != eval_coords.shape[0]:
        raise ConsistencyError("coordinates have different dimensionality")
    n_train = train_coords.shape[1]
    if not 1 <= k <= n_train:
        raise ValueError(f"k={k} outside [1, {n_train}]")
    classes = np.unique(train_labels)
    d2 = np.zeros((eval_coords.shape[1], n_train))
    errors = np.empty(train_coords.shape[0])
    for q, (train_row, eval_row) in enumerate(zip(train_coords, eval_coords)):
        diff = eval_row[:, None] - train_row[None, :]
        d2 += diff * diff
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        nearer = d2 < kth
        tied = d2 == kth
        # where more entries tie at the k-th distance than fit, keep the
        # lowest-index ones
        room = k - nearer.sum(axis=1)
        crowded = np.flatnonzero(tied.sum(axis=1) > room)
        tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= room[crowded, None]
        # k chosen per row, so row-major column indices are the neighbours
        neighbours = np.nonzero(nearer | tied)[1].reshape(-1, k)
        votes = (train_labels[neighbours][:, :, None] == classes).sum(axis=1)
        predicted = classes[votes.argmax(axis=1)]
        errors[q] = np.mean(predicted != eval_labels)
    return errors


@dataclass
class EvalReport:
    """k-NN error over leading-direction counts q = 1..len(per_dim_errors)."""

    per_dim_errors: np.ndarray
    mean: float
    std: float

    @classmethod
    def from_errors(cls, errors) -> "EvalReport":
        errors = np.asarray(errors, dtype=np.float64)
        return cls(per_dim_errors=errors, mean=float(errors.mean()), std=float(errors.std()))


@dataclass
class PreparedData:
    """Centered block-DCT spectra of the three splits; layout is their geometry."""

    train: SpectrumSet
    val: SpectrumSet
    test: SpectrumSet
    mean_image: np.ndarray
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
    present = np.unique(raw.labels).tolist()
    if len(present) < 2:
        raise DataError(f"need images of at least two classes, got classes {present}")
    if config.resample_factor != 1:
        raw = resample(raw, config.resample_factor)
    train_idx, val_idx, test_idx = split_indices(raw, config.train_fraction, config.val_fraction,
                                                 config.test_fraction, config.split_seed)
    train_idx = _cap_train(train_idx, raw.labels, config.max_train_samples)
    if config.k_nn > len(train_idx):
        raise DataError(f"k_nn={config.k_nn} exceeds the {len(train_idx)} training images")
    train_c = center(subset(raw, train_idx))
    val_c = center(subset(raw, val_idx), mean_image=train_c.mean_image)
    test_c = center(subset(raw, test_idx), mean_image=train_c.mean_image)
    return PreparedData(
        train=forward_dct(train_c),
        val=forward_dct(val_c),
        test=forward_dct(test_c),
        mean_image=train_c.mean_image,
        split_indices=(train_idx, val_idx, test_idx),
    )


def prepare_for_model(bundle: ModelBundle, config: ExperimentConfig) -> PreparedData:
    """prepare(config), refused unless its images have the size the model was trained on."""
    prepared = prepare(config)
    model, data = bundle.layout, prepared.layout
    if model != data:
        raise ConsistencyError(f"model was trained on {model.height}x{model.width} images, "
                               f"the dataset has {data.height}x{data.width}")
    return prepared


def _subspace_dim(config: ExperimentConfig, prepared: PreparedData) -> int:
    return min(config.max_dims, prepared.layout.d_prime)


def run_baseline_fda(prepared: PreparedData, config: ExperimentConfig):
    """Plain discriminant subspace on non-quantized spectra, all splits."""
    pair = plain_scatters(prepared.train)
    sub = solve_subspace(pair, _subspace_dim(config, prepared), config.epsilon)
    return split_reports(sub, prepared, config)


def split_reports(subspace: Subspace, prepared: PreparedData, config: ExperimentConfig,
                  spec: QuantizerSpec | None = None, splits=SPLITS) -> dict:
    """k-NN error of the subspace on each named split against the training split.

    A report covers q = 1..max_dims leading directions.  The training split
    and each named split are projected once; given a spec, each is quantized
    with it first, and without one the original spectra are scored.
    """
    u = subspace.u[:, :config.max_dims]
    coords = {}
    for split in dict.fromkeys(("train", *splits)):
        spectra = getattr(prepared, split)
        coords[split] = u.T @ (spectra if spec is None else quantize(spectra, spec)).coeffs
    return {
        split: EvalReport.from_errors(knn_error(coords["train"], prepared.train.labels,
                                                coords[split], getattr(prepared, split).labels,
                                                config.k_nn))
        for split in splits
    }


@dataclass
class GridCell:
    gamma: float
    lam: float
    val_report: EvalReport
    pso: PsoResult


@dataclass
class GridResult:
    """Every cell's search, the chosen cell, and model: the quantizer and subspace it found."""

    cells: list
    chosen: GridCell
    model: ModelBundle


def cost_context(prepared: PreparedData, config: ExperimentConfig) -> CostContext:
    """Bounds and densities from one bootstrap sample of the training split.

    Build it once per run: its density's CDF tables and its solve memo serve
    every search that is given it.
    """
    s = config.bootstrap_size or min(100, prepared.train.n)
    return CostContext(
        spectra=prepared.train,
        bounds=estimate_bounds(prepared.train, s, config.bootstrap_seed),
        density=fit_density(prepared.train, s, config.bootstrap_seed),
        epsilon=config.epsilon,
        subspace_dim=_subspace_dim(config, prepared),
    )


def run_grid(prepared: PreparedData, config: ExperimentConfig) -> GridResult:
    """Swarm-optimize the level vector for every (gamma, lambda) pair.

    Each cell scores its best quantizer by validation error, in the subspace
    the swarm solved for it; the winning cell has minimal mean error, ties
    broken toward smaller gamma then smaller lambda.  All cells share one
    cost context, so a (lambda, m) is solved once per run, and a cell whose
    (lambda, best m) an earlier cell already scored reuses that val report.
    """
    ctx = cost_context(prepared, config)
    cells, val_reports = [], {}
    for gamma in config.gamma_grid:
        for lam in config.lambda_grid:
            search = PsoConfig(gamma=gamma, lam=lam, particles=config.particles,
                               iterations=config.iterations, seed=config.pso_seed)
            result = run_pso(ctx, search, threads=config.threads)
            key = (lam, result.best.m.tobytes())
            if key not in val_reports:
                spec = QuantizerSpec(bounds=ctx.bounds, levels=result.best)
                val_reports[key] = split_reports(result.breakdown.subspace, prepared, config,
                                                 spec, ("val",))["val"]
            cells.append(GridCell(gamma=gamma, lam=lam, val_report=val_reports[key],
                                  pso=result))
    chosen = min(cells, key=lambda c: (c.val_report.mean, c.gamma, c.lam))
    pso = chosen.pso
    model = ModelBundle(bounds=ctx.bounds, levels=pso.best, subspace=pso.breakdown.subspace,
                        layout=prepared.layout, gamma=chosen.gamma, lam=chosen.lam,
                        breakdown=pso.breakdown)
    return GridResult(cells=cells, chosen=chosen, model=model)


def finalize_model(prepared: PreparedData, config: ExperimentConfig, grid: GridResult) -> dict:
    """Reports of grid.model on all splits.

    The model's subspace is the one the swarm solved for the chosen level
    vector and lambda, so nothing is solved again here.  run_grid already
    scored the val split with this subspace and quantizer, so only train
    and test are scored.
    """
    model = grid.model
    scored = split_reports(model.subspace, prepared, config, model.spec, ("train", "test"))
    return {"train": scored["train"], "val": grid.chosen.val_report, "test": scored["test"]}


def _normalize_to_byte(image: np.ndarray) -> np.ndarray:
    lo, hi = image.min(), image.max()
    if hi - lo < 1e-12:
        return np.zeros(image.shape, dtype=np.float64)
    return (image - lo) * (255.0 / (hi - lo))


def export_eigenfaces(subspace: Subspace, layout: BlockLayout, count: int, output_dir):
    """Render the leading directions as images via the inverse transform."""
    if not 1 <= count <= subspace.dim:
        raise DataError(f"eigenface count {count} outside [1, {subspace.dim}]")
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

    Original and quantized panels add the mean back (write_pgm clamps them
    to [0, 255]); the centered panel is min-max scaled since it is signed by
    construction.
    """
    if count < 1:
        raise DataError(f"sample count {count} must be at least 1")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    count = min(count, spectra.n)
    head = SpectrumSet(spectra.coeffs[:, :count], spectra.layout, spectra.labels[:count])
    centered = inverse_dct(head)
    quantized = inverse_dct(quantize(head, spec))
    h, w = centered.height, centered.width
    paths = []
    for i in range(count):
        panels = {
            "original": centered.pixels[:, i] + mean_image,
            "centered": _normalize_to_byte(centered.pixels[:, i]),
            "quantized": quantized.pixels[:, i] + mean_image,
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
    by_pair = {(c.gamma, c.lam): c.val_report.mean for c in grid.cells}
    rows = [["gamma", *map(_fmt, config.lambda_grid)]]
    rows += [[_fmt(gamma)] + [_fmt(by_pair[(gamma, lam)]) for lam in config.lambda_grid]
             for gamma in config.gamma_grid]
    return "".join(",".join(row) + "\n" for row in rows)


def errors_csv(report: EvalReport) -> str:
    rows = [("q", "error"), *enumerate(map(_fmt, report.per_dim_errors), start=1),
            ("mean", _fmt(report.mean)), ("std", _fmt(report.std))]
    return "".join(f"{key},{value}\n" for key, value in rows)


def read_errors(path) -> tuple:
    """(mean, std) of a file errors_csv wrote; FormatError names a file that is not one."""
    lines = read_text(path).splitlines()
    try:
        rows = dict(line.split(",", 1) for line in lines[1:])
        return float(rows["mean"]), float(rows["std"])
    except KeyError as exc:
        raise FormatError(f"{path}: errors file has no {exc} line") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: bad errors file: {exc}") from exc


def levels_csv(levels: LevelVector) -> str:
    return "k,m\n" + "".join(f"{k},{int(m)}\n" for k, m in enumerate(levels.m))


def trace_csv(pso: PsoResult) -> str:
    return "round,particle,cost,best_cost\n" + "".join(
        f"{r},{i},{_fmt(cost)},{_fmt(best)}\n" for r, i, cost, best in pso.trace)


def write_search(directory, pso: PsoResult) -> None:
    """levels.csv and trace.csv of one swarm search."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_text(directory / "levels.csv", levels_csv(pso.best))
    write_text(directory / "trace.csv", trace_csv(pso))


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
    """Full protocol: baseline, grid search, final model, file exports.

    The result's bundle is grid.model.  Notes on the run, such as optimum
    levels that favor high frequencies, arrive only in the result's
    warnings list; no Python warning is raised.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "config.txt", config_text(config))

    prepared = prepare(config)
    write_splits(out, prepared.split_indices)

    fda_reports = run_baseline_fda(prepared, config)
    write_errors(out, "fda", fda_reports)

    grid = run_grid(prepared, config)
    write_text(out / "grid.csv", grid_csv(grid, config))
    for cell in grid.cells:
        write_search(out / f"cell_g{_fmt(cell.gamma)}_l{_fmt(cell.lam)}", cell.pso)

    qfda_reports = finalize_model(prepared, config, grid)
    bundle = grid.model
    write_errors(out, "qfda", qfda_reports)
    write_search(out, grid.chosen.pso)
    save_model(out / "model", bundle)

    export_eigenfaces(bundle.subspace, prepared.layout,
                      min(config.eigenface_count, bundle.subspace.dim), out / "eigenfaces")
    export_quantized_images(prepared.train, bundle.spec, prepared.mean_image, out / "quantized")

    notes = []
    m = bundle.levels.m
    low, high = float(m[:8].mean()), float(m[56:].mean())
    if low < high:
        notes.append(f"optimum levels favor high frequencies (low-band mean {low:.2f} "
                     f"< high-band mean {high:.2f}); small swarm budgets can do this")

    return ExperimentResult(
        output_dir=out,
        fda_reports=fda_reports,
        qfda_reports=qfda_reports,
        grid=grid,
        bundle=bundle,
        warnings=notes,
    )
