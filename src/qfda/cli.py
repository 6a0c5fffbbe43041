"""Command-line entry points for the quantized-discriminant pipeline.

Every subcommand reads the same config file format; `--set key=value`
overrides individual keys and the dedicated flags override the common ones.
`--seed` sets the split, bootstrap, and swarm seeds at once.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ExperimentConfig, apply_overrides, load_config
from .errors import DataError, FormatError, QfdaError, read_text
from .experiment import (
    SPLITS,
    export_eigenfaces,
    export_quantized_images,
    prepare,
    prepare_for_model,
    read_errors,
    run_baseline_fda,
    run_experiment,
    run_grid,
    split_reports,
    write_errors,
    write_search,
    write_splits,
)
from .modelio import load_model, save_model


def _build_config(args, **fields) -> ExperimentConfig:
    flags = dict(fields)
    if args.output_dir:
        flags["output_dir"] = args.output_dir
    if args.threads is not None:
        flags["threads"] = args.threads
    if args.seed is not None:
        flags.update(split_seed=args.seed, bootstrap_seed=args.seed, pso_seed=args.seed)
    cfg = ExperimentConfig()
    try:
        if args.config:
            cfg = load_config(args.config, base=cfg)
        if args.set:
            cfg = apply_overrides(cfg, args.set)
        # replace() reruns the config's validation on the flag values
        return dataclasses.replace(cfg, **flags)
    except ValueError as exc:
        raise FormatError(f"bad config: {exc}") from exc


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="set split, bootstrap, and swarm seeds")
    parser.add_argument("--output-dir", help="where result files go")
    parser.add_argument("--threads", type=int, help="cost-evaluation thread count")


def _cmd_prepare(args):
    cfg = _build_config(args)
    prepared = prepare(cfg)
    out = Path(cfg.output_dir)
    write_splits(out, prepared.split_indices)
    print(f"wrote {prepared.train.n}/{prepared.val.n}/{prepared.test.n} "
          f"train/val/test indices under {out / 'splits'}")


def _cmd_optimize(args):
    # a one-cell grid, so gamma and lambda pass the grid keys' checks
    cfg = _build_config(args, gamma_grid=[args.gamma], lambda_grid=[args.lam])
    prepared = prepare(cfg)
    grid = run_grid(prepared, cfg)
    result = grid.chosen.pso
    out = Path(cfg.output_dir)
    write_search(out, result)
    save_model(out / "model", grid.model)
    print(f"best cost {result.breakdown.total:.6f} "
          f"(criterion {result.breakdown.criterion:.6f}, "
          f"rate {result.breakdown.rate:.4f} bits) "
          f"after {result.evaluations} evaluations")


def _cmd_grid(args):
    cfg = _build_config(args)
    result = run_experiment(cfg)
    chosen = result.grid.chosen
    print(f"chosen gamma={chosen.gamma} lambda={chosen.lam} "
          f"val error {chosen.val_report.mean:.4f}")
    for split in ("train", "val", "test"):
        fda = result.fda_reports[split]
        qfda = result.qfda_reports[split]
        print(f"{split}: fda {fda.mean:.4f} +- {fda.std:.4f} | "
              f"qfda {qfda.mean:.4f} +- {qfda.std:.4f}")
    for note in result.warnings:
        print(f"warning: {note}")
    print(f"results under {result.output_dir}")


def _write_and_print(cfg, method, reports):
    write_errors(cfg.output_dir, method, reports)
    for split, report in reports.items():
        print(f"{split}: {report.mean:.4f} +- {report.std:.4f}")


def _cmd_baseline(args):
    cfg = _build_config(args)
    _write_and_print(cfg, "fda", run_baseline_fda(prepare(cfg), cfg))


def _cmd_evaluate(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    prepared = prepare_for_model(bundle, cfg)
    _write_and_print(cfg, "qfda", split_reports(bundle.subspace, prepared, cfg, bundle.spec))


def _cmd_export_eigenfaces(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    count = args.count
    if count is None:
        count = min(cfg.eigenface_count, bundle.subspace.dim)
    paths = export_eigenfaces(bundle.subspace, bundle.layout, count,
                              Path(cfg.output_dir) / "eigenfaces")
    print(f"wrote {len(paths)} eigenface images")


def _cmd_export_quantized(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    prepared = prepare_for_model(bundle, cfg)
    paths = export_quantized_images(
        prepared.train, bundle.spec, prepared.mean_image,
        Path(cfg.output_dir) / "quantized", count=args.count,
    )
    print(f"wrote {len(paths)} images")


def _cmd_report(args):
    cfg = _build_config(args)
    out = Path(cfg.output_dir)
    tables = [out / "grid.csv", out / "levels.csv"]
    errors = {f"{method} {split}": out / f"errors_{method}_{split}.csv"
              for method in ("fda", "qfda") for split in SPLITS}
    if not any(path.exists() for path in tables + list(errors.values())):
        raise DataError(f"{out}: no grid.csv, levels.csv or errors_*.csv to report")
    for path in tables:
        if path.exists():
            print(f"== {path.name} ==")
            print(read_text(path).rstrip())
    for name, path in errors.items():
        if path.exists():
            mean, std = read_errors(path)
            print(f"{name}: mean {mean:.4f} +- {std:.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfda",
        description="discriminant subspaces for uniformly quantized images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="ingest and split; writes OUTPUT_DIR/splits/")
    _add_common(sp)
    sp.set_defaults(func=_cmd_prepare)

    sp = sub.add_parser("optimize", help="swarm-search levels for one (gamma, lambda)")
    _add_common(sp)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("grid", help="full protocol over the config grids")
    _add_common(sp)
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("baseline", help="non-quantized discriminant baseline")
    _add_common(sp)
    sp.set_defaults(func=_cmd_baseline)

    sp = sub.add_parser("evaluate", help="score a saved model on all splits")
    _add_common(sp)
    sp.add_argument("--model", required=True, help="model directory")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("export-eigenfaces", help="render leading directions as images")
    _add_common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--count", type=int,
                    help="how many directions (default: eigenface_count)")
    sp.set_defaults(func=_cmd_export_eigenfaces)

    sp = sub.add_parser("export-quantized", help="render quantized reconstructions")
    _add_common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--count", type=int, default=6)
    sp.set_defaults(func=_cmd_export_quantized)

    sp = sub.add_parser("report", help="print a summary of an output directory")
    _add_common(sp)
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (QfdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0

