"""Command-line entry points for the quantized-discriminant pipeline.

Every subcommand reads the same config file format; `--set key=value`
overrides individual keys and the dedicated flags override the common ones.
`--seed` sets the split, bootstrap, and swarm seeds at once.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .blockdct import save_spectra
from .config import ExperimentConfig, apply_overrides, load_config
from .errors import QfdaError
from .experiment import (
    SPLITS,
    cost_context,
    export_eigenfaces,
    export_quantized_images,
    levels_csv,
    prepare,
    pso_config,
    quantized_reports,
    run_baseline_fda,
    run_experiment,
    trace_csv,
    write_errors,
    write_splits,
    write_text,
)
from .modelio import ModelBundle, load_model, save_model
from .pso import run_pso
from .quantizer import QuantizerSpec


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    if args.threads is not None:
        cfg.threads = args.threads
    if args.seed is not None:
        cfg.split_seed = args.seed
        cfg.bootstrap_seed = args.seed
        cfg.pso_seed = args.seed
    return cfg


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
    cache = out / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    for name in SPLITS:
        save_spectra(getattr(prepared, name), cache / f"{name}.spc")
    prepared.mean_image.astype(np.float64).tofile(cache / "mean.f64")
    write_splits(out, prepared.split_indices)
    print(f"cached {prepared.train.n}/{prepared.val.n}/{prepared.test.n} "
          f"train/val/test spectra under {cache}")


def _cmd_optimize(args):
    cfg = _build_config(args)
    prepared = prepare(cfg)
    ctx = cost_context(prepared, cfg)
    result = run_pso(ctx, pso_config(cfg, args.gamma, args.lam), threads=cfg.threads)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "levels.csv", levels_csv(result.best))
    write_text(out / "trace.csv", trace_csv(result))
    bundle = ModelBundle(bounds=ctx.bounds, levels=result.best,
                         subspace=result.breakdown.subspace,
                         layout=prepared.layout, gamma=args.gamma, lam=args.lam,
                         breakdown=result.breakdown)
    save_model(out / "model", bundle)
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
    _, reports = run_baseline_fda(prepare(cfg), cfg)
    _write_and_print(cfg, "fda", reports)


def _cmd_evaluate(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    spec = QuantizerSpec(bounds=bundle.bounds, levels=bundle.levels)
    _write_and_print(cfg, "qfda", quantized_reports(bundle.subspace, spec, prepare(cfg), cfg))


def _cmd_export_eigenfaces(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    count = args.count or min(cfg.eigenface_count, bundle.subspace.dim)
    paths = export_eigenfaces(bundle.subspace, bundle.layout, count,
                              Path(cfg.output_dir) / "eigenfaces")
    print(f"wrote {len(paths)} eigenface images")


def _cmd_export_quantized(args):
    cfg = _build_config(args)
    bundle = load_model(args.model)
    prepared = prepare(cfg)
    spec = QuantizerSpec(bounds=bundle.bounds, levels=bundle.levels)
    paths = export_quantized_images(
        prepared.train, spec, prepared.mean_image,
        Path(cfg.output_dir) / "quantized", count=args.count,
    )
    print(f"wrote {len(paths)} images")


def _cmd_report(args):
    cfg = _build_config(args)
    out = Path(cfg.output_dir)
    for name in ("grid.csv", "levels.csv"):
        path = out / name
        if path.exists():
            print(f"== {name} ==")
            print(path.read_text(encoding="utf-8").rstrip())
    for method in ("fda", "qfda"):
        for split in SPLITS:
            path = out / f"errors_{method}_{split}.csv"
            if not path.exists():
                continue
            lines = path.read_text(encoding="utf-8").strip().splitlines()
            stats = dict(line.split(",", 1) for line in lines[1:])
            print(f"{method} {split}: mean {float(stats['mean']):.4f} "
                  f"+- {float(stats['std']):.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfda",
        description="discriminant subspaces for uniformly quantized images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="ingest, split, and cache spectra")
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
    sp.add_argument("--count", type=int, default=0, help="how many directions")
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


if __name__ == "__main__":
    sys.exit(main())
