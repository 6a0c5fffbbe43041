"""One benchmark process: make a workload's IDX pair, run the experiment,
check its outputs and print its metrics.

run.py starts this file with the BLAS thread variables and PYTHONPATH
already set, so it is not meant to be run by hand.  Human-readable lines
go to stdout as they happen; the last stdout line is one JSON object that
run.py completes with setup_s and prints as the benchmark's result.
"""

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import qfda.experiment
import qfda.pso
from helpers import two_class_images
from qfda.config import ExperimentConfig
from qfda.dataset import write_idx
from qfda.modelio import load_model

from tracing import Tracer, misplaced, self_times
from workloads import WORKLOADS

SPOOL = Path(".bench_out")

# Per-evaluation medians measured with 2 BLAS threads on the fixture
# (ROADMAP, North star aim 1), for the cross-check printed by traced runs.
ROADMAP_PER_EVAL_S = {
    "quantizer.quantize_s": 0.01,
    "discriminant.scatters_s": 0.09,
    "discriminant.eigensolve_s": 0.63,
    "discriminant.criterion_s": 0.035,
    "rate.rate_s": 0.31,
}

PSO_NAMES = ["evaluate_cost", "quantize", "quantized_scatters", "solve_subspace",
             "criterion", "rate"]
EXPERIMENT_NAMES = ["prepare", "load_idx", "forward_dct", "run_baseline_fda", "run_grid",
                    "finalize_model", "knn_error", "estimate_bounds", "fit_density",
                    "plain_scatters", "quantized_scatters", "solve_subspace", "quantize",
                    "save_model", "export_eigenfaces", "export_quantized_images"]

LAYER_MODULES = ["experiment", "pso", "discriminant", "quantizer", "rate"]


def say(*parts) -> None:
    print(*parts, flush=True)


# ---------------------------------------------------------------- environment

def _openblas_threads(package) -> int | None:
    """Thread count the package's bundled OpenBLAS actually runs with."""
    libs_dir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    def blas(package):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "threads_in_use": _openblas_threads(package)}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# --------------------------------------------------------------------- checks

def artifact_digests(out: Path) -> dict:
    """sha256 of every file acceptance criterion 9 compares byte for byte."""
    names = ["grid.csv", "levels.csv", "model/model.json", "model/subspace.bin"]
    names += [f"{d.name}/levels.csv" for d in sorted(out.glob("cell_*"))]
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def check_result(result) -> list:
    """Failed output checks of one run_experiment result, as messages."""
    problems = []
    fda = result.fda_reports["val"].mean
    qfda_val = result.qfda_reports["val"].mean
    if not (fda <= 0.35 and qfda_val <= 0.35 and qfda_val <= fda + 0.10):
        problems.append(f"val error qfda {qfda_val!r}, fda {fda!r}: need both <= 0.35 "
                        f"and qfda <= fda + 0.10")
    for cell in result.grid.cells:
        if (np.diff(cell.pso.history) > 0).any():
            problems.append(f"best-cost history of cell g={cell.gamma} l={cell.lam} increases")
    bundle, loaded = result.bundle, load_model(result.output_dir / "model")
    same = (np.array_equal(loaded.levels.m, bundle.levels.m)
            and np.array_equal(loaded.bounds.ell, bundle.bounds.ell)
            and loaded.subspace.u.tobytes() == bundle.subspace.u.tobytes()
            and loaded.subspace.eigenvalues.tobytes() == bundle.subspace.eigenvalues.tobytes())
    if not same:
        problems.append("load_model does not give back the written levels, bounds and subspace")
    return problems


def compare_digests(label: str, expected: dict, got: dict) -> list:
    if expected == got:
        return []
    differ = sorted(n for n in set(expected) | set(got) if expected.get(n) != got.get(n))
    return [f"artifacts differ from {label}: {', '.join(differ)}"]


# ----------------------------------------------------------------- experiment

def make_config(name: str, seed: int, images_path: Path, out: Path):
    w = WORKLOADS[name]
    return ExperimentConfig(
        dataset_path=str(images_path),
        classes=[0, 1],
        split_seed=seed,
        bootstrap_seed=seed,
        pso_seed=seed,
        gamma_grid=list(w.gamma_grid),
        lambda_grid=list(w.lambda_grid),
        particles=w.particles,
        iterations=w.iterations,
        threads=w.threads,
        output_dir=str(out),
    )


def timed_experiment(config):
    """Run the protocol once; wall time of the call and of its run_grid."""
    grid_s = []
    run_grid = qfda.experiment.run_grid

    def timed_grid(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run_grid(*args, **kwargs)
        finally:
            grid_s.append(time.perf_counter() - start)

    qfda.experiment.run_grid = timed_grid
    try:
        start = time.perf_counter()
        result = qfda.experiment.run_experiment(config)
        elapsed = time.perf_counter() - start
    finally:
        qfda.experiment.run_grid = run_grid
    return result, elapsed, grid_s[0]


def info_lines(result) -> None:
    chosen = result.grid.chosen
    say(f"info val_error fda {result.fda_reports['val'].mean!r} "
        f"qfda {result.qfda_reports['val'].mean!r}")
    say(f"info test_error fda {result.fda_reports['test'].mean!r} "
        f"qfda {result.qfda_reports['test'].mean!r}")
    say(f"info chosen_cell gamma {chosen.gamma!r} lambda {chosen.lam!r} "
        f"rate_bits {chosen.pso.breakdown.rate!r}")


# ------------------------------------------------------------------- tracing

def install_tracer(tracer: Tracer) -> dict:
    """Wrap the names the calling modules look up; return the probe counters."""
    counters = {"solves": 0, "indefinite": 0, "pairs": 0, "repeats": 0, "seen": {}}

    def probe_solve(args, subspace):
        s_w = args[0].s_w
        shifted = 0.5 * (s_w + s_w.T) + subspace.epsilon * np.eye(s_w.shape[0])
        try:
            scipy.linalg.cholesky(shifted, lower=True, check_finite=False)
            definite = True
        except np.linalg.LinAlgError:
            definite = False
        with tracer.lock:
            counters["solves"] += 1
            counters["indefinite"] += not definite

    def probe_rate(args, _report):
        density, spec = args[0], args[1]
        pairs = [(k, int(m)) for k, m in enumerate(spec.levels.m)]
        with tracer.lock:
            seen = counters["seen"].setdefault(id(density), set())
            counters["pairs"] += len(pairs)
            counters["repeats"] += sum(p in seen for p in pairs)
            seen.update(pairs)

    for name in PSO_NAMES:
        probe = {"solve_subspace": probe_solve, "rate": probe_rate}.get(name)
        tracer.wrap(qfda.pso, name, probe=probe)
    for name in EXPERIMENT_NAMES:
        probe = probe_solve if name == "solve_subspace" else None
        tracer.wrap(qfda.experiment, name, probe=probe)
    tracer.wrap(qfda.experiment, "run_pso", worker_root=True)
    return counters


def layer_metrics(tracer: Tracer, counters: dict, result, workload) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.duration for n in names for s in named(n))

    def per_eval(name):
        inside = [s.duration for s in named(name)
                  if s.parent is not None and by_id[s.parent].name == "pso.evaluate_cost"]
        return statistics.median(inside) if inside else 0.0

    evals = named("pso.evaluate_cost")
    budget = workload.particles * workload.iterations * len(result.grid.cells)
    fresh = sum(cell.pso.evaluations for cell in result.grid.cells)
    pso_s = total("pso.run_pso")
    m = {
        "pso.cost_eval_s": (statistics.median(s.duration for s in evals), "s"),
        "pso.cost_evals": (len(evals), "count"),
        "pso.cache_hit_ratio": (1.0 - fresh / budget, "ratio"),
        "pso.pool_busy_ratio": (total("pso.evaluate_cost") / (workload.threads * pso_s), "ratio"),
        "pso.run_pso_s": (pso_s, "s"),
        "quantizer.quantize_s": (per_eval("quantizer.quantize"), "s"),
        "discriminant.scatters_s": (per_eval("discriminant.quantized_scatters"), "s"),
        "discriminant.eigensolve_s": (per_eval("discriminant.solve_subspace"), "s"),
        "discriminant.criterion_s": (per_eval("discriminant.criterion"), "s"),
        "discriminant.indefinite_share": (counters["indefinite"] / counters["solves"], "ratio"),
        "rate.rate_s": (per_eval("rate.rate"), "s"),
        "rate.rate_calls": (len(named("rate.rate")), "count"),
        "rate.pair_repeat_ratio": (counters["repeats"] / counters["pairs"], "ratio"),
        "experiment.knn_s": (total("experiment.knn_error"), "s"),
        "experiment.knn_calls": (len(named("experiment.knn_error")), "count"),
        "experiment.baseline_s": (total("experiment.run_baseline_fda"), "s"),
        "experiment.finalize_s": (total("experiment.finalize_model"), "s"),
        "experiment.grid_s": (total("experiment.run_grid"), "s"),
        "experiment.prepare_s": (total("experiment.prepare"), "s"),
        "experiment.export_s": (total("experiment.export_eigenfaces",
                                      "experiment.export_quantized_images"), "s"),
        "dataset.load_idx_s": (total("dataset.load_idx"), "s"),
        "blockdct.forward_dct_s": (total("blockdct.forward_dct"), "s"),
        "quantizer.estimate_bounds_s": (total("quantizer.estimate_bounds"), "s"),
        "rate.fit_density_s": (total("rate.fit_density"), "s"),
        "modelio.save_model_s": (total("modelio.save_model"), "s"),
    }
    # dataset, blockdct and modelio have one leaf span each, whose time above
    # is already their self time.
    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = (sum(own[s.id] for s in spans
                                     if s.name.split(".")[0] == module), "s")
    return m


def roadmap_cross_check(metrics: dict) -> list:
    """Per-evaluation medians of the five cost stages against ROADMAP's."""
    lines, parts = [], 0.0
    for name, roadmap in ROADMAP_PER_EVAL_S.items():
        median = metrics[name][0]
        parts += median
        lines.append(f"crosscheck {name} {median:.4f} s/eval (ROADMAP {roadmap} s, "
                     f"ratio {median / roadmap:.2f})")
    eval_median = metrics["pso.cost_eval_s"][0]
    lines.append(f"crosscheck stages_share {parts / eval_median:.4f} of "
                 f"pso.cost_eval_s {eval_median:.4f} s")
    return lines


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after writing the IDX pair")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work = SPOOL / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        raw = two_class_images(n=workload.images, seed=args.seed)
        images_path = work / "data" / "bench-images-idx3-ubyte"
        images_path.parent.mkdir(parents=True, exist_ok=True)
        write_idx(raw, images_path, work / "data" / "bench-labels-idx1-ubyte")
        say("ready")
        if args.setup_only:
            return 0
        return run(args, workload, images_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, images_path: Path, work: Path) -> int:
    made = itertools.count()

    def config():
        return make_config(args.workload, args.seed, images_path, work / f"run{next(made)}")

    say("env " + json.dumps(environment(workload.threads), sort_keys=True))
    runs, digests, metrics = [], [], {}

    def record(result, extra=()):
        """Check one run_experiment result; the first one sets the digests
        that every later run of this process must match."""
        found = check_result(result) + list(extra)
        got = artifact_digests(result.output_dir)
        if digests:
            found += compare_digests("the first run of this process", digests[0], got)
        digests.append(got)
        runs.append(found)
        info_lines(result)

    try:
        if args.trace:
            metrics = traced_metrics(config, workload, args.seconds, record)
        else:
            metrics = untraced_metrics(config, args.seconds, record)
        if args.workload == "pool":
            # Same data, seed and budget on one swarm thread: record compares
            # its artifacts with this process's first pool run.
            say("info running the single-threaded reference for this seed")
            record(qfda.experiment.run_experiment(
                make_config("undersampled", args.seed, images_path, work / "reference")))
    except Exception as exc:  # a raising run counts as failed and still reports
        traceback.print_exc()
        runs.append([f"{type(exc).__name__}: {exc}"])

    problems = [p for found in runs for p in found]
    failed = sum(bool(found) for found in runs)
    for message in problems:
        say(f"check FAIL {message}")
    say(f"info failed_share {failed / len(runs)!r} ({failed}/{len(runs)})")
    for name, (value, unit) in metrics.items():
        say(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def untraced_metrics(config, seconds: float, record) -> dict:
    """Run the experiment back to back while the next run is expected to end
    within seconds of the first one's start (at least once)."""
    times, grid_times, evaluations, rss = [], [], 0, 0.0
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        result, elapsed, grid_s = timed_experiment(config())
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times.append(elapsed)
        grid_times.append(grid_s)
        evaluations += sum(cell.pso.evaluations for cell in result.grid.cells)
        say(f"info run {len(times)} experiment_s {elapsed!r} grid_s {grid_s!r}")
        record(result)
    say(f"info experiment_runs {len(times)}")
    return {
        "experiment_s": (statistics.median(times), "s"),
        "swarm_evals_per_s": (evaluations / sum(grid_times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_metrics(config, workload, seconds: float, record) -> dict:
    """An untimed warm-up run, then untraced/traced pairs while the next pair
    is expected to end within seconds of the first one's start (at least two
    pairs, so the untraced times have a range).  Per-layer metrics are
    medians over the traced runs; the overhead is the median of traced minus
    untraced time within a pair."""
    record(qfda.experiment.run_experiment(config()))
    untraced_s, traced_s, pair_s, layers, probes = [], [], [], [], []
    start = time.perf_counter()
    while (len(pair_s) < 2
           or time.perf_counter() - start + statistics.median(pair_s) <= seconds):
        pair_start = time.perf_counter()
        result, elapsed, _ = timed_experiment(config())
        record(result)
        untraced_s.append(elapsed)
        tracer = Tracer()
        counters = install_tracer(tracer)
        try:
            result, elapsed, _ = tracer.span(
                "experiment.run_experiment", timed_experiment, config())
        finally:
            tracer.unwrap()
        bad = misplaced(tracer.spans)
        record(result, [f"{len(bad)} spans lie outside their parent"] if bad else [])
        traced_s.append(elapsed)
        layers.append(layer_metrics(tracer, counters, result, workload))
        probes.append(tracer.probe_s)
        pair_s.append(time.perf_counter() - pair_start)
        say(f"info pair {len(pair_s)} untraced_s {untraced_s[-1]!r} traced_s {elapsed!r}")
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    for line in roadmap_cross_check(metrics):
        say(line)
    metrics["trace.experiment_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced_s, untraced_s)), "s")
    metrics["trace.untraced_range_s"] = (max(untraced_s) - min(untraced_s), "s")
    metrics["trace.probe_s"] = (statistics.median(probes), "s")
    metrics["trace.pairs"] = (len(pair_s), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
