"""One-off reports kept next to the benchmark, written to perfbench/results/.

    python3 perfbench/report.py traced [--seed 1] [--workloads undersampled,pool,oversampled]
    python3 perfbench/report.py matrix [--seed 1]
    python3 perfbench/report.py spread [--seeds 1-10] [--workloads undersampled,pool] [--label proof]

traced: one --trace 1 run per workload, with the environment, the tracing
overhead and the per-evaluation cross-check against ROADMAP's figures.
matrix: swarm_evals_per_s of undersampled (swarm threads 1) and pool (2)
under BLAS threads {1, 2}; a report, not a gated workload.
spread: --trace 0 runs over many seeds; the quartile spread of each
end-to-end metric as a share of its median, set against its bound.
Run from the root of a qfda checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"


def parse_lines(lines: list) -> dict:
    """The result JSON plus the readable env and crosscheck lines before it."""
    out = {"result": json.loads(lines[-1]), "crosscheck": [], "info": []}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            out["environment"] = json.loads(rest)
        elif kind in ("crosscheck", "info"):
            out[kind].append(rest)
    return out


def run_bench(argv: list) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return parse_lines(proc.stdout.strip().splitlines())


def write(name: str, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")


def run_seconds() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench["run_seconds"]


def run_worker(workload: str, seed: int, blas_threads: int, trace: int) -> dict:
    """bench.py started directly, as run.py starts it but without run.py's
    deadline: a traced oversampled run takes longer than that."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run_seconds()), "--trace", str(trace)],
        env=child_env(Path.cwd(), blas_threads), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"bench.py {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return parse_lines(proc.stdout.strip().splitlines())


def traced(args) -> None:
    for workload in args.workloads.split(","):
        report = run_worker(workload, args.seed, WORKLOADS[workload].blas_threads, trace=1)
        metrics = {n: m["value"] for n, m in report["result"]["metrics"].items()}
        print(f"{workload}: correct {report['result']['correct']}, traced "
              f"{metrics['trace.experiment_s']:.2f} s, overhead "
              f"{metrics['trace.overhead_s']:+.3f} s over {metrics['trace.pairs']} pairs "
              f"(untraced range {metrics['trace.untraced_range_s']:.3f} s, "
              f"probes {metrics['trace.probe_s']:.3f} s)")
        for line in report["crosscheck"]:
            print("  " + line)
        write(f"traced_{workload}.json", {"workload": workload, "seed": args.seed, **report})


def matrix(args) -> None:
    """Both gated workloads (swarm threads 1 and 2) under BLAS threads 1 and 2."""
    rows = []
    for workload in ("undersampled", "pool"):
        for blas in (1, 2):
            report = run_worker(workload, args.seed, blas, trace=0)
            env = report["environment"]
            rate = report["result"]["metrics"]["swarm_evals_per_s"]["value"]
            rows.append({"workload": workload, "threads": env["threads"], "blas_threads": blas,
                         "swarm_evals_per_s": rate, "correct": report["result"]["correct"],
                         "blas_threads_in_use": env["numpy_blas"]["threads_in_use"]})
            print(f"threads {env['threads']} BLAS {blas}: {rate:.3f} evals/s")
    write("thread_matrix.json", {"seed": args.seed, "environment": env, "rows": rows})


def spread(args) -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    summary = {}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in range(first, last + 1):
            result = run_bench(["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"])["result"]
            runs.append({"seed": seed, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()))
        summary[workload] = {"runs": runs, "metrics": {}}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            share = (q3 - q1) / median
            summary[workload]["metrics"][name] = {
                "median": median, "spread": share, "bound": bounds[name]}
            print(f"  {name}: median {median:.4g}, spread {share:.4f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
    write(f"spread_{args.label}.json", summary)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="one-off benchmark reports")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", default="undersampled,pool,oversampled")
    p.set_defaults(fn=traced)
    p = sub.add_parser("matrix")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=matrix)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="undersampled,pool")
    p.add_argument("--label", default="proof")
    p.set_defaults(fn=spread)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
