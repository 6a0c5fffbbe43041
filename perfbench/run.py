"""qfda benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload undersampled --seed 1 --seconds 50 --trace 0

Run it from the root of a qfda checkout; it imports the package from
./src and the data generator from ./tests/helpers.py, and writes only
under ./.bench_out.  Each measured process is started here with its BLAS
thread variables set before numpy loads, never inherited from the caller.

--trace 0 prints the end-to-end metrics (experiment_s, swarm_evals_per_s,
peak_rss_mb, setup_s); --trace 1 prints the per-layer metrics of a traced
run.  The last stdout line is the JSON result; the lines before it are the
same metrics, the output checks and the environment in readable form.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9      # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0     # a worker still running after this is killed

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path, blas_threads: int) -> dict:
    """Environment of a measured process: BLAS threads and import path fixed."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update({k: str(blas_threads) for k in BLAS_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "tests")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(root: Path, env: dict, argv: list):
    """Start bench.py; return its exit code, the seconds until it reports
    ready (imports done, IDX pair written), plus the lines it printed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(DEADLINE_S, proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
                continue
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                print(line, end="", flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, ready, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qfda benchmark: one workload, one seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated launcher unwinds, so start_worker kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    missing = [p for p in ("src/qfda/__init__.py", "tests/helpers.py") if not (root / p).is_file()]
    if missing:
        print(f"not a qfda checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = child_env(root, workload.blas_threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def sample_setup(count: int) -> bool:
        for _ in range(count):
            code, ready, _ = start_worker(root, env, [*common, "--seconds", "0", "--setup-only"])
            if code != 0 or ready is None:
                print(f"setup-only worker exited with {code}", file=sys.stderr)
                return False
            setups.append(ready)
        return True

    # Half the setup samples come before the measured process and half
    # after it, so a drift of the machine's speed during the run shows in
    # both halves rather than in setup_s alone.
    if not args.trace and not sample_setup(SETUP_SAMPLES // 2):
        return 1
    code, ready, lines = start_worker(
        root, env, [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print(f"worker exited with {code} and no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(ready)
        if not sample_setup(SETUP_SAMPLES - len(setups)):
            return 1
        setup_s = statistics.median(setups)
        print(f"metric setup_s {setup_s!r} s (median of {len(setups)})")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
