"""Smoke test of the whole benchmark command on its smallest run.

    python3 -m pytest perfbench/test_smoke.py

The smoke workload (1 cell, 2 particles, 1 iteration) goes through
perfbench/run.py untraced and traced.  Every metric BENCHMARK.json names
must be printed with its unit, both as a readable line and in the JSON
result, and the traced run must pass its own check that every span lies
inside its parent.  Takes about 30 s.
"""

import json
import subprocess
import sys
from pathlib import Path

from tracing import Span, misplaced, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_smoke(trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(declared, lines, result):
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "info failed_share 0.0 (0/%d)" % result["attempted"] in lines
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert printed[metric["name"]] == (got["value"], metric["unit"]), metric["name"]


def test_untraced_run_prints_every_end_to_end_metric():
    lines, result = run_smoke(0)
    assert_metrics(BENCH["end_to_end"], lines, result)


def test_traced_run_prints_every_layer_metric():
    lines, result = run_smoke(1)
    assert_metrics(BENCH["per_layer"], lines, result)
    assert any(line.startswith("crosscheck stages_share") for line in lines)


def test_span_checks_catch_a_child_outside_its_parent():
    parent = Span(0, "pso.run_pso", 0.0, 10.0, None, 1)
    inside = Span(1, "pso.evaluate_cost", 1.0, 4.0, 0, 1)
    overlapping = Span(2, "pso.evaluate_cost", 3.0, 6.0, 0, 2)
    outside = Span(3, "rate.rate", 9.0, 11.0, 0, 1)
    assert misplaced([parent, inside, overlapping]) == []
    assert misplaced([parent, inside, outside]) == [outside]
    # two pool workers overlap in [3, 4]: self time counts the union once
    assert self_times([parent, inside, overlapping])[0] == 10.0 - 5.0
