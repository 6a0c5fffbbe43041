"""The benchmark's tracer wraps module attributes by name; keep them there.

perfbench/bench.py lists the names it looks up in qfda.pso and
qfda.experiment.  The benchmark runs outside this suite, so a rename here
would otherwise go unnoticed until the next benchmark run.
"""

import ast
from pathlib import Path

import pytest

import qfda.experiment
import qfda.pso

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"


def listed_names(variable: str) -> list:
    tree = ast.parse(BENCH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == variable for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{variable} not found in {BENCH}")


@pytest.mark.parametrize("variable, module", [
    ("PSO_NAMES", qfda.pso),
    ("EXPERIMENT_NAMES", qfda.experiment),
])
def test_traced_names_resolve(variable, module):
    names = listed_names(variable)
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert missing == []
