import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "qfda").glob("*.py") if p.stem != "__init__")


def run_fresh(code):
    """Run code in a fresh interpreter, so no earlier import can mask one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_alone(module):
    done = run_fresh(f"import qfda.{module}")
    assert done.returncode == 0, done.stderr


def test_experiment_does_not_load_scipy_signal():
    # scipy.signal takes most of a second to import, which every run would pay
    done = run_fresh("import sys, qfda.experiment; print('scipy.signal' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
