import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "qfda").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_alone(module):
    # a fresh interpreter, so no earlier import can mask an import-order cycle
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", f"import qfda.{module}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
