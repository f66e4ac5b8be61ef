"""Every demo script runs to completion, with no RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsym

SRC = Path(qsym.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the RuntimeWarning filter of the test suite and of CI's benchmark smoke
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
