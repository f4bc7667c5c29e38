"""Every demo script runs to completion against this checkout's package.

Each script runs in a subprocess from a temporary directory, so files a
demo writes land there. Demos 04-06 run Monte-Carlo sweeps (4-20 s each on
a 2-core host) and are marked ``slow``; 01-03 take under a second each.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = ("04_", "05_", "06_")


@pytest.mark.parametrize("script", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name.startswith(SLOW) else [])
    for path in DEMOS])
def test_demo_runs(tmp_path, script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
