"""Every demo script and README's library quick start run against this checkout's package.

Each script runs in a subprocess from a temporary directory, so files a
demo writes land there. Demos 04-06 run Monte-Carlo sweeps (4-20 s each on
a 2-core host) and are marked ``slow``; 01-03 and the quick start take under
a second each.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = ("04_", "05_", "06_")


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("script", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name.startswith(SLOW) else [])
    for path in DEMOS])
def test_demo_runs(tmp_path, script):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_root_exports_what_readme_and_demos_read(tmp_path):
    # the package root holds the names README's quick start reads as cf.<name>
    # and the demos import from cfpilot; every other name lives in its module
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S)[1]
    read = set(re.findall(r"\bcf\.(\w+)", quick_start))
    for demo in DEMOS:
        read |= {alias.name for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.module == "cfpilot"
                 for alias in node.names}
    proc = _run(["-c", quick_start + (
        "import types\n"
        "print(*sorted(name for name, value in vars(cf).items() if not name.startswith('_')"
        " and not isinstance(value, types.ModuleType)))\n")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == read
