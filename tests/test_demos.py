"""Every demo script and the README's Quick start run to completion.

The demos are users of the library like the commands are: each one runs
in a fresh interpreter with the in-repo package on its path and must exit
with status 0.  The Quick start must also print the numbers its comments
state.
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"


def _run(args):
    src = os.path.join(ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    _run([path])


def test_readme_quick_start_prints_what_its_comments_state():
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    section = readme[readme.index("\n## Quick start\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print's trailing comment ends in "~ <value>"
    stated = re.findall(r"^print\(.*~ ([0-9]+\.([0-9]+))$", code, re.M)
    printed = [float(line) for line in _run(["-c", code]).split()]
    assert len(stated) == 2 and len(printed) == 2
    for got, (want, decimals) in zip(printed, stated):
        assert round(got, len(decimals)) == float(want)
