"""The narrative demo scripts and the library sketch the README advertises run
to completion."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMO_DIR = os.path.join(ROOT, "demos")


def _readme_sketch():
    with open(os.path.join(ROOT, "README.md")) as fh:
        [block] = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    return block


@pytest.mark.parametrize("script", ["census_demo.py", "telegraph_demo.py", "atom_demo.py",
                                    "paradox_demo.py", "README.md"])
def test_demo_script_runs(script):
    source = (["-c", _readme_sketch()] if script == "README.md"
              else [os.path.join(DEMO_DIR, script)])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))}
    # a numpy RuntimeWarning fails the script too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *source],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
