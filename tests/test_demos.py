"""The narrative demo scripts the README advertises run to completion."""

import contextlib
import io
import os
import runpy

import pytest

DEMO_DIR = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "demos"))


@pytest.mark.parametrize("script", ["census_demo.py", "telegraph_demo.py", "atom_demo.py",
                                    "paradox_demo.py"])
def test_demo_script_runs(script):
    # a numpy RuntimeWarning fails the script too (filterwarnings in pyproject.toml)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(os.path.join(DEMO_DIR, script), run_name="__main__")
    assert stdout.getvalue().strip()
