"""Every script under ``demos/`` runs to completion: exit status 0 and
nothing on stderr (no traceback, no warning)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import levykit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    # the demos (and the CLI processes cli_tour.py starts) import levykit
    # from the same source tree as this test run
    src = str(Path(levykit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(demo)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
