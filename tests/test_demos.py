"""The demo scripts must run clean; they double as living documentation."""

from pathlib import Path

import pytest

from .conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
