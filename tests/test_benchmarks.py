"""The benchmark harness still finds what it calls in hydiag.

``benchmarks/tracing.py`` wraps the names ``hydiag.cli`` calls into the
layers, and ``benchmarks/selftest.py`` checks the model families against
the oracle, so a rename in ``hydiag`` shows up here, not first in a
benchmark run.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from hydiag import cli
from hydiag.regions import parse_ta, region_quotient

from .conftest import FIXTURES, text_stdin
from .helpers import benchmark_families

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing"), importlib.import_module("selftest")


def test_every_traced_layer_call_resolves(bench):
    tracing, _ = bench
    for module, attr in tracing.LAYER_CALLS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_run_steps_once_per_event(tmp_path, monkeypatch, capsys):
    diag = tmp_path / "diag.json"
    assert cli.main(["synthesize", str(FIXTURES / "q2.quot.json"), "-o", str(diag)]) == 0
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    step = cli.step
    monkeypatch.setattr(cli, "step", counted)
    monkeypatch.setattr(sys, "stdin", text_stdin("init o0\ntick o1\ntick o0\n"))
    assert cli.main(["run", str(diag)]) == 0
    assert len(calls) == len(capsys.readouterr().out.splitlines()) == 3


def test_selftest_finds_no_problem(bench):
    _, selftest = bench
    assert selftest.run() == []


@pytest.mark.parametrize("name, args, digest", [
    ("leak_ta", (100,), "9f504a79c23ccf24"),
    ("kclock_ta", (3, 4), "70ba52e1e505ae4d"),
])
def test_run_input_is_pinned(name, args, digest):
    # The event stream the harness replays with ``hydiag run``: a change to
    # the model's rows or its closure must not change the run it times.
    families = benchmark_families()
    model = region_quotient(parse_ta(json.dumps(getattr(families, name)(*args))))
    lines, fault_at = families.event_stream(model, 1, 100_000)
    assert fault_at == 29402
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest
