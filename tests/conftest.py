import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hydiag.oracle import random_models
from hydiag.quotient import load_model
from hydiag.regions import load_ta

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

CORPUS_SEED = 20260809
CORPUS_SIZE = 500


def python_env(**extra):
    """The environment of a child interpreter: this one's, with this tree's
    ``src`` importable, as pytest's ``pythonpath`` setting makes it for the
    tests themselves."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_python(args, stdin="", timeout=120):
    """Run the interpreter on ``args`` with this tree's ``src`` importable."""
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=python_env(),
    )


def text_stdin(text):
    """A stand-in for ``sys.stdin`` holding ``text``: UTF-8 bytes under a
    text layer that ends lines at line feeds only, as a process's stdin
    does on POSIX."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\n")


@pytest.fixture(scope="session")
def q1():
    return load_model(FIXTURES / "q1.quot.json")


@pytest.fixture(scope="session")
def q2():
    return load_model(FIXTURES / "q2.quot.json")


@pytest.fixture(scope="session")
def ta1():
    return load_ta(FIXTURES / "ta1.ta.json")


@pytest.fixture(scope="session")
def corpus():
    """The fixed randomized model corpus shared by the acceptance suite."""
    return list(random_models(CORPUS_SIZE, CORPUS_SEED))
