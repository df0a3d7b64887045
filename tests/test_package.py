"""The package's public names, and the layers each command loads.

``hydiag`` serves its public names lazily, and ``hydiag.cli`` imports a
layer only when a command calls into it, so a command's start-up does
not pay for layers it never uses.
"""

import importlib
import json

import pytest

import hydiag
from hydiag.cli import main

from .conftest import FIXTURES, run_python

# Every name ``from hydiag import ...`` offered while the package imported
# each module eagerly, by the module that defines it.
PUBLIC = {
    "diagnosability": ["DiagnosabilityVerdict", "ProgressReport", "ProgressWitness",
                       "check_diagnosable", "check_progressive", "detection_delay_bound",
                       "replay_lasso"],
    "diagnoser": ["Verdict", "load_diagnoser", "run_trace", "step", "synthesize"],
    "errors": ["CapExceeded", "ModelFormatError", "NoConsistentExecution", "PartitionError",
               "TAValidationError"],
    "estimator": ["Classification", "EstimatorGraph", "EstimatorState", "build_estimator",
                  "classify", "initial_estimates"],
    "oracle": ["CounterExample", "OracleVerdict", "brute_force_diagnosable",
               "enumerate_utraces", "random_model", "random_models", "simulate_runs",
               "twin_product", "verify_counterexample"],
    "quotient": ["ActionLabel", "ClassInfo", "Kind", "Lasso", "QuotientModel", "UTrace",
                 "ValidationReport", "external_moves", "load_model", "unobservable_closure",
                 "validate_model"],
    "regions": ["Region", "TimedAutomatonWithFaults", "load_ta", "parse_ta",
                "region_count_bound", "region_quotient"],
}
NAMES = sorted((name, module) for module, names in PUBLIC.items() for name in names)


class TestPublicNames:
    @pytest.mark.parametrize("name, module", NAMES, ids=[name for name, _ in NAMES])
    def test_from_import_gives_the_module_attribute(self, name, module):
        scope = {}
        exec(f"from hydiag import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"hydiag.{module}"), name)

    def test_all_and_dir_list_every_name(self):
        names = {name for name, _ in NAMES}
        assert len(names) == 49
        assert set(hydiag.__all__) == names
        assert names <= set(dir(hydiag))

    def test_region_cap_keeps_its_old_name(self):
        from hydiag import fileformat, regions

        assert regions.DEFAULT_MAX_CLASSES is fileformat.DEFAULT_MAX_CLASSES == 100_000

    def test_version_is_a_plain_attribute(self):
        assert vars(hydiag)["__version__"] == "0.1.0"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            hydiag.no_such_name
        with pytest.raises(ImportError):
            exec("from hydiag import no_such_name", {})

    def test_submodule_resolves_after_a_bare_import(self):
        proc = run_python(["-c", "import hydiag; print(hydiag.oracle.twin_product.__name__)"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "twin_product\n", "")


# What each command must leave unloaded.  ``run`` loads a diagnoser with
# the file layer alone, and ``regions`` builds no estimator.  ``fractions``
# is imported only for the witness of a failed partition check, so
# neither ``run`` nor a timed command loads it.  The records are named
# tuples, so no command loads ``dataclasses`` or the ``inspect`` it imports.
PROBE = """
import io, json, sys
sys.stdin = io.TextIOWrapper(io.BytesIO(sys.argv[1].encode()), encoding="utf-8", newline="\\n")
from hydiag.cli import main
out, sys.stdout = sys.stdout, io.StringIO()
code = main(sys.argv[2:])
watched = ["hydiag.regions", "hydiag.oracle", "hydiag.diagnosability", "hydiag.quotient",
           "hydiag.graphs", "hydiag.estimator", "fractions", "inspect", "dataclasses"]
out.write(json.dumps([code, [m for m in watched if m in sys.modules]]))
"""
Q1 = str(FIXTURES / "q1.quot.json")
Q2 = str(FIXTURES / "q2.quot.json")
TA1 = str(FIXTURES / "ta1.ta.json")
KCLOCK2 = str(FIXTURES / "kclock2.ta.json")
NO_DATACLASSES = {"inspect", "dataclasses"}
COMMANDS = [
    ("run", None, 0,
     {"hydiag.regions", "hydiag.oracle", "hydiag.diagnosability", "hydiag.quotient",
      "hydiag.graphs", "hydiag.estimator", "fractions", *NO_DATACLASSES}),
    ("regions", ["regions", TA1], 0,
     {"hydiag.oracle", "hydiag.diagnosability", "hydiag.estimator", "fractions",
      *NO_DATACLASSES}),
    ("check", ["check", Q1], 0, {"hydiag.regions", "hydiag.oracle", *NO_DATACLASSES}),
    ("check-ta", ["check", "--ta", TA1], 0, {"hydiag.oracle", "fractions", *NO_DATACLASSES}),
    ("synthesize", ["synthesize", Q1], 0,
     {"hydiag.regions", "hydiag.oracle", "hydiag.diagnosability", *NO_DATACLASSES}),
    ("oracle", ["oracle", Q2], 2, {"hydiag.regions", *NO_DATACLASSES}),
    ("validate-ta", ["validate", "--ta", KCLOCK2], 0,
     {"hydiag.oracle", "hydiag.diagnosability", "fractions", *NO_DATACLASSES}),
    ("estimator", ["estimator", Q1], 0,
     {"hydiag.regions", "hydiag.oracle", "hydiag.diagnosability", "fractions", *NO_DATACLASSES}),
]


@pytest.mark.parametrize("argv, code, unloaded", [c[1:] for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_command_loads_only_its_layers(argv, code, unloaded, tmp_path):
    stdin = ""
    if argv is None:
        diag = tmp_path / "diag.json"
        assert main(["synthesize", Q1, "-o", str(diag)]) == 0
        argv, stdin = ["run", str(diag)], "init o0\ntick o1\ntick o0\n"
    proc = run_python(["-c", PROBE, stdin, *argv])
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == code
    assert not unloaded & set(loaded), loaded


# Runs hydiag as ``python -m hydiag`` does, then lists the hydiag modules
# the process loaded on stderr.
AS_MODULE = """
import runpy, sys
sys.argv[0] = "hydiag"
try:
    runpy.run_module("hydiag", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "hydiag"), file=sys.stderr)
"""


def test_run_loads_only_the_file_layer_and_the_diagnoser(tmp_path):
    diag = tmp_path / "diag.json"
    assert main(["synthesize", Q1, "-o", str(diag)]) == 0
    proc = run_python(["-c", AS_MODULE, "run", str(diag)], stdin="init o0\n")
    assert (proc.returncode, proc.stdout) == (0, "no determinate-nonfaulty\n")
    assert proc.stderr.split() == [
        "hydiag", "hydiag.cli", "hydiag.diagnoser", "hydiag.errors", "hydiag.fileformat"
    ]


@pytest.mark.parametrize("argv, code", [
    (["synthesize", Q1], 0),
    (["check", "--ta", TA1], 0),
    (["regions", TA1], 0),
    (["oracle", Q2], 2),
    (["estimator", "--ta", KCLOCK2], 0),
], ids=["synthesize", "check-ta", "regions", "oracle", "estimator-ta"])
def test_importtime_lists_every_loaded_layer(argv, code):
    # ``cli`` loads a layer on a command's first call into it; the log of
    # ``python -X importtime`` must name it, as it names a plain import.
    proc = run_python(["-X", "importtime", "-c", AS_MODULE, *argv])
    assert proc.returncode == code, proc.stderr
    *log, loaded = proc.stderr.splitlines()
    logged = {line.rsplit("|", 1)[1].strip() for line in log if line.startswith("import time:")}
    assert {m for m in logged if m.split(".")[0] == "hydiag"} == set(loaded.split())
    assert "hydiag.diagnoser" in logged
