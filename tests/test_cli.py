"""Command-line interface tests: exit codes, formats, piping."""

import json
import sys
from pathlib import Path

import networkx as nx
import pytest

from hydiag.cli import main
from hydiag.diagnoser import dumps_diagnoser, load_diagnoser, synthesize
from hydiag.estimator import build_estimator
from hydiag.quotient import dumps_model, load_model, loads_model

from .conftest import FIXTURES, run_python, text_stdin
from .helpers import (
    FAULT,
    HIDDEN,
    TICK,
    benchmark_families,
    f2_violating_model,
    legacy_diagnoser_data,
    make_model,
    record_expansions,
    save_model,
    legacy_model_data,
    spelled_as_objects,
)

Q1 = str(FIXTURES / "q1.quot.json")
Q2 = str(FIXTURES / "q2.quot.json")
BAD_D1 = str(FIXTURES / "bad-d1.quot.json")
TA1 = str(FIXTURES / "ta1.ta.json")
# ta1 without invariants: time diverges in its classes 6 and 7.
TA1_DIVERGENT = str(FIXTURES / "ta1-divergent.ta.json")
# Its estimator interleaves faulty and indeterminate states, so a check
# that leaves all-faulty estimates unexpanded numbers them differently.
KCLOCK2 = str(FIXTURES / "kclock2.ta.json")
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = [
    ("check-q1", ["check", Q1], 0),
    ("check-q1-json", ["check", Q1, "--format", "json"], 0),
    ("check-q2", ["check", Q2], 2),
    ("check-q2-json", ["check", Q2, "--format", "json"], 2),
    ("oracle-q2", ["oracle", Q2], 2),
    ("oracle-q2-json", ["oracle", Q2, "--format", "json"], 2),
    ("oracle-q1-depth8", ["oracle", Q1, "--depth", "8"], 0),
    ("oracle-q2-depth6", ["oracle", Q2, "--depth", "6"], 2),
    ("validate-bad-d1", ["validate", BAD_D1], 1),
    ("validate-bad-d1-json", ["validate", BAD_D1, "--format", "json"], 1),
    ("validate-q1", ["validate", Q1], 0),
    ("validate-q1-json", ["validate", Q1, "--format", "json"], 0),
    ("check-ta-ta1", ["check", "--ta", TA1], 0),
    ("check-ta-ta1-divergent", ["check", "--ta", TA1_DIVERGENT], 3),
    ("check-ta-kclock2", ["check", "--ta", KCLOCK2], 2),
    ("check-ta-kclock2-json", ["check", "--ta", KCLOCK2, "--format", "json"], 2),
    ("synthesize-q2", ["synthesize", Q2], 0),
    ("estimator-ta-kclock2", ["estimator", "--ta", KCLOCK2], 0),
    ("synthesize-ta-kclock2", ["synthesize", "--ta", KCLOCK2], 0),
    ("oracle-ta-kclock2-depth5", ["oracle", "--ta", KCLOCK2, "--depth", "5"], 2),
    ("oracle-ta-kclock2-depth5-json",
     ["oracle", "--ta", KCLOCK2, "--depth", "5", "--format", "json"], 2),
    ("regions-ta-ta1", ["regions", TA1], 0),
    ("regions-ta-ta1-divergent", ["regions", TA1_DIVERGENT], 0),
    ("regions-ta-kclock2", ["regions", KCLOCK2], 0),
    ("validate-ta-kclock2", ["validate", "--ta", KCLOCK2], 0),
    ("validate-ta-kclock2-json", ["validate", "--ta", KCLOCK2, "--format", "json"], 0),
]
RUN_GOLDEN_CASES = [
    ("run-q1", Q1, "init o0\ntick o1\ntick o0\ntick o1\ntick o1\ntick o1\n"),
    ("run-q2", Q2, "init o0\ntick o1\ntick o0\ntick o1\n"),
]
# Printed at 80 columns; the default of --max-classes appears in each
# model command's help.
HELP_GOLDEN_CASES = [("version", ["--version"]), ("help", ["--help"])] + [
    (f"help-{command}", [command, "--help"])
    for command in ["validate", "regions", "estimator", "check", "synthesize", "run", "oracle",
                    "fuzz"]
]


class TestGoldenOutput:
    """Verdicts, witnesses and counterexamples, byte for byte.

    The verdict files in ``golden/`` were printed while hydiag still
    wrote its own files indented, so a change to the file layout cannot
    leak into what these commands print.  The ``regions``, ``estimator``
    and ``synthesize`` goldens are files hydiag writes, with array rows.
    """

    @pytest.mark.parametrize("name, argv, code", GOLDEN_CASES,
                             ids=[name for name, _, _ in GOLDEN_CASES])
    def test_stdout_and_exit_code(self, name, argv, code, capsys):
        assert main(argv) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()

    @pytest.mark.parametrize("name, model, stdin", RUN_GOLDEN_CASES,
                             ids=[name for name, _, _ in RUN_GOLDEN_CASES])
    def test_run_verdict_lines(self, name, model, stdin, tmp_path, capsys, monkeypatch):
        diag = tmp_path / "diag.json"
        assert main(["synthesize", model, "-o", str(diag)]) == 0
        monkeypatch.setattr(sys, "stdin", text_stdin(stdin))
        assert main(["run", str(diag)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()

    @pytest.mark.parametrize("name, argv", HELP_GOLDEN_CASES,
                             ids=[name for name, _ in HELP_GOLDEN_CASES])
    def test_help_and_version(self, name, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()

    def test_run_goldens_print_every_status(self):
        lines = {line for name, _, _ in RUN_GOLDEN_CASES
                 for line in (GOLDEN / f"{name}.out").read_text().splitlines()}
        assert lines == {"yes determinate-faulty", "no determinate-nonfaulty",
                         "no indeterminate"}


class TestCheck:
    def test_q1_diagnosable_exit_zero(self, capsys):
        assert main(["check", Q1]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "diagnosable"

    def test_q2_not_diagnosable_exit_two(self, capsys):
        assert main(["check", Q2]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "not diagnosable"
        assert out[1] == "prefix: o0 tick o1"
        assert out[2] == "cycle: o1 tick o0 tick o1"

    def test_invalid_model_exit_one(self, capsys):
        assert main(["check", BAD_D1]) == 1
        assert "D1" in capsys.readouterr().out

    def test_not_progressive_exit_three(self, tmp_path, capsys):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1)],
        )
        path = tmp_path / "dead.quot.json"
        save_model(model, path)
        assert main(["check", str(path)]) == 3
        assert "not progressive" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_silent_cycle_witness(self, command, tmp_path, capsys):
        model = make_model(
            [(False, True, 0), (False, False, 0), (True, False, 0)],
            [(0, "h", 1), (1, "h", 0), (0, "f", 2), (1, "f", 2), (2, "tick", 2)],
            actions=(TICK, FAULT, HIDDEN),
        )
        path = tmp_path / "silent.quot.json"
        save_model(model, path)
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().out == "not progressive\ncycle: 0 -h-> 1 -h-> 0\n"

    def test_json_format(self, capsys):
        assert main(["check", Q2, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["progressive"] is True
        assert payload["diagnosable"] is False
        assert payload["witness"]["cycle"]["steps"] == [["tick", 0], ["tick", 1]]

    def test_json_format_diagnosable(self, capsys):
        assert main(["check", Q1, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "progressive": True,
            "diagnosable": True,
            "witness": None,
            "delay_bound": 1,
        }


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", Q1]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_d1_lists_rule(self, capsys):
        assert main(["validate", BAD_D1]) == 1
        assert "D1" in capsys.readouterr().out

    def test_json_round_trips(self, capsys):
        assert main(["validate", BAD_D1, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "D1"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ta_validates_its_quotient_once(self, fmt, capsys, monkeypatch):
        # region_quotient validates as it builds and raises on a violation,
        # so validate --ta prints ok without validating again.
        from hydiag import cli, regions
        from hydiag.quotient import validate_model

        calls = []

        def counted(model):
            calls.append(model)
            return validate_model(model)

        monkeypatch.setattr(cli, "validate_model", counted)
        monkeypatch.setattr(regions, "validate_model", counted)
        assert main(["validate", "--ta", KCLOCK2, "--format", fmt]) == 0
        assert len(calls) == 1

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such-file.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        assert main(["validate", str(path)]) == 1


class TestRegionsPipeline:
    def test_regions_writes_a_model(self, tmp_path, capsys):
        out = tmp_path / "ta1.quot.json"
        assert main(["regions", TA1, "-o", str(out)]) == 0
        model = load_model(out)
        assert len(model.classes) == 6

    def test_regions_to_stdout(self, capsys):
        assert main(["regions", TA1]) == 0
        model = loads_model(capsys.readouterr().out)
        assert len(model.classes) == 6

    def test_ta_flag_equivalent_to_regions(self, tmp_path, capsys):
        out = tmp_path / "ta1.quot.json"
        main(["regions", TA1, "-o", str(out)])
        assert out.read_text().count("\n") == 1  # one line of compact JSON
        capsys.readouterr()
        for fmt in ("text", "json"):
            assert main(["check", str(out), "--format", fmt]) == 0
            direct = capsys.readouterr().out
            assert main(["check", TA1, "--ta", "--format", fmt]) == 0
            assert capsys.readouterr().out == direct

    @pytest.mark.parametrize("command", ["regions", "check", "validate"])
    def test_quotient_violation_names_its_rule_once(self, command, tmp_path, capsys):
        # The zero region breaks the only initial location's invariant.
        data = json.loads(Path(TA1).read_text())
        data["locations"][0]["invariant"] = ["x>=2"]
        path = tmp_path / "no-initial.ta.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["--ta"] if command != "regions" else [])
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: Nonempty: region quotient: model has no initial class\n"
        )

    def test_closed_time_file_checks_the_same(self, tmp_path, capsys):
        # Files written by 0.1.0 list the closure of time; they still load
        # and check exactly like the generator file written now.
        out = tmp_path / "ta1.quot.json"
        main(["regions", TA1, "-o", str(out)])
        data = legacy_model_data(json.loads(out.read_text()))
        flow = nx.DiGraph((s, d) for s, d in data["time"] if s != d)
        closed = {(s, d) for s, d in nx.transitive_closure(flow).edges if s != d}
        closed |= {(s, d) for s, d in data["time"] if s == d}
        assert len(closed) > len(data["time"])
        data["time"] = [[s, d] for s, d in sorted(closed)]
        closed_file = tmp_path / "ta1.closed.quot.json"
        closed_file.write_text(json.dumps(spelled_as_objects(data), indent=2) + "\n")
        capsys.readouterr()
        for fmt in ("text", "json"):
            assert main(["check", str(out), "--format", fmt]) == 0
            direct = capsys.readouterr().out
            assert main(["check", str(closed_file), "--format", fmt]) == 0
            assert capsys.readouterr().out == direct

    def test_cap_exceeded_exit_five(self, capsys):
        assert main(["regions", TA1, "--max-classes", "3"]) == 5

    def test_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("HYDIAG_MAX_CLASSES", "3")
        assert main(["regions", TA1]) == 5
        monkeypatch.setenv("HYDIAG_MAX_CLASSES", "100")
        assert main(["regions", TA1]) == 0

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYDIAG_MAX_CLASSES", "3")
        assert main(["regions", TA1, "--max-classes", "50"]) == 0


class TestEstimatorExport:
    def test_export_file(self, tmp_path):
        out = tmp_path / "q1.est.json"
        assert main(["estimator", Q1, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"states", "initials", "transitions"}
        assert len(data["states"]) == 4

    def test_invalid_input_exit_one(self, capsys):
        assert main(["estimator", BAD_D1]) == 1

    @pytest.mark.parametrize("model", [[Q1], [Q2], ["--ta", TA1], ["--ta", KCLOCK2]],
                             ids=["q1", "q2", "ta-ta1", "ta-kclock2"])
    def test_estimator_writes_what_synthesize_writes(self, model, tmp_path, capsys):
        printed, written = [], []
        for command in ["estimator", "synthesize"]:
            assert main([command, *model]) == 0
            printed.append(capsys.readouterr().out)
            out = tmp_path / f"{command}.json"
            assert main([command, *model, "-o", str(out)]) == 0
            written.append(out.read_text())
        assert printed[0] == printed[1] == written[0] == written[1]

    def test_estimator_and_diagnoser_files_load(self, tmp_path):
        est, diag = tmp_path / "q2.est.json", tmp_path / "q2.diag.json"
        assert main(["estimator", Q2, "-o", str(est)]) == 0
        assert main(["synthesize", Q2, "-o", str(diag)]) == 0
        built = build_estimator(load_model(Q2))
        assert est.read_text() == dumps_diagnoser(built)
        loaded = load_diagnoser(diag)
        expected = synthesize(built)
        assert (loaded.states, loaded.initials, loaded.transitions) == (
            expected.states, expected.initials, expected.transitions
        )


class TestRunCommand:
    def synthesize(self, tmp_path, source=Q1):
        out = tmp_path / "diag.json"
        assert main(["synthesize", source, "-o", str(out)]) == 0
        return out

    def test_event_stream(self, tmp_path, capsys, monkeypatch):
        diag = self.synthesize(tmp_path)
        monkeypatch.setattr(
            sys, "stdin", text_stdin("init o0\ntick o1\ntick o1\ntick o1\n")
        )
        assert main(["run", str(diag)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "no determinate-nonfaulty",
            "no determinate-nonfaulty",
            "yes determinate-faulty",
            "yes determinate-faulty",
        ]

    def test_bare_integer_observables(self, tmp_path, capsys, monkeypatch):
        diag = self.synthesize(tmp_path)
        monkeypatch.setattr(sys, "stdin", text_stdin("init 0\ntick 1\n"))
        assert main(["run", str(diag)]) == 0

    def test_inconsistent_stream_exit_four(self, tmp_path, capsys, monkeypatch):
        diag = self.synthesize(tmp_path)
        monkeypatch.setattr(sys, "stdin", text_stdin("init o0\ntick o0\ntick o1\n"))
        assert main(["run", str(diag)]) == 4
        err = capsys.readouterr().err
        assert "inconsistent at event 2" in err

    def test_malformed_line_exit_one(self, tmp_path, capsys, monkeypatch):
        diag = self.synthesize(tmp_path)
        monkeypatch.setattr(sys, "stdin", text_stdin("boom\n"))
        assert main(["run", str(diag)]) == 1


class TestOracleCommand:
    def test_q1(self, capsys):
        assert main(["oracle", Q1]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "diagnosable"
        assert "utrace agreement up to depth 4: ok" in out

    def test_q2_counterexample(self, capsys):
        assert main(["oracle", Q2]) == 2
        out = capsys.readouterr().out
        assert "shared cycle: o1 tick o0 tick o1" in out

    def test_json(self, capsys):
        assert main(["oracle", Q2, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnosable"] is False
        assert payload["counterexample"]["left"]["cycle"] == [3, 2, 3]

    def test_json_not_progressive(self, tmp_path, capsys):
        model = make_model([(False, True, 0), (True, False, 0)], [(0, "tick", 0), (0, "f", 1)])
        path = str(tmp_path / "dead.quot.json")
        save_model(model, path)
        assert main(["oracle", path, "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "progressive": False,
            "witness": {"kind": "deadlock", "classes": [1], "labels": []},
            "diagnosable": None,
        }
        assert main(["check", path, "--format", "json"]) == 3
        assert json.loads(capsys.readouterr().out) == payload


    def test_enumerates_traces_once(self, capsys, monkeypatch):
        from hydiag import cli

        real = cli.enumerate_utraces
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_utraces", counted)
        assert main(["oracle", Q1, "--depth", "3"]) == 0
        assert "utrace agreement up to depth 3: ok" in capsys.readouterr().out
        assert len(calls) == 1

    def test_one_closure_per_class(self, capsys, monkeypatch):
        # The twin plant, the enumeration and the estimate walker all read
        # the model's one move table, which closes each class once.
        from hydiag import quotient
        from hydiag.regions import load_ta, region_quotient

        real = quotient.unobservable_closure
        seeds = []

        def counted(model, seed):
            seeds.append(tuple(seed))
            return real(model, seed)

        monkeypatch.setattr(quotient, "unobservable_closure", counted)
        assert main(["oracle", KCLOCK2, "--ta", "--depth", "5"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "utrace agreement up to depth 5: ok (155 traces)"
        )
        classes = len(region_quotient(load_ta(KCLOCK2)).classes)
        assert len(seeds) == len(set(seeds)) <= classes
        assert all(len(seed) == 1 for seed in seeds)

    def test_builds_only_the_estimates_its_traces_reach(self, tmp_path, capsys, monkeypatch):
        from hydiag import cli

        def refuse(*args, **kwargs):
            raise AssertionError("oracle built the whole estimator")

        monkeypatch.setattr(cli, "build_estimator", refuse)
        expanded = record_expansions(monkeypatch)
        path = tmp_path / "kclock.ta.json"
        path.write_text(json.dumps(benchmark_families().kclock_ta(3, 4)))
        assert main(["oracle", str(path), "--ta", "--depth", "4"]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "utrace agreement up to depth 4: ok (313 traces)"
        # Of the full build's 1,383 estimates, the traces step out of 68.
        assert len(expanded) == len(set(expanded)) == 68

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_disagreement(self, fmt, capsys, monkeypatch):
        from hydiag import estimator
        from hydiag.quotient import external_moves

        argv = ["oracle", Q1, "--depth", "2", "--format", fmt]
        assert main(argv) == 0
        agreed = capsys.readouterr().out

        class Dropped:
            """The move table without class 0's tick into the faulty class 2."""

            def __init__(self, table):
                self.table = table

            def __getitem__(self, key):
                rows = self.table[key]
                return [row for row in rows if row != (2, 0)] if key == (0, "tick") else rows

        monkeypatch.setattr(estimator, "external_moves", lambda m: Dropped(external_moves(m)))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        line = "estimator disagrees with enumeration: o0 tick o0\n"
        if fmt == "json":
            # The payload is the one printed on agreement; the trace goes to stderr.
            assert (out, err) == (agreed, line)
        else:
            assert out == "diagnosable\n" + line
            assert err == ""

    def test_reversible_fault_is_rejected(self, tmp_path):
        path = tmp_path / "f2.quot.json"
        save_model(f2_violating_model(), path)
        proc = run_python(["-m", "hydiag", "oracle", str(path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "violation D3 [(2, 'tick', 0)]" in proc.stdout


class TestFuzzCommand:
    def test_small_suite(self, capsys):
        assert main(["fuzz", "--models", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "models tested: 20, agreements: 20" in out

    def test_disagreement_is_reported(self, monkeypatch, capsys):
        from hydiag import oracle

        real = oracle.brute_force_diagnosable

        def flipped(model):
            verdict = real(model)
            return verdict._replace(diagnosable=not verdict.diagnosable)

        monkeypatch.setattr(oracle, "brute_force_diagnosable", flipped)
        assert main(["fuzz", "--models", "3", "--seed", "5"]) == 1
        first = next(iter(oracle.random_models(3, 5)))
        verdict = real(first).diagnosable
        assert capsys.readouterr().out == (
            "models tested: 3, agreements: 0, disagreements: 3\n"
            f"first disagreement at model 0: estimator={verdict} twin={not verdict}\n"
            + dumps_model(first) + "\n"
        )


class TestUsage:
    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = run_python(["-m", "hydiag", "check", Q1])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "diagnosable"


class TestNegativeCounts:
    """A negative count is invalid input: exit 1, one error line, no output."""

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["regions", TA1, "--max-classes", "-5"], None),
            (["regions", TA1], "-5"),
            (["oracle", Q1, "--depth", "-1"], None),
            (["fuzz", "--models", "-3"], None),
        ],
        ids=["max-classes", "env", "depth", "models"],
    )
    def test_rejected(self, argv, env, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("HYDIAG_MAX_CLASSES", env)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "expected a non-negative integer" in errors[0]

    def test_zero_is_a_count(self, capsys):
        assert main(["regions", TA1, "--max-classes", "0"]) == 5
        assert main(["oracle", Q1, "--depth", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["diagnosable"]  # no trace cross-check


class TestMalformedInput:
    """Malformed or unreadable files exit 1 with a message, never a Python
    traceback."""

    def run_cli(self, args, stdin=""):
        return run_python(["-m", "hydiag", *args], stdin, timeout=60)

    def check_rejected(self, proc):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip()

    def check_one_error_line(self, proc):
        self.check_rejected(proc)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_quotient_with_non_list_classes(self, tmp_path):
        data = json.loads(open(Q1).read())
        data["classes"] = 5
        path = tmp_path / "bad.quot.json"
        path.write_text(json.dumps(data))
        self.check_rejected(self.run_cli(["check", str(path)]))

    def test_automaton_with_non_list_locations(self, tmp_path):
        data = json.loads(open(TA1).read())
        data["locations"] = 5
        path = tmp_path / "bad.ta.json"
        path.write_text(json.dumps(data))
        self.check_rejected(self.run_cli(["check", str(path), "--ta"]))

    def test_automaton_with_deep_predicate(self, tmp_path):
        data = json.loads(open(TA1).read())
        data["observation"][0]["pred"] = "(" * 2000 + "x<1" + ")" * 2000
        path = tmp_path / "deep.ta.json"
        path.write_text(json.dumps(data))
        proc = self.run_cli(["regions", str(path)])
        self.check_rejected(proc)
        assert len(proc.stderr) < 200  # an excerpt, not the 4,003-character predicate

    def test_automaton_with_huge_constant_hits_the_cap(self, tmp_path):
        data = json.loads(open(TA1).read())
        data["edges"][0]["guard"] = ["x<=99999999999999999999"]
        path = tmp_path / "huge.ta.json"
        path.write_text(json.dumps(data))
        proc = self.run_cli(["check", "--ta", str(path), "--max-classes", "1000"])
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr
        assert "observation partition regions" in proc.stderr

    def test_diagnoser_with_false_alarm_output(self, tmp_path):
        diag = tmp_path / "diag.json"
        assert main(["synthesize", Q1, "-o", str(diag)]) == 0
        data = legacy_diagnoser_data(json.loads(diag.read_text()))
        data["output"]["0"] = "yes"
        diag.write_text(json.dumps(data))
        line = self.check_one_error_line(self.run_cli(["run", str(diag)], stdin="init o0\n"))
        assert line == "error: output must map every state id to its state's answer"

    @pytest.mark.parametrize("defect", [
        lambda o: {k: v for k, v in o.items() if k != "0"},
        lambda o: {("00" if k == "0" else k): v for k, v in o.items()},
        lambda o: {**o, "4": "no"},
        lambda o: {**o, "1": "no"},
        lambda o: list(o.values()),
    ], ids=["missing", "non-canonical", "out-of-range", "wrong-answer", "non-object"])
    def test_legacy_output_defects_exit_one(self, defect, tmp_path, capsys):
        diag, legacy = tmp_path / "diag.json", tmp_path / "legacy.json"
        assert main(["synthesize", Q1, "-o", str(diag)]) == 0
        data = legacy_diagnoser_data(json.loads(diag.read_text()))
        legacy.write_text(json.dumps(data))
        assert load_diagnoser(legacy) == load_diagnoser(diag)
        data["output"] = defect(data["output"])
        legacy.write_text(json.dumps(data))
        assert main(["run", str(legacy)]) == 1
        assert capsys.readouterr().err == (
            "error: output must map every state id to its state's answer\n")

    def test_diagnoser_with_repeated_transition(self, tmp_path):
        diag = tmp_path / "diag.json"
        assert main(["synthesize", Q2, "-o", str(diag)]) == 0
        data = json.loads(diag.read_text())
        (src, action, obs, dst), n = data["transitions"][0], len(data["transitions"])
        data["transitions"].append([src, action, obs, (dst + 1) % len(data["states"])])
        diag.write_text(json.dumps(data))
        line = self.check_one_error_line(self.run_cli(["run", str(diag)], stdin="init o0\n"))
        assert line == f"error: transitions[{n}] repeats the move of transitions[0]"

    def test_directory_as_input(self, tmp_path):
        line = self.check_one_error_line(self.run_cli(["check", str(tmp_path)]))
        assert "Is a directory" in line

    def test_directory_as_output(self, tmp_path):
        proc = self.run_cli(["regions", TA1, "-o", str(tmp_path)])
        assert "Is a directory" in self.check_one_error_line(proc)
        assert proc.stdout == ""

    def test_unwritable_output_is_reported_before_the_cap(self, tmp_path):
        proc = self.run_cli(["regions", TA1, "--max-classes", "1", "-o", str(tmp_path)])
        assert "Is a directory" in self.check_one_error_line(proc)

    def test_unwritable_output_is_reported_before_validation(self, tmp_path):
        proc = self.run_cli(["synthesize", BAD_D1, "-o", str(tmp_path / "missing" / "x.json")])
        assert "No such file or directory" in self.check_one_error_line(proc)
        assert proc.stdout == ""

    def test_failed_run_keeps_an_existing_output(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("kept\n")
        assert main(["regions", TA1, "--max-classes", "1", "-o", str(out)]) == 5
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("argv, code", [
        (["regions", TA1, "--max-classes", "1"], 5),
        (["synthesize", BAD_D1], 1),
        (["estimator", BAD_D1], 1),
        (["estimator", str(FIXTURES / "missing.quot.json")], 1),
    ], ids=["regions-cap", "synthesize-d1", "estimator-d1", "estimator-missing-input"])
    def test_failed_run_leaves_no_new_output(self, argv, code, tmp_path, capsys):
        out = tmp_path / "new.json"
        assert main([*argv, "-o", str(out)]) == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry, edits, message", [
        ("edges[0].guard[0]", {("edges", 0, "guard"): ["x<1.5"]},
         "non-integral constant in predicate at column 3 near 'x<1.5'"),
        ("locations[1].invariant[1]", {("locations", 1, "invariant"): ["x<=1", "x<=-1"]},
         "negative constant in predicate at column 4 near 'x<=-1'"),
        ("observation[1].pred", {("observation", 1, "pred"): "!(x<1"},
         "pred parse error (expected ')') at column 6 near '!(x<1'"),
        ("edges[2].guard[0]", {("edges", 2, "guard"): ["y==1"]}, "unknown clock 'y'"),
        ("locations[1].invariant[1]", {("locations", 1, "invariant"): ["x<=1", "y<=1"]},
         "unknown clock 'y'"),
        ("edges[0].resets", {("edges", 0, "resets"): ["x", "y"]}, "unknown clock 'y'"),
        ("edges[1].dst", {("edges", 1, "dst"): "gone"}, "unknown location 'gone'"),
        ("observation[1].pred", {("observation", 1, "pred"): "!(y<1)"}, "unknown clock 'y'"),
        ("observation[1].pred",
         {("clocks", "internal"): ["y"], ("observation", 1, "pred"): "!(y<1)"},
         "non-external clock 'y'"),
    ], ids=["guard", "invariant", "cell", "guard-clock", "invariant-clock", "resets-clock",
            "edge-location", "cell-clock", "cell-internal-clock"])
    def test_predicate_error_names_its_entry(self, entry, edits, message, tmp_path, capsys):
        data = json.loads(open(TA1).read())
        for (*keys, last), value in edits.items():
            holder = data
            for key in keys:
                holder = holder[key]
            holder[last] = value
        path = tmp_path / "bad.ta.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--ta", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {entry}: {message}\n"

    @pytest.mark.parametrize("where", ["quotient-obs", "guard", "predicate", "diagnoser-key"])
    def test_integer_past_the_digit_limit(self, where, tmp_path):
        digits = "1" * 5000
        path = tmp_path / "big.json"
        if where == "quotient-obs":
            args = ["check", str(path)]
            text = open(Q1).read().replace('"obs": 0', f'"obs": {digits}', 1)
        elif where == "diagnoser-key":
            args = ["run", str(path)]
            assert main(["synthesize", Q1, "-o", str(path)]) == 0
            data = json.loads(path.read_text())
            data["initials"] = {digits: 0}
            text = json.dumps(data)
        else:
            args = ["check", "--ta", str(path)]
            data = json.loads(open(TA1).read())
            if where == "guard":
                data["edges"][0]["guard"] = [f"x<={digits}"]
            else:
                data["observation"][0]["pred"] = f"x<{digits}"
            text = json.dumps(data)
        assert digits in text
        path.write_text(text)
        line = self.check_one_error_line(self.run_cli(args, "init o0\n"))
        assert line.endswith("digits") and len(line) < 200

    @pytest.mark.parametrize("where", ["quotient-id", "automaton-id", "diagnoser-obs",
                                       "diagnoser-key"])
    def test_long_string_in_an_integer_field(self, where, tmp_path):
        long = "x" * 100_000
        path = tmp_path / "long.json"
        if where == "quotient-id":
            args = ["check", str(path)]
            data = json.loads(open(Q1).read())
            data["classes"][0]["id"] = long
        elif where == "automaton-id":
            args = ["check", "--ta", str(path)]
            data = json.loads(open(TA1).read())
            data["observation"][0]["id"] = long
        else:
            args = ["run", str(path)]
            assert main(["synthesize", Q1, "-o", str(path)]) == 0
            data = json.loads(path.read_text())
            if where == "diagnoser-obs":
                data["transitions"][0][2] = long  # the row's obs
            else:
                data["initials"] = {long: 0}
        path.write_text(json.dumps(data))
        line = self.check_one_error_line(self.run_cli(args, "init o0\n"))
        assert len(line) < 200

    @pytest.mark.parametrize("where", ["unknown-key", "undeclared-action", "edge-out-of-range",
                                       "initials-key", "output-key", "automaton-location",
                                       "count-option", "count-env"])
    def test_long_name_is_quoted_as_an_excerpt(self, where, tmp_path, monkeypatch):
        path = tmp_path / "long.json"
        data = None
        if where == "count-option":
            args = ["fuzz", "--models", "x" * 100_000]
        elif where == "count-env":
            args = ["check", "--ta", TA1]
            monkeypatch.setenv("HYDIAG_MAX_CLASSES", "x" * 100_000)
        elif where in ("unknown-key", "undeclared-action", "edge-out-of-range"):
            args = ["check", str(path)]
            data = json.loads(open(Q1).read())
            if where == "unknown-key":
                data["classes"][0]["k" * 100_000] = 0
            elif where == "undeclared-action":
                data["edges"][0]["action"] = "a" * 100_000
            else:
                long = "t" * 100_000
                data["actions"][0]["name"] = long
                for edge in data["edges"]:
                    if edge["action"] == "tick":
                        edge["action"] = long
                data["edges"][0]["dst"] = 9
        elif where == "automaton-location":
            args = ["check", "--ta", str(path)]
            data = json.loads(open(TA1).read())
            data["edges"][0]["src"] = "l" * 100_000
        else:
            args = ["run", str(path)]
            assert main(["synthesize", Q1, "-o", str(path)]) == 0
            data = json.loads(path.read_text())
            if where == "initials-key":
                data["initials"] = {"1" * 4000: 99}
            else:
                data = legacy_diagnoser_data(data)
                data["output"]["1" * 4000] = "no"
        if data is not None:
            path.write_text(json.dumps(data))
        proc = self.run_cli(args, "init o0\n")
        if where == "count-option":  # argparse prints its usage line first
            usage, proc.stderr = proc.stderr.split("\n", 1)
            assert usage.startswith("usage: hydiag fuzz")
        line = self.check_one_error_line(proc)
        assert len(line) < 300

    @pytest.mark.parametrize(
        "stdin",
        ["init o" + "9" * 4000 + "\n", "init o0\ntick o" + "9" * 4000 + "\n",
         "init o0\n" + "a" * 100_000 + " o1\n"],
        ids=["init-observable", "step-observable", "step-action"],
    )
    def test_inconsistent_event_is_quoted_as_an_excerpt(self, stdin, tmp_path):
        diag = tmp_path / "diag.json"
        assert main(["synthesize", Q1, "-o", str(diag)]) == 0
        proc = self.run_cli(["run", str(diag)], stdin)
        assert proc.returncode == 4
        line = proc.stderr.splitlines()[-1]
        assert line.startswith("inconsistent at event") and len(line) < 200

    @pytest.mark.parametrize(
        "option, count",
        [(option, count) for option in ("--models", "--seed")
         for count in ("\u0663", "5_0", "+5", " 5")],
        ids=["arabic-indic", "underscore", "plus", "space",
             "seed-arabic-indic", "seed-underscore", "seed-plus", "seed-space"],
    )
    def test_count_reads_only_ascii_digits(self, option, count):
        proc = self.run_cli(["fuzz", option, count])
        usage, proc.stderr = proc.stderr.split("\n", 1)  # argparse prints its usage first
        assert usage.startswith("usage: hydiag fuzz")
        expected = "a non-negative integer" if option == "--models" else "an integer"
        assert f"expected {expected}, got " in self.check_one_error_line(proc)
        assert proc.stdout == ""

    def test_seed_may_be_negative(self):
        proc = self.run_cli(["fuzz", "--models", "2", "--seed", "-3"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "models tested: 2" in proc.stdout

    @pytest.mark.parametrize(
        "where, text",
        [(("edges", 0, "guard"), ["x<=\u0661"]), (("observation", 0, "pred"), "x<\u0661")],
        ids=["guard", "cell"],
    )
    def test_automaton_constant_reads_only_ascii_digits(self, where, text, tmp_path):
        data = json.loads(open(TA1).read())
        section, i, key = where
        data[section][i][key] = text
        path = tmp_path / "digit.ta.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        line = self.check_one_error_line(self.run_cli(["check", "--ta", str(path)]))
        assert "pred parse error at column" in line

    @pytest.mark.parametrize(
        "stdin",
        ["init o0_0\n", "init +0\n", "init o\u0660\n", "init -1\n", "init o" + "1" * 5000 + "\n",
         "init o0\ntick o1_0\n", "x" * 100_000 + "\n", "init o0\n" + "tick " * 20_000 + "\n"],
        ids=["underscore", "plus", "arabic-indic", "negative", "too-many-digits", "step",
             "long-line", "long-step"],
    )
    def test_run_reads_only_ascii_digit_observables(self, stdin, tmp_path):
        diag = tmp_path / "diag.json"
        assert main(["synthesize", Q1, "-o", str(diag)]) == 0
        proc = self.run_cli(["run", str(diag)], stdin)
        assert len(self.check_one_error_line(proc)) < 200

    @pytest.mark.parametrize("args", [["check"], ["check", "--ta"], ["run"]],
                             ids=["check", "check-ta", "run"])
    def test_file_that_is_not_utf8(self, args, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        line = self.check_one_error_line(self.run_cli([*args, str(path)], "init o0\n"))
        assert line == f"error: {path} is not UTF-8 text"

    @pytest.mark.parametrize("args", [["check"], ["check", "--ta"], ["run"]],
                             ids=["check", "check-ta", "run"])
    def test_deeply_nested_file(self, args, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        line = self.check_one_error_line(self.run_cli([*args, str(path)], "init o0\n"))
        assert line == "error: invalid JSON: nested too deeply"
