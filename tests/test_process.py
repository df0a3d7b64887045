"""The process entry, ``hydiag.__main__.entry``: how a hydiag process runs
and ends.

A process runs its command with the cycle collector paused and freezes
what it built before the interpreter's final collection.  That is safe
only while the cyclic garbage a command leaves does not grow with its
input, which the last tests pin.  ``main`` itself never touches the
collector.
"""

import gc
import os
import re
import signal
import subprocess
import sys
import weakref

import pytest

from hydiag import cli
from hydiag.cli import EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, main
from hydiag.quotient import external_moves
from hydiag.regions import load_ta, region_quotient

from .conftest import FIXTURES, python_env, text_stdin

Q1 = str(FIXTURES / "q1.quot.json")
Q2 = str(FIXTURES / "q2.quot.json")
TA1 = str(FIXTURES / "ta1.ta.json")
KCLOCK2 = str(FIXTURES / "kclock2.ta.json")
PYPROJECT = FIXTURES.parent / "pyproject.toml"

# Runs hydiag as ``python -m hydiag`` does, counting the collections the
# command makes; the count is the last line of stderr.
COUNTED = """
import gc, runpy, sys
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
sys.argv[0] = "hydiag"
try:
    {run}
finally:
    print(f"collections: {{len(starts)}}", file=sys.stderr)
"""
AS_MODULE = 'runpy.run_module("hydiag", run_name="__main__", alter_sys=True)'
MAIN_ONLY = "from hydiag.cli import main; sys.exit(main())"


def run_child(args, stdin=b"", **kwargs):
    options = {"capture_output": True, **kwargs}
    return subprocess.run([sys.executable, *args], input=stdin, timeout=120, env=python_env(),
                          **options)


def console_script():
    """The ``-c`` program of the ``hydiag`` script that pip writes from
    ``[project.scripts]``."""
    match = re.search(r'^hydiag = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M)
    module, function = match.groups()
    return (
        f"import re, sys; from {module} import {function}; "
        "sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0]); "
        f"sys.exit({function}())"
    )


@pytest.fixture(scope="module")
def q1_diag(tmp_path_factory):
    path = tmp_path_factory.mktemp("process") / "q1.diag.json"
    assert main(["synthesize", Q1, "-o", str(path)]) == 0
    return str(path)


def stream(events):
    """``init o0`` and ``events`` ticks of q1's alternation, three spellings."""
    lines = ["init o0"]
    for i in range(events):
        lines.append(("tick o{}", "tick {}", " tick  o{} ")[i % 3].format(i % 2 ^ 1))
    return "\n".join(lines) + "\n"


class TestCollectorPolicy:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, enabled, q1_diag, capsys,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("main called into gc")

        was = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            with monkeypatch.context() as m:
                for name in ("collect", "disable", "enable", "freeze", "unfreeze"):
                    m.setattr(gc, name, refuse)
                assert main(["check", "--ta", KCLOCK2]) == 2
                assert main(["oracle", Q1]) == 0
                m.setattr(sys, "stdin", text_stdin(stream(10)))
                assert main(["run", q1_diag]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", "--ta", KCLOCK2], 2),
            (["synthesize", Q1], 0),
            (["oracle", "--ta", "--depth", "5", KCLOCK2], 2),
        ],
        ids=["check-ta", "synthesize", "oracle-depth5"],
    )
    def test_a_process_runs_no_collection(self, argv, code):
        proc = run_child(["-c", COUNTED.format(run=AS_MODULE), *argv])
        assert proc.returncode == code
        assert proc.stderr == b"collections: 0\n"
        # The same command through main alone, with the collector on, does
        # collect: the count sees the collections there are.
        proc = run_child(["-c", COUNTED.format(run=MAIN_ONLY), *argv])
        assert proc.returncode == code
        count = int(proc.stderr.decode().removeprefix("collections: "))
        assert count > 0

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["check", Q1], b""),
            (["check", Q2, "--format", "json"], b""),
            (["oracle", "--ta", KCLOCK2], b""),
            (["run", "RUN_DIAG"], b"init o0\ntick o1\ntick o0\ntick o0\n"),
            (["run", "RUN_DIAG"], b"init o0\ntick o0\ntick o1\n"),
            (["check", str(FIXTURES / "missing.quot.json")], b""),
            (["frobnicate"], b""),
            (["--version"], b""),
        ],
        ids=["check", "check-json", "oracle-ta", "run", "run-inconsistent", "missing",
             "usage", "version"],
    )
    def test_console_script_is_the_module_entry(self, argv, stdin, q1_diag):
        argv = [q1_diag if a == "RUN_DIAG" else a for a in argv]
        script = run_child(["-c", console_script(), *argv], stdin)
        module = run_child(["-m", "hydiag", *argv], stdin)
        assert (script.returncode, script.stdout, script.stderr) == (
            module.returncode, module.stdout, module.stderr)


class TestBrokenPipe:
    def test_run_into_an_early_closed_reader(self, q1_diag, tmp_path):
        # The verdicts far outgrow a pipe's buffer, so run is still writing
        # when the reader goes away after the first line.
        path = tmp_path / "stream.txt"
        path.write_text(stream(20_000))
        with open(path, "rb") as stdin, subprocess.Popen(
            [sys.executable, "-m", "hydiag", "run", q1_diag],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(),
        ) as proc:
            assert proc.stdout.readline() == b"no determinate-nonfaulty\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""

    @pytest.mark.parametrize("argv", [["check", Q1], ["regions", TA1]], ids=["check", "regions"])
    def test_output_into_a_closed_pipe(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_child(["-m", "hydiag", *argv], stdout=write, stderr=subprocess.PIPE,
                             capture_output=False)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")

    def test_main_lets_it_through(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            main(["check", Q1])

    def test_a_missing_input_is_still_an_input_error(self):
        missing = str(FIXTURES / "missing.quot.json")
        proc = run_child(["-m", "hydiag", "check", missing])
        assert proc.returncode == 1
        assert proc.stderr == f"error: [Errno 2] No such file or directory: {missing!r}\n".encode()


class TestInterrupt:
    def test_ctrl_c_while_run_waits_for_input(self, q1_diag):
        # stdin stays open, so run is blocked reading it when SIGINT comes.
        with subprocess.Popen(
            [sys.executable, "-m", "hydiag", "run", q1_diag], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(),
        ) as proc:
            proc.stdin.write(b"init o0\ntick o1\n")
            proc.stdin.flush()
            assert proc.stdout.readline() == b"no determinate-nonfaulty\n"
            assert proc.stdout.readline() == b"no determinate-nonfaulty\n"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == EXIT_INTERRUPTED == 130
            assert (proc.stdout.read(), proc.stderr.read()) == (b"", b"")

    def test_main_lets_it_through(self, monkeypatch, q1_diag):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_diagnoser", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", q1_diag])

    def test_an_interrupted_output_leaves_no_new_file(self, monkeypatch, tmp_path):
        def interrupted(model):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "build_estimator", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["synthesize", Q1, "-o", str(tmp_path / "new.json")])
        assert list(tmp_path.iterdir()) == []


class TestBoundedGarbage:
    """With the collector paused, the unreachable objects a command leaves
    do not grow with its input."""

    @staticmethod
    def garbage_after(argv):
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            main(argv)
            return gc.collect()
        finally:
            if was:
                gc.enable()

    def test_run(self, q1_diag, capsys, monkeypatch):
        counts = []
        for events in (1_000, 100_000):
            monkeypatch.setattr(sys, "stdin", text_stdin(stream(events)))
            counts.append(self.garbage_after(["run", q1_diag]))
            assert capsys.readouterr().out.count("\n") == events + 1
        assert counts[0] == counts[1]

    def test_fuzz(self, capsys):
        counts = [self.garbage_after(["fuzz", "--models", str(n)]) for n in (50, 200)]
        out = capsys.readouterr().out
        assert "models tested: 50, agreements: 50" in out
        assert "models tested: 200, agreements: 200" in out
        assert counts[0] == counts[1]

    def test_a_dropped_model_is_freed_at_once(self):
        model = region_quotient(load_ta(TA1))
        external_moves(model)[(0, model.external_actions[0].name)]
        ref = weakref.ref(model)
        was = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if was:
                gc.enable()
