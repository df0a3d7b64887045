"""``hydiag run`` as a process: what it answers on a stream, and when.

``run`` reads at most 8 KiB at a time and answers every event of one read
before it reads again.  Most streams here are fed from a file, so the
reads are exactly 8 KiB and the verdicts before the last event span
several of them.
"""

import os
import random
import select
import subprocess
import sys

import pytest

from hydiag.cli import main
from hydiag.diagnoser import load_diagnoser, run_trace
from hydiag.quotient import UTrace

from .conftest import FIXTURES, python_env

NONFAULTY = "no determinate-nonfaulty\n"
FAULTY = "yes determinate-faulty\n"
# q1 alternates o0 and o1 until a fault holds the observable still.  A
# pair of steps is 15 bytes, so reads do not end on line boundaries.
ALTERNATION = "tick o1\ntick 0\n"
PAIRS = 1000
LONG_PREFIX = "init o0\n" + ALTERNATION * PAIRS  # 15,008 bytes
LONG_VERDICTS = NONFAULTY * (1 + 2 * PAIRS)


@pytest.fixture(scope="module")
def q1_diag(tmp_path_factory):
    path = tmp_path_factory.mktemp("run") / "q1.diag.json"
    assert main(["synthesize", str(FIXTURES / "q1.quot.json"), "-o", str(path)]) == 0
    return str(path)


def hydiag_run(diag):
    return [sys.executable, "-m", "hydiag", "run", diag]


def run_on_file(diag, stream, tmp_path, merged=False, **env):
    """Run ``diag`` on the bytes ``stream`` (text is encoded as UTF-8) read
    from a file; stderr is merged into stdout with ``merged``."""
    path = tmp_path / "stream"
    path.write_bytes(stream.encode() if isinstance(stream, str) else stream)
    with open(path, "rb") as stdin:
        return subprocess.run(
            hydiag_run(diag),
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT if merged else subprocess.PIPE,
            timeout=60,
            env=python_env(**env),
        )


def outcome(proc):
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def read_line(stdout, event):
    """The next line ``stdout`` gives, waiting at most 30 s for each part."""
    text = b""
    while not text.endswith(b"\n"):
        ready, _, _ = select.select([stdout], [], [], 30)
        assert ready, f"no verdict for {event!r} while run waits for the next event"
        part = os.read(stdout.fileno(), 1024)
        assert part, f"run stopped before its verdict for {event!r}"
        text += part
    return text.decode()


def test_each_verdict_comes_before_the_next_read_waits(q1_diag):
    proc = subprocess.Popen(
        hydiag_run(q1_diag), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=python_env(),
    )
    try:
        answers = [("init o0", NONFAULTY), ("tick o1", NONFAULTY), ("tick o1", FAULTY)]
        for event, verdict in answers:
            proc.stdin.write(f"{event}\n".encode())
            proc.stdin.flush()
            assert read_line(proc.stdout, event) == verdict
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stdout.read() == proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize(
    "last, code, message",
    [("tick o1\n", 4,
      "inconsistent at event 2002: no execution continues with 'tick' into 'o1'\n"),
     ("  boom  \n", 1, "error: expected '<action> <obs>', got 'boom'\n")],
    ids=["inconsistent", "malformed"],
)
def test_verdicts_before_an_error_come_first(q1_diag, last, code, message, tmp_path):
    proc = run_on_file(q1_diag, LONG_PREFIX + "tick o0\n" + last + "init o0\n", tmp_path,
                       merged=True)
    assert (proc.returncode, proc.stdout.decode()) == (code, LONG_VERDICTS + FAULTY + message)


@pytest.mark.parametrize(
    "stream, expected",
    [
        ("init o0\r\ntick o1\r\ntick o1\r\n", (0, NONFAULTY * 2 + FAULTY, "")),
        (LONG_PREFIX.replace("\n", "\r\n") + "tick o0\r\n", (0, LONG_VERDICTS + FAULTY, "")),
        ("\n  \ninit o0\n\t\n  tick \t o1 \n\n\ntick o1  \n \n", (0, NONFAULTY * 2 + FAULTY, "")),
        ("init o0\ntick o1\ntick o1", (0, NONFAULTY * 2 + FAULTY, "")),
        (LONG_PREFIX + "  tick o0 ", (0, LONG_VERDICTS + FAULTY, "")),
        # a lone CR does not end a line: it is whitespace inside it
        ("init o0\rtick o1\n", (1, "", "error: expected 'init <obs>', got 'init o0\\rtick o1'\n")),
    ],
    ids=["crlf", "crlf-long", "blank-and-padded", "no-last-newline", "long-no-last-newline",
         "lone-cr"],
)
def test_line_endings_and_padding(q1_diag, stream, expected, tmp_path):
    assert outcome(run_on_file(q1_diag, stream, tmp_path)) == expected


def test_a_long_stream_matches_run_trace(tmp_path):
    path = tmp_path / "kclock2.diag.json"
    assert main(["synthesize", "--ta", str(FIXTURES / "kclock2.ta.json"), "-o", str(path)]) == 0
    diag = load_diagnoser(path)
    moves = {}
    for src, action, obs in diag.transitions:
        moves.setdefault(src, []).append((action, obs))
    rng = random.Random(19)
    head, current = next(iter(diag.initials.items()))
    steps = []
    for _ in range(19_999):
        action, obs = rng.choice(sorted(moves[current]))
        steps.append((action, obs))
        current = diag.transitions[(current, action, obs)]
    spell = [f"{a} o{o}" if i % 3 else f" {a}\t{o} " for i, (a, o) in enumerate(steps)]
    stream = "\n".join([f"init o{head}", *spell]) + "\n"
    expected = [v.pretty() for v in run_trace(diag, UTrace(head, tuple(steps)))]
    code, out, err = outcome(run_on_file(str(path), stream, tmp_path))
    assert (code, err) == (0, "")
    assert out.splitlines() == expected and len(expected) == 20_000


def test_a_long_line_without_a_newline_is_quoted_as_an_excerpt(q1_diag, tmp_path):
    stream = "init o0\n" + "x" * (4 << 20)
    assert outcome(run_on_file(q1_diag, stream, tmp_path)) == (
        1, NONFAULTY, f"error: expected '<action> <obs>', got '{'x' * 60}'\n"
    )


@pytest.mark.parametrize("env", [{}, {"PYTHONIOENCODING": "utf-8"}], ids=["default", "utf-8"])
def test_bytes_that_are_not_utf8_name_their_event(q1_diag, env, tmp_path):
    proc = run_on_file(q1_diag, b"init 0\n\xff\xfe 1\n", tmp_path, **env)
    assert outcome(proc) == (1, NONFAULTY, "error: event 1 is not UTF-8 text\n")


@pytest.mark.parametrize(
    "stream, expected",
    [
        # the bad byte is in the second read, after complete lines of it
        (LONG_PREFIX.encode() + b"tick o0\ntick \xff o1\n",
         (1, LONG_VERDICTS + FAULTY, "error: event 2002 is not UTF-8 text\n")),
        # the first read ends inside a sequence that the second read breaks
        (b"init o0\n" + b" " * 8182 + b"\xe2\x82\xff o1\n",
         (1, NONFAULTY, "error: event 1 is not UTF-8 text\n")),
        # the fourth character spans bytes 8191-8192, the end of the first read
        (b" " * 8185 + "\u00e9".encode() * 20,
         (1, "", "error: expected 'init <obs>', got '" + "\u00e9" * 20 + "'\n")),
    ],
    ids=["after-a-read", "sequence-across-reads", "character-across-reads"],
)
def test_utf8_across_reads(q1_diag, stream, expected, tmp_path):
    assert outcome(run_on_file(q1_diag, stream, tmp_path)) == expected
