"""``hydiag run`` as a process: what it answers on a stream, and when.

``run`` reads at most 8 KiB at a time and answers every event of one read
before it reads again.  Most streams here are fed from a file, so the
reads are exactly 8 KiB and the verdicts before the last event span
several of them.  The tests of the table of answered (state, line)
pairs run ``run`` in process and compare it with one ``step`` per event.
"""

import io
import os
import random
import select
import subprocess
import sys

import pytest

from hydiag import cli
from hydiag.cli import main
from hydiag.diagnoser import load_diagnoser, run_trace, step
from hydiag.errors import NoConsistentExecution
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


# ``run`` keeps the answer of each (state, line) pair it has stepped, up
# to ``cli._MEMO_CAP`` pairs.  These tests run it in process, with the
# table at its default size, holding one pair, and off.
CAPS = pytest.mark.parametrize("cap", [None, 1, 0], ids=["default", "one-pair", "off"])
SPELLINGS = ["{a} o{o}", "{a} {o}", "{a} 0{o}", "  {a}\t o{o} ", "{a} o{o}\r", "{a}  o00{o}"]


@pytest.fixture(scope="module", params=["q1", "q2"])
def diag_path(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("memo") / f"{request.param}.diag.json"
    model = str(FIXTURES / f"{request.param}.quot.json")
    assert main(["synthesize", model, "-o", str(path)]) == 0
    return str(path)


def run_in_process(diag, stream, monkeypatch, capsys, cap=None):
    """``hydiag run diag`` on the bytes ``stream`` (text is encoded as
    UTF-8), with ``cli._MEMO_CAP`` set to ``cap`` unless it is None."""
    if cap is not None:
        monkeypatch.setattr(cli, "_MEMO_CAP", cap)
    data = stream.encode() if isinstance(stream, str) else stream
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                       newline="\n"))
    code = main(["run", diag])
    out, err = capsys.readouterr()
    return code, out, err


def per_event(diag, stream):
    """What ``run`` answers on a stream of well-formed lines, with one
    ``step`` per event, and the (state, line) pair of each event."""
    answers, pairs, current = [], [], None
    for index, line in enumerate(x for x in stream.split("\n") if x.split()):
        action, token = line.split()
        pairs.append((current, line))
        try:
            current, verdict = step(diag, current, action if index else None,
                                    int(token.removeprefix("o")))
        except NoConsistentExecution as e:
            return (4, "".join(answers), f"inconsistent at event {index}: {e}\n"), pairs
        answers.append(f"{verdict.pretty()}\n")
    return (0, "".join(answers), ""), pairs


def random_stream(diag, seed, events):
    """A random run of ``diag`` that repeats its moves in mixed spellings,
    with a blank line now and then."""
    rng = random.Random(seed)
    moves = {}
    for src, action, obs in sorted(diag.transitions):
        moves.setdefault(src, []).append((action, obs))
    head = rng.choice(sorted(diag.initials))
    lines, current = [rng.choice(SPELLINGS).format(a="init", o=head)], diag.initials[head]
    while len(lines) < events and current in moves:
        action, obs = rng.choice(moves[current])
        lines.append(rng.choice(SPELLINGS).format(a=action, o=obs))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "  ", "\r", " \t "]))
        current = diag.transitions[(current, action, obs)]
    return "\n".join(lines) + "\n"


@CAPS
@pytest.mark.parametrize("seed", [0, 1])
def test_random_streams_answer_as_one_step_per_event(diag_path, seed, cap, monkeypatch,
                                                     capsys):
    diag = load_diagnoser(diag_path)
    stream = random_stream(diag, seed, 5000)
    expected, pairs = per_event(diag, stream)
    assert len(pairs) > 100 and len(set(pairs)) < len(pairs) / 10
    assert run_in_process(diag_path, stream, monkeypatch, capsys, cap) == expected


# q1 alternates o0 and o1 until a fault holds it still; spelled three ways.
MIXED_ALTERNATION = "tick o1\ntick 0\n tick  1 \ntick o0\r\ntick 01\ntick  o0\n" * 500
MIXED_PREFIX = "init o0\n" + MIXED_ALTERNATION  # 3,000 events after init


@CAPS
def test_a_stream_that_turns_inconsistent_names_its_event(q1_diag, cap, monkeypatch, capsys):
    stream = MIXED_PREFIX + "tick o0\ntick 1\ntick o0\n"
    expected, _ = per_event(load_diagnoser(q1_diag), stream)
    assert expected[0] == 4 and expected[2].startswith("inconsistent at event 3002: ")
    assert run_in_process(q1_diag, stream, monkeypatch, capsys, cap) == expected


@pytest.mark.parametrize(
    "tail, code, message",
    [("tick o1 o1\n", 1, "error: expected '<action> <obs>', got 'tick o1 o1'\n"),
     ("tick o-1\n", 1, "error: expected an observable number, got '-1'\n"),
     ("init o0\n", 4,
      "inconsistent at event 3001: no execution continues with 'init' into 'o0'\n"),
     (b"tick \xff1\n", 1, "error: event 3001 is not UTF-8 text\n")],
    ids=["malformed", "bad-observable", "second-init", "not-utf8"],
)
@CAPS
def test_a_stream_that_breaks_after_many_hits(q1_diag, tail, code, message, cap, monkeypatch,
                                              capsys):
    stream = (MIXED_PREFIX.encode() + tail) if isinstance(tail, bytes) else MIXED_PREFIX + tail
    assert run_in_process(q1_diag, stream, monkeypatch, capsys, cap) == (
        code, NONFAULTY * 3001, message
    )


def counted_steps(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(cli, "step", counted)
    return calls


def test_each_distinct_pair_is_stepped_once(diag_path, monkeypatch, capsys):
    diag = load_diagnoser(diag_path)
    stream = random_stream(diag, 2, 5000)
    expected, pairs = per_event(diag, stream)
    calls = counted_steps(monkeypatch)
    assert run_in_process(diag_path, stream, monkeypatch, capsys) == expected
    assert len(calls) == len(set(pairs)) < len(pairs) / 10


def test_past_the_cap_every_new_pair_is_stepped(q1_diag, monkeypatch, capsys):
    # More distinct spellings than the table holds, then pairs that repeat
    # but arrive after the table is full (a tab spells them apart).
    distinct = [" " * (i % 70) + f"tick {'0' * (i // 70)}{(i + 1) % 2}"
                for i in range(cli._MEMO_CAP + 100)]
    repeated = ALTERNATION.replace(" ", "\t") * 500
    stream = "\n".join(["init o0", *distinct, *repeated.splitlines()]) + "\n"
    expected, pairs = per_event(load_diagnoser(q1_diag), stream)
    assert expected[0] == 0 and len(set(pairs)) > cli._MEMO_CAP
    calls = counted_steps(monkeypatch)
    assert run_in_process(q1_diag, stream, monkeypatch, capsys) == expected
    assert len(calls) == len(pairs)
