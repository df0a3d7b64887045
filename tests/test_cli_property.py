"""A property test over the whole command line.

Mutated copies of ``fixtures/q1``, ``fixtures/ta1`` and a synthesized q2
diagnoser (one value replaced, one key added or one key dropped) go
through ``hydiag.cli.main`` in-process, the diagnoser with a random event
stream on stdin.  Every run must return an exit code in 0-5 without an
exception escaping ``main``.  A rejection (exit 1, 4 or 5) prints exactly
one diagnostic line under 300 characters: an ``error:`` line, or for an
event stream that the model cannot produce, ``run``'s ``inconsistent at
event N:`` line.  ``validate`` is exempt, since it lists every violation.
Copies of ``ta1`` and ``kclock2`` with one token of a guard, invariant or
observation cell replaced or added also go through it, and a rejected
predicate (a parse error, an unknown or non-external clock) must name
its entry.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.cli import main
from hydiag.diagnoser import dumps_diagnoser, synthesize
from hydiag.estimator import build_estimator

from .conftest import FIXTURES, text_stdin
from .helpers import q2_model

LONG = 100_000
QUOTIENT = json.loads((FIXTURES / "q1.quot.json").read_text())
AUTOMATON = json.loads((FIXTURES / "ta1.ta.json").read_text())
KCLOCK2 = json.loads((FIXTURES / "kclock2.ta.json").read_text())
DIAGNOSER = json.loads(dumps_diagnoser(synthesize(build_estimator(q2_model()))))

# The argument lists each file goes through; "{out}" is an output path.
COMMANDS = {
    "quotient": [
        ["check", "{path}"],
        ["validate", "{path}"],
        ["synthesize", "{path}", "-o", "{out}"],
        ["oracle", "{path}", "--depth", "2"],
    ],
    "automaton": [
        ["check", "--ta", "{path}"],
        ["regions", "{path}", "-o", "{out}"],
    ],
    "diagnoser": [["run", "{path}"]],
}
DIAGNOSTICS = ("error:", "inconsistent at event")
# Rejections of one predicate entry, which must name that entry.
ENTRY_ERRORS = re.compile(r" at column | unknown clock | non-external clock ")

VALUES = st.sampled_from(
    [0, 1, 2, -1, 10**30, 1.5, True, None, "", "x", "0", "tick", "f", "external",
     "faulty", "no", "x<1", "x" * LONG, [], [0], ["x<=1"], {}, {"0": 0}]
) | st.integers(-3, 5) | st.text(max_size=4)
KEYS = st.sampled_from(["id", "obs", "src", "name", "0", "1", "extra", "k" * LONG]) | st.text(
    max_size=3
)
OBSERVABLES = st.sampled_from(["o0", "o1", "o2", "1", "o", "o1_0", "+1", "o" + "9" * 4000, "o٣"])
EVENT_LINES = (
    st.tuples(st.sampled_from(["init", "tick", "tock", "f", "a" * LONG]), OBSERVABLES).map(" ".join)
    | st.text(max_size=6)
    | st.just("x" * LONG)
)
PRED_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|-?[0-9]+(?:\.[0-9]+)?|<=|>=|==|[<>!&|()]")
PRED_TOKENS = st.sampled_from(
    ["x", "x0", "y", "true", "<", "<=", "==", "=", ">", "0", "2", "-1", "1.5", "9" * 5000,
     "(", ")", "!", "&", "|", "$", "x" * LONG]
)
# Mostly an initial observation first, so that the steps after it are read.
STREAMS = st.tuples(
    OBSERVABLES.map("init {}".format) | EVENT_LINES, st.lists(EVENT_LINES, max_size=5)
).map(lambda s: "".join(f"{x}\n" for x in [s[0], *s[1]]))


def paths(value, path=()):
    """The path of every value inside ``value``, itself included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(item, path + (key,))


def at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated(draw, base):
    """``base`` with one value replaced, one key added or one key dropped."""
    data = json.loads(json.dumps(base))
    objects = [p for p in paths(data) if isinstance(at(data, p), dict)]
    kind = draw(st.sampled_from(["replace", "add", "drop"]))
    if kind == "replace":
        path = draw(st.sampled_from(list(paths(data))[1:]))
        at(data, path[:-1])[path[-1]] = draw(VALUES)
    elif kind == "add":
        at(data, draw(st.sampled_from(objects)))[draw(KEYS)] = draw(VALUES)
    else:
        target = at(data, draw(st.sampled_from(objects)))
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
    return data


@st.composite
def mutated_predicate(draw, base):
    """``base`` with one token of one guard, invariant or cell replaced or
    added, and the path of that entry."""
    data = json.loads(json.dumps(base))
    entries = [
        (f"{rows}[{i}].{field}[{j}]", row[field], j)
        for rows, field in (("locations", "invariant"), ("edges", "guard"))
        for i, row in enumerate(data[rows])
        for j in range(len(row[field]))
    ]
    entries += [(f"observation[{i}].pred", row, "pred") for i, row in enumerate(data["observation"])]
    entry, holder, key = draw(st.sampled_from(entries))
    tokens = PRED_TOKEN_RE.findall(holder[key])
    i = draw(st.integers(0, len(tokens)))
    if i < len(tokens) and draw(st.booleans()):
        tokens[i] = draw(PRED_TOKENS)
    else:
        tokens.insert(i, draw(PRED_TOKENS))
    holder[key] = " ".join(tokens)
    return data, entry


def run_main(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = text_stdin(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_runs(kind, data, stdin="", entry=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for args in COMMANDS[kind]:
            argv = [a.format(path=path, out=os.path.join(tmp, "out.json")) for a in args]
            code, out, err = run_main(argv, stdin)
            assert code in range(6), argv
            if code == 1 and not err:  # the model loaded but breaks an axiom
                lines = out.splitlines()
                assert lines and all(x.startswith("violation ") for x in lines), (argv, out[:500])
            elif code in (1, 4, 5):
                lines = [x for x in err.splitlines() if x.startswith(DIAGNOSTICS)]
                assert len(lines) == 1, (argv, err[:500])
                if entry is not None and code == 1 and ENTRY_ERRORS.search(lines[0]):
                    assert lines[0].startswith(f"error: {entry}: "), (argv, lines[0][:500])
            else:
                continue
            assert max(map(len, lines)) < 300, (argv, max(lines, key=len)[:500])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_quotient(data):
    check_runs("quotient", data.draw(mutated(QUOTIENT)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_automaton(data):
    check_runs("automaton", data.draw(mutated(AUTOMATON)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_predicate(data):
    base = data.draw(st.sampled_from([AUTOMATON, KCLOCK2]))
    automaton, entry = data.draw(mutated_predicate(base))
    check_runs("automaton", automaton, entry=entry)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_diagnoser_and_event_stream(data):
    diagnoser = data.draw(st.one_of(st.just(DIAGNOSER), mutated(DIAGNOSER)))
    check_runs("diagnoser", diagnoser, data.draw(STREAMS))
