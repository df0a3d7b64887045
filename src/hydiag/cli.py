"""Command-line interface.

One binary, subcommand style.  Exit codes: 0 success, 1 validation or
parse errors, 2 not diagnosable, 3 not progressive, 4 an observed event
stream is inconsistent with the model, 5 a resource cap was exceeded.

Exit code 141 (128 + SIGPIPE, as a shell reports a filter that SIGPIPE
stops): stdout closed before the output was written, as in ``hydiag run
d.json | head -1``; the rest is discarded, with no message.  Exit code
130 (128 + SIGINT): interrupted, as by Ctrl-C, with no message; what was
written stays written.  The process entry, ``hydiag.__main__``, gives
both, so ``--help`` leaves them out.
"""

import argparse
import codecs
import json
import os
import sys

from . import __version__
from .diagnoser import _VERDICTS, dumps_diagnoser, load_diagnoser, step, synthesize
from .errors import (
    CapExceeded,
    ModelFormatError,
    NoConsistentExecution,
    TAValidationError,
)
from .fileformat import DEFAULT_MAX_CLASSES, _excerpt, _int_literal


def _deferred(module, name):
    """A stand-in for ``module.name`` that imports the module on its first
    call, so a command loads only the layers it calls.  It is a name of
    this module, so code that replaces ``hydiag.cli.<name>`` still sees
    every call.  ``__import__`` takes the interpreter's own import path,
    which ``python -X importtime`` logs; ``importlib.import_module`` does
    not."""

    def call(*args, **kwargs):
        layer = __import__(f"{__package__}.{module}", fromlist=[name])
        return getattr(layer, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


load_model = _deferred("quotient", "load_model")
dumps_model = _deferred("quotient", "dumps_model")
validate_model = _deferred("quotient", "validate_model")
build_estimator = _deferred("estimator", "build_estimator")
estimate_walker = _deferred("estimator", "estimate_walker")
load_ta = _deferred("regions", "load_ta")
region_quotient = _deferred("regions", "region_quotient")
check_progressive = _deferred("diagnosability", "check_progressive")
check_diagnosable = _deferred("diagnosability", "check_diagnosable")
detection_delay_bound = _deferred("diagnosability", "detection_delay_bound")
brute_force_diagnosable = _deferred("oracle", "brute_force_diagnosable")
enumerate_utraces = _deferred("oracle", "enumerate_utraces")
run_fuzz = _deferred("oracle", "run_fuzz")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_DIAGNOSABLE = 2
EXIT_NOT_PROGRESSIVE = 3
EXIT_INCONSISTENT = 4
EXIT_CAP = 5
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # "not diagnosable" exit code; remap to the validation/parse code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _decimal(text, what):
    """``text`` read as ``what``, a non-negative integer written in ASCII
    decimal digits: no sign, space, underscore or digit of another script."""
    if not (text.isascii() and text.isdigit()):
        raise ModelFormatError(f"expected {what}, got {_excerpt(text, 0)}")
    return _int_literal(text, what)


def _count(text):
    """A non-negative integer: the type of every count option."""
    try:
        return _decimal(text, "a non-negative integer")
    except ModelFormatError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _seed(text):
    """An integer, the type of ``fuzz --seed``: an optional '-', then
    ASCII decimal digits."""
    digits = text.removeprefix("-")
    try:
        value = _decimal(digits, "an integer")
    except ModelFormatError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_excerpt(text, 0)}") from None
    return value if digits == text else -value


def _max_classes(args):
    if args.max_classes is not None:
        return args.max_classes
    env = os.environ.get("HYDIAG_MAX_CLASSES")
    if env is not None:
        try:
            return _count(env)
        except argparse.ArgumentTypeError as e:
            raise ModelFormatError(f"HYDIAG_MAX_CLASSES: {e}") from None
    return DEFAULT_MAX_CLASSES


def _load_quotient(args):
    """Load the model argument: a quotient file, or a TA file with --ta."""
    if args.ta:
        cap = _max_classes(args)
        return region_quotient(load_ta(args.model, cap), max_classes=cap)
    return load_model(args.model)


def _validated_model(args):
    """The model argument, valid: a quotient file's violations are printed
    and exit 1; a region quotient raises TAValidationError as it is built."""
    model = _load_quotient(args)
    if args.ta:
        return model
    report = validate_model(model)
    if not report.ok:
        _print_validation(report, getattr(args, "format", "text"))
        raise SystemExit(EXIT_INVALID)
    return model


def _print_validation(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
        return
    if report.ok:
        print("ok")
    for v in report.violations:
        subject = "" if v.subject is None else f" [{v.subject}]"
        print(f"violation {v.rule}{subject}: {v.message}")


def _write_output(output, make_text):
    """Write ``make_text()`` to the file ``output``, or to stdout when it is
    None.  The file is opened before the work, so an unwritable one fails
    first; an existing file keeps its contents unless the work succeeds,
    and a file created here is removed again if the work fails."""
    if output is None:
        sys.stdout.write(make_text())
        return
    try:
        open(output, "x", encoding="utf-8").close()
        created = True
    except FileExistsError:
        open(output, "a", encoding="utf-8").close()
        created = False
    try:
        text = make_text()
    except BaseException:
        if created:
            os.remove(output)
        raise
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_validate(args):
    from .quotient import ValidationReport

    _validated_model(args)
    _print_validation(ValidationReport(True, ()), args.format)
    return EXIT_OK


def cmd_regions(args):
    _write_output(args.output, lambda: dumps_model(_load_quotient(args)))
    return EXIT_OK


def _progressive_model(args):
    """The model argument, valid and progressive: a model that is not
    progressive has its witness printed, and the command exits 3."""
    model = _validated_model(args)
    progress = check_progressive(model)
    if progress.progressive:
        return model
    if args.format == "json":
        payload = {"progressive": False, "witness": progress.witness.to_json(), "diagnosable": None}
        print(json.dumps(payload, indent=2))
    else:
        print("not progressive")
        print(progress.witness.pretty())
    raise SystemExit(EXIT_NOT_PROGRESSIVE)


def cmd_check(args):
    model = _progressive_model(args)
    est = build_estimator(model, expand_faulty=False)
    verdict = check_diagnosable(est)
    # Bound before printing: past the product cap, stdout stays empty.
    bound = detection_delay_bound(est) if verdict.diagnosable else None
    if args.format == "json":
        payload = {"progressive": True, **verdict.to_json()}
        if verdict.diagnosable:
            payload["delay_bound"] = bound
        print(json.dumps(payload, indent=2))
    elif verdict.diagnosable:
        print("diagnosable")
        print(f"detection delay bound: {bound}")
    else:
        print("not diagnosable")
        print(f"prefix: {verdict.witness.prefix.pretty()}")
        print(f"cycle: {verdict.witness.cycle.pretty()}")
    return EXIT_OK if verdict.diagnosable else EXIT_NOT_DIAGNOSABLE


def cmd_synthesize(args):
    def text():
        return dumps_diagnoser(synthesize(build_estimator(_validated_model(args))))

    _write_output(args.output, text)
    return EXIT_OK


def _parse_obs(token):
    """An observable written ``o3`` or ``3``."""
    return _decimal(token[1:] if token.startswith("o") else token, "an observable number")


# ``run`` answers every event of one read before it reads again.
_READ_SIZE = 8192
# Most (state, line) pairs whose answer ``run`` keeps.  A stream may spell
# one event in unboundedly many ways, so past the cap it parses each event.
_MEMO_CAP = 4096
_VERDICT_LINES = {c: f"{v.pretty()}\n" for c, v in _VERDICTS.items()}


def _line_reads(stream):
    """The lines of a UTF-8 byte stream, one list of complete lines per read.

    Lines end at a line feed only, as ``sys.stdin`` splits them on POSIX,
    so a carriage return stays in its line; the last line needs no line
    feed.  A line whose line feed has not arrived is kept as a list of
    parts, joined once it comes.  Bytes that are not UTF-8 raise
    UnicodeDecodeError after the lines before them.
    """
    utf8 = codecs.getincrementaldecoder("utf-8")()
    tail = []
    while True:
        data = stream.read1(_READ_SIZE)
        error = None
        try:
            text = utf8.decode(data, not data)
        except UnicodeDecodeError as e:
            # e.object holds the bytes left from the last read, then this read.
            error, text = e, e.object[: e.start].decode()
        *lines, rest = text.split("\n")
        if lines:
            tail.append(lines[0])
            lines[0] = "".join(tail)
            tail = []
        tail.append(rest)
        if error:
            yield lines
            raise error
        if not data:
            lines.append("".join(tail))
            yield lines
            return
        yield lines


def cmd_run(args):
    diag = load_diagnoser(args.diagnoser)
    current = None
    index = 0
    # (state, line) -> (next state, verdict line) of each answered event.
    # ``step`` is deterministic, so a pair answers the same way every time;
    # blank, malformed and inconsistent lines never enter.
    memo = {}
    try:
        for lines in _line_reads(sys.stdin.buffer):
            answers = []
            try:
                for line in lines:
                    known = memo.get((current, line))
                    if known is not None:
                        current, answer = known
                        answers.append(answer)
                        index += 1
                        continue
                    parts = line.split()
                    if not parts:
                        continue
                    if len(parts) != 2 or (index == 0 and parts[0] != "init"):
                        form = "'<action> <obs>'" if index else "'init <obs>'"
                        raise ModelFormatError(f"expected {form}, got {_excerpt(line.strip(), 0)}")
                    action = parts[0] if index else None
                    sid, verdict = step(diag, current, action, _parse_obs(parts[1]))
                    answer = _VERDICT_LINES[verdict.status]
                    if len(memo) < _MEMO_CAP:
                        memo[current, line] = sid, answer
                    current = sid
                    answers.append(answer)
                    index += 1
            finally:
                sys.stdout.write("".join(answers))
                sys.stdout.flush()
    except NoConsistentExecution as e:
        print(f"inconsistent at event {index}: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except UnicodeDecodeError:
        raise ModelFormatError(f"event {index} is not UTF-8 text") from None
    return EXIT_OK


def cmd_oracle(args):
    model = _progressive_model(args)
    verdict = brute_force_diagnosable(model)
    if args.format == "json":
        payload = {"diagnosable": verdict.diagnosable}
        if verdict.counterexample is not None:
            cx = verdict.counterexample
            payload["counterexample"] = {
                "shared": cx.shared.to_json(),
                "left": {"prefix": list(cx.left_prefix), "cycle": list(cx.left_cycle)},
                "right": {"prefix": list(cx.right_prefix), "cycle": list(cx.right_cycle)},
            }
        print(json.dumps(payload, indent=2))
    elif verdict.diagnosable:
        print("diagnosable")
    else:
        cx = verdict.counterexample
        print("not diagnosable")
        print(f"shared prefix: {cx.shared.prefix.pretty()}")
        print(f"shared cycle: {cx.shared.cycle.pretty()}")
        print(f"faulty run: {list(cx.left_prefix)} cycle {list(cx.left_cycle)}")
        print(f"clean run: {list(cx.right_prefix)} cycle {list(cx.right_cycle)}")

    if args.depth:
        expected = enumerate_utraces(model, args.depth)
        mismatches = _utrace_mismatches(estimate_walker(model), expected)
        if mismatches:
            # JSON keeps its payload on stdout and reports the trace on stderr.
            out = sys.stderr if args.format == "json" else sys.stdout
            print(f"estimator disagrees with enumeration: {mismatches[0]}", file=out)
            return EXIT_INVALID
        if args.format != "json":
            print(f"utrace agreement up to depth {args.depth}: ok ({len(expected)} traces)")
    return EXIT_OK if verdict.diagnosable else EXIT_NOT_DIAGNOSABLE


def _utrace_mismatches(members, expected):
    """The traces, sorted by their spelling, on which ``members``, an
    ``estimate_walker``, and the enumeration give different class sets."""
    mismatches = []
    for trace, classes in sorted(expected.items(), key=lambda kv: kv[0].pretty()):
        found = members(trace.head, trace.steps)
        if found is None or set(found) != classes:
            mismatches.append(trace.pretty())
    return mismatches


def cmd_fuzz(args):
    report = run_fuzz(args.models, args.seed)
    print(
        f"models tested: {report.models}, agreements: {report.agreements}, "
        f"disagreements: {report.models - report.agreements}"
    )
    if report.first_disagreement is not None:
        first = report.first_disagreement
        print(
            f"first disagreement at model {first['index']}: "
            f"estimator={first['estimator']} twin={first['twin']}"
        )
        print(first["model"])
        return EXIT_INVALID
    return EXIT_OK


def _add_model_arg(sub):
    sub.add_argument("model", help="quotient model file (JSON)")
    sub.add_argument(
        "--ta",
        action="store_true",
        help="treat the input as a timed-automaton file and build its region quotient",
    )
    sub.add_argument(
        "--max-classes",
        type=_count,
        default=None,
        help=f"region explosion guard (default {DEFAULT_MAX_CLASSES}, env HYDIAG_MAX_CLASSES)",
    )


def build_parser():
    parser = _Parser(prog="hydiag", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"hydiag {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check the fault axioms of a model")
    _add_model_arg(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_validate)

    p = commands.add_parser("regions", help="build the region quotient of a timed automaton")
    p.add_argument("model", help="timed-automaton file (JSON)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--max-classes", type=_count, default=None)
    p.set_defaults(func=cmd_regions, ta=True)

    # The diagnoser is the estimator graph, so both commands write one file.
    p = commands.add_parser("estimator", help="build and export the state estimator")
    _add_model_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_synthesize)

    p = commands.add_parser("check", help="decide time-abstract diagnosability")
    _add_model_arg(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_check)

    p = commands.add_parser("synthesize", help="synthesize the diagnoser Moore machine")
    _add_model_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_synthesize)

    p = commands.add_parser("run", help="run a diagnoser over events from stdin")
    p.add_argument("diagnoser", help="diagnoser file produced by synthesize")
    p.set_defaults(func=cmd_run)

    p = commands.add_parser("oracle", help="brute-force twin-plant verdict")
    _add_model_arg(p)
    p.add_argument(
        "--depth",
        type=_count,
        default=4,
        help="also cross-check bounded trace enumeration against the estimator",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_oracle)

    p = commands.add_parser("fuzz", help="randomized oracle/estimator agreement suite")
    p.add_argument("--models", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INVALID
    except BrokenPipeError:
        raise  # not an input error: see the module docstring
    except (ModelFormatError, TAValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
