"""Traced run: the ``hydiag`` CLI in-process, with a span around each layer call.

Every op of the workload runs through ``hydiag.cli.main``, so the traced
run calls exactly the public functions the command calls, in the same
order.  For the duration of a traced pass the names ``hydiag.cli`` calls
into the layers (and the twin-plant construction inside the oracle's
decision) are replaced by wrappers that record a span.  Untraced passes
of the same ops alternate with traced ones; the ratio of their op times
is the tracing overhead.  Functions the layers call among themselves,
``graphs`` included, are counted in the span of the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback

# (module, attribute) -> span name.  The module is where the caller looks
# the name up, so replacing it there wraps exactly those calls.
LAYER_CALLS = {
    ("hydiag.cli", "load_ta"): "regions.parse_ta",
    ("hydiag.cli", "region_quotient"): "regions.quotient",
    ("hydiag.cli", "load_model"): "quotient.loads",
    ("hydiag.cli", "dumps_model"): "quotient.dumps",
    ("hydiag.cli", "validate_model"): "quotient.validate",
    ("hydiag.cli", "build_estimator"): "estimator.build",
    ("hydiag.cli", "check_progressive"): "diagnosability.progressive",
    ("hydiag.cli", "check_diagnosable"): "diagnosability.check",
    ("hydiag.cli", "detection_delay_bound"): "diagnosability.delay_bound",
    ("hydiag.cli", "synthesize"): "diagnoser.synthesize",
    ("hydiag.cli", "dumps_diagnoser"): "diagnoser.dumps",
    ("hydiag.cli", "load_diagnoser"): "diagnoser.load",
    ("hydiag.cli", "step"): "diagnoser.step",
    ("hydiag.cli", "brute_force_diagnosable"): "oracle.decide",
    ("hydiag.cli", "enumerate_utraces"): "oracle.enumerate",
    ("hydiag.oracle", "twin_product"): "oracle.twin_product",
}
FOLDED = {"diagnoser.step"}  # called once per streamed event
LAYERS = ("regions", "quotient", "estimator", "diagnosability", "diagnoser", "oracle", "cli")


def _model_counts(model):
    return {"regions.classes": len(model.classes), "regions.edges": len(model.edges)}


def _estimator_counts(est):
    from hydiag.estimator import Classification

    indet = [s for s in est.states if s.classification is Classification.INDETERMINATE]
    return {
        "estimator.states": len(est.states),
        "estimator.transitions": len(est.transitions),
        "estimator.members": sum(len(s.members) for s in est.states),
        "estimator.indeterminate": len(indet),
        "diagnosability.product_nodes": sum(
            1 for s in indet for c in s.members if est.model.faulty[c]
        ),
    }


COUNTS = {
    "regions.quotient": _model_counts,
    "quotient.loads": lambda m: {"quotient.time_pairs": len(m.time),
                                 "quotient.classes": len(m.classes)},
    "estimator.build": _estimator_counts,
    "diagnoser.dumps": lambda text: {"diagnoser.bytes": len(text.encode())},
    "oracle.twin_product": lambda tw: {
        "oracle.twin_states": len(tw.states),
        "oracle.twin_edges": sum(len(e) for e in tw.edges.values()),
    },
    "oracle.enumerate": lambda traces: {"oracle.traces": len(traces)},
}

NAME, START, END, PARENT, OP, COUNTS_AT, ERROR = range(7)


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent index, op id, counts, error.

    Counts are taken on the first traced pass only, in a ``trace.count``
    child span, so their cost lands in the tracing overhead and in no
    layer's self time.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._folds = {}
        self.op = None
        self.counting = True

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(index)
        return index

    def close(self, index, error=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def wrap(self, fn, name):
        counter = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.close(index, type(e).__name__)
                raise
            self.close(index)
            if counter is not None and self.counting:
                count = self.open("trace.count")
                self.spans[index][COUNTS_AT] = counter(result)
                self.close(count)
            return result

        return traced

    def fold(self, fn, name):
        """Like ``wrap``, for a call made once per event: the calls of one op
        fold into one span, whose duration is their summed time and whose
        counts hold the number of calls."""

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                span = self._folds.get(self.op)
                if span is None:
                    parent = self._stack[-1] if self._stack else None
                    span = [name, t0, t0, parent, self.op, {f"{name}_calls": 0}, None]
                    self.spans.append(span)
                    self._folds[self.op] = span
                span[END] += busy
                span[COUNTS_AT][f"{name}_calls"] += 1

        return traced

    def write(self, path):
        fields = ["name", "start", "end", "parent", "op", "counts", "error"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


@contextlib.contextmanager
def instrumented(recorder):
    originals = {}
    for (module, attr), name in LAYER_CALLS.items():
        mod = sys.modules[module]
        originals[(module, attr)] = getattr(mod, attr)
        wrap = recorder.fold if name in FOLDED else recorder.wrap
        setattr(mod, attr, wrap(getattr(mod, attr), name))
    try:
        yield
    finally:
        for (module, attr), fn in originals.items():
            setattr(sys.modules[module], attr, fn)


def run_op(cli, op, argv, stream_path):
    """Run one command in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = open(stream_path, encoding="utf-8") if op == "run" else io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an uncaught error is a traceback from the real CLI too
        code = 1
        err.write(traceback.format_exc())
    finally:
        sys.stdin.close()
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_traced(wl, seed, paths, seconds):
    """Alternate traced and untraced passes over the workload's ops for
    ``seconds``; return the ledger and the per-layer metrics."""
    import hydiag.cli as cli
    import selftest
    from run import Ledger, op_argv
    from workloads import prepare

    problems = selftest.run()
    if problems:
        raise SystemExit("generator self-test failed: " + "; ".join(problems))
    exp = prepare(wl, seed, paths)
    ledger = Ledger()
    recorder = SpanRecorder()
    traced_totals, plain_totals = [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        # Alternate which side goes first, so drift does not favour either.
        for traced in (True, False) if passes % 2 else (False, True):
            total = 0.0
            with instrumented(recorder) if traced else contextlib.nullcontext():
                for op in wl.ops:
                    argv = op_argv(op, paths)
                    recorder.op = (passes, op)
                    t0 = time.perf_counter()
                    index = recorder.open(f"cli.{op}") if traced else None
                    code, stdout, stderr = run_op(cli, op, argv, paths["stream"])
                    if traced:
                        recorder.close(index)
                    total += time.perf_counter() - t0
                    ledger.judge(wl, op, argv, code, stderr, lambda: exp.reason(op, stdout))
            (traced_totals if traced else plain_totals).append(total)
            if traced:
                recorder.counting = False
    recorder.write(os.path.join(paths["dir"], "spans.json"))
    metrics = layer_metrics(recorder.spans, passes)
    metrics["trace.overhead_frac"] = statistics.median(
        t / p - 1 for t, p in zip(traced_totals, plain_totals)
    )
    report(wl, metrics, passes, ledger)
    return ledger, {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def self_times(spans):
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child_time)]


def layer_metrics(spans, passes):
    selfs = self_times(spans)
    by_name = {}
    per_pass_layer = {}
    steps = []
    counts = {}
    failed_bounds = 0
    for span, own in zip(spans, selfs):
        name, op = span[NAME], span[OP]
        if span[COUNTS_AT] and name not in FOLDED:
            counts.update(span[COUNTS_AT])
        if name == "diagnosability.delay_bound" and span[ERROR]:
            failed_bounds += 1
        if name == "trace.count" or span[ERROR]:
            continue
        layer = name.split(".")[0]
        key = (op[0], layer)
        per_pass_layer[key] = per_pass_layer.get(key, 0.0) + own
        if name == "diagnoser.step":
            steps.append(span[COUNTS_AT]["diagnoser.step_calls"] / own)
        else:
            by_name.setdefault(name, []).append(own)
    metrics = {
        (f"{name}.self_s" if name.startswith("cli.") else f"{name}_s"): statistics.median(v)
        for name, v in by_name.items()
    }
    for layer in LAYERS:
        values = [v for (p, l), v in per_pass_layer.items() if l == layer]
        if values:
            metrics[f"{layer}.self_s"] = statistics.median(values)
    if steps:
        metrics["diagnoser.step_eps"] = statistics.median(steps)
    metrics.update(counts)
    if "quotient.classes" in counts:
        metrics["quotient.pairs_per_class"] = (
            metrics["quotient.time_pairs"] / metrics.pop("quotient.classes")
        )
    metrics["diagnosability.delay_bound_failed"] = failed_bounds / passes
    return metrics


def unit_of(name):
    if name.endswith("_eps"):
        return "events/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("per_class"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def report(wl, metrics, passes, ledger):
    print(f"workload {wl.name}: traced run, {passes} traced and {passes} untraced passes, "
          f"{ledger.attempted} ops")
    for name in sorted(metrics):
        print(f"{name:34} {metrics[name]:14.6g} {unit_of(name)}")
    print(f"{'failed_frac':34} {len(ledger.failures) / ledger.attempted:14.6g} ratio "
          f"= {len(ledger.failures)} failed / {ledger.attempted} attempted ops")
