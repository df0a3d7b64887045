"""The benchmark's workloads and the known answer each op is checked against.

A check returns None when the op's output is right, or a short reason.
The same checks serve the child-process run and the in-process traced
run, so both judge the program by one standard.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import families

# Sizes.  leak_ta is fixtures/ta1 scaled to ceiling LEAK_C.  kclock_ta
# uses 3 clocks at ceiling 4, so that a run holds a dozen rounds of ops.
# chain_quot keeps CHAIN_K above the ~500-event depth at which
# detection_delay_bound overflows the interpreter stack, so that defect
# stays visible.
LEAK_C = 100
KCLOCK_CLOCKS = 3
KCLOCK_CEILING = 4
KCLOCK_CLASSES = 1992  # region classes of kclock_ta(3, 4), as built by hydiag 0.1.0
CHAIN_K = 600
STREAM_EVENTS = 100_000


@dataclass
class Workload:
    name: str
    kind: str  # "ta": the input is a timed automaton; "quot": a quotient file
    document: dict
    ops: tuple
    answer: families.Answer


TA_OPS = ("regions", "check", "check_ta", "synthesize", "oracle", "run")


def workload(name):
    if name == "leak_ta":
        return Workload(name, "ta", families.leak_ta(LEAK_C), TA_OPS,
                        families.leak_answer(LEAK_C))
    if name == "kclock_ta":
        return Workload(name, "ta", families.kclock_ta(KCLOCK_CLOCKS, KCLOCK_CEILING), TA_OPS,
                        replace(families.kclock_answer(), classes=KCLOCK_CLASSES))
    if name == "chain_quot":
        return Workload(name, "quot", families.chain_quot(CHAIN_K),
                        ("check", "synthesize", "oracle", "run"), families.chain_answer(CHAIN_K))
    raise KeyError(name)


NAMES = ("leak_ta", "kclock_ta", "chain_quot")


def work_paths(workdir):
    return {
        "dir": workdir,
        "ta": os.path.join(workdir, "model.ta.json"),
        "quot": os.path.join(workdir, "model.quot.json"),
        "diag": os.path.join(workdir, "model.diag.json"),
        "stream": os.path.join(workdir, "stream.txt"),
        "stdout": os.path.join(workdir, "stdout.txt"),
        "stderr": os.path.join(workdir, "stderr.txt"),
    }


def expected_exit(wl, op):
    return 0 if op in ("regions", "synthesize", "run") or wl.answer.diagnosable else 2


def prepare(wl, seed, paths):
    """Write the workload's input and event stream; return its Expectations."""
    from hydiag.estimator import build_estimator
    from hydiag.quotient import loads_model
    from hydiag.regions import parse_ta, region_quotient

    os.makedirs(paths["dir"], exist_ok=True)
    text = json.dumps(wl.document, indent=1)
    if wl.kind == "ta":
        model = region_quotient(parse_ta(text))
        _write(paths["ta"], text)
    else:
        model = loads_model(text)
        _write(paths["quot"], text)
    if len(model.classes) != wl.answer.classes:
        raise ValueError(f"{wl.name}: {len(model.classes)} classes, expected {wl.answer.classes}")
    lines, fault_at = families.event_stream(model, seed, STREAM_EVENTS)
    _write(paths["stream"], "\n".join(lines) + "\n")
    return Expectations(wl, build_estimator(model), paths, len(lines), fault_at)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Expectations:
    """What every op of one workload must produce.

    ``est`` is the estimator built in-process from the same model:
    witnesses are replayed on it, and a synthesized diagnoser must have
    as many states.  ``fault_at`` is the first event of the stream
    observed after the generating run faulted.
    """

    def __init__(self, wl, est, paths, stream_events, fault_at):
        self.answer = wl.answer
        self.est = est
        self.paths = paths
        self.stream_events = stream_events
        self.fault_at = fault_at

    def reason(self, op, stdout):
        """None if the op's output is right, else what is wrong with it."""
        try:
            if op == "regions":
                return self.regions(_read(self.paths["quot"]))
            if op == "synthesize":
                return self.synthesize(_read(self.paths["diag"]))
            return {"check": self.check, "check_ta": self.check,
                    "oracle": self.oracle, "run": self.run}[op](stdout)
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {e!r}"

    def regions(self, text):
        classes = len(json.loads(text)["classes"])
        if classes != self.answer.classes:
            return f"{classes} region classes, expected {self.answer.classes}"
        return None

    def check(self, stdout):
        from hydiag.diagnosability import replay_lasso
        from hydiag.quotient import Lasso

        data = json.loads(stdout)
        if data.get("progressive") is not True:
            return "model reported not progressive"
        if data["diagnosable"] is not self.answer.diagnosable:
            return f"diagnosable={data['diagnosable']}, expected {self.answer.diagnosable}"
        if self.answer.diagnosable:
            if data.get("delay_bound") != self.answer.delay_bound:
                return f"delay bound {data.get('delay_bound')}, expected {self.answer.delay_bound}"
        elif not replay_lasso(self.est, Lasso.from_json(data["witness"])):
            return "witness lasso does not replay on the estimator"
        return None

    def synthesize(self, text):
        states = len(json.loads(text)["states"])
        if states != len(self.est.states):
            return f"{states} diagnoser states, expected {len(self.est.states)}"
        return None

    def oracle(self, stdout):
        data = json.loads(stdout)
        if data["diagnosable"] is not self.answer.diagnosable:
            return f"oracle diagnosable={data['diagnosable']}, expected {self.answer.diagnosable}"
        if not self.answer.diagnosable and "counterexample" not in data:
            return "oracle gave no counterexample"
        return None

    def run(self, stdout):
        lines = stdout.splitlines()
        if len(lines) != self.stream_events:
            return f"{len(lines)} verdicts for {self.stream_events} events"
        first_yes = next((i for i, line in enumerate(lines) if line.startswith("yes")), None)
        if first_yes is not None and first_yes < self.fault_at:
            return f"yes at event {first_yes}, before the fault at event {self.fault_at}"
        if self.answer.diagnosable:
            deadline = self.fault_at + self.answer.delay_bound - 1
            if first_yes is None or first_yes > deadline:
                return f"no yes by event {deadline} (fault at {self.fault_at})"
        return None
