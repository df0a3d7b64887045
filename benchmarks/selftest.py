"""Self-test of the model families at toy sizes.

The benchmark checks every op against answers known by construction.
Those answers must not rest on the code under test alone, so at toy
sizes each family's known verdict is compared with the twin-plant oracle
(``brute_force_diagnosable``), the estimator with bounded trace
enumeration (``enumerate_utraces``), and the known delay bound with an
exhaustive run simulation of the synthesized diagnoser.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

TOY_LEAK_C = 3
TOY_CHAIN_K = 5
TOY_KCLOCK_CLOCKS = 2
ENUM_DEPTH = 4


def toy_models():
    """(name, model, known answer) at toy sizes."""
    import families
    from hydiag.quotient import loads_model
    from hydiag.regions import parse_ta, region_quotient

    def ta(doc):
        return region_quotient(parse_ta(json.dumps(doc)))

    return [
        ("leak_ta", ta(families.leak_ta(TOY_LEAK_C)), families.leak_answer(TOY_LEAK_C)),
        ("kclock_ta", ta(families.kclock_ta(TOY_KCLOCK_CLOCKS)), families.kclock_answer()),
        ("chain_quot", loads_model(json.dumps(families.chain_quot(TOY_CHAIN_K))),
         families.chain_answer(TOY_CHAIN_K)),
    ]


def estimator_mismatch(model, est, depth):
    """The first trace up to ``depth`` whose estimate differs from enumeration."""
    from hydiag.oracle import enumerate_utraces

    for trace, classes in enumerate_utraces(model, depth).items():
        sid = est.initials.get(trace.head)
        for action, obs in trace.steps:
            if sid is None:
                break
            sid = est.transitions.get((sid, action, obs))
        if sid is None or set(est.states[sid].members) != set(classes):
            return trace.pretty()
    return None


def run():
    """Return a list of problems; empty when every family checks out."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from hydiag.diagnoser import synthesize
    from hydiag.estimator import build_estimator
    from hydiag.oracle import brute_force_diagnosable, simulate_runs

    problems = []
    for name, model, answer in toy_models():
        if answer.classes is not None and len(model.classes) != answer.classes:
            problems.append(f"{name}: {len(model.classes)} classes, expected {answer.classes}")
        if brute_force_diagnosable(model).diagnosable is not answer.diagnosable:
            problems.append(f"{name}: twin-plant oracle disagrees with the known verdict")
        est = build_estimator(model)
        bad = estimator_mismatch(model, est, ENUM_DEPTH)
        if bad is not None:
            problems.append(f"{name}: estimator disagrees with enumeration on {bad}")
        bound = answer.delay_bound
        if bound is not None:
            diag = synthesize(est)
            sim = simulate_runs(model, diag, bound + 3, yes_deadline=bound)
            if not sim.ok:
                problems.append(f"{name}: a run misses the delay bound {bound}")
            late = simulate_runs(model, diag, bound + 3, yes_deadline=bound - 1)
            if bound > 1 and late.ok:
                problems.append(f"{name}: delay bound {bound} is not tight")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(p)
    print("self-test", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
