"""Synthesize a diagnoser and drive it with streamed observations.

The diagnoser is a Moore machine over estimator states: feed it the
initial observable and then one (action, observable) pair per external
event, and read off yes/no plus a status after each.
"""

from pathlib import Path

from hydiag import (
    NoConsistentExecution,
    build_estimator,
    load_model,
    run_trace,
    step,
    synthesize,
)
from hydiag.quotient import UTrace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

model = load_model(FIXTURES / "q1.quot.json")
diag = synthesize(build_estimator(model))

print("healthy run:")
for verdict in run_trace(diag, UTrace(0, (("tick", 1), ("tick", 0), ("tick", 1)))):
    print("  ", verdict.pretty())

print("faulty run (alternation breaks):")
for verdict in run_trace(diag, UTrace(0, (("tick", 1), ("tick", 1)))):
    print("  ", verdict.pretty())

print("event-by-event session:")
cursor = None
for action, obs in [(None, 0), ("tick", 0), ("tick", 0)]:
    cursor, verdict = step(diag, cursor, action, obs)
    label = f"{action or 'init'} o{obs}"
    print(f"  {label:12s} -> {verdict.pretty()}")

print("an impossible observation raises:")
try:
    step(diag, cursor, "tick", 1)
except NoConsistentExecution as err:
    print("  NoConsistentExecution:", err)
