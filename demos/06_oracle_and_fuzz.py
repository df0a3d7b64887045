"""Cross-checking the decision procedure against brute force.

The twin plant runs two copies of the system against each other,
synchronized on what the observer sees; a reachable loop where exactly
one copy has faulted is a complete refutation of diagnosability.  The
randomized suite then compares that verdict with the estimator-based
decision over a stream of generated models.
"""

from pathlib import Path

from hydiag import (
    brute_force_diagnosable,
    build_estimator,
    load_model,
    simulate_runs,
    synthesize,
    twin_product,
    verify_counterexample,
)
from hydiag.oracle import run_fuzz

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

q2 = load_model(FIXTURES / "q2.quot.json")
twin = twin_product(q2)
print(f"twin plant of q2: {len(twin.states)} pair states")

verdict = brute_force_diagnosable(q2)
cx = verdict.counterexample
print("diagnosable:", verdict.diagnosable)
print("shared trace prefix:", cx.shared.prefix.pretty())
print("shared trace cycle: ", cx.shared.cycle.pretty())
print("faulty run: ", list(cx.left_prefix), "looping", list(cx.left_cycle))
print("healthy run:", list(cx.right_prefix), "looping", list(cx.right_cycle))
print("counterexample replays:", verify_counterexample(q2, cx))

# The synthesized diagnoser for q2 exists but cannot win: exhaustive
# simulation of every environment behavior finds the losing run.
report = simulate_runs(q2, synthesize(build_estimator(q2)), 6)
print(f"simulated {report.runs} behaviors, losing: {len(report.losing)}")
for run in report.losing:
    print("  losing:", run.trace.pretty(), f"({run.reason})")

print("randomized agreement suite:")
fuzz = run_fuzz(models=150, seed=20260809)
print(f"  {fuzz.agreements}/{fuzz.models} verdicts agree with the oracle")
