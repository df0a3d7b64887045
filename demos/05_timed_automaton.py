"""From a timed automaton to a diagnoser, via the region construction.

The fixture models a periodic sensor: in the healthy location the clock
is reset on every tick, so the observed value stays below 1; after a
silent leak_start fault the reset stops happening and the very next tick
is observed at x = 1.
"""

from pathlib import Path

from hydiag import (
    Classification,
    build_estimator,
    check_diagnosable,
    detection_delay_bound,
    load_ta,
    region_count_bound,
    synthesize,
)
from hydiag.regions import build_region_quotient

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ta = load_ta(FIXTURES / "ta1.ta.json")
print("clocks:", ta.clocks, "ceilings:", ta.ceilings)
print("region count bound:", region_count_bound(ta))

rq = build_region_quotient(ta)
print(f"reachable classes: {len(rq.model.classes)}")
for cid, (loc, region) in enumerate(rq.class_regions):
    cls = rq.model.classes[cid]
    flags = "".join(
        [("F" if cls.faulty else "-"), ("I" if cls.initial else "-")]
    )
    print(f"  {cid}: {loc:5s} [{region.pretty(ta.clocks)}]  {flags}  o{cls.obs}")

est = build_estimator(rq.model)
verdict = check_diagnosable(est)
print("diagnosable:", verdict.diagnosable)
print("detection delay bound:", detection_delay_bound(est))

diag = synthesize(est)
outputs = {
    i: "yes" if s.classification is Classification.FAULTY else "no"
    for i, s in enumerate(diag.states)
}
print("diagnoser outputs:", outputs)
