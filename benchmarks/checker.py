"""Output checker, run as a helper process beside the end-to-end run.

    python3 benchmarks/checker.py <workload> <seed>

Runs the generator self-test, writes the workload's input files and
event stream, prints one JSON line with the stream's facts, then answers
one request per input line: the name of an op whose output is in the
work directory.  The reply is a JSON line, ``{"reason": null}`` when the
output is right.

The checks need the model and its estimator in memory.  Holding them in
this process keeps the benchmark process small, which matters because
Linux counts the parent's high-water RSS at exec into a child's
``ru_maxrss``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
WORK = os.path.join(HERE, ".work")


def main(argv):
    import selftest
    from workloads import prepare, work_paths, workload

    problems = selftest.run()
    if problems:
        print("generator self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    wl = workload(argv[0])
    seed = int(argv[1])
    paths = work_paths(os.path.join(WORK, wl.name))
    exp = prepare(wl, seed, paths)
    facts = {"stream_events": exp.stream_events, "fault_at": exp.fault_at}
    print(json.dumps(facts), flush=True)
    for line in sys.stdin:
        op = line.strip()
        with open(paths["stdout"], encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        print(json.dumps({"reason": exp.reason(op, stdout)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
