#!/usr/bin/env python3
"""hydiag benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 benchmarks/run.py --workload leak_ta --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it runs the real ``hydiag`` commands as child processes,
one at a time (a closed loop with one client), round after round until
``--seconds`` have passed, checks every output against the workload's
known answer and reports the median of each end-to-end metric.  With
``--trace 1`` it runs the same commands in-process with a span around
every call from the CLI into a layer (see tracing.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts every
op that crashed or answered wrongly; ``correct`` is false when an op
answered wrongly.

Runs from the root of a hydiag source tree and uses only the standard
library; work files go to ``benchmarks/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 120
READ_PAUSE_S = 0.002

# name -> unit; the order is the order of the report.
E2E_UNITS = {
    "regions_s": "s",
    "check_s": "s",
    "check_ta_s": "s",
    "synthesize_s": "s",
    "oracle_s": "s",
    "run_eps": "events/s",
    "setup_s": "s",
    "regions_rss_mb": "MB",
    "check_rss_mb": "MB",
    "oracle_rss_mb": "MB",
    "regions_mb": "MB",
    "diagnoser_mb": "MB",
}
TA_ONLY = {"regions_s", "check_ta_s", "regions_rss_mb", "regions_mb"}
RSS_METRIC = {"regions": "regions_rss_mb", "check": "check_rss_mb", "oracle": "oracle_rss_mb"}

# Calibration.  The speed of the shared machines this runs on swings by up
# to 30% within seconds and from minute to minute, which no number of
# samples per run averages out.  A fixed reference job runs as a child
# process between consecutive ops, and each op's time is rescaled by
# REFERENCE_NOMINAL_S / (mean time of the two reference jobs around it):
# seconds at reference speed, which cancels the swing the two share.
# Raw wall times are printed beside them and kept in samples.json.
REFERENCE_CODE = """
import json
rows = [{"id": i, "members": list(range(i % 7)), "class": "x"} for i in range(6000)]
back = json.loads(json.dumps(rows, indent=2))
index = {}
for row in back:
    index.setdefault(len(row["members"]), set()).add(row["id"])
"""
REFERENCE_NOMINAL_S = 0.08  # the job's time on an idle 2.1 GHz vCPU


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HYDIAG_MAX_CLASSES", None)
    return env


def op_argv(op, paths):
    """The ``hydiag`` argument list of one op."""
    ta, quot, diag = paths["ta"], paths["quot"], paths["diag"]
    return {
        "regions": ["regions", ta, "-o", quot],
        "check": ["check", quot, "--format", "json"],
        "check_ta": ["check", ta, "--ta", "--format", "json"],
        "synthesize": ["synthesize", quot, "-o", diag],
        "oracle": ["oracle", quot, "--format", "json"],
        "run": ["run", diag],
    }[op]


class Child:
    """One ``hydiag`` child process: exit code, wall time, peak RSS, stderr.

    Its stdout goes to ``paths["stdout"]``.  With ``expect_lines`` the
    stdout is piped through this process, which notes when the first and
    the last expected line arrive.
    """

    def __init__(self, args, paths, stdin_path=None, expect_lines=None):
        stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
        self.t_first = self.t_last = None
        try:
            with open(paths["stderr"], "wb") as err, open(paths["stdout"], "wb") as out:
                self.t0 = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "hydiag", *args],
                    stdin=stdin,
                    stdout=subprocess.PIPE if expect_lines else out,
                    stderr=err,
                    env=child_env(),
                    cwd=ROOT,
                )
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    if expect_lines:
                        self._stream(proc, out, expect_lines)
                    _, status, usage = os.wait4(proc.pid, 0)
                    self.t1 = time.perf_counter()
                finally:
                    timer.cancel()
                    if proc.stdout:
                        proc.stdout.close()
                proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        finally:
            if stdin_path:
                stdin.close()
        self.wall_s = self.t1 - self.t0
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        with open(paths["stderr"], encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()

    def _stream(self, proc, out, expect_lines):
        fd = proc.stdout.fileno()
        lines = 0
        while True:
            data = os.read(fd, 1 << 16)
            if not data:
                return
            now = time.perf_counter()
            out.write(data)
            lines += data.count(b"\n")
            if self.t_first is None and lines:
                self.t_first = now
            if self.t_last is None and lines >= expect_lines:
                self.t_last = now
            # Read in batches, so that this process takes little CPU from the
            # child; the pipe buffer holds a few milliseconds of verdicts.
            time.sleep(READ_PAUSE_S)


class CheckerProcess:
    """The checker.py helper: prepares the workload, then checks op outputs."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "checker.py"), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"checker.py could not prepare {workload}")
        self.stream_events = json.loads(line)["stream_events"]

    def reason(self, op):
        self.proc.stdin.write(op + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["reason"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Ledger:
    """Attempted and failed ops, wrong answers, and the samples of ops that succeeded."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.failures = []
        self.samples = {}

    def add(self, name, value, ref=None):
        """One sample, with the reference job's time measured next to it."""
        self.samples.setdefault(name, []).append((value, ref))

    def judge(self, wl, op, argv, code, stderr, reason):
        """Count one op; ``reason()`` checks its output.  Return True if it succeeded."""
        from workloads import expected_exit

        self.attempted += 1
        expected = expected_exit(wl, op)
        if "Traceback" in stderr:
            why, wrong = "traceback", False
        elif code != expected:
            why = f"exit code {code}, expected {expected}"
            # The other verdict's exit code is a wrong answer; any other code a crash.
            wrong = op in ("check", "check_ta", "oracle") and code in (0, 2)
        else:
            why, wrong = reason(), True
            if why is None:
                return True
        self.wrong += wrong
        lines = stderr.strip().splitlines()
        self.failures.append({
            "op": op,
            "command": "hydiag " + " ".join(argv),
            "exit": code,
            "stderr": lines[-1] if lines else "",
            "reason": why,
        })
        return False

    def failed_by_op(self):
        out = {}
        for f in self.failures:
            out[f["op"]] = out.get(f["op"], 0) + 1
        return out


def run_e2e(wl, checker, paths, seconds):
    ledger = Ledger()
    events = checker.stream_events
    rounds = 0
    start = time.perf_counter()
    ref_before = reference_s()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for op in wl.ops:
            argv = op_argv(op, paths)
            if op == "run":
                child = Child(argv, paths, paths["stream"], events)
            else:
                child = Child(argv, paths)
            # The reference jobs right before and after the op bracket it.
            ref_after = reference_s()
            ref = (ref_before + ref_after) / 2
            ref_before = ref_after
            if not ledger.judge(wl, op, argv, child.code, child.stderr,
                                lambda: checker.reason(op)):
                continue
            if op == "run":
                ledger.add("setup_s", child.t_first - child.t0, ref)
                ledger.add("run_eps", (events - 1) / (child.t_last - child.t_first), ref)
                continue
            ledger.add(f"{op}_s", child.wall_s, ref)
            if op in RSS_METRIC:
                ledger.add(RSS_METRIC[op], child.rss_mb)
            if op == "regions":
                ledger.add("regions_mb", os.path.getsize(paths["quot"]) / 1e6)
            if op == "synthesize":
                ledger.add("diagnoser_mb", os.path.getsize(paths["diag"]) / 1e6)
    return ledger, rounds


def reference_s():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], stdin=subprocess.DEVNULL,
                   env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def check_program():
    """The child processes must import hydiag from this source tree."""
    out = subprocess.run(
        [sys.executable, "-c", "import hydiag.cli, hydiag; print(hydiag.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    got = out.stdout.strip()
    if out.returncode != 0 or os.path.dirname(os.path.realpath(got)) != os.path.realpath(
        os.path.join(SRC, "hydiag")
    ):
        raise SystemExit(f"hydiag is not importable from {SRC}: {out.stderr.strip() or got}")


def calibrated(samples, unit):
    """Median of the samples at reference speed (times and rates), else as measured."""
    if unit == "s":
        return statistics.median(v * REFERENCE_NOMINAL_S / ref for v, ref in samples)
    if unit == "events/s":
        return statistics.median(v * ref / REFERENCE_NOMINAL_S for v, ref in samples)
    return statistics.median(v for v, _ in samples)


def report_e2e(wl, ledger, rounds):
    metrics = {}
    refs = [ref for _, ref in ledger.samples.get("setup_s", [])]
    print(f"workload {wl.name}: {rounds} rounds, {ledger.attempted} ops, one client, closed loop")
    if refs:
        print(f"reference job: median {statistics.median(refs):.4f} s, "
              f"nominal {REFERENCE_NOMINAL_S} s")
    print(f"{'metric':16} {'value':>12} {'unit':9} {'n':>3} {'raw median':>12} "
          f"{'raw min':>12} {'raw max':>12}")
    for name, unit in E2E_UNITS.items():
        if wl.kind != "ta" and name in TA_ONLY:
            continue
        samples = ledger.samples.get(name, [])
        if not samples:
            metrics[name] = {"value": None, "unit": unit}
            print(f"{name:16} {'null':>12} {unit:9} {0:3d}  (no successful op)")
            continue
        value = calibrated(samples, unit)
        metrics[name] = {"value": value, "unit": unit}
        raw = [v for v, _ in samples]
        print(f"{name:16} {value:12.6g} {unit:9} {len(raw):3d} {statistics.median(raw):12.6g} "
              f"{min(raw):12.6g} {max(raw):12.6g}")
    failed = len(ledger.failures)
    print(f"{'failed_frac':16} {failed / ledger.attempted:12.6g} {'ratio':9} "
          f"= {failed} failed / {ledger.attempted} attempted ops; by op: {ledger.failed_by_op()}")
    return metrics


def print_failures(failures, limit=10):
    for f in failures[:limit]:
        print(f"FAILED {f['op']}: {f['command']} -> exit {f['exit']}: {f['reason']}; "
              f"stderr: {f['stderr']}")
    if len(failures) > limit:
        print(f"... {len(failures) - limit} more failed ops")


def source_lines():
    pkg = os.path.join(SRC, "hydiag")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import NAMES, work_paths, workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hydiag", "cli.py")):
        print(f"error: no hydiag source tree at {SRC}", file=sys.stderr)
        return 2
    check_program()
    print(f"src/hydiag: {source_lines()} lines")
    wl = workload(args.workload)
    paths = work_paths(os.path.join(WORK, wl.name))
    if args.trace:
        sys.path.insert(0, SRC)
        import tracing

        ledger, metrics = tracing.run_traced(wl, args.seed, paths, args.seconds)
        metrics = {name: metrics.get(name) for name in declared_metrics("per_layer")}
    else:
        checker = CheckerProcess(wl.name, args.seed)
        try:
            ledger, rounds = run_e2e(wl, checker, paths, args.seconds)
        finally:
            checker.close()
        metrics = report_e2e(wl, ledger, rounds)
        with open(os.path.join(paths["dir"], "samples.json"), "w") as fh:
            json.dump(ledger.samples, fh)
    print_failures(ledger.failures)
    with open(os.path.join(paths["dir"], f"failures-trace{args.trace}.json"), "w") as fh:
        json.dump(ledger.failures, fh, indent=1)
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
