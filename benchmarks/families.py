"""Seeded model families with answers known by construction.

Each family is deterministic in its size parameter; the seed only drives
the event stream fed to ``hydiag run``.  The files are plain dicts in the
hydiag JSON formats, so the benchmark hands the program exactly what a
user would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Answer:
    """What a family's model is known, by construction, to be."""

    diagnosable: bool
    delay_bound: int | None  # external events from the fault to a sure yes
    classes: int | None  # quotient classes, where a closed form is known


def leak_ta(ceiling):
    """``fixtures/ta1`` with every constant scaled to ``ceiling``.

    A healthy tick resets the clock (observed ``x<C``), a leaking tick does
    not (observed ``!(x<C)``), so one tick after the fault gives it away.
    Each location has a time chain of 2C+1 regions, whose reflexive and
    transitive closure holds (2C+1)(2C+2)/2 pairs.
    """
    c = ceiling
    inv = [f"x<={c}"]
    return {
        "locations": [
            {"name": "ok", "faulty": False, "initial": True, "invariant": inv},
            {"name": "leak", "faulty": True, "initial": False, "invariant": inv},
        ],
        "clocks": {"internal": [], "external": ["x"]},
        "edges": [
            {"src": "ok", "dst": "ok", "action": "tick", "kind": "external",
             "guard": [f"x=={c}"], "resets": ["x"]},
            {"src": "ok", "dst": "leak", "action": "leak_start", "kind": "fault",
             "guard": [], "resets": []},
            {"src": "leak", "dst": "leak", "action": "tick", "kind": "external",
             "guard": [f"x=={c}"], "resets": []},
        ],
        "observation": [
            {"id": 0, "pred": f"x<{c}"},
            {"id": 1, "pred": f"!(x<{c})"},
        ],
    }


def leak_answer(ceiling):
    return Answer(True, 1, 2 * (2 * ceiling + 1))


def kclock_ta(clocks, ceiling=2):
    """One healthy and one faulty location over ``clocks`` clocks.

    Healthy tick ``t_i`` needs ``x_i==C`` and the invariant forces it;
    faulty ``t_i`` needs only ``x_i>=1``.  Since ``x_i==C`` satisfies the
    faulty guard too, a faulty run can copy any healthy run forever, so
    the model is not diagnosable.  Clocks x0 and x1 are external and
    observed through three cells: both below C, only x0 below C, and x0
    at or past C.
    """
    names = [f"x{i}" for i in range(clocks)]
    inv = [f"{x}<={ceiling}" for x in names]
    edges = [{"src": "ok", "dst": "bad", "action": "f", "kind": "fault",
              "guard": [], "resets": []}]
    for i, x in enumerate(names):
        edges.append({"src": "ok", "dst": "ok", "action": f"t{i}", "kind": "external",
                      "guard": [f"{x}=={ceiling}"], "resets": [x]})
        edges.append({"src": "bad", "dst": "bad", "action": f"t{i}", "kind": "external",
                      "guard": [f"{x}>=1"], "resets": [x]})
    low = f"x0<{ceiling} & x1<{ceiling}"
    cells = [low, f"!({low}) & x0<{ceiling}", f"!(x0<{ceiling})"]
    return {
        "locations": [
            {"name": "ok", "faulty": False, "initial": True, "invariant": inv},
            {"name": "bad", "faulty": True, "initial": False, "invariant": inv},
        ],
        "clocks": {"internal": names[2:], "external": names[:2]},
        "edges": edges,
        "observation": [{"id": i, "pred": p} for i, p in enumerate(cells)],
    }


def kclock_answer():
    return Answer(False, None, None)


def chain_quot(k):
    """The ``q3`` test fixture generalised to a mimic chain of length ``k``.

    Healthy classes n0/n1 alternate observables 0/1 on ``tick``.  A fault
    from n_j enters faulty chain class g_j; g_0..g_{k-1} copy the
    alternation, g_k repeats its predecessor's observable and loops, so
    the ambiguity ends exactly k events after the fault.
    """
    classes = [
        {"id": 0, "faulty": False, "initial": True, "obs": 0},
        {"id": 1, "faulty": False, "initial": False, "obs": 1},
    ]
    for i in range(k + 1):
        obs = i % 2 if i < k else (k - 1) % 2
        classes.append({"id": 2 + i, "faulty": True, "initial": False, "obs": obs})
    edges = [
        {"src": 0, "action": "tick", "dst": 1},
        {"src": 1, "action": "tick", "dst": 0},
        {"src": 0, "action": "f", "dst": 2},
        {"src": 1, "action": "f", "dst": 3},
    ]
    for i in range(k):
        edges.append({"src": 2 + i, "action": "tick", "dst": 3 + i})
    edges.append({"src": 2 + k, "action": "tick", "dst": 2 + k})
    return {
        "classes": classes,
        "actions": [{"name": "tick", "kind": "external"}, {"name": "f", "kind": "fault"}],
        "edges": edges,
        "time": [],
    }


def chain_answer(k):
    return Answer(True, k, k + 3)


def event_stream(model, seed, length):
    """A random run of ``model`` as a ``hydiag run`` stream.

    The run stays healthy for a seeded number of events, then faults
    silently just before external event ``fault_at`` and stays faulty.
    Returns the stream lines and ``fault_at``, the index of the first
    event observed after the fault (event 0 is the ``init`` line).
    """
    from hydiag.quotient import Kind, unobservable_closure

    rng = random.Random(seed)
    cache = {}

    def healthy_closure(c):
        seen = {c}
        frontier = [c]
        while frontier:
            x = frontier.pop()
            succ = [d for label, d in model.discrete_edges_from(x) if label.kind is Kind.INTERNAL]
            succ.extend(model.proper_time_successors(x))
            for d in succ:
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        return seen

    def moves(c, may_fault):
        """(action, target) pairs of one observed step; healthy runs stay healthy."""
        key = (c, may_fault or model.faulty[c])
        out = cache.get(key)
        if out is None:
            if model.faulty[c]:
                mids = unobservable_closure(model, (c,))
            elif may_fault:
                mids = {m for m in unobservable_closure(model, (c,)) if model.faulty[m]}
            else:
                mids = healthy_closure(c)
            out = [
                (action.name, dst)
                for mid in sorted(mids)
                for action in model.external_actions
                for dst in model.external_edges_from(mid, action)
            ]
            cache[key] = out
        return out

    fault_at = rng.randrange(length // 4, length // 2)
    cur = rng.choice(model.initial_classes)
    lines = [f"init {model.obs[cur]}"]
    for i in range(1, length):
        options = moves(cur, i >= fault_at)
        if not options:
            raise ValueError(f"the run is stuck in class {cur}")
        action, cur = options[rng.randrange(len(options))]
        lines.append(f"{action} {model.obs[cur]}")
    return lines, fault_at
