"""Independent brute-force oracle for diagnosability and diagnoser testing.

Everything here deliberately avoids the subset construction: the twin
plant pairs a copy of the quotient with a healthy copy, synchronized on
observations, and looks for a lasso along which the first has faulted
(a twin state is a plain ``(left, right)`` class pair); bounded trace
enumeration walks the raw path relation; run simulation drives a
diagnoser with every environment behavior up to a horizon and reports
each losing run as the ``UTrace`` it observed.
Agreement of these with the estimator-based decision procedures is the
core evidence the implementation is right.
"""

import itertools
import random
from collections import namedtuple

from .diagnosability import check_diagnosable, check_progressive
from .errors import CapExceeded
from .estimator import DEFAULT_MAX_STATES, Classification, build_estimator
from .graphs import _bfs_tree, _tree_path, explore, find_lasso
from .quotient import (
    ActionLabel,
    ClassInfo,
    Kind,
    Lasso,
    QuotientModel,
    UTrace,
    dumps_model,
    external_moves,
    validate_model,
)


class TwinGraph(namedtuple("TwinGraph", "states initials edges")):
    """The twin plant as ``explore`` numbers it: ``states[sid]`` is a
    ``(left, right)`` pair of synchronized runs, the left one may have
    faulted, the right one has not; ``edges[sid]`` is its row of
    ``((action, obs), dst sid)`` pairs."""

    __slots__ = ()


def twin_product(model):
    """Product of two copies of the quotient synchronized on observations,
    the right copy kept healthy (a verifier in the sense of Yoo and
    Lafortune).

    Both copies silently evolve, then take the same external action and
    land in the same observable.  Initial states pair initial classes
    that share an observable (including every diagonal pair).  Pairs
    whose right class is faulty are never built: assuming F2 (no edge or
    time pair leads from a faulty class to a non-faulty one), nothing
    reachable from them has a healthy right copy, so no lasso that tells
    a faulty run from a healthy one passes through them.  Raises
    ValueError on a model that breaks F2, and CapExceeded beyond
    ``DEFAULT_MAX_STATES`` twin states.
    """
    for src, dst in itertools.chain(((s, d) for s, _, d in model.edges), model.time):
        if model.faulty[src] and not model.faulty[dst]:
            raise ValueError(
                f"faulty class {src} leads to non-faulty class {dst}: "
                "the twin plant assumes faults are irreversible (F2)"
            )
    moves = external_moves(model)

    def successors(node):
        left, right = node
        for action in model.external_actions:
            lefts = moves[(left, action.name)]
            rights = moves[(right, action.name)]
            for l_dst, l_obs in lefts:
                for r_dst, r_obs in rights:
                    if l_obs == r_obs and not model.faulty[r_dst]:
                        yield (action.name, l_obs), (l_dst, r_dst)

    starts = [
        (left, right)
        for left in model.initial_classes
        for right in model.initial_classes
        if model.obs[left] == model.obs[right] and not model.faulty[right]
    ]
    nodes, initials, edges = explore(starts, successors, DEFAULT_MAX_STATES, "twin states")
    return TwinGraph(nodes, initials, dict(enumerate(edges)))


class CounterExample(namedtuple(
        "CounterExample", "shared left_prefix left_cycle right_prefix right_cycle")):
    """Two runs sharing an observation lasso, exactly one of them faulty.

    Runs are given as the classes sampled right after each external
    action (prefix) and around the repeatable cycle; cycle paths include
    both endpoints, which coincide.
    """

    __slots__ = ()


class OracleVerdict(namedtuple("OracleVerdict", "diagnosable counterexample")):
    __slots__ = ()


def brute_force_diagnosable(model):
    """Twin-plant decision: diagnosable iff no reachable lasso keeps one
    copy faulty and the other clean.

    Sound and complete for valid progressive models: maximal executions
    are then infinite with infinitely many external actions, and every
    infinite synchronized pair eventually loops in the finite twin graph.
    """
    twin = twin_product(model)
    bad = {sid for sid, (left, _) in enumerate(twin.states) if model.faulty[left]}

    def bad_succ(sid):
        return ((label, dst) for label, dst in twin.edges[sid] if dst in bad)

    found = find_lasso(
        twin.initials, twin.edges.__getitem__, sorted(bad), bad_succ, lambda sid: sid
    )
    if found is None:
        return OracleVerdict(True, None)
    prefix_nodes, prefix_labels, cycle_nodes, cycle_labels = found
    left_prefix, right_prefix = zip(*(twin.states[s] for s in prefix_nodes))
    left_cycle, right_cycle = zip(*(twin.states[s] for s in cycle_nodes))
    lasso = Lasso.from_steps(model.obs[left_prefix[0]], prefix_labels, cycle_labels)
    return OracleVerdict(
        False, CounterExample(lasso, left_prefix, left_cycle, right_prefix, right_cycle)
    )


def _replay_run(model, classes, trace):
    """Does this class path realize the trace, one class per observation?
    A path that holds anything but class ids of the model does not."""
    moves = external_moves(model)
    external = {a.name for a in model.external_actions}
    return (
        len(classes) == len(trace.steps) + 1
        and all(type(c) is int and 0 <= c < len(model.obs) for c in classes)
        and model.obs[classes[0]] == trace.head
        and all(
            action in external and (dst, obs) in moves[(src, action)]
            for (action, obs), src, dst in zip(trace.steps, classes, classes[1:])
        )
    )


def verify_counterexample(model, cx):
    """Replay both runs, check the shared trace and that the left run is
    the faulty one and the right run the clean one."""
    shared = cx.shared
    for cycle in (cx.left_cycle, cx.right_cycle):
        if len(cycle) != len(shared.cycle.steps) + 1 or cycle[0] != cycle[-1]:
            return False
    left = (*cx.left_prefix, *cx.left_cycle[1:])
    right = (*cx.right_prefix, *cx.right_cycle[1:])
    full = UTrace(shared.prefix.head, shared.prefix.steps + shared.cycle.steps)
    if not shared.attached():
        return False
    if not _replay_run(model, left, full) or not _replay_run(model, right, full):
        return False
    return any(model.faulty[c] for c in left) and not any(model.faulty[c] for c in right)


MAX_TRACES = 200_000


def enumerate_utraces(model, k):
    """All untimed observation traces with at most ``k`` external actions,
    each mapped to the classes reachable right after its last action.

    Ground truth for the estimator: computed breadth-first over the trace
    tree of the raw path relation, per trace, never merging traces.  Each
    trace's classes step through their own ``external_moves`` rows; the
    targets are bucketed by ``(action, obs)``, and each bucket is one
    child trace.  Raises CapExceeded beyond ``MAX_TRACES`` traces.
    """
    moves = external_moves(model)
    names = [a.name for a in model.external_actions]

    result = {}
    for c in model.initial_classes:
        result.setdefault(UTrace(model.obs[c]), set()).add(c)
    frontier = list(result.items())

    for _ in range(k):
        nxt = []
        for trace, classes in frontier:
            buckets = {}
            for c in classes:
                for name in names:
                    for dst, obs in moves[(c, name)]:
                        buckets.setdefault((name, obs), set()).add(dst)
            for (name, obs), dsts in buckets.items():
                child = trace.extend(name, obs)
                result[child] = dsts
                if len(result) > MAX_TRACES:
                    raise CapExceeded("enumerated traces", len(result), MAX_TRACES)
                nxt.append((child, dsts))
        frontier = nxt

    return {trace: frozenset(classes) for trace, classes in result.items()}


class LosingRun(namedtuple("LosingRun", "trace reason")):
    """One environment behavior the diagnoser handles wrongly: the
    ``UTrace`` it observed, and "false-alarm" or "missed-fault"."""

    __slots__ = ()


class SimulationReport(namedtuple("SimulationReport", "runs losing")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.losing


MAX_LOSING = 10  # losing runs reported, shallowest first


def simulate_runs(model, diag, k, yes_deadline=None):
    """Drive the diagnoser with every environment behavior up to ``k``
    external events and score it against the two winning conditions.

    The environment picks the run and the fault timing (it may fault
    during any silent stretch).  A behavior loses if the diagnoser ever
    answers yes while the run is still fault-free, or if a faulted run
    goes ``yes_deadline`` external events (default: the whole horizon)
    without a yes.  Behaviors are counted at observation-boundary
    granularity; exhaustiveness comes from covering every reachable
    combination of depth, diagnoser state, current class, and fault age
    rather than expanding each interleaving separately.  Reported losing
    runs are read off the breadth-first tree; ``run_trace`` replays one.
    """
    deadline = k if yes_deadline is None else yes_deadline
    moves = external_moves(model)
    yes = [st.classification is Classification.FAULTY for st in diag.states]

    def successors(node):
        depth, sid, cls, age, said_yes = node
        if said_yes or depth >= k:
            return  # the run is settled: after a yes nothing can be lost
        steps = {(a.name, *row) for a in model.external_actions for row in moves[(cls, a.name)]}
        for action, dst, obs in sorted(steps):
            tid = diag.transitions.get((sid, action, obs))
            if tid is None:
                raise ValueError(f"diagnoser is incomplete: no move for ({action}, o{obs})")
            nage = min(age + 1 if age > 0 else int(model.faulty[dst]), deadline)
            yield (action, obs), (depth + 1, tid, dst, nage, yes[tid])

    starts = []
    for c in model.initial_classes:
        sid = diag.initials.get(model.obs[c])
        if sid is None:
            raise ValueError(f"diagnoser has no initial state for observable o{model.obs[c]}")
        starts.append((0, sid, c, 0, yes[sid]))
    nodes, start_ids, edges = explore(starts, successors)

    # Ids follow depth, so each node's count is complete before its row is read.
    count = [1] * len(start_ids) + [0] * (len(nodes) - len(start_ids))
    runs = 0
    for i, row in enumerate(edges):
        if not row:
            runs += count[i]  # the run ends here: horizon, yes, or dead end
        for _, j in row:
            count[j] += count[i]

    losing = {}  # node without its depth -> (shallowest id, reason)
    for i, (_, sid, cls, age, said_yes) in enumerate(nodes):
        if yes[sid] and not model.faulty[cls]:
            losing.setdefault(nodes[i][1:], (i, "false-alarm"))
        elif model.faulty[cls] and age >= deadline and not said_yes:
            losing.setdefault(nodes[i][1:], (i, "missed-fault"))

    parent = _bfs_tree(edges, len(start_ids))
    reports = []
    for i, reason in itertools.islice(losing.values(), MAX_LOSING):
        ids, labels = _tree_path(parent, i)
        trace = UTrace(model.obs[nodes[ids[0]][2]], tuple(labels))
        reports.append(LosingRun(trace, reason))
    return SimulationReport(runs, reports)


# ---------------------------------------------------------------------------
# Randomized model generation


MAX_CLASSES = 6
MAX_EXTERNAL = 2
MAX_OBSERVABLES = 2
EDGE_DENSITY = 0.35
MAX_ATTEMPTS = 500


def random_model(seed):
    """A valid, progressive quotient model drawn at random.

    Candidates are generated axiom-true by construction where cheap
    (fault edges, flag-preserving edges) and rejection-sampled against
    full validation and the progressiveness check otherwise.
    """
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        model = _draw_model(rng)
        if validate_model(model).ok and check_progressive(model).progressive:
            return model
    raise RuntimeError(f"no valid progressive model after {MAX_ATTEMPTS} attempts")


def _draw_model(rng):
    n = rng.randint(2, MAX_CLASSES)
    n_faulty = rng.randint(1, n - 1)
    nonfaulty = list(range(n - n_faulty))
    faulty = list(range(n - n_faulty, n))
    n_obs = rng.randint(1, MAX_OBSERVABLES)
    n_ext = rng.randint(1, MAX_EXTERNAL)

    initials = [c for c in nonfaulty if rng.random() < 0.5]
    if not initials:
        initials = [rng.choice(nonfaulty)]
    classes = [ClassInfo(c, c in faulty, c in initials, rng.randrange(n_obs)) for c in range(n)]

    actions = [ActionLabel(f"e{i}", Kind.EXTERNAL) for i in range(n_ext)]
    actions.append(ActionLabel("f", Kind.FAULT))
    has_internal = rng.random() < 0.3
    if has_internal:
        actions.append(ActionLabel("h", Kind.INTERNAL))

    edges = []
    for c in nonfaulty:
        edges.append((c, "f", rng.choice(faulty)))

    def same_flag(c):
        return nonfaulty if c in set(nonfaulty) else faulty

    for c in range(n):
        placed = False
        for a in actions[:n_ext]:
            for dst in same_flag(c):
                if rng.random() < EDGE_DENSITY:
                    edges.append((c, a.name, dst))
                    placed = True
        if not placed:
            edges.append((c, actions[rng.randrange(n_ext)].name, rng.choice(same_flag(c))))

    if has_internal:
        for c in range(n):
            for dst in same_flag(c):
                if rng.random() < EDGE_DENSITY * 0.4:
                    edges.append((c, "h", dst))

    time = []
    for c in range(n):
        for dst in same_flag(c):
            if dst != c and rng.random() < 0.15:
                time.append((c, dst))

    return QuotientModel(classes, actions, edges, time)


def random_models(count, seed):
    """A reproducible stream of valid progressive models."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_model(rng.randrange(2**32))


class FuzzReport(namedtuple("FuzzReport", "models agreements first_disagreement")):
    __slots__ = ()

    @property
    def ok(self):
        return self.agreements == self.models


def run_fuzz(models, seed):
    """Compare the estimator-based decision with the twin-plant oracle."""
    agreements = 0
    first = None
    for i, model in enumerate(random_models(models, seed)):
        est = build_estimator(model, expand_faulty=False)
        via_estimator = check_diagnosable(est).diagnosable
        via_twin = brute_force_diagnosable(model).diagnosable
        if via_estimator == via_twin:
            agreements += 1
        elif first is None:
            first = {
                "index": i,
                "estimator": via_estimator,
                "twin": via_twin,
                "model": dumps_model(model),
            }
    return FuzzReport(models, agreements, first)
