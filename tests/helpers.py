"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import importlib
import itertools
import json
import operator
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from hydiag import estimator
from hydiag.diagnosability import (
    DiagnosabilityVerdict,
    ProgressReport,
    ProgressWitness,
    _fault_product,
    _indeterminate_graph,
)
from hydiag.errors import ModelFormatError, TAValidationError
from hydiag.estimator import (
    Classification,
    EstimatorGraph,
    EstimatorState,
    classify,
    initial_estimates,
)
from hydiag.fileformat import (
    _STATE_SCHEMA,
    _TRANSITION_SCHEMA,
    _as_object,
    _key_int,
    _member,
    _require_keys,
    _rows,
    _state_id,
)
from hydiag.graphs import explore, find_lasso, shortest_cycle, strongly_connected_components
from hydiag.oracle import LosingRun, SimulationReport
from hydiag.quotient import (
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
from hydiag.regions import (
    Location,
    ObservableSpec,
    Region,
    RegionQuotient,
    TAEdge,
    TimedAutomatonWithFaults,
    initial_region,
    load_ta,
    parse_pred,
    parse_ta,
    position_regions,
    time_successor,
)

TICK = ActionLabel("tick", Kind.EXTERNAL)
FAULT = ActionLabel("f", Kind.FAULT)
HIDDEN = ActionLabel("h", Kind.INTERNAL)


def make_model(classes, edges, time=(), actions=(TICK, FAULT)):
    """Build a QuotientModel from (faulty, initial, obs) class triples."""
    infos = [
        ClassInfo(i, faulty, initial, obs)
        for i, (faulty, initial, obs) in enumerate(classes)
    ]
    return QuotientModel(infos, actions, edges, time)


def reference_adjacency(model):
    """``QuotientModel``'s adjacency caches ``(_silent, _ext, _disc,
    _tsucc)`` as sets per class, sorted at the end."""
    n = len(model.classes)
    silent, ext, disc, tsucc = [set() for _ in range(n)], {}, [[] for _ in range(n)], {}
    for src, label, dst in model.edges:
        disc[src].append((label, dst))
        if label.kind is Kind.EXTERNAL:
            ext.setdefault((src, label.name), set()).add(dst)
        else:
            silent[src].add(dst)
    for src, dst in model.time:
        if src != dst:
            silent[src].add(dst)
            tsucc.setdefault(src, set()).add(dst)
    return (
        tuple(tuple(sorted(s)) for s in silent),
        {k: tuple(sorted(v)) for k, v in ext.items()},
        tuple(map(tuple, disc)),
        tuple(tuple(sorted(tsucc.get(c, ()))) for c in range(n)),
    )


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))


def fresh_copy(model):
    """An equal model whose ``external_moves`` table is still empty."""
    return QuotientModel(model.classes, model.actions, model.edges, model.time)


def benchmark_families():
    """The benchmark's model families, ``benchmarks/families.py``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        return importlib.import_module("families")


def record_expansions(monkeypatch):
    """The list of member sets that the estimator's successor rule expands
    from now on, each appended as it is expanded."""
    expanded = []
    rule = estimator._successor_rule

    def counted(model, expand_faulty):
        successors = rule(model, expand_faulty)

        def recorded(members):
            expanded.append(members)
            return successors(members)

        return recorded

    monkeypatch.setattr(estimator, "_successor_rule", counted)
    return expanded


def q1_model():
    """Diagnosable four-class fixture: faulty ticks keep a constant observable."""
    return make_model(
        [(False, True, 0), (False, False, 1), (True, False, 0), (True, False, 1)],
        [
            (0, "tick", 1),
            (1, "tick", 0),
            (0, "f", 2),
            (1, "f", 3),
            (2, "tick", 2),
            (3, "tick", 3),
        ],
    )


def q2_model():
    """Non-diagnosable twin of q1: faulty ticks mimic the alternation."""
    return make_model(
        [(False, True, 0), (False, False, 1), (True, False, 0), (True, False, 1)],
        [
            (0, "tick", 1),
            (1, "tick", 0),
            (0, "f", 2),
            (1, "f", 3),
            (2, "tick", 3),
            (3, "tick", 2),
        ],
    )


def f2_violating_model(time=False):
    """q1 plus a move from faulty class 2 back to healthy class 0: a tick
    edge, or with ``time`` a time pair.  Faults are then reversible."""
    q1 = q1_model()
    classes = [(c.faulty, c.initial, c.obs) for c in q1.classes]
    edges = [(s, a.name, d) for s, a, d in q1.edges]
    if time:
        return make_model(classes, edges, time=[(2, 0)])
    return make_model(classes, edges + [(2, "tick", 0)])


def q3_model():
    """Faulty branch mimics the alternation for exactly three events.

    Classes 0/1 are the non-faulty alternation; 2..6 the faulty chain
    g0..g4.  The estimator stays ambiguous for three events after a
    fault, then the chain's observable pattern breaks.
    """
    return make_model(
        [
            (False, True, 0),   # n0
            (False, False, 1),  # n1
            (True, False, 0),   # g0
            (True, False, 1),   # g1
            (True, False, 0),   # g2
            (True, False, 1),   # g3
            (True, False, 1),   # g4
        ],
        [
            (0, "tick", 1),
            (1, "tick", 0),
            (0, "f", 2),
            (1, "f", 3),
            (2, "tick", 3),
            (3, "tick", 4),
            (4, "tick", 5),
            (5, "tick", 6),
            (6, "tick", 6),
        ],
    )


def linear_chain_model(k):
    """Faulty branch mimics a healthy o0 chain for ``k`` events.

    Healthy h_0..h_k (ids 0..k) and faulty f_0..f_k (ids k+1..2k+1) all
    sit in o0; h_i may fault into f_i, both tick along their chain, h_k
    ticks in place and f_k ticks into a faulty o1 sink (id 2k+2).  The
    estimator stays ambiguous for exactly ``k`` events after a fault.
    """
    healthy = [(False, i == 0, 0) for i in range(k + 1)]
    faulty = [(True, False, 0) for _ in range(k + 1)]
    sink = 2 * k + 2
    edges = [(sink, "tick", sink)]
    for i in range(k + 1):
        edges.append((i, "f", k + 1 + i))
        edges.append((i, "tick", min(i + 1, k)))
        edges.append((k + 1 + i, "tick", k + 2 + i if i < k else sink))
    return make_model(healthy + faulty + [(True, False, 1)], edges)


def koenig_model():
    """Regression fixture: an indeterminate estimator self-loop that no
    faulty run can sustain, so the system is diagnosable anyway.

    Found by the randomized agreement suite; the faulty branch can mimic
    the non-faulty (e1, o0) self-loop for one step only.
    """
    E0 = ActionLabel("e0", Kind.EXTERNAL)
    E1 = ActionLabel("e1", Kind.EXTERNAL)
    return make_model(
        [
            (False, True, 0),
            (True, False, 0),
            (True, False, 0),
            (True, False, 1),
            (True, False, 0),
        ],
        [
            (0, "e1", 0),
            (0, "f", 3),
            (1, "e0", 4),
            (2, "e1", 3),
            (3, "e0", 1),
            (3, "e1", 1),
            (3, "e1", 2),
            (3, "e1", 3),
            (4, "e0", 1),
            (4, "e0", 3),
            (4, "e1", 1),
            (4, "e1", 2),
            (4, "e1", 4),
        ],
        time=[(3, 2), (4, 1)],
        actions=(E0, E1, FAULT),
    )


def nx_silent_graph(model):
    """The silent moves of ``model`` (internal, fault, time) as a networkx graph."""
    silent = nx.DiGraph()
    silent.add_nodes_from(range(len(model.classes)))
    silent.add_edges_from(
        (s, d) for s, label, d in model.edges if label.kind is not Kind.EXTERNAL
    )
    silent.add_edges_from((s, d) for s, d in model.time if s != d)
    return silent


def nx_observed_step(model):
    """Reference estimator step: ``step(seed, action, obs)`` is the set of
    classes in cell ``obs`` that some class of ``seed`` reaches by silent
    moves and then one ``action`` edge.  The closure comes from networkx
    descendants, not from the quotient's own search."""
    silent = nx_silent_graph(model)
    targets = {}
    for s, label, d in model.edges:
        if label.kind is Kind.EXTERNAL:
            targets.setdefault((s, label.name, model.obs[d]), set()).add(d)

    def step(seed, action, obs):
        closure = set(seed).union(*(nx.descendants(silent, c) for c in seed))
        return set().union(*(targets.get((c, action, obs), ()) for c in closure))

    return step


def estimator_trace_map(est, k):
    """Traces of length <= k realized by the estimator, with members.

    Walks the estimator graph breadth-first; the graph is deterministic,
    so each trace reaches one state.
    """
    out = {}
    frontier = []
    for obs, sid in sorted(est.initials.items()):
        trace = UTrace(obs)
        out[trace] = frozenset(est.states[sid].members)
        frontier.append((sid, trace))
    by_src = {}
    for (src, action, obs), dst in sorted(est.transitions.items()):
        by_src.setdefault(src, []).append((action, obs, dst))
    for _ in range(k):
        nxt = []
        for sid, trace in frontier:
            for action, obs, dst in by_src.get(sid, ()):
                t2 = trace.extend(action, obs)
                if t2 not in out:
                    out[t2] = frozenset(est.states[dst].members)
                    nxt.append((dst, t2))
        frontier = nxt
    return out


def unpruned_check_diagnosable(est):
    """``check_diagnosable`` over the fault product of every indeterminate
    state, not only those on a cycle of indeterminate states."""
    adj, indet, _ = _indeterminate_graph(est)
    nodes, successors = _fault_product(est, adj, indet)
    product = {v: list(successors(v)) for v in nodes}
    starts = [sid for _, sid in sorted(est.initials.items())]
    found = find_lasso(
        starts, adj.__getitem__, product, product.__getitem__, lambda node: node[0]
    )
    if found is None:
        return DiagnosabilityVerdict(True, None)
    prefix_nodes, prefix_labels, _, cycle_labels = found
    head = {sid: obs for obs, sid in est.initials.items()}[prefix_nodes[0]]
    return DiagnosabilityVerdict(False, Lasso.from_steps(head, prefix_labels, cycle_labels))


def reference_delay_bound(est):
    """``detection_delay_bound`` over a fully built fault product dict.

    Every indeterminate state is paired with each faulty member, and an
    edge follows each estimator transition between indeterminate states
    with a single-class step from ``nx_observed_step``; the bound is one
    more than the most nodes on a chain, read off a networkx topological
    order.  Raises ValueError when the product has a cycle.
    """
    step = nx_observed_step(est.model)
    faulty = {
        sid: [c for c in st.members if est.model.faulty[c]]
        for sid, st in enumerate(est.states)
        if st.classification is Classification.INDETERMINATE
    }
    product = {(sid, c): [] for sid, members in faulty.items() for c in members}
    for (src, action, obs), dst in est.transitions.items():
        if src in faulty and dst in faulty:
            for c in faulty[src]:
                product[(src, c)] += [(dst, c2) for c2 in step({c}, action, obs)]
    g = nx.DiGraph()
    g.add_nodes_from(product)
    g.add_edges_from((v, d) for v, out in product.items() for d in out)
    if not nx.is_directed_acyclic_graph(g):
        raise ValueError("the fault product has a cycle")
    longest = {}
    for v in reversed(list(nx.topological_sort(g))):
        longest[v] = 1 + max((longest[d] for d in g.successors(v)), default=0)
    return max(longest.values(), default=0) + 1


def reference_build_estimator(model, *, expand_faulty=True):
    """``build_estimator`` as a per-member loop: for every action, each
    member's rows are read and grouped by observable one target at a time,
    on every visit to the member."""
    moves = external_moves(model)
    faulty = model.faulty

    def successors(members):
        if not expand_faulty and all(faulty[c] for c in members):
            return
        for action in model.external_actions:
            buckets = {}
            for c in members:
                for dst, obs in moves[(c, action.name)]:
                    buckets.setdefault(obs, set()).add(dst)
            for obs in sorted(buckets):
                yield (action.name, obs), tuple(sorted(buckets[obs]))

    initial = initial_estimates(model)
    starts = [st.members for st in initial.values()]
    nodes, start_ids, edges = explore(starts, successors)
    states = list(initial.values())
    states += [EstimatorState(m, classify(m, model)) for m in nodes[len(states):]]
    transitions = {(sid, a, obs): tid for sid, row in enumerate(edges) for (a, obs), tid in row}
    return EstimatorGraph(states, dict(zip(initial, start_ids)), transitions, model)


def reference_parse_graph_json(data, what, extra_keys=frozenset()):
    """``_parse_graph_json`` as one pass over each list, checking row by
    row and raising at the first bad row."""
    _require_keys(data, {"states", "initials", "transitions"} | extra_keys, what)

    states = []
    for i, (sid, members, cls) in enumerate(_rows(data["states"], "states", _STATE_SCHEMA)):
        if sid != i:
            raise ModelFormatError(f"states[{i}].id must be {i}")
        if set(map(type, members)) - {int}:
            raise ModelFormatError(f"states[{i}].members must be integers")
        states.append(
            EstimatorState(tuple(members), _member(Classification, cls, f"states[{i}].class"))
        )

    n = len(states)
    initials = {}
    for obs, sid in _as_object(data["initials"], "initials").items():
        initials[_key_int(obs, "initials")] = _state_id(sid, n, "initials", obs)

    transitions = {}
    rows = _rows(data["transitions"], "transitions", _TRANSITION_SCHEMA)
    for i, (src, action, obs, dst) in enumerate(rows):
        if not (0 <= src < n and 0 <= dst < n):
            raise ModelFormatError(f"transitions[{i}] out of range")
        if (src, action, obs) in transitions:
            first = next(j for j, row in enumerate(rows) if tuple(row[:3]) == (src, action, obs))
            raise ModelFormatError(f"transitions[{i}] repeats the move of transitions[{first}]")
        transitions[(src, action, obs)] = dst
    return states, initials, transitions


def _reference_dumps(data):
    return json.dumps(data, separators=(",", ":")) + "\n"


def reference_dumps_model(model):
    """``dumps_model`` as a dict of the file's data, written by the json
    module's C encoder."""
    return _reference_dumps({
        "classes": [[c.id, c.faulty, c.initial, c.obs] for c in model.classes],
        "actions": [[a.name, a.kind.value] for a in model.actions],
        "edges": [[src, label.name, dst] for src, label, dst in model.edges],
        "time": [[s, d] for s, d in sorted(model.time)],
    })


def _reference_graph_data(graph):
    return {
        "states": [
            [i, list(s.members), s.classification.value] for i, s in enumerate(graph.states)
        ],
        "initials": {str(obs): sid for obs, sid in sorted(graph.initials.items())},
        "transitions": [
            [src, action, obs, dst]
            for (src, action, obs), dst in sorted(graph.transitions.items())
        ],
    }


# The keys of each row list in the files hydiag writes, in the order of
# the values of an array row.  Earlier versions wrote every row as an
# object of these keys.
ROW_KEYS = {
    "classes": ("id", "faulty", "initial", "obs"),
    "actions": ("name", "kind"),
    "edges": ("src", "action", "dst"),
    "time": ("src", "dst"),
    "states": ("id", "members", "class"),
    "transitions": ("src", "action", "obs", "dst"),
}


def spelled_as_objects(data, which=lambda i: True):
    """The data of a quotient, estimator or diagnoser file with the rows
    whose index ``which`` accepts spelled as objects; a row already an
    object stays one."""
    return {
        field: [
            dict(zip(ROW_KEYS[field], row)) if type(row) is list and which(i) else row
            for i, row in enumerate(value)
        ] if field in ROW_KEYS else value
        for field, value in data.items()
    }


def array_path(path):
    """A path into a written file, with the key of a row, as in ``(table,
    row, key, ...)``, replaced by its position in the array row."""
    if path[0] not in ROW_KEYS:
        return path
    table, row, key, *rest = path
    return (table, row, ROW_KEYS[table].index(key), *rest)


def reference_dumps_estimator(est):
    """``dumps_estimator`` as a dict written by the C encoder."""
    return _reference_dumps(_reference_graph_data(est))


def legacy_diagnoser_data(data):
    """A diagnoser file as earlier versions wrote it: ``data``, the data of
    a diagnoser file with array rows, plus ``output``, the answer of each
    state's class keyed by state id."""
    return {**data, "output": {
        str(sid): "yes" if cls == "faulty" else "no" for sid, _, cls in data["states"]
    }}


def reference_enumerate_utraces(model, k):
    """``enumerate_utraces`` as a breadth-first search over (class, trace)
    pairs: every class of every trace extends the trace on its own, and
    the pairs are grouped by trace only at the end.  No cap."""
    moves = external_moves(model)
    result = {}
    frontier = {(c, UTrace(model.obs[c])) for c in model.initial_classes}
    for c, trace in frontier:
        result.setdefault(trace, set()).add(c)
    for _ in range(k):
        nxt = set()
        for c, trace in frontier:
            for action in model.external_actions:
                for dst, obs in moves[(c, action.name)]:
                    nxt.add((dst, trace.extend(action.name, obs)))
        for c, trace in nxt:
            result.setdefault(trace, set()).add(c)
        frontier = nxt
    return {trace: frozenset(classes) for trace, classes in result.items()}


def reference_simulate_runs(model, diag, k, yes_deadline=None, max_losing=10):
    """``simulate_runs`` as a layered search: one dict of nodes per depth,
    with its own parent links and path rebuild.

    Drives the diagnoser with every environment behavior up to ``k``
    external events and scores it against the two winning conditions.

    The environment picks the run and the fault timing (it may fault
    during any silent stretch).  A behavior loses if the diagnoser ever
    answers yes while the run is still fault-free, or if a faulted run
    goes ``yes_deadline`` external events (default: the whole horizon)
    without a yes.  Behaviors are counted at observation-boundary
    granularity; exhaustiveness comes from covering every reachable
    combination of diagnoser state, current class, and fault age rather
    than expanding each interleaving separately.  Reported losing runs
    are reconstructed from the parent links.
    """
    deadline = k if yes_deadline is None else yes_deadline
    moves = external_moves(model)

    losing_nodes = []
    seen_losing = set()

    def is_losing(node):
        sid, cls, age, said_yes = node
        answer_yes = diag.states[sid].classification is Classification.FAULTY
        if answer_yes and not model.faulty[cls]:
            return "false-alarm"
        if model.faulty[cls] and age >= deadline and not (said_yes or answer_yes):
            return "missed-fault"
        return None

    # Layered exhaustive search with parent links for run reconstruction.
    parents = {}
    counts = {}
    layer = {}
    for c in model.initial_classes:
        sid = diag.initials.get(model.obs[c])
        if sid is None:
            raise ValueError(f"diagnoser has no initial state for observable o{model.obs[c]}")
        node = (sid, c, 0, diag.states[sid].classification is Classification.FAULTY)
        key = (0, node)
        counts[key] = counts.get(key, 0) + 1
        if key not in parents:
            parents[key] = (None, None)
            layer[node] = None
    for node in sorted(layer):
        reason = is_losing(node)
        if reason and node not in seen_losing:
            seen_losing.add(node)
            losing_nodes.append(((0, node), reason))

    total_runs = 0
    for depth in range(k):
        nxt = {}
        for node in sorted(layer):
            sid, cls, age, said_yes = node
            if said_yes:
                # A yes is absorbing for the scoring: nothing can be lost later,
                # so count the remaining extensions as settled runs.
                total_runs += counts[(depth, node)]
                continue
            steps = set()
            for action in model.external_actions:
                for dst, _ in moves[(cls, action.name)]:
                    steps.add((action.name, dst))
            if not steps:
                total_runs += counts[(depth, node)]  # run dead-ends here
                continue
            for action, dst in sorted(steps):
                obs = model.obs[dst]
                tid = diag.transitions.get((sid, action, obs))
                if tid is None:
                    raise ValueError(
                        f"diagnoser is incomplete: no move for ({action}, o{obs})"
                    )
                nage = age + 1 if age > 0 else (1 if model.faulty[dst] else 0)
                nage = min(nage, deadline)
                nsaid = said_yes or diag.states[tid].classification is Classification.FAULTY
                nnode = (tid, dst, nage, nsaid)
                nkey = (depth + 1, nnode)
                counts[nkey] = counts.get(nkey, 0) + counts[(depth, node)]
                if nkey not in parents:
                    parents[nkey] = ((depth, node), (action, obs))
                    nxt[nnode] = None
                    reason = is_losing(nnode)
                    if reason and nnode not in seen_losing:
                        seen_losing.add(nnode)
                        losing_nodes.append((nkey, reason))
        layer = nxt
    total_runs += sum(counts[(k, node)] for node in layer)

    losing = []
    for key, reason in losing_nodes[:max_losing]:
        losing.append(LosingRun(_reference_trace(model, parents, key), reason))
    return SimulationReport(total_runs, losing)


def _reference_trace(model, parents, key):
    chain = []
    while True:
        parent, label = parents[key]
        if parent is None:
            break
        chain.append(label)
        key = parent
    chain.reverse()
    _, (_, cls, _, _) = key  # key is now an initial-layer node
    return UTrace(model.obs[cls], tuple(chain))


def reference_twin_product(model):
    """The full twin plant, both copies free to fault.

    Returns ``(states, initials, edges)``: the (left, right) class pairs
    in breadth-first discovery order, the initial state ids, and
    ``edges[sid]`` as ((action, obs), dst sid) rows.
    """
    moves = external_moves(model)
    states = []
    index = {}
    edges = {}

    def intern(left, right):
        sid = index.get((left, right))
        if sid is None:
            sid = len(states)
            index[(left, right)] = sid
            states.append((left, right))
            edges[sid] = []
        return sid

    initials = []
    for left in model.initial_classes:
        for right in model.initial_classes:
            if model.obs[left] == model.obs[right]:
                initials.append(intern(left, right))

    queue = deque(range(len(states)))
    while queue:
        sid = queue.popleft()
        left, right = states[sid]
        for action in model.external_actions:
            for l_dst, l_obs in moves[(left, action.name)]:
                for r_dst, r_obs in moves[(right, action.name)]:
                    if l_obs != r_obs:
                        continue
                    before = len(states)
                    did = intern(l_dst, r_dst)
                    edges[sid].append(((action.name, l_obs), did))
                    if did == before:
                        queue.append(did)
    return states, initials, edges


def reference_check_progressive(model):
    """``check_progressive`` as first written: reachability and liveness by
    ``explore``, the silent cycle by Tarjan's components in every case."""
    def step(c):
        yield from model.discrete_edges_from(c)
        for dst in model.proper_time_successors(c):
            yield "time", dst

    reachable = sorted(explore(model.initial_classes, step)[0])
    time_pred = {}
    for src, dst in model.time:
        time_pred.setdefault(dst, []).append(("time", src))
    has_edge = [c for c in reachable if model.discrete_edges_from(c)]
    live = set(explore(has_edge, lambda c: time_pred.get(c, ()))[0])
    for c in reachable:
        if c not in live and c not in model.divergent:
            return ProgressReport(False, ProgressWitness("deadlock", (c,), ()))

    def silent_succ(c):
        for label, dst in model.discrete_edges_from(c):
            if label.kind is not Kind.EXTERNAL:
                yield label.name, dst
        for dst in model.proper_time_successors(c):
            yield "time", dst
        if c in model.divergent:
            yield "time", c

    for comp, cyclic in strongly_connected_components(reachable, silent_succ):
        if cyclic:
            nodes, labels = shortest_cycle(min(comp), silent_succ, set(comp))
            return ProgressReport(False, ProgressWitness("cycle", tuple(nodes), tuple(labels)))
    return ProgressReport(True, None)


def _reference_reset(region, clock_indices):
    reset = set(clock_indices)
    ints = list(region.ints)
    zero = set(region.zero)
    groups = []
    for grp in region.groups:
        kept = tuple(i for i in grp if i not in reset)
        if kept:
            groups.append(kept)
    for i in reset:
        ints[i] = 0
        zero.add(i)
    return Region(tuple(ints), tuple(sorted(zero)), tuple(groups))


def reference_region_quotient(ta):
    """``build_region_quotient`` as first written: every node scans every
    edge of the automaton, and guards and invariants are decided by
    ``pred_holds`` on their ``("and", atom, ...)`` nodes."""
    index = ta._clock_index
    r0 = initial_region(len(ta.clocks))
    label_of = {a.name: a for a in ta.actions}
    location = {loc.name: loc for loc in ta.locations}

    def successors(node):
        loc_name, region = node
        for e in ta.edges:
            if e.src != loc_name or not pred_holds(e.guard, region, index):
                continue
            target = _reference_reset(region, [index[name] for name in e.resets])
            if pred_holds(location[e.dst].invariant, target, index):
                yield label_of[e.action], (e.dst, target)
        succ = time_successor(region, ta.ceilings)
        if succ is None:
            yield None, node
        elif pred_holds(location[loc_name].invariant, succ, index):
            yield None, (loc_name, succ)

    starts = [
        (loc.name, r0)
        for loc in ta.locations
        if loc.initial and pred_holds(loc.invariant, r0, index)
    ]
    metas, _, out = explore(starts, successors)
    edges = [(cid, a, did) for cid, row in enumerate(out) for a, did in row if a is not None]
    time = [(cid, did) for cid, row in enumerate(out) for a, did in row if a is None]
    classes = [
        ClassInfo(
            cid,
            location[loc_name].faulty,
            location[loc_name].initial and region == r0,
            ta.observable_of_region(region),
        )
        for cid, (loc_name, region) in enumerate(metas)
    ]
    model = QuotientModel(classes, ta.actions, edges, time)
    report = validate_model(model)
    if not report.ok:
        first = report.violations[0]
        raise TAValidationError(first.rule, f"region quotient: {first.message}")
    return RegionQuotient(model, metas)


def reference_automata():
    """The automata the region explorer is checked against its reference
    on: both fixtures, 400 of each random family, and the benchmark's
    ``kclock_ta(3, 4)``, ``kclock_ta(4, 2)`` and ``leak_ta(100)``."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    automata = [load_ta(fixtures / name) for name in ("ta1.ta.json", "kclock2.ta.json")]
    automata += [random_ta(seed) for seed in range(400)]
    automata += [random_progressive_ta(seed) for seed in range(400)]
    families = benchmark_families()
    docs = [families.kclock_ta(3, 4), families.kclock_ta(4, 2), families.leak_ta(100)]
    return automata + [parse_ta(json.dumps(doc)) for doc in docs]


def random_ta(seed):
    """A small random timed automaton, valid by construction.

    Fault edges have empty guards, no resets, and fault into
    invariant-free locations, so the fault is enabled from every state
    and the region quotient always passes validation.
    """
    rng = random.Random(seed)
    n_clocks = rng.randint(1, 2)
    n_external = rng.randint(1, n_clocks)
    names = ["x", "y"][:n_clocks]
    external = names[:n_external]
    internal = names[n_external:]

    n_locs = rng.randint(2, 3)
    n_faulty = rng.randint(1, n_locs - 1)
    loc_names = [f"L{i}" for i in range(n_locs)]
    locations = []
    for i, name in enumerate(loc_names):
        faulty = i >= n_locs - n_faulty
        invariant = ("and",)
        if not faulty and rng.random() < 0.6:
            clock = rng.choice(names)
            invariant = ("and", ("atom", clock, "<=", rng.randint(1, 3)))
        locations.append(Location(name, faulty, initial=(i == 0), invariant=invariant))

    nonfaulty = [l.name for l in locations if not l.faulty]
    faulty = [l.name for l in locations if l.faulty]

    def random_guard():
        guard = ["and"]
        for _ in range(rng.randint(0, 2)):
            clock = rng.choice(names)
            op = rng.choice(["<", "<=", "==", ">=", ">"])
            guard.append(("atom", clock, op, rng.randint(0, 3)))
        return tuple(guard)

    edges = []
    for name in nonfaulty:
        edges.append(TAEdge(name, rng.choice(faulty), "boom", Kind.FAULT, ("and",), frozenset()))
    ext_actions = ["a", "b"][: rng.randint(1, 2)]
    for _ in range(rng.randint(2, 5)):
        group = nonfaulty if rng.random() < 0.5 else faulty
        src = rng.choice(group)
        dst = rng.choice(group)
        resets = frozenset(c for c in names if rng.random() < 0.4)
        edges.append(TAEdge(src, dst, rng.choice(ext_actions), Kind.EXTERNAL, random_guard(), resets))
    if rng.random() < 0.3:
        group = nonfaulty if rng.random() < 0.5 else faulty
        edges.append(
            TAEdge(rng.choice(group), rng.choice(group), "h", Kind.INTERNAL, random_guard(), frozenset())
        )

    watched = external[0]
    observation = _threshold_observation(watched, rng)
    return TimedAutomatonWithFaults(locations, internal, external, edges, observation)


def _threshold_observation(watched, rng):
    cuts = sorted(rng.sample(range(1, 4), rng.randint(1, 2)))
    cells = []
    lower = None
    for cut in cuts:
        if lower is None:
            cells.append(f"{watched}<{cut}")
        else:
            cells.append(f"!({watched}<{lower}) & {watched}<{cut}")
        lower = cut
    cells.append(f"!({watched}<{lower})")
    return tuple(ObservableSpec(i, parse_pred(src)) for i, src in enumerate(cells))


def random_progressive_ta(seed):
    """A random timed automaton whose region quotient is progressive.

    Every location carries the invariant x <= C on an external pacer
    clock, so time can never diverge, and every location has an external
    edge with an empty guard that resets the pacer, so no region ever
    deadlocks.  Fault edges are silent, always enabled, and the fault
    action is the only internal one, so silent cycles cannot arise.
    """
    rng = random.Random(seed)
    cap = rng.randint(1, 2)
    pacer_inv = ("and", ("atom", "x", "<=", cap))
    n_locs = rng.randint(2, 3)
    n_faulty = rng.randint(1, n_locs - 1)
    locations = []
    for i in range(n_locs):
        faulty = i >= n_locs - n_faulty
        locations.append(Location(f"L{i}", faulty, initial=(i == 0), invariant=pacer_inv))
    nonfaulty = [l.name for l in locations if not l.faulty]
    faulty = [l.name for l in locations if l.faulty]

    edges = []
    for name in nonfaulty:
        edges.append(TAEdge(name, rng.choice(faulty), "boom", Kind.FAULT, ("and",), frozenset()))
    pace_guard = ("and", ("atom", "x", "==", cap))
    for loc in locations:
        group = nonfaulty if loc.name in nonfaulty else faulty
        # Faulty locations may stop resetting the pacer (a "leak"): ticks
        # are then pinned at the cap, which is what can reveal the fault.
        net_resets = frozenset({"x"})
        if loc.faulty and rng.random() < 0.6:
            net_resets = frozenset()
        edges.append(
            TAEdge(loc.name, rng.choice(group), "a", Kind.EXTERNAL, pace_guard, net_resets)
        )
        for _ in range(rng.randint(0, 2)):
            guard = ("and", ("atom", "x", rng.choice(["==", "<=", ">="]), rng.randint(0, cap)))
            resets = frozenset({"x"}) if rng.random() < 0.6 else frozenset()
            edges.append(
                TAEdge(
                    loc.name,
                    rng.choice(group),
                    rng.choice(["a", "b"]),
                    Kind.EXTERNAL,
                    guard,
                    resets,
                )
            )

    observation = _threshold_observation("x", rng)
    return TimedAutomatonWithFaults(locations, [], ["x"], edges, observation)


# ---------------------------------------------------------------------------
# Concrete semantics: exact Fraction valuations, the oracle that the
# region-level evaluators and the region construction are checked against.

OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}

# The clock-constraint grammar as one regular expression, with ASCII
# digits: the reference that ``parse_constraint`` is checked against.
CONSTRAINT_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*(<=|>=|==|<|>)\s*(-?[0-9]+(?:\.[0-9]+)?)\s*$")


def reference_constraint(text):
    """``(clock, op, bound)`` of a constraint by ``CONSTRAINT_RE``, or None
    when the text does not match or its constant is non-integral or negative."""
    m = CONSTRAINT_RE.match(text)
    if m is None or "." in m.group(3) or int(m.group(3)) < 0:
        return None
    return m.group(1), m.group(2), int(m.group(3))


def atom_holds(region, i, op, bound):
    """Whether ``x_i op bound`` holds at every valuation in ``region``.

    A clock at an exact integer compares its integer part.  A clock strictly
    between two integers or past its ceiling equals no integer; ``<`` and
    ``<=`` hold iff its integer part is below ``bound``, ``>=`` and ``>`` iff
    not.  Exact only when ``bound`` is at most clock i's ceiling, which holds
    for every guard, invariant and observation constant because the
    ceilings are their maxima (``_compute_ceilings``).  The reference that
    ``regions._ATOM_TESTS`` is checked against.
    """
    whole = region.ints[i]
    if i in region.zero:
        return OPS[op](whole, bound)
    if op == "==":
        return False
    if op[0] == "<":
        return whole < bound
    return whole >= bound


def pred_holds(node, region, index):
    """Whether predicate ``node`` holds throughout ``region``, atom by atom
    with ``atom_holds``; ``index`` maps clock names to region positions.
    The reference that ``regions._compile`` is checked against.

    Chains are flat nodes, so the recursion is at most MAX_PRED_DEPTH deep
    on parsed predicates.
    """
    tag = node[0]
    if tag == "atom":
        return atom_holds(region, index[node[1]], node[2], node[3])
    if tag == "true":
        return True
    if tag == "not":
        return not pred_holds(node[1], region, index)
    if tag == "and":
        return all(pred_holds(child, region, index) for child in node[1:])
    if tag == "or":
        return any(pred_holds(child, region, index) for child in node[1:])
    raise ValueError(f"bad predicate node {node!r}")


def eval_pred(node, valuation):
    tag = node[0]
    if tag == "true":
        return True
    if tag == "atom":
        return OPS[node[2]](valuation[node[1]], node[3])
    if tag == "not":
        return not eval_pred(node[1], valuation)
    if tag == "and":
        return all(eval_pred(child, valuation) for child in node[1:])
    if tag == "or":
        return any(eval_pred(child, valuation) for child in node[1:])
    raise ValueError(f"bad predicate node {node!r}")


def reference_ordered_partitions(items):
    """The ordered set partitions by filtering all n**n block assignments,
    in the lexicographic order of the assignments."""
    if not items:
        yield ()
        return
    n = len(items)
    for assignment in itertools.product(range(n), repeat=n):
        blocks_used = max(assignment) + 1
        if set(assignment) != set(range(blocks_used)):
            continue
        blocks = [[] for _ in range(blocks_used)]
        for item, a in zip(items, assignment):
            blocks[a].append(item)
        yield tuple(tuple(sorted(b)) for b in blocks)


def all_regions(ceilings):
    """Every region for the given ceilings: each ``position_regions``
    representative expanded by every ordering of its fractional clocks.
    The representative itself, all fractional clocks in one group, comes
    first."""
    for rep in position_regions(ceilings):
        fractional = rep.groups[0] if rep.groups else ()
        for groups in reference_ordered_partitions(fractional):
            yield Region(rep.ints, rep.zero, groups)


def random_sample_region(region, ceilings, rng):
    """A random valuation inside the region (exact rationals).

    The fractional parts of the groups are distinct draws over 997 in
    the groups' order, and a clock past its ceiling exceeds it by a
    random amount up to 3.
    """
    g = len(region.groups)
    denom = 997
    while True:
        draws = sorted(rng.randint(1, denom - 1) for _ in range(g))
        if len(set(draws)) == g:
            break
    group_of = {i: j for j, grp in enumerate(region.groups) for i in grp}
    values = []
    for i, whole in enumerate(region.ints):
        if whole > ceilings[i]:
            values.append(Fraction(ceilings[i]) + Fraction(rng.randint(1, 300), 100))
        elif i in group_of:
            values.append(Fraction(whole) + Fraction(draws[group_of[i]], denom))
        else:
            values.append(Fraction(whole))
    return values


def sample_valuation(ta, region, rng):
    values = random_sample_region(region, ta.ceilings, rng)
    return {name: values[i] for i, name in enumerate(ta.clocks)}


def observable_of_valuation(ta, valuation):
    hits = [s.id for s in ta.observation if eval_pred(s.pred, valuation)]
    return hits[0] if len(hits) == 1 else None


def region_of(values, ceilings):
    """The region containing a concrete (non-negative rational) valuation."""
    ints = []
    zero = []
    fracs = {}
    for i, v in enumerate(values):
        if v < 0:
            raise ValueError("clock values must be non-negative")
        if v > ceilings[i]:
            ints.append(ceilings[i] + 1)
            continue
        whole = int(v)
        ints.append(whole)
        frac = v - whole
        if frac == 0:
            zero.append(i)
        else:
            fracs.setdefault(frac, []).append(i)
    groups = tuple(tuple(sorted(g)) for _, g in sorted(fracs.items()))
    return Region(tuple(ints), tuple(sorted(zero)), groups)


def apply_reset(valuation, resets):
    out = dict(valuation)
    for name in resets:
        out[name] = Fraction(0)
    return out


def concrete_enabled_edges(ta, loc_name, valuation):
    """Indices of automaton edges enabled at a concrete state."""
    invariant = {loc.name: loc.invariant for loc in ta.locations}
    enabled = []
    for i, e in enumerate(ta.edges):
        if e.src != loc_name:
            continue
        if not eval_pred(e.guard, valuation):
            continue
        after = apply_reset(valuation, e.resets)
        if eval_pred(invariant[e.dst], after):
            enabled.append(i)
    return tuple(enabled)


def concrete_region_path(values, ceilings):
    """Regions visited as time flows from a concrete valuation.

    Independent of time_successor: advances the valuation by explicit
    exact delays until every clock has passed its ceiling.
    """
    v = list(values)
    path = [region_of(v, ceilings)]
    while True:
        pending = [
            (i, x) for i, x in enumerate(v) if x <= ceilings[i]
        ]
        if not pending:
            return path
        distances = []
        any_zero = False
        for i, x in pending:
            frac = x - int(x)
            if frac == 0:
                any_zero = True
                distances.append(Fraction(1))
            else:
                distances.append(1 - frac)
        delta = min(distances)
        if any_zero:
            delta = delta / 2  # leave the integer hyperplane but cross nothing
        v = [x + delta for x in v]
        r = region_of(v, ceilings)
        if r != path[-1]:
            path.append(r)
