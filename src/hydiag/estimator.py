"""Deterministic state estimator built by subset construction.

The estimator tracks, after each observed external action, the set of
quotient classes consistent with everything seen so far.  Its states are
canonically encoded member sets; only the fragment reachable from the
initial estimates is built, since the full powerset is both intractable
and irrelevant for diagnosability.  ``estimate_walker`` builds less
still: only the estimates the traces it is asked step out of.
"""

from .errors import CapExceeded
from .fileformat import Classification, EstimatorGraph, EstimatorState, _dumps_graph
from .graphs import explore
from .quotient import external_moves

# Defined with the file layer, and still exported here.
from .fileformat import _STATE_SCHEMA, _TRANSITION_SCHEMA, _key_int, _state_id
from .fileformat import _parse_graph_json

DEFAULT_MAX_STATES = 1_000_000


def classify(members, model):
    """Faulty if all members are faulty, non-faulty if none, else indeterminate."""
    members = tuple(members)
    if not members:
        raise ValueError("cannot classify an empty estimate")
    flags = {model.faulty[c] for c in members}
    if flags == {True}:
        return Classification.FAULTY
    if flags == {False}:
        return Classification.NONFAULTY
    return Classification.INDETERMINATE


def initial_estimates(model):
    """Initial classes grouped by their observable.

    Observables with no initial class get no entry: before any action the
    observer sees exactly one cell, and only cells containing an initial
    class are consistent with it.
    """
    groups = {}
    for c in model.initial_classes:
        groups.setdefault(model.obs[c], []).append(c)
    return {
        obs: EstimatorState(tuple(sorted(members)), classify(members, model))
        for obs, members in sorted(groups.items())
    }


def _successor_rule(model, expand_faulty):
    """The estimator's successor rule, shared by the full build and the
    on-demand walk: ``successors(members)`` yields ``((action, obs),
    members)`` pairs, actions in declaration order, then observables
    ascending.

    Each class's rows are read from ``external_moves`` once per rule; a
    successor estimate merges its members' target sets whole.  With
    ``expand_faulty=False`` an all-faulty estimate has no successors.
    """
    moves = external_moves(model)
    faulty = model.faulty
    names = [a.name for a in model.external_actions]
    # Per class, its rows grouped once: ((action index, obs), frozenset of targets).
    groups = [None] * len(model.classes)

    def grouped(c):
        by_key = {}
        for i, name in enumerate(names):
            for dst, obs in moves[(c, name)]:
                by_key.setdefault((i, obs), []).append(dst)
        groups[c] = rows = [(key, frozenset(dsts)) for key, dsts in by_key.items()]
        return rows

    def successors(members):
        if not expand_faulty and all(faulty[c] for c in members):
            return
        buckets = {}
        for c in members:
            rows = groups[c]
            if rows is None:
                rows = grouped(c)
            for key, dsts in rows:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = set(dsts)
                else:
                    bucket |= dsts
        for key in sorted(buckets):
            yield (names[key[0]], key[1]), tuple(sorted(buckets[key]))

    return successors


def build_estimator(model, *, expand_faulty=True):
    """Subset construction over the reachable estimates.

    Deterministic: states are numbered in BFS discovery order with
    observables and actions visited in a fixed order, so repeated builds
    yield identical graphs.  Raises CapExceeded beyond ``DEFAULT_MAX_STATES``
    (the reachable part may still be exponential in the class count).

    With ``expand_faulty=False`` an all-faulty estimate is kept as a leaf:
    it is numbered but gets no transitions.  Faults are irreversible in a
    valid model, so such an estimate only leads to all-faulty estimates,
    and deciding diagnosability reads none of them.  The non-faulty and
    indeterminate states keep their members, transitions and relative
    order; only the ids of the faulty states change.
    """
    initial = initial_estimates(model)
    starts = [st.members for st in initial.values()]
    successors = _successor_rule(model, expand_faulty)
    nodes, start_ids, edges = explore(starts, successors, DEFAULT_MAX_STATES, "estimator states")
    # The starts are distinct, so the initial estimates are the first states.
    states = list(initial.values())
    states += [EstimatorState(m, classify(m, model)) for m in nodes[len(states):]]
    transitions = {(sid, a, obs): tid for sid, row in enumerate(edges) for (a, obs), tid in row}
    return EstimatorGraph(states, dict(zip(initial, start_ids)), transitions, model)


def estimate_walker(model):
    """The estimator of ``model``, built on demand for the traces it is asked.

    Returns ``members(head, steps)``: the member tuple of the estimate
    after the initial observable ``head`` and then each ``(action, obs)``
    of ``steps``, or None when ``head`` has no initial estimate or a step
    has no move.  It agrees with ``walk`` on ``build_estimator(model)``.
    Each member set is expanded once, on the first step taken from it;
    past ``DEFAULT_MAX_STATES`` expanded sets it raises CapExceeded.
    """
    successors = _successor_rule(model, True)
    initials = {obs: st.members for obs, st in initial_estimates(model).items()}
    expanded = {}  # members -> {(action, obs): successor members}

    def members(head, steps):
        current = initials.get(head)
        for step in steps:
            if current is None:
                return None
            row = expanded.get(current)
            if row is None:
                if len(expanded) >= DEFAULT_MAX_STATES:
                    raise CapExceeded("estimator states", len(expanded) + 1, DEFAULT_MAX_STATES)
                row = expanded[current] = dict(successors(current))
            current = row.get(step)
        return current

    return members


def walk(graph, head, steps):
    """The state ids an estimator or diagnoser graph passes through on
    the initial observable ``head`` and then each ``(action, obs)`` of
    ``steps``; None when ``head`` has no initial state or a step has no
    move."""
    ids = [graph.initials.get(head)]
    for action, obs in steps:
        if ids[-1] is None:
            return None
        ids.append(graph.transitions.get((ids[-1], action, obs)))
    return None if ids[-1] is None else ids


def dumps_estimator(est):
    """Serialize an estimator graph to its JSON export format."""
    return _dumps_graph(est)
