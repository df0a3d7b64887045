"""Diagnosability decision and progressiveness check.

A system is time-abstract diagnosable exactly when the estimator has no
reachable loop of indeterminate states that a faulty run can sustain:
transient ambiguity is fine, but an ambiguity the system can keep alive
forever is not.  Mere cycles of indeterminate states are not enough: a
loop only refutes diagnosability if some single faulty run traverses it
forever, which is decided on the product of indeterminate estimator
states with their faulty member classes.  (The non-faulty side needs no
such care: a run ending non-faulty is non-faulty throughout, so
non-faulty witnesses for longer and longer prefixes always chain into
one infinite non-faulty run.)

Non-diagnosable systems get a witness lasso; non-progressive systems
(which can starve the observer of external events) are rejected up front
with a deadlock or silent-cycle witness.
"""

from collections import namedtuple

from .errors import CapExceeded
from .estimator import DEFAULT_MAX_STATES, Classification, walk
from .graphs import find_lasso, shortest_cycle, strongly_connected_components
from .quotient import Kind, Lasso, external_moves


class ProgressWitness(namedtuple("ProgressWitness", "kind classes labels")):
    """A deadlocked class, or a reachable cycle of silent moves.

    ``kind`` is "deadlock" or "cycle".  ``labels[i]`` is the action between
    ``classes[i]`` and ``classes[i+1]`` ("time" for time edges); a deadlock
    witness has a single class.
    """

    __slots__ = ()

    def pretty(self):
        if self.kind == "deadlock":
            return f"deadlock at class {self.classes[0]}"
        parts = [str(self.classes[0])]
        for label, cls in zip(self.labels, self.classes[1:]):
            parts.append(f"-{label}-> {cls}")
        return "cycle: " + " ".join(parts)

    def to_json(self):
        return {"kind": self.kind, "classes": list(self.classes), "labels": list(self.labels)}


class ProgressReport(namedtuple("ProgressReport", "progressive witness")):
    __slots__ = ()


class DiagnosabilityVerdict(namedtuple("DiagnosabilityVerdict", "diagnosable witness")):
    __slots__ = ()

    def to_json(self):
        return {
            "diagnosable": self.diagnosable,
            "witness": self.witness.to_json() if self.witness else None,
        }


def check_progressive(model):
    """Can every maximal run keep producing external events?

    Fails with a witness if some reachable class deadlocks (no discrete
    edge now or after any time elapse) or if a reachable cycle of internal
    actions and time edges exists.  Time edges are the declared pairs; a
    time self-pair is a time self-loop, since the system can then let time
    pass forever in that class.

    The reachable and the live classes are found by two plain worklists;
    the first also counts each reachable class's silent in-degree.  One
    Kahn pass over the silent moves of the reachable classes then decides:
    if it removes them all, there is no cycle.  A self-pair keeps its
    class's count above zero, so a divergent class is never removed.  Only
    when a class is left do Tarjan's components and ``shortest_cycle``
    run, for the witness: the shortest cycle through the smallest class of
    the first cyclic component Tarjan completes.
    """
    discrete, time_succ, external = model._disc, model._tsucc, Kind.EXTERNAL
    pending = [0] * len(discrete)  # silent moves into each class from reachable ones
    seen = set(model.initial_classes)
    todo = list(seen)
    for c in todo:  # grows as classes are found
        for label, d in discrete[c]:
            if label.kind is not external:
                pending[d] += 1
            if d not in seen:
                seen.add(d)
                todo.append(d)
        for d in time_succ[c]:
            pending[d] += 1
            if d not in seen:
                seen.add(d)
                todo.append(d)
    reachable = sorted(seen)

    # Classes that reach a discrete edge by letting time pass.  Only a
    # class with no discrete edge of its own can fail to, so only the time
    # pairs out of those idle classes are read backwards.
    idle = [c for c in reachable if not discrete[c]]
    waiting = {}  # class -> the idle classes with a time pair into it
    for src in idle:
        for dst in time_succ[src]:
            waiting.setdefault(dst, []).append(src)
    live = set()  # the idle classes that are live
    todo = [c for c in waiting if discrete[c]]
    for c in todo:  # grows as idle classes are found live
        for d in waiting.get(c, ()):
            if d not in live:
                live.add(d)
                todo.append(d)
    for c in idle:
        if c not in live and c not in time_succ[c]:
            return ProgressReport(False, ProgressWitness("deadlock", (c,), ()))

    # Silent moves stay among reachable classes: Kahn removes every class
    # of an acyclic silent graph.
    ready = [c for c in reachable if not pending[c]]
    for c in ready:  # grows as classes become ready
        for label, d in discrete[c]:
            if label.kind is not external:
                pending[d] -= 1
                if not pending[d]:
                    ready.append(d)
        for d in time_succ[c]:
            pending[d] -= 1
            if not pending[d]:
                ready.append(d)
    if len(ready) == len(reachable):
        return ProgressReport(True, None)

    def silent_succ(c):
        for label, dst in discrete[c]:
            if label.kind is not external:
                yield label.name, dst
        for dst in time_succ[c]:
            yield "time", dst

    # A cycle runs through every node of a cyclic component.
    comps = strongly_connected_components(reachable, silent_succ)
    comp = next(comp for comp, cyclic in comps if cyclic)
    nodes, labels = shortest_cycle(min(comp), silent_succ, set(comp))
    return ProgressReport(False, ProgressWitness("cycle", tuple(nodes), tuple(labels)))


def _indeterminate_graph(est):
    """The estimator adjacency, its indeterminate states, and their successors.

    ``adj`` lists ((action, obs), dst) pairs per state in sorted order; the
    successor function keeps the pairs with indeterminate targets.
    """
    adj = {sid: [] for sid in range(len(est.states))}
    for (src, action, obs), dst in sorted(est.transitions.items()):
        adj[src].append(((action, obs), dst))
    indet = [
        sid
        for sid, st in enumerate(est.states)
        if st.classification is Classification.INDETERMINATE
    ]
    indet_set = set(indet)

    def indet_succ(sid):
        return (e for e in adj[sid] if e[1] in indet_set)

    return adj, indet, indet_succ


def _fault_product(est, adj, indet):
    """The sorted indeterminate states ``indet`` paired with their faulty members.

    A product edge follows one estimator transition between states of
    ``indet`` while moving the faulty class along a consistent single-class
    step; a cycle here is exactly an indeterminate loop some faulty run can
    sustain forever.  Returns ``(nodes, successors)``: the nodes in
    canonical order, and a rule yielding a node's ``((action, obs), (dst,
    c2))`` edges, generated on each call and never stored.  Needs the
    backing model (ValueError without one); counts the nodes before any
    edge and raises CapExceeded past ``DEFAULT_MAX_STATES`` of them.
    """
    model = est.model
    if model is None:
        raise ValueError("the fault product needs the estimator's backing model")
    faulty = {sid: [c for c in est.states[sid].members if model.faulty[c]] for sid in indet}
    nodes = sum(map(len, faulty.values()))
    if nodes > DEFAULT_MAX_STATES:
        raise CapExceeded("fault product nodes", nodes, DEFAULT_MAX_STATES)
    moves = external_moves(model)

    def successors(node):
        sid, c = node
        for (action, obs), dst in adj[sid]:
            if dst in faulty:  # keyed by exactly the states of ``indet``
                for c2, o in moves[(c, action)]:
                    if o == obs:
                        yield (action, obs), (dst, c2)

    return [(sid, c) for sid in indet for c in faulty[sid]], successors


def check_diagnosable(est):
    """No reachable loop of indeterminate estimator states sustainable by
    a faulty run.

    If every cycle among indeterminate states is already absent the
    answer is immediate; otherwise the fault product decides whether any
    loop can actually be kept alive after a fault.  When a sustainable
    loop exists, the witness lasso gives the shortest observation prefix
    from an initial state into the loop and the shortest cycle of
    indeterminate states a faulty run can then repeat forever.
    """
    adj, indet, indet_succ = _indeterminate_graph(est)
    comps = strongly_connected_components(indet, indet_succ)
    cyclic = sorted(s for comp, loops in comps if loops for s in comp)
    if not cyclic:
        return DiagnosabilityVerdict(True, None)

    # A product cycle projects onto a cycle inside one cyclic component,
    # so the product over those states alone has every cycle there is.
    nodes, successors = _fault_product(est, adj, cyclic)
    starts = [sid for _, sid in sorted(est.initials.items())]
    found = find_lasso(starts, adj.__getitem__, nodes, successors, lambda node: node[0])
    if found is None:
        return DiagnosabilityVerdict(True, None)
    prefix_nodes, prefix_labels, _, cycle_labels = found
    head = {sid: obs for obs, sid in est.initials.items()}[prefix_nodes[0]]
    return DiagnosabilityVerdict(False, Lasso.from_steps(head, prefix_labels, cycle_labels))


def detection_delay_bound(est):
    """Upper bound on external events needed to announce a fault.

    After a fault the estimate tracks the true (faulty) class, so the
    ambiguous stretch is a path in the fault product; one more than its
    longest chain bounds the wait for a yes.  Only defined for
    diagnosable estimators: a cycle in that graph raises ValueError.
    Needs a model-backed estimator, as the product does: a hand-built or
    loaded graph raises ValueError too.
    """
    adj, indet, _ = _indeterminate_graph(est)
    nodes, successors = _fault_product(est, adj, indet)
    # Components arrive successors first, so every chain below is known.
    longest = {}
    for comp, cyclic in strongly_connected_components(nodes, successors):
        if cyclic:
            raise ValueError("detection delay is undefined for non-diagnosable systems")
        v = comp[0]
        longest[v] = 1 + max((longest[d] for _, d in successors(v)), default=0)
    return max(longest.values(), default=0) + 1


def replay_lasso(est, lasso):
    """Validate a witness lasso against the estimator it came from.

    The prefix must run from the matching initial state, the cycle must
    start in the observable the prefix ends in, visit only indeterminate
    states, and return to the estimator state it starts from.
    """
    if not lasso.cycle.steps or not lasso.attached():
        return False
    ids = walk(est, lasso.prefix.head, lasso.prefix.steps + lasso.cycle.steps)
    if ids is None:
        return False
    cycle = ids[len(lasso.prefix.steps):]
    return cycle[0] == cycle[-1] and all(
        est.states[sid].classification is Classification.INDETERMINATE for sid in cycle
    )
