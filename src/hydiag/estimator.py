"""Deterministic state estimator built by subset construction.

The estimator tracks, after each observed external action, the set of
quotient classes consistent with everything seen so far: the classical
diagnoser construction.  Only the fragment reachable from the initial
estimates is built, since the full powerset is both intractable and
irrelevant for diagnosability.  ``estimate_walker`` builds less still:
only the estimates the traces it is asked step out of.

While it builds, an estimate is an integer bitset over the classes the
construction has touched, numbered as first seen, and a successor is an
OR of its members' target masks; each state's sorted member tuple is
decoded from its mask once.  ``_successor_rule`` is the one rule both
builds read.
"""

from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import or_

from .errors import CapExceeded
from .fileformat import Classification, EstimatorGraph, EstimatorState
from .graphs import explore
from .quotient import external_moves

DEFAULT_MAX_STATES = 1_000_000

# A mask's binary digits as the 0 and 1 bytes ``compress`` selects with.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")
# A mask with fewer than one set bit in ``_SPARSE`` digits is decoded by search.
_SPARSE = 16

_Rule = namedtuple("_Rule", "encode decode classify successors")


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
    on-demand walk, on estimates held as integer bitsets (masks).

    Bits are numbered lazily, in the order classes are first seen (the
    initial classes, then each target as a row first names it), so a mask
    is only as wide as the classes the estimator touches.  On its first
    expansion a class reads its rows from ``external_moves``, one lookup
    per external action, into one target mask per action and a mask of
    its non-empty (action, obs) keys.  A successor ORs its members' masks
    together in C, then cuts each non-empty key's part out of its action's
    union with the bits of the key's observable.

    Returns a ``_Rule`` of four functions:
    ``encode(members)``, the mask of a member set;
    ``decode(mask)``, the mask's members in bit order, found by a search
    of its binary digits when it is sparse and selected in C when dense;
    ``classify(mask)``, the mask's Classification;
    ``successors(mask, decoded)``, the ``((action, obs), mask)`` pairs of
    an estimate given its mask and its decoded members, actions in
    declaration order, then observables ascending.  With
    ``expand_faulty=False`` an all-faulty estimate has no successors.
    """
    moves, obs_of, faulty_of = external_moves(model), model.obs, model.faulty
    names = [a.name for a in model.external_actions]
    # Key (action i, obs) is bit i * width + the rank of obs, so a key
    # mask's bits ascend in (action index, obs) order.
    cells = sorted(set(obs_of))
    width, rank = len(cells), {obs: r for r, obs in enumerate(cells)}
    keys = {}  # key bit -> ((action, obs), action index, obs), on first use
    bit_of, classes = {}, []  # class -> bit, bit -> class
    key_masks, targets = {}, [{} for _ in names]  # class -> mask, from its expansion
    cell_masks = {}  # obs -> the bits of its classes
    faulty = fresh = 0  # the bits of the faulty classes; of the classes not yet expanded

    def number(c):
        nonlocal faulty, fresh
        b = len(classes)
        bit_of[c] = b
        classes.append(c)
        cell_masks[obs_of[c]] = cell_masks.get(obs_of[c], 0) | 1 << b
        if faulty_of[c]:
            faulty |= 1 << b
        fresh |= 1 << b
        return b

    def read_rows(c):
        found = 0
        for i, name in enumerate(names):
            reached = 0
            for dst, obs in moves[(c, name)]:
                d = bit_of.get(dst)
                reached |= 1 << (number(dst) if d is None else d)
                found |= 1 << (i * width + rank[obs])
            targets[i][c] = reached
        key_masks[c] = found

    def encode(members):
        return reduce(or_, [1 << (bit_of[c] if c in bit_of else number(c)) for c in members], 0)

    def decode(mask):  # binary digits, least significant first
        digits = bin(mask)[:1:-1]
        if mask.bit_count() * _SPARSE < len(digits):
            found, i = [], digits.find("1")
            while i >= 0:
                found.append(classes[i])
                i = digits.find("1", i + 1)
            return found
        return list(compress(classes, digits.encode().translate(_SELECTORS)))

    def classify(mask):
        shared = mask & faulty
        if shared == mask:
            return Classification.FAULTY
        return Classification.INDETERMINATE if shared else Classification.NONFAULTY

    def successors(mask, decoded):
        nonlocal fresh
        if not expand_faulty and mask & faulty == mask:
            return ()
        new = mask & fresh
        if new:
            fresh ^= new
            for c in decode(new):
                read_rows(c)
        reached = [reduce(or_, map(row.__getitem__, decoded)) for row in targets]
        found = reduce(or_, map(key_masks.__getitem__, decoded))
        out = []
        while found:
            low = found & -found
            k = low.bit_length() - 1
            key = keys.get(k)
            if key is None:
                i, r = divmod(k, width)
                key = keys[k] = ((names[i], cells[r]), i, cells[r])
            label, i, obs = key
            out.append((label, reached[i] & cell_masks[obs]))
            found ^= low
        return out

    return _Rule(encode, decode, classify, successors)


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
    rule = _successor_rule(model, expand_faulty)
    members = []  # of each state: explore expands the states once each, in id order

    def successors(mask):
        decoded = rule.decode(mask)
        members.append(tuple(sorted(decoded)))
        return rule.successors(mask, decoded)

    starts = [rule.encode(st.members) for st in initial.values()]
    masks, start_ids, edges = explore(starts, successors, DEFAULT_MAX_STATES, "estimator states")
    # The starts are distinct, so the initial estimates are the first states.
    states = list(initial.values())
    states += map(EstimatorState, members[len(states):], map(rule.classify, masks[len(states):]))
    transitions = {(sid, a, obs): tid for sid, row in enumerate(edges) for (a, obs), tid in row}
    return EstimatorGraph(states, dict(zip(initial, start_ids)), transitions, model)


def estimate_walker(model):
    """The estimator of ``model``, built on demand for the traces it is asked.

    Returns ``members(head, steps)``: the member tuple of the estimate
    after the initial observable ``head`` and then each ``(action, obs)``
    of ``steps``, or None when ``head`` has no initial estimate or a step
    has no move.  It agrees with ``walk`` on ``build_estimator(model)``.
    Each estimate is expanded once, on the first step taken from it, and
    only the one returned is decoded to its members; past
    ``DEFAULT_MAX_STATES`` expanded estimates it raises CapExceeded.
    """
    rule = _successor_rule(model, True)
    initials = {obs: rule.encode(st.members) for obs, st in initial_estimates(model).items()}
    expanded = {}  # mask -> {(action, obs): successor mask}

    def members(head, steps):
        current = initials.get(head)
        for step in steps:
            if current is None:
                return None
            row = expanded.get(current)
            if row is None:
                if len(expanded) >= DEFAULT_MAX_STATES:
                    raise CapExceeded("estimator states", len(expanded) + 1, DEFAULT_MAX_STATES)
                row = expanded[current] = dict(rule.successors(current, rule.decode(current)))
            current = row.get(step)
        return None if current is None else tuple(sorted(rule.decode(current)))

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
