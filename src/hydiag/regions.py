"""Timed automata with faults and their region quotients.

A timed automaton here has integer-bounded, non-diagonal clock
constraints, a partition of clocks into internal and external
(observable) ones, and an observation: a finite partition of the
external-clock valuation space given by boolean predicate cells.

Guards, invariants and cells share one grammar: atoms ``clock op int``,
the int in ASCII digits, parse to ``("atom", clock, op, bound)``.  A cell
combines atoms with ``! & |``; a guard or invariant lists them and is
held as their conjunction ``("and", atom, ...)``.

Region equivalence is a time-abstract bisimulation with finitely many
classes.  To make it respect the observation without running a generic
partition refinement, every clock ceiling also includes the constants of
the observation predicates: plain region equivalence is then already
fine enough, because each region lies entirely inside one cell.

The construction is deliberately classical: per-clock integer parts up
to the ceiling plus the ordering of fractional parts.  Regions whose
clocks all sit above their ceilings are time-divergent, and the quotient
marks them so (as explicit time self-loops).  The explorer holds a
region at a location as one flat tuple of ints, its key: the location
index, each clock's integer part (ceiling+1 past the ceiling), and each
clock's fractional rank, 0 at an exact integer or past the ceiling and
1..g for the fractional groups in increasing order.  A time step and a
reset are one short loop over the clocks, and keys hash and compare as
plain tuples.  ``_compile`` turns each guard, invariant and observation
cell, once per automaton, into one closure over a key that decides it
from each clock's integer part and rank.  The observation is decided
once per combination of external clock positions and each class reads
its cell from that table; the explorer keeps guards and invariants per
location with its out-edges.  A ``Region``, a named tuple ``(ints,
zero, groups)``, is built only for ``build_region_quotient``'s
``class_regions``; ``region_quotient`` builds none.  A concrete
valuation (and the ``fractions`` module) is needed only for the witness
of a failed partition check.
"""

import itertools
import math
import re
from collections import namedtuple

from .errors import CapExceeded, ModelFormatError, PartitionError, TAValidationError
from .fileformat import DEFAULT_MAX_CLASSES, _as_list, _excerpt, _int_literal, _loads_json
from .fileformat import _member, _read_text, _require_keys, _rows
from .graphs import explore
from .quotient import ActionLabel, Kind, QuotientModel, validate_model

# Most '(' and '!' a predicate may have open at once.  Chains of '&' or
# '|' are flat nodes, so this bounds the depth of parsing and evaluation.
MAX_PRED_DEPTH = 100


# ---------------------------------------------------------------------------
# Clock constraints and observation predicates

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_]\w*)|(?P<num>-?[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<op><=|>=|==|<|>)|(?P<punct>[!&|()]))"
)


class _PredParser:
    """Recursive descent for boolean clock predicates.

    Grammar: or-expr over and-expr over (!factor | (expr) | atom | true),
    atoms being ``clock op int``.  ``true`` is the empty conjunction and
    exists for observations over zero external clocks.  A chain of
    ``&`` (``|``) becomes one n-ary "and" ("or") node.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise self.error("pred parse error", len(text) - len(rest))
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, message, pos):
        return ModelFormatError(
            f"{message} at column {pos + 1} near {_excerpt(self.text, pos)}"
        )

    def fail(self, expected):
        raise self.error(f"pred parse error (expected {expected})", self.peek()[2])

    def parse(self, rule, what):
        node = rule()
        if self.i != len(self.tokens):
            self.fail(f"end of {what}")
        return node

    def chain(self, tag, op, operand):
        nodes = [operand()]
        while self.peek()[:2] == ("punct", op):
            self.take()
            nodes.append(operand())
        return nodes[0] if len(nodes) == 1 else (tag, *nodes)

    def expr(self):
        return self.chain("or", "|", self.term)

    def term(self):
        return self.chain("and", "&", self.factor)

    def factor(self):
        kind, value, pos = self.peek()
        if (kind, value) in (("punct", "!"), ("punct", "(")):
            self.take()
            self.nesting += 1
            if self.nesting > MAX_PRED_DEPTH:
                raise self.error(f"predicate nests deeper than {MAX_PRED_DEPTH} levels", pos)
            if value == "!":
                node = ("not", self.factor())
            else:
                node = self.expr()
                if self.peek()[:2] != ("punct", ")"):
                    self.fail("')'")
                self.take()
            self.nesting -= 1
            return node
        if kind != "ident":
            self.fail("clock atom, '!', or '('")
        if value == "true":
            self.take()
            return ("true",)
        return self.atom()

    def atom(self):
        if self.peek()[0] != "ident":
            self.fail("clock name")
        clock = self.take()[1]
        if self.peek()[0] != "op":
            self.fail("comparison operator")
        op = self.take()[1]
        if self.peek()[0] != "num":
            self.fail("integer constant")
        _, num, num_pos = self.take()
        if "." in num:
            raise self.error("non-integral constant in predicate", num_pos)
        where = f"column {num_pos + 1} near {_excerpt(self.text, num_pos)}"
        bound = _int_literal(num, f"constant at {where}")
        if bound < 0:
            raise self.error("negative constant in predicate", num_pos)
        return ("atom", clock, op, bound)


def parse_pred(text):
    parser = _PredParser(text)
    return parser.parse(parser.expr, "predicate")


def parse_constraint(text):
    """One clock atom, the whole of a guard or invariant entry."""
    parser = _PredParser(text)
    return parser.parse(parser.atom, "clock constraint")


def pred_atoms(node):
    tag = node[0]
    if tag == "true":
        return
    if tag == "atom":
        yield node[1], node[3]
    else:
        for child in node[1:]:
            yield from pred_atoms(child)


# One factory per operator: ``x_i op bound`` as a test of a flat key
# that holds clock i's integer part at ``p`` and its fractional rank at
# ``q``.  A clock at an exact integer (rank 0, not past its ceiling)
# compares its integer part.  One strictly between two integers or past
# its ceiling equals no integer: ``<`` and ``<=`` hold iff its integer
# part is below ``bound``, ``>=`` and ``>`` iff not.  A clock past its
# ceiling has rank 0 but an integer part above every bound, so where the
# integer part equals ``bound`` the rank alone tells an integer from a
# fraction.  Exact because every constant is at most its clock's ceiling,
# the ceilings being their maxima (``_compute_ceilings``).
_ATOM_TESTS = {
    "<": lambda p, q, b: lambda key: key[p] < b,
    "<=": lambda p, q, b: lambda key: key[p] < b or key[p] == b and not key[q],
    "==": lambda p, q, b: lambda key: key[p] == b and not key[q],
    ">=": lambda p, q, b: lambda key: key[p] >= b,
    ">": lambda p, q, b: lambda key: key[p] > b or key[p] == b and key[q] > 0,
}


def _compile(node, index, width):
    """Predicate ``node`` (a guard or invariant ``("and", atom, ...)``, or
    an observation cell) as one test of a flat key of ``width`` clocks;
    ``index`` maps clock names to clock indices.

    Chains are flat nodes, so on a parsed predicate the recursion is at
    most MAX_PRED_DEPTH deep.
    """
    tag = node[0]
    if tag == "atom":
        i = index[node[1]]
        return _ATOM_TESTS[node[2]](1 + i, 1 + width + i, node[3])
    if tag == "true":
        return lambda key: True
    tests = [_compile(child, index, width) for child in node[1:]]
    if tag == "not":
        return lambda key: not tests[0](key)
    if len(tests) == 1:
        return tests[0]
    stop = tag == "or"  # the value that settles a chain: True for "or", False for "and"

    def holds(key):
        for test in tests:
            if test(key) == stop:
                return stop
        return not stop

    return holds


class ObservableSpec(namedtuple("ObservableSpec", "id pred")):
    __slots__ = ()


class Location(namedtuple("Location", "name faulty initial invariant")):
    __slots__ = ()  # invariant: ("and", atom, ...)


class TAEdge(namedtuple("TAEdge", "src dst action kind guard resets")):
    __slots__ = ()  # guard: ("and", atom, ...); resets: a frozenset of clock names


# ---------------------------------------------------------------------------
# Regions

class Region(namedtuple("Region", "ints zero groups")):
    """Canonical clock region, a named tuple of three tuples.

    ``ints[i]`` is the integer part of clock i, or ceiling+1 when the
    clock has passed its ceiling.  ``zero`` lists the (non-above) clocks
    at an exact integer; ``groups`` orders the remaining clocks by
    strictly increasing fractional part.
    """

    __slots__ = ()

    def pretty(self, clocks):
        parts = []
        for i, name in enumerate(clocks):
            if i in self.zero:
                parts.append(f"{name}={self.ints[i]}")
            elif any(i in g for g in self.groups):
                parts.append(f"{self.ints[i]}<{name}<{self.ints[i] + 1}")
            else:
                parts.append(f"{name}>{self.ints[i] - 1}")
        return ", ".join(parts)


def region_key(loc, region):
    """The flat key of ``region`` at location index ``loc``:
    ``(loc, int_0, ..., int_k-1, rank_0, ..., rank_k-1)``.  A clock's rank
    is 0 at an exact integer or past its ceiling, and j when it lies in
    the j-th fractional group; ``key_region`` inverts it."""
    ranks = [0] * len(region.ints)
    for j, group in enumerate(region.groups, 1):
        for i in group:
            ranks[i] = j
    return (loc, *region.ints, *ranks)


def key_region(key, ceilings):
    """The Region of a flat key over clocks with these ceilings."""
    k = len(ceilings)
    ints, ranks = key[1:k + 1], key[k + 1:]
    zero = tuple(i for i, (v, r, c) in enumerate(zip(ints, ranks, ceilings)) if not r and v <= c)
    groups = [[] for _ in range(max(ranks, default=0))]
    for i, r in enumerate(ranks):
        if r:
            groups[r - 1].append(i)
    return Region(ints, zero, tuple(map(tuple, groups)))


def sample_region(region, ceilings):
    """A concrete valuation inside the region (exact rationals), as the
    witness of a failed partition check."""
    from fractions import Fraction

    g = len(region.groups)
    fracs = [Fraction(j, g + 1) for j in range(1, g + 1)]
    group_of = {}
    for j, grp in enumerate(region.groups):
        for i in grp:
            group_of[i] = j
    values = []
    for i, whole in enumerate(region.ints):
        if whole > ceilings[i]:
            values.append(Fraction(ceilings[i]) + Fraction(1, 2))
        elif i in group_of:
            values.append(Fraction(whole) + fracs[group_of[i]])
        else:
            values.append(Fraction(whole))
    return values


def _time_step(key, ceilings):
    """The key of the next region entered as time flows, or None when
    every clock is past its ceiling (the region is time-divergent)."""
    k = len(ceilings)
    step = list(key)
    whole = stay = False
    for p, c in enumerate(ceilings, 1):
        if not key[p + k] and key[p] <= c:  # at an integer
            whole = True
            if key[p] < c:
                stay = True
            else:
                step[p] = c + 1
    if whole:
        if stay:  # the clocks that stay below their ceilings form the first group
            for p, c in enumerate(ceilings, 1):
                if step[p + k]:
                    step[p + k] += 1
                elif step[p] <= c:
                    step[p + k] = 1
        return tuple(step)
    top = max(key[k + 1:], default=0)
    if not top:
        return None
    # A fractional clock is below its ceiling, so the clocks of the largest
    # fraction all reach their next integer.
    for p in range(1, k + 1):
        if key[p + k] == top:
            step[p] += 1
            step[p + k] = 0
    return tuple(step)


def _reset(key, dst, reset, k):
    """The key at location ``dst`` after setting the clocks of ``reset``, a
    tuple of clock indices, to 0.  A group a reset empties gives up its
    rank, and the ranks above it close the gap."""
    step = list(key)
    step[0] = dst
    for i in reset:
        step[1 + i] = 0
        r = step[1 + k + i]
        if r:
            step[1 + k + i] = 0
            ranks = step[k + 1:]
            if r not in ranks:
                for q, s in enumerate(ranks, k + 1):
                    if s > r:
                        step[q] = s - 1
    return tuple(step)


def position_keys(ceilings):
    """One flat key, at location 0, per combination of clock positions.

    A clock is past its ceiling, at an integer 0..c, or strictly inside
    (v, v+1) with v < c: 2c+2 positions per clock.  The fractional clocks
    of a combination share rank 1.  ``_compile`` tests read positions
    only, never the order of fractional parts, so every region of a
    combination lies in the same cells as the key yielded here.
    """
    per_clock = [
        [(c + 1, 0)] + [(v, 0) for v in range(c + 1)] + [(v, 1) for v in range(c)]
        for c in ceilings
    ]
    for combo in itertools.product(*per_clock):
        yield (0, *(v for v, _ in combo), *(rank for _, rank in combo))


# ---------------------------------------------------------------------------
# The automaton

class TimedAutomatonWithFaults:
    """Validated timed automaton with fault edges and an observation.

    Construction enforces the structural fault axioms syntactically:
    initial locations are non-faulty, fault edges go non-faulty to
    faulty, other edges preserve faultiness, every non-faulty location
    has a fault edge, and the observation cells partition the external
    valuation space (checked exhaustively, one region per combination of
    external clock positions, with a witness valuation on failure).
    Whether every *state* of a non-faulty location can actually fault is
    settled later on the region quotient, where the check is exact.  The
    partition check raises CapExceeded when the combinations outnumber
    ``max_classes``.
    """

    def __init__(
        self,
        locations,
        internal_clocks,
        external_clocks,
        edges,
        observation,
        max_classes=DEFAULT_MAX_CLASSES,
    ):
        self.locations = tuple(locations)
        if not self.locations:
            raise ModelFormatError("automaton needs at least one location")
        self._loc_by_name = {}
        for loc in self.locations:
            if loc.name in self._loc_by_name:
                raise ModelFormatError(f"duplicate location {_excerpt(loc.name, 0)}")
            self._loc_by_name[loc.name] = loc

        internal = tuple(internal_clocks)
        external = tuple(external_clocks)
        if len(set(internal) | set(external)) != len(internal) + len(external):
            raise ModelFormatError("clock names must be unique across both groups")
        self.clocks = external + internal
        self.external_clocks = external
        self.internal_clocks = internal
        self._clock_index = {name: i for i, name in enumerate(self.clocks)}

        # Errors name the entry's path: rows, guard and invariant atoms keep file order.
        def check_clock(clock, what):
            if clock not in self._clock_index:
                raise ModelFormatError(f"{what}: unknown clock {_excerpt(clock, 0)}")

        self.edges = tuple(edges)
        kinds = {}
        for i, e in enumerate(self.edges):
            for end, loc in (("src", e.src), ("dst", e.dst)):
                if loc not in self._loc_by_name:
                    raise ModelFormatError(
                        f"edges[{i}].{end}: unknown location {_excerpt(loc, 0)}"
                    )
            if kinds.setdefault(e.action, e.kind) is not e.kind:
                raise ModelFormatError(f"action {_excerpt(e.action, 0)} used with two kinds")
            for j, (_, clock, _, _) in enumerate(e.guard[1:]):
                check_clock(clock, f"edges[{i}].guard[{j}]")
            for clock in sorted(e.resets):
                check_clock(clock, f"edges[{i}].resets")
        for i, loc in enumerate(self.locations):
            for j, (_, clock, _, _) in enumerate(loc.invariant[1:]):
                check_clock(clock, f"locations[{i}].invariant[{j}]")
        fault_names = sorted(n for n, k in kinds.items() if k is Kind.FAULT)
        if len(fault_names) > 1:
            names = ", ".join(_excerpt(n, 0) for n in fault_names)
            raise TAValidationError("FaultAction", f"more than one fault action: {names}")
        self.actions = tuple(ActionLabel(name, kind) for name, kind in kinds.items())

        self.observation = tuple(observation)
        ids = sorted(spec.id for spec in self.observation)
        if ids != list(range(len(self.observation))):
            raise ModelFormatError("observable ids must be dense 0..m-1")
        for i, spec in enumerate(self.observation):
            for clock, _ in pred_atoms(spec.pred):
                check_clock(clock, f"observation[{i}].pred")
                if clock not in external:
                    raise ModelFormatError(
                        f"observation[{i}].pred: non-external clock {_excerpt(clock, 0)}"
                    )

        self._validate_axioms()
        self.ceilings = self._compute_ceilings()
        self._validate_partition(max_classes)

    def _validate_axioms(self):
        any_initial = False
        for loc in self.locations:
            if loc.initial:
                any_initial = True
                if loc.faulty:
                    raise TAValidationError(
                        "InitNonFaulty", f"initial location {_excerpt(loc.name, 0)} is faulty"
                    )
        if not any_initial:
            raise TAValidationError("Nonempty", "no initial location")

        fault_sources = set()
        for e in self.edges:
            src_f = self._loc_by_name[e.src].faulty
            dst_f = self._loc_by_name[e.dst].faulty
            if e.kind is Kind.FAULT:
                fault_sources.add(e.src)
                if src_f or not dst_f:
                    raise TAValidationError(
                        "D2",
                        f"fault edge {_excerpt(e.src, 0)} -> {_excerpt(e.dst, 0)} "
                        "must go non-faulty to faulty",
                    )
            elif src_f != dst_f:
                raise TAValidationError(
                    "D3",
                    f"edge {_excerpt(e.src, 0)} -{_excerpt(e.action, 0)}-> "
                    f"{_excerpt(e.dst, 0)} changes the fault status",
                )
        for loc in self.locations:
            if not loc.faulty and loc.name not in fault_sources:
                raise TAValidationError(
                    "D1", f"non-faulty location {_excerpt(loc.name, 0)} has no fault edge"
                )

    def _compute_ceilings(self):
        ceilings = {name: 0 for name in self.clocks}
        preds = [loc.invariant for loc in self.locations] + [e.guard for e in self.edges]
        for pred in preds + [spec.pred for spec in self.observation]:
            for clock, bound in pred_atoms(pred):
                ceilings[clock] = max(ceilings[clock], bound)
        return tuple(ceilings[name] for name in self.clocks)

    def _validate_partition(self, max_classes):
        # External clocks come first in self.clocks, so their positions are
        # a prefix of every key's integer parts and of its ranks; cells are
        # decided once per position combination, and each class looks its
        # cell up.
        m = len(self.external_clocks)
        ext_ceilings = self.ceilings[:m]
        count = math.prod(2 * c + 2 for c in ext_ceilings)
        if count > max_classes:
            raise CapExceeded("observation partition regions", count, max_classes)
        cells = [(spec.id, _compile(spec.pred, self._clock_index, m)) for spec in self.observation]
        self._cell_of = {}
        for key in position_keys(ext_ceilings):
            hits = [cell for cell, test in cells if test(key)]
            if len(hits) != 1:
                values = sample_region(key_region(key, ext_ceilings), ext_ceilings)
                witness = {name: str(v) for name, v in zip(self.external_clocks, values)}
                what = "no cell covers" if not hits else f"cells {hits} overlap at"
                raise PartitionError(
                    f"observation is not a partition: {what} {witness or 'the empty valuation'}",
                    witness,
                )
            self._cell_of[key[1:]] = hits[0]

    # -- region-level helpers -------------------------------------------------

    def observable_of_region(self, region):
        return self._observable_of_key(region_key(0, region))

    def _observable_of_key(self, key):
        # A position key ranks every fractional clock 1.
        m, k = len(self.external_clocks), len(self.clocks)
        return self._cell_of[key[1:m + 1] + tuple([min(r, 1) for r in key[k + 1:k + m + 1]])]


# ---------------------------------------------------------------------------
# Region quotient construction

class RegionQuotient(namedtuple("RegionQuotient", "model class_regions")):
    __slots__ = ()  # class_regions: a list of (location name, Region)


def _explore(ta, max_classes, keep_keys):
    """The region quotient of ``ta`` and, when ``keep_keys``, the flat key
    of each class, else None.

    Discrete successors fire automaton edges whose guard holds in the
    region and whose reset lands inside the target invariant; time
    successors follow the immediate region successor while the location
    invariant keeps holding.  Deterministic class numbering (BFS order)
    is part of the contract.  Nodes are flat keys (``region_key``).  Each
    location's out-edges are compiled once, in file order, as
    ``(label, guard, reset, dst, dst invariant)`` with ``_compile`` tests
    and a sorted tuple of reset clock indices.  The quotient is validated
    here: a violation raises TAValidationError.
    """
    ceilings = ta.ceilings
    k = len(ceilings)
    index = ta._clock_index
    label_of = {a.name: a for a in ta.actions}
    loc_of = {loc.name: i for i, loc in enumerate(ta.locations)}
    invariant = [_compile(loc.invariant, index, k) for loc in ta.locations]
    out_edges = [[] for _ in ta.locations]
    for e in ta.edges:
        reset = tuple(sorted(index[name] for name in e.resets))
        dst = loc_of[e.dst]
        guard = _compile(e.guard, index, k)
        out_edges[loc_of[e.src]].append((label_of[e.action], guard, reset, dst, invariant[dst]))

    def successors(key):  # enabled edges, then the time step labelled None
        for label, guard, reset, dst, dst_invariant in out_edges[key[0]]:
            if guard(key):
                target = _reset(key, dst, reset, k)
                if dst_invariant(target):
                    yield label, target
        succ = _time_step(key, ceilings)
        if succ is None:
            yield None, key  # genuinely time-divergent region
        elif invariant[key[0]](succ):
            yield None, succ

    origin = (0,) * (2 * k)  # every clock at 0
    starts = [
        (i, *origin)
        for i, loc in enumerate(ta.locations)
        if loc.initial and invariant[i]((i, *origin))
    ]
    keys, _, out = explore(starts, successors, max_classes, "region classes")
    at_faulty = [loc.faulty for loc in ta.locations]
    faulty = [at_faulty[key[0]] for key in keys]
    initial = [cid < len(starts) for cid in range(len(keys))]  # the starts, numbered first
    obs = list(map(ta._observable_of_key, keys))
    if not keep_keys:
        keys = None

    def rows():  # each row is dropped as it is split into its moves and its time successor
        for cid, row in enumerate(out):
            out[cid] = None
            yield [move for move in row if move[0] is not None], [d for a, d in row if a is None]

    model = QuotientModel._from_rows(ta.actions, faulty, initial, obs, rows())
    report = validate_model(model)
    if not report.ok:
        first = report.violations[0]
        raise TAValidationError(first.rule, f"region quotient: {first.message}")
    return model, keys


def build_region_quotient(ta, max_classes=DEFAULT_MAX_CLASSES):
    """Explore the reachable (location, region) graph of ``ta``: the
    quotient model and, per class, its location name and Region."""
    model, keys = _explore(ta, max_classes, keep_keys=True)
    names = [loc.name for loc in ta.locations]
    return RegionQuotient(model, [(names[key[0]], key_region(key, ta.ceilings)) for key in keys])


def region_quotient(ta, max_classes=DEFAULT_MAX_CLASSES):
    """The quotient model of ``build_region_quotient``, built without a
    Region object."""
    return _explore(ta, max_classes, keep_keys=False)[0]


def region_count_bound(ta):
    """Classical upper bound on the number of (location, region) pairs."""
    bound = len(ta.locations)
    for c in ta.ceilings:
        bound *= 2 * c + 2
    k = len(ta.clocks)
    return bound * math.factorial(k) * 2**k


# ---------------------------------------------------------------------------
# File format (JSON)

_LOC_SCHEMA = {"name": str, "faulty": bool, "initial": bool, "invariant": list}
_TA_EDGE_SCHEMA = {
    "src": str, "dst": str, "action": str, "kind": str, "guard": list, "resets": list
}
_OBS_SCHEMA = {"id": int, "pred": str}


def _strings(value, what):
    for item in _as_list(value, what):
        if not isinstance(item, str):
            raise ModelFormatError(f"{what} entries must be strings")
    return value


def _parsed(parse, text, what):
    """``parse(text)``, a rejection named by the entry ``what``."""
    try:
        return parse(text)
    except ModelFormatError as e:
        raise ModelFormatError(f"{what}: {e}") from None


def _constraints(value, what):
    entries = enumerate(_strings(value, what))
    return ("and", *(_parsed(parse_constraint, c, f"{what}[{j}]") for j, c in entries))


def parse_ta(text, max_classes=DEFAULT_MAX_CLASSES):
    """Parse and validate a timed automaton from its JSON file format."""
    data = _loads_json(text)
    _require_keys(data, {"locations", "clocks", "edges", "observation"}, "automaton")

    locations = [
        Location(name, faulty, initial, _constraints(invariant, f"locations[{i}].invariant"))
        for i, (name, faulty, initial, invariant)
        in enumerate(zip(*_rows(data["locations"], "locations", _LOC_SCHEMA)))
    ]

    _require_keys(data["clocks"], {"internal", "external"}, "clocks")
    internal = _strings(data["clocks"]["internal"], "clocks.internal")
    external = _strings(data["clocks"]["external"], "clocks.external")

    edges = [
        TAEdge(
            src,
            dst,
            action,
            _member(Kind, kind, f"edges[{i}].kind"),
            _constraints(guard, f"edges[{i}].guard"),
            frozenset(_strings(resets, f"edges[{i}].resets")),
        )
        for i, (src, dst, action, kind, guard, resets)
        in enumerate(zip(*_rows(data["edges"], "edges", _TA_EDGE_SCHEMA)))
    ]

    ids, preds = _rows(data["observation"], "observation", _OBS_SCHEMA)
    observation = [
        ObservableSpec(obs_id, _parsed(parse_pred, pred, f"observation[{i}].pred"))
        for i, (obs_id, pred) in enumerate(zip(ids, preds))
    ]

    return TimedAutomatonWithFaults(
        locations, internal, external, edges, observation, max_classes
    )


def load_ta(path, max_classes=DEFAULT_MAX_CLASSES):
    return parse_ta(_read_text(path), max_classes)
