"""Tests for the timed-automaton front-end and region construction."""

import itertools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.errors import CapExceeded, ModelFormatError, PartitionError, TAValidationError
from hydiag.quotient import dumps_model, validate_model
from hydiag.regions import (
    MAX_PRED_DEPTH,
    Region,
    _compile,
    _reset,
    _time_step,
    build_region_quotient,
    key_region,
    parse_constraint,
    parse_pred,
    parse_ta,
    position_keys,
    pred_atoms,
    region_count_bound,
    region_key,
    region_quotient,
    sample_region,
)

from .conftest import FIXTURES
from .helpers import (
    OPS,
    all_regions,
    apply_reset,
    atom_holds,
    concrete_enabled_edges,
    concrete_region_path,
    divergent_classes,
    eval_pred,
    initial_region,
    kclock_ta_34,
    observable_of_valuation,
    peak_per_document,
    position_regions,
    pred_holds,
    random_progressive_ta,
    random_sample_region,
    random_ta,
    reference_automata,
    reference_constraint,
    reference_region_quotient,
    region_of,
    reset_region,
    sample_valuation,
    time_successor,
)

ZERO_CLOCK_TA = """
{
  "locations": [
    {"name": "up", "faulty": false, "initial": true, "invariant": []},
    {"name": "down", "faulty": true, "initial": false, "invariant": []}
  ],
  "clocks": {"internal": [], "external": []},
  "edges": [
    {"src": "up", "dst": "up", "action": "ping", "kind": "external", "guard": [], "resets": []},
    {"src": "up", "dst": "down", "action": "break", "kind": "fault", "guard": [], "resets": []},
    {"src": "down", "dst": "down", "action": "ping", "kind": "external", "guard": [], "resets": []}
  ],
  "observation": [{"id": 0, "pred": "true"}]
}
"""


# Strings shaped like one clock constraint: whitespace, identifiers (``true``
# among them), valid and broken operators, signed, decimal and zero-padded
# numbers, parentheses and trailing tokens.  Valid pieces are listed more
# than once, so that a good share of the strings are constraints.
_IDENT = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from(["true", "x\u00e9", "1x", "\u00e9", ""]),
)
CONSTRAINT_TEXTS = st.tuples(
    st.sampled_from([""] * 8 + ["(", "!"]),
    st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000"]),
    _IDENT,
    st.sampled_from(["", " ", "\u3000"]),
    st.sampled_from(["<", "<=", "==", ">=", ">"] * 3 + ["", "=", "<==>", "=<", "!="]),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from([""] * 6 + ["-", "+", "--"]),
    st.one_of(
        st.from_regex(r"[0-9]{1,4}", fullmatch=True),
        st.sampled_from(["0", "00", "\u0661", "1_0", ""]),
    ),
    st.sampled_from([""] * 6 + [".", ".5", ".0", "e3"]),
    st.sampled_from(["", " ", "\n"]),
    st.sampled_from([""] * 8 + [")", " & y<2", " x", "$", "1", "<"]),
).map("".join)


class TestParsing:
    def test_ta1_shape(self, ta1):
        assert len(ta1.locations) == 2
        assert ta1.clocks == ("x",)
        assert len(ta1.edges) == 3
        assert ta1.ceilings == (1,)

    def test_constraint_grammar(self):
        assert parse_constraint("x<=1") == ("atom", "x", "<=", 1)
        with pytest.raises(ModelFormatError, match="non-integral"):
            parse_constraint("x<=1.5")
        with pytest.raises(ModelFormatError, match="negative"):
            parse_constraint("x<=-1")
        with pytest.raises(ModelFormatError):
            parse_constraint("x <==> 1")

    @settings(max_examples=1000, deadline=None)
    @given(CONSTRAINT_TEXTS)
    def test_constraint_grammar_matches_the_reference(self, text):
        expected = reference_constraint(text)
        try:
            got = parse_constraint(text)
        except ModelFormatError:
            assert expected is None, text
        else:
            assert expected is not None and got == ("atom", *expected), text

    def test_pred_grammar(self):
        pred = parse_pred("!(x<1) & (x<2 | x==3)")
        assert pred[0] == "and"
        with pytest.raises(ModelFormatError, match="column"):
            parse_pred("x <")
        with pytest.raises(ModelFormatError, match="non-integral"):
            parse_pred("x<1.5")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 2000 + "x<1" + ")" * 2000,
            "!" * 3000 + "x<1",
            "(x<1 & " * 1000 + "x<1" + ")" * 1000,
        ],
        ids=["parentheses", "negations", "nested-conjunctions"],
    )
    def test_deep_predicates_rejected(self, text):
        with pytest.raises(ModelFormatError, match=f"deeper than {MAX_PRED_DEPTH}"):
            parse_pred(text)

    def test_long_chains_are_flat(self):
        valuation = {"x": Fraction(1, 2)}
        region = region_of([valuation["x"]], (1,))
        conjunction = parse_pred(" & ".join(["x<1"] * 3000))
        disjunction = parse_pred(" | ".join(["x>1"] * 3000))
        assert conjunction == ("and",) + (("atom", "x", "<", 1),) * 3000
        assert eval_pred(conjunction, valuation)
        assert not eval_pred(disjunction, valuation)
        assert pred_holds(conjunction, region, {"x": 0})
        assert not pred_holds(disjunction, region, {"x": 0})
        assert _compile(conjunction, {"x": 0}, 1)(region_key(0, region))
        assert not _compile(disjunction, {"x": 0}, 1)(region_key(0, region))

    def test_predicates_at_the_depth_bound_evaluate(self):
        valuation = {"x": Fraction(1, 2)}
        region = region_of([valuation["x"]], (1,))
        n = MAX_PRED_DEPTH
        levels = n // 3  # each level opens '(', '!' and '('
        cases = [
            ("(" * n + "x<1" + ")" * n, True),
            ("!" * n + "x<1", n % 2 == 0),
            ("(x>1 | !(x<1 & " * levels + "x<1" + "))" * levels, levels % 2 == 0),
        ]
        for text, expected in cases:
            pred = parse_pred(text)
            assert eval_pred(pred, valuation) == expected
            assert pred_holds(pred, region, {"x": 0}) == expected
            assert _compile(pred, {"x": 0}, 1)(region_key(0, region)) == expected
        with pytest.raises(ModelFormatError, match="deeper"):
            parse_pred("!" * (n + 1) + "x<1")

    def test_error_column_is_the_token_column(self):
        with pytest.raises(ModelFormatError, match="negative constant in predicate at column 5 "):
            parse_pred("x < -3")
        with pytest.raises(ModelFormatError, match=r"expected integer constant\) at column 8 "):
            parse_pred("x <    y")
        with pytest.raises(ModelFormatError, match="pred parse error at column 5 "):
            parse_pred("x < $")

    @pytest.mark.parametrize(
        "path",
        [
            ("locations",),
            ("locations", 0, "invariant"),
            ("clocks", "internal"),
            ("clocks", "external"),
            ("edges",),
            ("edges", 0, "guard"),
            ("edges", 0, "resets"),
            ("observation",),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    @pytest.mark.parametrize("value", [5, "x", {"a": 1}, None])
    def test_non_list_field_rejected(self, path, value):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelFormatError, match="must be a list"):
            parse_ta(json.dumps(data))

    @pytest.mark.parametrize("field", ["locations", "edges", "observation"])
    def test_non_object_entry_rejected(self, field):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data[field][0] = 5
        with pytest.raises(ModelFormatError, match="must be an object"):
            parse_ta(json.dumps(data))

    def test_fault_edge_between_faulty_locations_is_d2(self, ta1):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["edges"][1]["src"] = "leak"
        with pytest.raises(TAValidationError) as err:
            parse_ta(json.dumps(data))
        assert err.value.rule == "D2"

    def test_missing_fault_edge_is_d1(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["edges"] = [e for e in data["edges"] if e["kind"] != "fault"]
        with pytest.raises(TAValidationError) as err:
            parse_ta(json.dumps(data))
        assert err.value.rule == "D1"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["locations"].append(dict(d["locations"][1])), "duplicate location 'leak'"),
        (lambda d: d["clocks"].update(internal=["x"]),
         "clock names must be unique across both groups"),
        (lambda d: d["edges"][2].update(kind="internal"), "action 'tick' used with two kinds"),
        (lambda d: d["edges"].append({**d["edges"][1], "action": "burst"}),
         "FaultAction: more than one fault action: 'burst', 'leak_start'"),
        (lambda d: d["locations"][0].update(initial=False), "Nonempty: no initial location"),
        (lambda d: d["edges"][2].update(dst="ok"),
         "D3: edge 'leak' -'tick'-> 'ok' changes the fault status"),
    ], ids=["duplicate-location", "clock-in-both-groups", "two-kinds", "two-fault-actions",
            "no-initial", "d3"])
    def test_automaton_errors(self, edit, message):
        data = json.loads(open("fixtures/ta1.ta.json").read())
        edit(data)
        with pytest.raises((ModelFormatError, TAValidationError)) as err:
            parse_ta(json.dumps(data))
        assert str(err.value) == message

    def test_observation_gap_reports_witness(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["observation"] = [
            {"id": 0, "pred": "x<1"},
            {"id": 1, "pred": "x>1"},
        ]
        with pytest.raises(PartitionError) as err:
            parse_ta(json.dumps(data))
        assert err.value.witness == {"x": "1"}

    def test_observation_overlap_reports_witness(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["observation"] = [
            {"id": 0, "pred": "x<1"},
            {"id": 1, "pred": "x<=1"},
            {"id": 2, "pred": "x>1"},
        ]
        with pytest.raises(PartitionError):
            parse_ta(json.dumps(data))

    def test_partition_check_is_capped(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["clocks"]["external"] = ["x", "y", "z"]
        cell = "x<1 & y<=1 & z<=1"
        data["observation"] = [{"id": 0, "pred": cell}, {"id": 1, "pred": f"!({cell})"}]
        text = json.dumps(data)
        # The check visits one region per combination of positions: 4**3 = 64
        # of them, although the three clocks have 94 regions.
        assert len(list(all_regions((1, 1, 1)))) == 94
        assert parse_ta(text, max_classes=64).external_clocks == ("x", "y", "z")
        with pytest.raises(CapExceeded) as err:
            parse_ta(text, max_classes=63)
        assert (err.value.what, err.value.count) == ("observation partition regions", 64)

    def test_observation_must_use_external_clocks(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["clocks"] = {"internal": ["x"], "external": []}
        with pytest.raises(ModelFormatError, match="non-external"):
            parse_ta(json.dumps(data))

    def test_unknown_keys_rejected(self):
        import json

        data = json.loads(open("fixtures/ta1.ta.json").read())
        data["comment"] = "hi"
        with pytest.raises(ModelFormatError, match="unknown keys"):
            parse_ta(json.dumps(data))

    def test_broken_json_reports_line_and_column(self):
        with pytest.raises(ModelFormatError, match=r"line 2, column"):
            parse_ta('{\n "locations": }')


class TestRegionOps:
    def test_region_of_sample_round_trip(self):
        for ceilings in [(1,), (3,), (2, 3)]:
            for region in all_regions(ceilings):
                assert region_of(sample_region(region, ceilings), ceilings) == region

    def test_randomized_samples_stay_in_region(self):
        rng = random.Random(1)
        ceilings = (2, 3)
        for region in all_regions(ceilings):
            for _ in range(5):
                values = random_sample_region(region, ceilings, rng)
                assert region_of(values, ceilings) == region

    def test_initial_region(self):
        r = initial_region(2)
        assert r == Region((0, 0), (0, 1), ())

    def test_time_successor_chain_single_clock(self):
        ceilings = (1,)
        r = initial_region(1)
        chain = [r]
        while True:
            nxt = time_successor(chain[-1], ceilings)
            if nxt is None:
                break
            chain.append(nxt)
        assert [c.pretty(("x",)) for c in chain] == ["x=0", "0<x<1", "x=1", "x>1"]

    def test_divergent_region_has_no_successor(self):
        ceilings = (1, 1)
        above = Region((2, 2), (), ())
        assert time_successor(above, ceilings) is None

    def test_concrete_path_matches_successor_chain(self):
        rng = random.Random(7)
        for ceilings in [(1,), (3,), (2, 2)]:
            for region in all_regions(ceilings):
                chain = [region]
                while True:
                    nxt = time_successor(chain[-1], ceilings)
                    if nxt is None:
                        break
                    chain.append(nxt)
                for _ in range(3):
                    values = random_sample_region(region, ceilings, rng)
                    assert concrete_region_path(values, ceilings) == chain

    def test_reset_matches_concrete_reset(self):
        rng = random.Random(3)
        ceilings = (2, 1)
        for region in all_regions(ceilings):
            values = random_sample_region(region, ceilings, rng)
            for resets in map(frozenset, [(0,), (1,), (0, 1)]):
                concrete = list(values)
                for i in resets:
                    concrete[i] = Fraction(0)
                assert region_of(concrete, ceilings) == reset_region(region, resets)


def region_samples(region, ceilings, rng, count=5):
    """The canonical sample of ``region`` and ``count`` randomized ones."""
    yield sample_region(region, ceilings)
    for _ in range(count):
        yield random_sample_region(region, ceilings, rng)


class TestRegionEvaluator:
    """The region-level evaluator against exact Fraction evaluation."""

    @pytest.mark.parametrize("ceilings", [(1,), (3,), (2, 3), (1, 1, 2)], ids=str)
    def test_atoms_agree_with_concrete_evaluation(self, ceilings):
        rng = random.Random(11)
        atoms = [
            (i, op, bound)
            for i, ceiling in enumerate(ceilings)
            for op in OPS
            for bound in range(ceiling + 1)
        ]
        for region in all_regions(ceilings):
            expected = [atom_holds(region, i, op, bound) for i, op, bound in atoms]
            for values in region_samples(region, ceilings, rng):
                assert [OPS[op](values[i], bound) for i, op, bound in atoms] == expected, region

    @pytest.mark.parametrize("builder", [random_ta, random_progressive_ta])
    def test_random_automata_agree_with_concrete_evaluation(self, builder):
        rng = random.Random(5)
        for seed in range(50):
            ta = builder(seed)
            index = {name: i for i, name in enumerate(ta.clocks)}
            cells = [spec.pred for spec in ta.observation]
            preds = cells + [e.guard for e in ta.edges] + [loc.invariant for loc in ta.locations]
            compiled = [_compile(p, index, len(ta.clocks)) for p in preds]
            for region in all_regions(ta.ceilings):
                on_region = [pred_holds(p, region, index) for p in preds]
                assert [test(region_key(0, region)) for test in compiled] == on_region
                for values in region_samples(region, ta.ceilings, rng):
                    valuation = dict(zip(ta.clocks, values))
                    concrete = [eval_pred(p, valuation) for p in preds]
                    assert concrete == on_region, (seed, region)
                hits = [spec.id for spec, hit in zip(ta.observation, on_region) if hit]
                assert hits == [ta.observable_of_region(region)]

    def test_region_build_makes_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction built")

        text = json.dumps(three_clock_ta_data())
        monkeypatch.setattr("fractions.Fraction", no_fraction)
        rq = build_region_quotient(parse_ta(text))
        assert len(rq.model.classes) == len(rq.class_regions) > 0
        with pytest.raises(AssertionError, match="Fraction built"):
            sample_region(Region((0,), (), ((0,),)), (1,))


def random_cells(rng, clocks):
    """Random observation cells over ``clocks`` using all five operators.

    Half the time a partition by construction (p1, !p1 & p2, ...,
    !p1 & ... & !pk); otherwise arbitrary cells, which may overlap or
    leave gaps.
    """

    def atom():
        return f"{rng.choice(clocks)}{rng.choice(list(OPS))}{rng.randint(0, 2)}"

    def pred(depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.4:
            return atom()
        if roll < 0.55:
            return f"!({pred(depth + 1)})"
        op = rng.choice("&|")
        return f"({pred(depth + 1)}){op}({pred(depth + 1)})"

    preds = [pred() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        return preds
    cells = []
    for k, p in enumerate(preds):
        cells.append(" & ".join([f"!({q})" for q in preds[:k]] + [f"({p})"]))
    cells.append(" & ".join(f"!({q})" for q in preds))
    return cells


def cells_ta_text(external, cells, internal=(), guard=()):
    """A two-location automaton observed through ``cells``."""
    return json.dumps(
        {
            "locations": [
                {"name": "ok", "faulty": False, "initial": True, "invariant": []},
                {"name": "bad", "faulty": True, "initial": False, "invariant": []},
            ],
            "clocks": {"internal": list(internal), "external": list(external)},
            "edges": [
                {"src": "ok", "dst": "bad", "action": "f", "kind": "fault", "guard": [], "resets": []},
                {"src": "ok", "dst": "ok", "action": "a", "kind": "external",
                 "guard": list(guard), "resets": list(external[:1]) + list(internal)},
                {"src": "bad", "dst": "bad", "action": "a", "kind": "external",
                 "guard": [], "resets": []},
            ],
            "observation": [{"id": i, "pred": p} for i, p in enumerate(cells)],
        }
    )


class TestObservationByPosition:
    """The partition check and each class's cell, decided on clock
    positions, against every region and the Fraction semantics."""

    def test_partition_errors_match_the_first_failing_region(self):
        rng = random.Random(23)
        outcomes = {"partition": 0, "error": 0}
        for _ in range(300):
            clocks = ["x", "y", "z"][: rng.randint(1, 3)]
            cells = random_cells(rng, clocks)
            nodes = [parse_pred(c) for c in cells]
            ceilings = tuple(
                max([b for n in nodes for c, b in pred_atoms(n) if c == x], default=0)
                for x in clocks
            )
            text = cells_ta_text(clocks, cells)
            expected = None
            for region in all_regions(ceilings):
                values = sample_region(region, ceilings)
                valuation = dict(zip(clocks, values))
                hits = [i for i, n in enumerate(nodes) if eval_pred(n, valuation)]
                if len(hits) != 1:
                    witness = {x: str(v) for x, v in valuation.items()}
                    what = "no cell covers" if not hits else f"cells {hits} overlap at"
                    message = f"ObsPartition: observation is not a partition: {what} {witness}"
                    expected = (message, witness)
                    break
            if expected is not None:
                with pytest.raises(PartitionError) as err:
                    parse_ta(text)
                assert (str(err.value), err.value.witness) == expected, cells
                outcomes["error"] += 1
                continue
            ta = parse_ta(text)
            assert ta.ceilings == ceilings
            for region in all_regions(ceilings):
                valuation = dict(zip(clocks, sample_region(region, ceilings)))
                assert ta.observable_of_region(region) == observable_of_valuation(ta, valuation)
            outcomes["partition"] += 1
        assert min(outcomes.values()) > 50, outcomes

    def test_interval_cells_are_told_apart(self):
        # x = 1 and 1 < x < 2 share an integer part but not a cell, and so
        # do x = 2 and 2 < x < 3; the internal clock y follows x in regions.
        cells = ["x<=1", "x>1 & x<2", "x==2", "x>2"]
        ta = parse_ta(cells_ta_text(["x"], cells, internal=["y"], guard=["y>=1"]))
        assert ta.clocks == ("x", "y") and ta.ceilings == (2, 1)
        rng = random.Random(4)
        seen = set()
        for region in all_regions(ta.ceilings):
            obs = ta.observable_of_region(region)
            for values in region_samples(region, ta.ceilings, rng):
                valuation = dict(zip(ta.clocks, values))
                assert obs == observable_of_valuation(ta, valuation), region
            seen.add(obs)
        assert seen == {0, 1, 2, 3}
        rq = build_region_quotient(ta)
        for cls, (_, region) in zip(rq.model.classes, rq.class_regions):
            valuation = dict(zip(ta.clocks, sample_region(region, ta.ceilings)))
            assert cls.obs == observable_of_valuation(ta, valuation)

    def test_cells_listed_out_of_id_order(self, ta1):
        # A class's cell is the id of the cell that holds on it, wherever
        # that cell is listed.
        data = json.loads((FIXTURES / "ta1.ta.json").read_text())
        data["observation"].reverse()
        ta = parse_ta(json.dumps(data))
        assert [spec.id for spec in ta.observation] == [1, 0]
        rq = build_region_quotient(ta)
        index = ta._clock_index
        for cls, (_, region) in zip(rq.model.classes, rq.class_regions):
            hits = [spec.id for spec in ta.observation if pred_holds(spec.pred, region, index)]
            assert hits == [cls.obs], region
        assert set(rq.model.obs) == {0, 1}
        assert dumps_model(rq.model) == dumps_model(region_quotient(ta1))


class TestCountBound:
    def test_one_clock_ceiling_one(self):
        ta = parse_ta(
            """
            {"locations": [{"name": "l", "faulty": false, "initial": true, "invariant": []},
                           {"name": "g", "faulty": true, "initial": false, "invariant": []}],
             "clocks": {"internal": [], "external": ["x"]},
             "edges": [{"src": "l", "dst": "l", "action": "a", "kind": "external", "guard": ["x<=1"], "resets": []},
                        {"src": "l", "dst": "g", "action": "f", "kind": "fault", "guard": [], "resets": []},
                        {"src": "g", "dst": "g", "action": "a", "kind": "external", "guard": [], "resets": []}],
             "observation": [{"id": 0, "pred": "true"}]}
            """
        )
        # Two locations at 2*ceiling+2 = 4 region shapes each, times k! 2^k.
        assert region_count_bound(ta) == 16
        assert len(list(all_regions((1,)))) == 4  # enumeration cross-check

    def test_zero_clocks(self):
        ta = parse_ta(ZERO_CLOCK_TA)
        assert region_count_bound(ta) == 2

    def test_ta1_bound(self, ta1):
        assert region_count_bound(ta1) == 16


class TestZeroClockQuotient:
    def test_isomorphic_to_location_graph(self):
        ta = parse_ta(ZERO_CLOCK_TA)
        model = region_quotient(ta)
        assert len(model.classes) == 2
        assert {(s, a.name, d) for s, a, d in model.edges} == {
            (0, "ping", 0),
            (0, "break", 1),
            (1, "ping", 1),
        }
        # Time diverges in every location of a clockless automaton.
        assert divergent_classes(model) == {0, 1}
        assert validate_model(model).ok


class TestTA1Quotient:
    def test_golden_classes(self, ta1):
        rq = build_region_quotient(ta1)
        names = [
            (loc, region.pretty(ta1.clocks)) for loc, region in rq.class_regions
        ]
        assert names == [
            ("ok", "x=0"),
            ("leak", "x=0"),
            ("ok", "0<x<1"),
            ("leak", "0<x<1"),
            ("ok", "x=1"),
            ("leak", "x=1"),
        ]
        model = rq.model
        assert [c.faulty for c in model.classes] == [False, True, False, True, False, True]
        assert [c.initial for c in model.classes] == [True, False, False, False, False, False]
        assert [c.obs for c in model.classes] == [0, 0, 0, 0, 1, 1]

    def test_golden_edges(self, ta1):
        model = region_quotient(ta1)
        assert {(s, a.name, d) for s, a, d in model.edges} == {
            (0, "leak_start", 1),
            (2, "leak_start", 3),
            (4, "leak_start", 5),
            (4, "tick", 0),
            (5, "tick", 5),
        }
        assert model.time == {(0, 2), (1, 3), (2, 4), (3, 5)}
        closure = set(nx.transitive_closure(nx.DiGraph(model.time)).edges)
        assert closure == {(0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5)}
        assert divergent_classes(model) == set()

    def test_quotient_passes_validation(self, ta1):
        assert validate_model(region_quotient(ta1)).ok

    def test_reachable_count_within_bound(self, ta1):
        model = region_quotient(ta1)
        assert len(model.classes) == 6
        assert len(model.classes) <= region_count_bound(ta1)

    def test_construction_is_deterministic(self, ta1):
        assert region_quotient(ta1) == region_quotient(ta1)

    def test_explosion_guard(self, ta1):
        with pytest.raises(CapExceeded) as err:
            region_quotient(ta1, max_classes=3)
        assert (err.value.what, err.value.count, err.value.cap) == ("region classes", 4, 3)


def assert_region_equivalence(ta, rq, rng, pairs_per_class):
    """Sampling-based check that region classes are bisimilar and respect
    the observation: equal enabled edges, equal cells, equal time futures."""
    model = rq.model
    ceilings = ta.ceilings
    index = {key: cid for cid, key in enumerate(rq.class_regions)}
    for cid, (loc, region) in enumerate(rq.class_regions):
        chain = [region]
        while True:
            nxt = time_successor(chain[-1], ceilings)
            if nxt is None:
                break
            chain.append(nxt)
        quotient_edges = {
            (label.name, dst) for src, label, dst in model.edges if src == cid
        }
        for _ in range(pairs_per_class):
            v1 = sample_valuation(ta, region, rng)
            v2 = sample_valuation(ta, region, rng)
            enabled1 = concrete_enabled_edges(ta, loc, v1)
            enabled2 = concrete_enabled_edges(ta, loc, v2)
            assert enabled1 == enabled2, f"edge sets differ inside class {cid}"
            concrete_edges = set()
            for i in enabled1:
                e = ta.edges[i]
                after = apply_reset(v1, e.resets)
                target = region_of([after[n] for n in ta.clocks], ceilings)
                concrete_edges.add((e.action, index[(e.dst, target)]))
            assert concrete_edges == quotient_edges, f"class {cid} edges mismatch"
            for v in (v1, v2):
                assert observable_of_valuation(ta, v) == model.obs[cid]
                path = concrete_region_path([v[n] for n in ta.clocks], ceilings)
                assert path == chain, f"time future differs inside class {cid}"


def three_clock_ta_data():
    """Three clocks, two of them external and observed through three cells.

    Healthy tick ``t_i`` needs ``x_i == 2`` (the invariant forces it),
    faulty ``t_i`` only ``x_i >= 1``; every tick resets its clock.
    """
    names = ["x0", "x1", "x2"]
    inv = [f"{x}<=2" for x in names]
    edges = [{"src": "ok", "dst": "bad", "action": "f", "kind": "fault", "guard": [], "resets": []}]
    for i, x in enumerate(names):
        for src, guard in (("ok", f"{x}==2"), ("bad", f"{x}>=1")):
            edges.append(
                {"src": src, "dst": src, "action": f"t{i}", "kind": "external",
                 "guard": [guard], "resets": [x]}
            )
    low = "x0<2 & x1<2"
    cells = [low, f"!({low}) & x0<2", "!(x0<2)"]
    return {
        "locations": [
            {"name": "ok", "faulty": False, "initial": True, "invariant": inv},
            {"name": "bad", "faulty": True, "initial": False, "invariant": inv},
        ],
        "clocks": {"internal": names[2:], "external": names[:2]},
        "edges": edges,
        "observation": [{"id": i, "pred": p} for i, p in enumerate(cells)],
    }


class TestSampledBisimulation:
    def test_ta1(self, ta1):
        rq = build_region_quotient(ta1)
        assert_region_equivalence(ta1, rq, random.Random(0), pairs_per_class=20)

    def test_random_tas(self):
        rng = random.Random(17)
        for seed in range(8):
            ta = random_ta(seed)
            rq = build_region_quotient(ta)
            assert validate_model(rq.model).ok
            assert len(rq.model.classes) <= region_count_bound(ta)
            assert_region_equivalence(ta, rq, rng, pairs_per_class=5)

    def test_three_clocks(self):
        ta = parse_ta(json.dumps(three_clock_ta_data()))
        rq = build_region_quotient(ta)
        assert len(ta.clocks) == 3
        assert len(set(rq.model.obs)) == 3
        assert_region_equivalence(ta, rq, random.Random(23), pairs_per_class=2)


@pytest.fixture(scope="module")
def reference_cases():
    return [(ta, reference_region_quotient(ta)) for ta in reference_automata()]


class TestExplorerAgainstReference:
    """The explorer with per-location edge tables and compiled guards
    against the one that scans every edge and evaluates nested guards."""

    def test_same_quotient_and_regions(self, reference_cases):
        assert len(reference_cases) == 805
        for ta, expected in reference_cases:
            rq = build_region_quotient(ta)
            assert rq.model == expected.model
            assert rq.class_regions == expected.class_regions
            # A fractional clock sits below its ceiling, as the time step assumes.
            assert all(region.ints[i] < ta.ceilings[i] for _, region in rq.class_regions
                       for group in region.groups for i in group)

    def test_regions_are_named_tuples(self, reference_cases):
        _, expected = reference_cases[-3]  # kclock_ta(3, 4)
        assert len(expected.class_regions) == 1992
        for _, region in build_region_quotient(reference_cases[-3][0]).class_regions:
            assert type(region) is Region
            assert region == (region.ints, region.zero, region.groups)
            assert hash(region) == hash((region.ints, region.zero, region.groups))

    def test_empty_reset_keeps_the_region(self):
        region = Region((1, 0), (1,), ((0,),))
        assert reset_region(region, frozenset()) is region
        assert _reset(region_key(3, region), 3, (), 2) == region_key(3, region)

    def test_quotient_holds_one_model(self):
        """The explorer's nodes are flat tuples of ints and its rows are
        dropped as they are split into edges and time pairs, so the build
        peaks below the decoded document of the model it returns."""
        ta = kclock_ta_34()
        text = dumps_model(region_quotient(ta))
        assert peak_per_document(text, region_quotient, ta) <= 1.0

    def test_region_quotient_builds_no_region(self, monkeypatch):
        ta = kclock_ta_34()
        expected = dumps_model(region_quotient(ta))

        def no_region(*args):
            raise AssertionError("Region built")

        monkeypatch.setattr(Region, "__new__", no_region)
        assert dumps_model(region_quotient(ta)) == expected
        with pytest.raises(AssertionError, match="Region built"):
            build_region_quotient(ta)


# Ceilings whose every region the flat steps are checked on: no clock, one
# to three clocks, and ceilings 0 (a clock at 0 or past it) to 3.
STEP_CEILINGS = [(), (0,), (2,), (0, 1), (2, 1), (1, 1, 1), (2, 0, 1), (1, 2, 1)]


class TestFlatSteps:
    """The explorer's time step and reset on flat keys against the Region
    reference in ``tests/helpers.py``, on every region of small ceilings
    and every subset of clocks reset."""

    def test_keys_round_trip(self):
        for ceilings in STEP_CEILINGS:
            seen = set()
            for region in all_regions(ceilings):
                key = region_key(5, region)
                assert len(key) == 1 + 2 * len(ceilings)
                assert key[0] == 5 and key_region(key, ceilings) == region
                seen.add(key)
            assert len(seen) == len(list(all_regions(ceilings)))

    def test_time_step(self):
        divergent = 0
        for ceilings in STEP_CEILINGS:
            for region in all_regions(ceilings):
                expected = time_successor(region, ceilings)
                step = _time_step(region_key(2, region), ceilings)
                if expected is None:
                    assert step is None, region
                    divergent += 1
                else:
                    assert step == region_key(2, expected), region
        assert _time_step((4,), ()) is None  # no clock: time diverges at once
        assert divergent == len(STEP_CEILINGS)  # every clock past its ceiling

    def test_every_reset(self):
        emptied = gaps = 0
        for ceilings in STEP_CEILINGS:
            k = len(ceilings)
            subsets = [s for n in range(k + 1) for s in itertools.combinations(range(k), n)]
            for region in all_regions(ceilings):
                key = region_key(0, region)
                for reset in subsets:
                    expected = reset_region(region, frozenset(reset))
                    assert _reset(key, 1, reset, k) == region_key(1, expected), (region, reset)
                    kept = [not set(group) <= set(reset) for group in region.groups]
                    emptied += False in kept
                    # a group below a kept one emptied: the ranks above it move down
                    gaps += any(not kept[j] and any(kept[j + 1:]) for j in range(len(kept)))
        assert emptied > 100 and gaps > 20, (emptied, gaps)

    def test_position_keys_are_the_position_regions(self):
        for ceilings in STEP_CEILINGS:
            keys = list(position_keys(ceilings))
            assert [key_region(key, ceilings) for key in keys] == list(position_regions(ceilings))
            assert [region_key(0, r) for r in position_regions(ceilings)] == keys


@pytest.mark.parametrize("chunk", range(4))
def test_compiled_constraints_decide_as_atom_holds(chunk):
    """Each guard, invariant and observation cell, compiled to one test of
    a flat key, holds exactly where ``pred_holds`` decides it atom by atom
    with ``atom_holds`` on the key's Region: on every combination of clock
    positions of 400 random automata, and of every atom over two clocks
    with constants 0..3."""
    atoms = [("atom", x, op, b) for x in ("x", "y") for op in OPS for b in range(4)]
    every = [("and", atom) for atom in atoms] + [("and", *atoms[::7]), ("and",)]
    cases = [({"x": 0, "y": 1}, (3, 3), every)] if chunk == 0 else []
    for ta in map(random_ta, range(chunk * 100, chunk * 100 + 100)):
        preds = [loc.invariant for loc in ta.locations] + [e.guard for e in ta.edges]
        cells = [spec.pred for spec in ta.observation]
        cases.append((ta._clock_index, ta.ceilings, preds + cells))
    checked = 0
    for index, ceilings, preds in cases:
        for pred in preds:
            test = _compile(pred, index, len(ceilings))
            for key in position_keys(ceilings):
                expected = pred_holds(pred, key_region(key, ceilings), index)
                assert test(key) is expected, (pred, key)
                checked += 1
    assert checked > 5_000
