"""Tests for the quotient model: validation, closures, file format."""

import sys
import threading

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.errors import ModelFormatError
from hydiag.oracle import random_models
from hydiag.quotient import (
    ActionLabel,
    ClassInfo,
    Kind,
    QuotientModel,
    dumps_model,
    external_moves,
    load_model,
    loads_model,
    unobservable_closure,
    validate_model,
)
from hydiag.regions import load_ta, region_quotient

from .conftest import FIXTURES
from .helpers import FAULT, HIDDEN, TICK, fresh_copy, make_model, q1_model, q2_model
from .helpers import random_progressive_ta, reference_adjacency, spelled_as_objects


def rules_of(report):
    return sorted({v.rule for v in report.violations})


class TestValidation:
    def test_q1_is_valid(self, q1):
        report = validate_model(q1)
        assert report.ok
        assert report.violations == ()

    def test_fixture_models_match_builders(self, q1, q2):
        assert q1 == q1_model()
        assert q2 == q2_model()

    def test_missing_fault_edge_is_d1(self):
        model = make_model(
            [(False, True, 0), (False, False, 1), (True, False, 0), (True, False, 1)],
            [
                (0, "tick", 1),
                (1, "tick", 0),
                (0, "f", 2),
                (2, "tick", 2),
                (3, "tick", 3),
            ],
        )
        report = validate_model(model)
        assert not report.ok
        assert rules_of(report) == ["D1"]
        assert report.violations[0].subject == 1

    def test_flag_flipping_edge_is_d3(self):
        base = q1_model()
        model = make_model(
            [(c.faulty, c.initial, c.obs) for c in base.classes],
            [(s, a.name, d) for s, a, d in base.edges] + [(2, "tick", 0)],
        )
        report = validate_model(model)
        assert rules_of(report) == ["D3"]
        assert report.violations[0].subject == (2, "tick", 0)

    def test_fault_edge_from_faulty_is_d2(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "f", 1), (1, "tick", 1)],
        )
        assert rules_of(validate_model(model)) == ["D2"]

    def test_time_edge_changing_flag_is_t1(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
            time=[(0, 1)],
        )
        assert rules_of(validate_model(model)) == ["T1"]

    def test_faulty_initial_class(self):
        model = make_model(
            [(False, True, 0), (True, True, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
        )
        assert "InitNonFaulty" in rules_of(validate_model(model))

    def test_no_initial_class(self):
        model = make_model(
            [(False, False, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
        )
        assert "Nonempty" in rules_of(validate_model(model))

    def test_negative_observable_is_obs_total(self):
        model = make_model(
            [(False, True, -1), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
        )
        assert "ObsTotal" in rules_of(validate_model(model))

    def test_validation_is_deterministic(self, q2):
        model = make_model(
            [(False, True, 0), (True, True, 0)],
            [(0, "f", 1)],
            time=[(0, 1)],
        )
        assert validate_model(model) == validate_model(model)
        assert validate_model(q2) == validate_model(q2)


class TestClosure:
    def test_closure_follows_fault_edge(self, q1):
        assert unobservable_closure(q1, {0}) == {0, 2}

    def test_closure_of_empty_set(self, q1):
        assert unobservable_closure(q1, set()) == frozenset()

    def test_closure_of_faulty_class_is_itself(self, q1):
        assert unobservable_closure(q1, {3}) == {3}

    def test_closure_follows_time_and_internal_edges(self):
        model = make_model(
            [(False, True, 0), (False, False, 0), (False, False, 0), (True, False, 0)],
            [(0, "h", 1), (0, "f", 3), (1, "f", 3), (2, "f", 3), (0, "tick", 0), (3, "tick", 3), (1, "tick", 1), (2, "tick", 2)],
            time=[(1, 2)],
            actions=(TICK, FAULT, HIDDEN),
        )
        assert unobservable_closure(model, {0}) == {0, 1, 2, 3}


@st.composite
def model_and_subsets(draw):
    from hydiag.oracle import random_model

    model = random_model(draw(st.integers(0, 10**6)))
    n = len(model.classes)
    small = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    big = small | frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return model, small, big


class TestClosureProperties:
    @given(data=model_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_monotone_idempotent_extensive(self, data):
        model, small, big = data
        cl_small = unobservable_closure(model, small)
        cl_big = unobservable_closure(model, big)
        assert small <= cl_small
        assert cl_small <= cl_big
        assert unobservable_closure(model, cl_small) == cl_small

    @given(data=model_and_subsets())
    @settings(max_examples=60, deadline=None)
    def test_faulty_seeds_have_faulty_successors(self, data):
        model, small, _ = data
        moves = external_moves(model)
        for c in small:
            if model.faulty[c]:
                for action in model.external_actions:
                    assert all(model.faulty[d] for d, _ in moves[(c, action.name)])


class TestExternalSuccessors:
    def test_tick_into_o1(self, q1):
        moves = external_moves(q1)[(0, "tick")]
        assert [c for c, obs in moves if obs == 1] == [1]

    def test_tick_into_o0_reveals_fault(self, q1):
        moves = external_moves(q1)[(0, "tick")]
        assert [c for c, obs in moves if obs == 0] == [2]

    # The table is filled once per model and kept, and the session's q1
    # is shared by every test, so the tests of an empty table build their
    # own q1.
    def test_empty_seed(self):
        assert external_moves(q1_model()) == {}

    @pytest.mark.parametrize("key", [(0, "f"), (0, "nope"), (-1, "tick"), (4, "tick")])
    def test_bad_keys_raise_key_error(self, key):
        moves = external_moves(q1_model())
        with pytest.raises(KeyError):
            moves[key]
        assert moves == {}

    def test_one_table_per_model(self):
        model = q1_model()
        moves = external_moves(model)
        assert external_moves(model) is moves
        rows = moves[(0, "tick")]
        assert external_moves(model)[(0, "tick")] is rows
        assert external_moves(q1_model()) is not moves

    def test_racing_fills_agree(self, ta1):
        # Threads that share a model fill its one table concurrently; each
        # fill computes the same rows, so every thread reads the rows a
        # table filled alone holds.
        model = region_quotient(ta1)
        keys = [(c, a.name) for c in range(len(model.classes)) for a in model.external_actions]
        expected = {key: external_moves(fresh_copy(model))[key] for key in keys}
        moves = external_moves(model)
        seen = []

        def fill(order):
            seen.append({key: moves[key] for key in order})

        threads = [
            threading.Thread(target=fill, args=(keys[::step],)) for step in (1, -1, 2, -2, 3, -3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == len(threads)
        for rows in seen:
            assert rows == {key: expected[key] for key in rows}
        assert moves == expected


class TestConstruction:
    def test_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            QuotientModel(
                [ClassInfo(1, False, True, 0)], (TICK, FAULT), [], []
            )

    def test_exactly_one_fault_action(self):
        with pytest.raises(ValueError):
            QuotientModel([ClassInfo(0, False, True, 0)], (TICK,), [], [])
        with pytest.raises(ValueError):
            QuotientModel(
                [ClassInfo(0, False, True, 0)],
                (TICK, FAULT, ActionLabel("g", Kind.FAULT)),
                [],
                [],
            )

    def test_duplicate_action_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate action name 'tick'"):
            QuotientModel(
                [ClassInfo(0, False, True, 0)],
                (TICK, FAULT, ActionLabel("tick", Kind.INTERNAL)),
                [],
                [],
            )

    def test_unknown_edge_action_rejected(self):
        with pytest.raises(ValueError):
            make_model([(False, True, 0)], [(0, "zap", 0)])

    def test_edge_label_must_equal_the_declared_one(self):
        classes = [(False, True, 0), (True, False, 0)]
        model = make_model(classes, [(0, FAULT, 1), (0, ActionLabel("tick", Kind.EXTERNAL), 0)])
        assert model.discrete_edges_from(0) == ((FAULT, 1), (TICK, 0))
        with pytest.raises(ValueError, match="'tick' is not a declared action"):
            make_model(classes, [(0, ActionLabel("tick", Kind.INTERNAL), 0)])

    def test_edges_sort_by_source_action_name_target(self, ta1):
        def keyed(edges):
            return tuple(sorted(edges, key=lambda e: (e[0], e[1].name, e[2])))

        def renamed(model):
            # Names in reverse alphabetical order of declaration, so sorting
            # by name differs from sorting by declaration.
            name = {a.name: chr(ord("z") - i) for i, a in enumerate(model.actions)}
            actions = [ActionLabel(name[a.name], a.kind) for a in model.actions]
            edges = [(s, name[a.name], d) for s, a, d in reversed(model.edges)]
            return QuotientModel(model.classes, actions, edges, model.time)

        models = [
            *(load_model(FIXTURES / f) for f in ("q1.quot.json", "q2.quot.json",
                                                 "bad-d1.quot.json")),
            region_quotient(ta1),
            region_quotient(load_ta(FIXTURES / "kclock2.ta.json")),
            *random_models(100, 0),
            *random_models(100, 1),
        ]
        for model in models:
            assert model.edges == keyed(model.edges)
            other = renamed(model)
            assert other.edges == keyed(other.edges)
        # q1 declares tick ("z") before f ("y"): class 0's fault edge sorts first.
        assert [(a.name, d) for s, a, d in renamed(models[0]).edges if s == 0] == [
            ("y", 2), ("z", 1)]

    def test_adjacency_equals_the_per_class_sets(self, ta1):
        # Class 0 has two silent actions whose targets interleave, one
        # shared, and time successors; class 1 has silent edges only.
        hidden2 = ActionLabel("g", Kind.INTERNAL)
        odd = make_model(
            [(False, True, 0)] * 4 + [(True, False, 0)] * 2,
            [(0, "h", 3), (0, "h", 1), (0, "g", 2), (0, "g", 3), (0, "f", 5), (1, "h", 2),
             (1, "g", 1), (1, "f", 4), (2, "f", 4), (3, "f", 5), (0, "tick", 2),
             (0, "tick", 1), (4, "tick", 5), (5, "tick", 4)],
            time=[(0, 2), (0, 0), (3, 1), (3, 2), (5, 4)],
            actions=(TICK, FAULT, HIDDEN, hidden2),
        )
        models = [odd, region_quotient(ta1), *random_models(100, 0),
                  *(region_quotient(random_progressive_ta(seed)) for seed in range(30))]
        for model in models:
            cached = (model._silent, model._ext, model._disc, model._tsucc)
            assert cached == reference_adjacency(model)
        assert odd._silent[:2] == ((1, 2, 3, 5), (1, 2, 4))

    def test_time_edges_closed_at_construction(self):
        model = make_model(
            [(False, True, 0), (False, False, 0), (False, False, 0), (True, False, 0)],
            [(0, "f", 3), (1, "f", 3), (2, "f", 3), (0, "tick", 0), (1, "tick", 1), (2, "tick", 2), (3, "tick", 3)],
            time=[(0, 1), (1, 2)],
        )
        # Time is stored as declared; its closure still reaches as before.
        assert model.time == {(0, 1), (1, 2)}
        flow = nx.DiGraph()
        flow.add_nodes_from(range(4))
        flow.add_edges_from(model.time)
        closure = set(nx.transitive_closure(flow, reflexive=True).edges)
        assert (0, 2) in closure
        assert all((c, c) in closure for c in range(4))
        assert unobservable_closure(model, {0}) >= {0, 1, 2}
        assert model.divergent == frozenset()

    def test_explicit_self_loop_marks_divergence(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "f", 1), (0, "tick", 0), (1, "tick", 1)],
            time=[(1, 1)],
        )
        assert model.divergent == {1}


class TestFileFormat:
    def test_round_trip(self, q1):
        assert loads_model(dumps_model(q1)) == q1

    def test_round_trip_preserves_divergence(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "f", 1), (0, "tick", 0), (1, "tick", 1)],
            time=[(1, 1)],
        )
        again = loads_model(dumps_model(model))
        assert again.divergent == {1}
        assert again == model

    def test_unknown_top_level_key_rejected(self, q1):
        import json

        data = json.loads(dumps_model(q1))
        data["extra"] = []
        with pytest.raises(ModelFormatError, match="unknown keys"):
            loads_model(json.dumps(data))

    def test_unknown_class_key_rejected(self, q1):
        import json

        data = spelled_as_objects(json.loads(dumps_model(q1)), lambda i: i == 0)
        data["classes"][0]["color"] = "red"
        with pytest.raises(ModelFormatError, match="unknown keys"):
            loads_model(json.dumps(data))

    def test_missing_key_rejected(self, q1):
        import json

        data = json.loads(dumps_model(q1))
        del data["time"]
        with pytest.raises(ModelFormatError, match="missing keys"):
            loads_model(json.dumps(data))

    def test_bad_json_reports_position(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            loads_model("{nope")

    def test_two_fault_actions_rejected(self):
        text = """
        {"classes": [{"id": 0, "faulty": false, "initial": true, "obs": 0}],
         "actions": [{"name": "f", "kind": "fault"}, {"name": "g", "kind": "fault"}],
         "edges": [], "time": []}
        """
        with pytest.raises(ModelFormatError, match="fault"):
            loads_model(text)

    def test_edge_out_of_range_rejected(self):
        text = """
        {"classes": [{"id": 0, "faulty": false, "initial": true, "obs": 0}],
         "actions": [{"name": "tick", "kind": "external"}, {"name": "f", "kind": "fault"}],
         "edges": [{"src": 0, "action": "tick", "dst": 5}], "time": []}
        """
        with pytest.raises(ModelFormatError, match="out of range"):
            loads_model(text)

    @pytest.mark.parametrize("field", ["classes", "actions", "edges", "time"])
    @pytest.mark.parametrize("value", [5, "abc", {"0": {}}, None])
    def test_non_list_field_rejected(self, q1, field, value):
        import json

        data = json.loads(dumps_model(q1))
        data[field] = value
        with pytest.raises(ModelFormatError, match=f"{field} must be a list"):
            loads_model(json.dumps(data))

    @pytest.mark.parametrize("field", ["classes", "actions", "edges", "time"])
    def test_non_object_entry_rejected(self, q1, field):
        import json

        data = json.loads(dumps_model(q1))
        data[field] = [5]
        with pytest.raises(ModelFormatError, match="must be an object"):
            loads_model(json.dumps(data))
