"""Tests for the quotient model: validation, closures, file format."""

import itertools
import json
import random
import re
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
from hydiag.regions import load_ta, parse_ta, region_quotient

from .conftest import FIXTURES
from .helpers import FAULT, HIDDEN, TICK, fresh_copy, make_model, q1_model, q2_model
from .helpers import external_targets, kclock_ta_34, random_progressive_ta, recorded_quotients
from .helpers import benchmark_families, legacy_model_data, peak_per_document
from .helpers import reference_adjacency, reference_dumps_model, spelled_as_objects
from .helpers import divergent_classes, silent_closures


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

    def test_per_class_accessors(self):
        # Class 1 is time-divergent and has a time successor besides itself.
        model = make_model(
            [(False, True, 0), (False, False, 1), (False, False, 0), (True, False, 1)],
            [(1, "tick", 0), (1, "h", 2), (1, "tick", 2), (1, "f", 3), (0, "f", 3),
             (2, "f", 3), (3, "tick", 3)],
            time=[(1, 2), (1, 1), (0, 1)],
            actions=(TICK, FAULT, HIDDEN),
        )
        assert model.discrete_edges_from(1) == ((FAULT, 3), (HIDDEN, 2), (TICK, 0), (TICK, 2))
        assert model.discrete_edges_from(0) == ((FAULT, 3),)
        assert model.proper_time_successors(1) == (2,)  # the class itself left out
        assert model.proper_time_successors(0) == (1,)
        assert model.proper_time_successors(3) == ()
        assert model.external_edges_from(1, TICK) == (0, 2)
        assert model.external_edges_from(3, TICK) == (3,)
        assert model.external_edges_from(0, TICK) == ()
        assert (1, 1) in model.time

    def test_rows_match_a_scan_per_action(self):
        """A class's rows, filled in one pass over its silent closure, are
        the sorted ``(dst, obs)`` lists that one scan of the closure per
        external action gives, on small models and on one whose targets do
        not iterate in order from a set."""
        rows = 0
        for model in [*random_models(300, 0), region_quotient(kclock_ta_34())]:
            moves = external_moves(model)
            for c in range(len(model.obs)):
                closure = unobservable_closure(model, (c,))
                for a in model.external_actions:
                    expected = sorted({
                        (d, model.obs[d])
                        for mid in closure
                        for label, d in model.discrete_edges_from(mid)
                        if label.name == a.name
                    })
                    assert moves[(c, a.name)] == expected, (c, a)
                    assert type(moves[(c, a.name)]) is list
                    rows += bool(expected)
        assert rows > 5_000

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
        assert model._disc[0] == ((FAULT, 1), (TICK, 0))
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
        odd_inputs = (
            [ClassInfo(i, i >= 4, i < 4, 0) for i in range(6)],
            (TICK, FAULT, HIDDEN, hidden2),
            [(0, "h", 3), (0, "h", 1), (0, "g", 2), (0, "g", 3), (0, "f", 5), (1, "h", 2),
             (1, "g", 1), (1, "f", 4), (2, "f", 4), (3, "f", 5), (0, "tick", 2),
             (0, "tick", 1), (4, "tick", 5), (5, "tick", 4)],
            [(0, 2), (0, 0), (3, 1), (3, 2), (5, 4)],
        )
        odd = QuotientModel(*odd_inputs)
        for model, inputs in [(odd, odd_inputs), *recorded_models(ta1)]:
            rows = (silent_closures(model), external_targets(model), model._disc, model._tsucc)
            assert rows == reference_adjacency(*inputs)[:4]
        assert silent_closures(odd)[:2] == ({0, 1, 2, 3, 4, 5}, {1, 2, 4})
        # The time self-pair stays in its class's row.
        assert odd._tsucc[:2] == ((0, 2), ())

    def test_the_relation_is_stored_once(self, ta1):
        for model, inputs in recorded_models(ta1):
            derived = {"edges", "time", "classes", "_ext", "_silent", "divergent"}
            assert not derived & vars(model).keys()
            _, ext, _, _, classes, edges, time = reference_adjacency(*inputs)
            assert (model.classes, model.edges, model.time) == (classes, edges, time)
            assert external_targets(model) == ext

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
        assert divergent_classes(model) == set()

    def test_explicit_self_loop_marks_divergence(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "f", 1), (0, "tick", 0), (1, "tick", 1)],
            time=[(1, 1)],
        )
        assert divergent_classes(model) == {1}

    # Edges and time pairs may come as any iterable, read once.
    ROW_FORMS = {
        "list": list,
        "tuple": tuple,
        "generator": lambda rows: (row for row in rows),
        "iterator": lambda rows: iter(list(rows)),
    }

    def test_every_form_of_rows_builds_one_model(self, ta1):
        models = [q1_model(), q2_model(), region_quotient(ta1), region_quotient(kclock_ta_34())]
        for model in models:
            moves = [(c, a.name) for c in range(len(model.classes)) for a in model.external_actions]
            # Rows as a file holds them, and as labelled tuples in reverse.
            file_rows = ([[s, a.name, d] for s, a, d in model.edges],
                         [[s, d] for s, d in sorted(model.time)])
            tuple_rows = (model.edges[::-1], sorted(model.time, reverse=True))
            for (edges, time), (name, form) in itertools.product(
                    (file_rows, tuple_rows), self.ROW_FORMS.items()):
                built = QuotientModel(model.classes, model.actions, form(edges), form(time))
                assert built == model, name
                assert divergent_classes(built) == divergent_classes(model), name
                assert (built._disc, built._tsucc) == (model._disc, model._tsucc), name
                assert silent_closures(built) == silent_closures(model), name
                assert ([external_moves(built)[key] for key in moves]
                        == [external_moves(model)[key] for key in moves]), name

    @pytest.mark.parametrize("bad, message", [
        ("edge", "edge (0, 'tick', 9) out of range"),
        ("action", "edge action 'zap' is not a declared action"),
        ("time", "time edge (9, 0) out of range"),
    ])
    def test_a_bad_row_is_rejected_alike_in_every_form(self, ta1, bad, message):
        model = region_quotient(ta1)
        row = {"edge": [0, "tick", 9], "action": [0, "zap", 0], "time": [9, 0]}[bad]
        edges = [[s, a.name, d] for s, a, d in model.edges]
        time = [[s, d] for s, d in sorted(model.time)]
        rows = time if bad == "time" else edges
        assert len(model.classes) < 9 and len(rows) > 2
        for at in (0, len(rows) // 2, len(rows)):
            rows.insert(at, row)
            for name, form in self.ROW_FORMS.items():
                with pytest.raises(ValueError) as e:
                    QuotientModel(model.classes, model.actions, form(edges), form(time))
                assert str(e.value) == message, (name, at)
            del rows[at]


def recorded_models(ta1):
    """The fixtures, 30 region quotients and ``random_models(100, 0)``,
    each with its constructor's inputs."""
    return recorded_quotients(lambda: [
        *(load_model(FIXTURES / f) for f in ("q1.quot.json", "q2.quot.json", "bad-d1.quot.json")),
        region_quotient(ta1),
        *random_models(100, 0),
        *(region_quotient(random_progressive_ta(seed)) for seed in range(30)),
    ])


class TestPeakMemory:
    """A loader drops what it has read before it builds the next
    structure, and the model stores its relation once, so loading peaks
    near the decoded document it reads."""

    def test_loads_model_holds_one_model(self):
        text = dumps_model(region_quotient(kclock_ta_34()))
        assert peak_per_document(text, loads_model, text) <= 1.5


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
        assert divergent_classes(again) == {1}
        assert again == model

    def test_unknown_top_level_key_rejected(self, q1):
        data = written(q1)
        data["extra"] = []
        with pytest.raises(ModelFormatError, match="unknown keys"):
            loads_model(json.dumps(data))

    def test_unknown_class_key_rejected(self, q1):
        for data in (written(q1), legacy_model_data(written(q1))):
            data = spelled_as_objects(data, lambda i: i == 0)
            data["classes"][0]["color"] = "red"
            with pytest.raises(ModelFormatError, match="unknown keys"):
                loads_model(json.dumps(data))

    def test_missing_key_rejected(self, q1):
        data = legacy_model_data(written(q1))
        del data["time"]
        with pytest.raises(ModelFormatError, match=re.escape("missing keys: ['time']")):
            loads_model(json.dumps(data))
        data = written(q1)
        del data["actions"]
        with pytest.raises(ModelFormatError, match=re.escape("missing keys: ['actions']")):
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
        with pytest.raises(ModelFormatError, match="exactly one fault action required, got 2"):
            loads_model('{"classes": [[false, true, 0, [], []]], '
                        '"actions": [["f", "fault"], ["g", "fault"]]}')

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
        data = written(q1)
        if field in ("edges", "time"):
            data = legacy_model_data(data)
        data[field] = value
        with pytest.raises(ModelFormatError, match=f"{field} must be a list"):
            loads_model(json.dumps(data))

    @pytest.mark.parametrize("field", ["classes", "actions", "edges", "time"])
    def test_non_object_entry_rejected(self, q1, field):
        data = written(q1)
        if field in ("edges", "time"):
            data = legacy_model_data(data)
        data[field] = [5]
        with pytest.raises(ModelFormatError, match="must be an object"):
            loads_model(json.dumps(data))


def written(model):
    """The data of ``model``'s file."""
    return json.loads(dumps_model(model))


def file_models():
    """The fixtures, ``random_models(300, s)`` for s in 0 and 1, and the
    benchmark's ``kclock_ta(3, 4)`` and ``leak_ta(100)`` quotients."""
    families = benchmark_families()
    return [
        *(load_model(FIXTURES / f"{name}.quot.json") for name in ("q1", "q2", "bad-d1")),
        *(region_quotient(load_ta(FIXTURES / f"{name}.ta.json")) for name in ("ta1", "kclock2")),
        *random_models(300, 0),
        *random_models(300, 1),
        region_quotient(kclock_ta_34()),
        region_quotient(parse_ta(json.dumps(families.leak_ta(100)))),
    ]


class TestClassRows:
    """A quotient file holds one row per class, ``[faulty, initial, obs,
    [[action, dst], ...], [dst, ...]]``; the layout earlier versions wrote,
    global ``edges`` and ``time`` lists, still loads."""

    @pytest.fixture(scope="class")
    def models(self):
        return file_models()

    def test_written_files_load_back_equal(self, models):
        for model in models:
            text = dumps_model(model)
            assert text == reference_dumps_model(model)
            assert loads_model(text) == model

    def test_earlier_layouts_load_equal(self, models):
        """The same model laid out with global edges and time lists, with
        array rows as the previous version wrote them and with object rows
        as earlier ones did, loads equal."""
        for model in models:
            legacy = legacy_model_data(written(model))
            for data in (legacy, spelled_as_objects(legacy)):
                assert loads_model(json.dumps(data)) == model

    def test_unsorted_rows_load_as_the_constructor_builds_them(self, models):
        """A class row whose pairs come out of order, or repeat, loads to
        the model the constructor builds from the same pairs in the same
        order, as global lists."""
        rng = random.Random(0)
        for model in models[:40] + models[-2:]:
            data = written(model)
            for row in data["classes"]:
                for pairs in row[3:]:
                    pairs += rng.sample(pairs, len(pairs) // 2)
                    rng.shuffle(pairs)
            legacy = legacy_model_data(data)
            assert loads_model(json.dumps(data)) == loads_model(json.dumps(legacy)) == model

    @pytest.mark.parametrize("field, value, message", [
        (None, [False, False, 1, []], "classes[1] must have 5 values, got 4"),
        (0, 1, "classes[1].faulty must be a boolean, got int"),
        (1, "no", "classes[1].initial must be a boolean, got str"),
        (2, 1.0, "classes[1].obs must be an integer, got float"),
        (3, {}, "classes[1].edges must be a list, got dict"),
        (4, None, "classes[1].time must be a list, got NoneType"),
        (3, [["tick"]],
         "classes[1].edges[0] must be a list [action, dst] of a string and an integer"),
        (3, [[0, "tick"]],
         "classes[1].edges[0] must be a list [action, dst] of a string and an integer"),
        (3, [["tick", 0], {"action": "tick", "dst": 0}],
         "classes[1].edges[1] must be a list [action, dst] of a string and an integer"),
        (4, [0, True], "classes[1].time[1] must be an integer, got bool"),
        (3, [["zap", 0]], "classes[1].edges[0]: action 'zap' is not a declared action"),
        (3, [["tick", 4]], "classes[1].edges[0] out of range"),
        (3, [["tick", 0], ["tick", -1]], "classes[1].edges[1] out of range"),
        (4, [4], "classes[1].time[0] out of range"),
    ], ids=["width", "faulty", "initial", "obs", "edges", "time", "edge-short", "edge-types",
            "edge-object", "time-type", "undeclared", "edge-range", "edge-negative", "time-range"])
    def test_a_bad_class_row_is_named(self, q1, field, value, message):
        """Each check names the first bad row: the same value in a later
        row is not reported."""
        data = written(q1)
        for row in (3, 1):
            if field is None:
                data["classes"][row] = value
            else:
                data["classes"][row][field] = value
        with pytest.raises(ModelFormatError) as info:
            loads_model(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("extra", [{"edges": [], "time": []},
                                       {"edges": [[0, "tick", 1]], "time": [[0, 0]]}])
    def test_global_lists_beside_class_rows_are_named(self, q1, extra):
        """A document with ``edges`` or ``time`` is laid out as earlier
        versions wrote it, so its class rows must be the four values of
        that layout."""
        with pytest.raises(ModelFormatError) as info:
            loads_model(json.dumps({**written(q1), **extra}))
        assert str(info.value) == "classes[0] must have 4 values, got 5"
