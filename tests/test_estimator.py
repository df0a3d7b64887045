"""Tests for the subset-construction state estimator."""

import json
import random

import pytest

from hydiag import estimator
from hydiag.diagnoser import dumps_diagnoser
from hydiag.errors import CapExceeded
from hydiag.estimator import (
    Classification,
    build_estimator,
    classify,
    estimate_walker,
    initial_estimates,
    walk,
)
from hydiag.oracle import enumerate_utraces, random_models
from hydiag.quotient import ClassInfo, QuotientModel, UTrace, external_moves, loads_model
from hydiag.regions import parse_ta, region_quotient

from .helpers import (
    benchmark_families,
    estimator_trace_map,
    make_model,
    nx_observed_step,
    q2_model,
    random_progressive_ta,
    record_expansions,
    reference_build_estimator,
)


def _family_model(name, *args):
    """The region quotient of a benchmark model family."""
    return region_quotient(parse_ta(json.dumps(getattr(benchmark_families(), name)(*args))))


def _chain_model(k):
    """The benchmark's mimic chain of ``k`` links: ``k + 3`` classes."""
    return loads_model(json.dumps(benchmark_families().chain_quot(k)))


def _spread_observables(model):
    """``model`` with observable o renumbered 7 * (top - o): sparse ids,
    in the reverse of their order."""
    top = max(model.obs)
    classes = [ClassInfo(c.id, c.faulty, c.initial, 7 * (top - c.obs)) for c in model.classes]
    return QuotientModel(classes, model.actions, model.edges, model.time)


@pytest.fixture
def row_lookups(monkeypatch):
    """The keys the estimator looks up in ``external_moves`` from now on."""
    lookups = []

    class Counted:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, key):
            lookups.append(key)
            return self.table[key]

    monkeypatch.setattr(estimator, "external_moves", lambda m: Counted(external_moves(m)))
    return lookups


class TestInitialEstimates:
    def test_q1_single_initial_cell(self, q1):
        estimates = initial_estimates(q1)
        assert set(estimates) == {0}
        assert estimates[0].members == (0,)
        assert estimates[0].classification is Classification.NONFAULTY

    def test_initials_split_by_observable(self):
        model = make_model(
            [(False, True, 0), (False, True, 1), (True, False, 0)],
            [(0, "f", 2), (1, "f", 2), (0, "tick", 1), (1, "tick", 0), (2, "tick", 2)],
        )
        estimates = initial_estimates(model)
        assert {obs: st.members for obs, st in estimates.items()} == {0: (0,), 1: (1,)}

    def test_initials_in_one_cell_share_a_state(self):
        model = make_model(
            [(False, True, 0), (False, True, 0), (True, False, 0)],
            [(0, "f", 2), (1, "f", 2), (0, "tick", 1), (1, "tick", 0), (2, "tick", 2)],
        )
        estimates = initial_estimates(model)
        assert {obs: st.members for obs, st in estimates.items()} == {0: (0, 1)}


class TestDelta:
    def test_q1_step_stays_nonfaulty(self, q1):
        est = build_estimator(q1)
        nxt = est.states[est.transitions[(est.initials[0], "tick", 1)]]
        assert nxt.members == (1,)
        assert nxt.classification is Classification.NONFAULTY

    def test_q2_step_is_indeterminate(self, q2):
        est = build_estimator(q2)
        nxt = est.states[est.transitions[(est.initials[0], "tick", 1)]]
        assert nxt.members == (1, 3)
        assert nxt.classification is Classification.INDETERMINATE

    def test_inconsistent_observation_gives_none(self, q1):
        est = build_estimator(q1)
        faulty = next(sid for sid, s in enumerate(est.states) if s.members == (2,))
        assert (faulty, "tick", 0) in est.transitions
        assert (faulty, "tick", 1) not in est.transitions

    def test_walk_lists_the_states_a_trace_passes(self, q1):
        est = build_estimator(q1)
        ids = walk(est, 0, [("tick", 1), ("tick", 0), ("tick", 0)])
        assert [est.states[sid].members for sid in ids] == [(0,), (1,), (0,), (2,)]
        assert walk(est, 0, []) == [est.initials[0]]
        assert walk(est, 1, []) is None  # no initial class is in o1
        assert walk(est, 0, [("tick", 0), ("tick", 1)]) is None  # a fault holds o0


class TestClassify:
    def test_all_faulty(self, q1):
        assert classify((2, 3), q1) is Classification.FAULTY

    def test_all_nonfaulty(self, q1):
        assert classify((0,), q1) is Classification.NONFAULTY

    def test_mixed(self, q1):
        assert classify((1, 3), q1) is Classification.INDETERMINATE

    def test_empty_rejected(self, q1):
        with pytest.raises(ValueError):
            classify((), q1)


class TestBuild:
    def test_q1_golden_graph(self, q1):
        est = build_estimator(q1)
        assert [(s.members, s.classification.value) for s in est.states] == [
            ((0,), "nonfaulty"),
            ((2,), "faulty"),
            ((1,), "nonfaulty"),
            ((3,), "faulty"),
        ]
        assert est.initials == {0: 0}
        assert est.transitions == {
            (0, "tick", 0): 1,
            (0, "tick", 1): 2,
            (1, "tick", 0): 1,
            (2, "tick", 0): 0,
            (2, "tick", 1): 3,
            (3, "tick", 1): 3,
        }

    def test_q2_indeterminate_cycle(self, q2):
        est = build_estimator(q2)
        members = {s.members for s in est.states}
        assert (1, 3) in members and (0, 2) in members
        a = next(i for i, s in enumerate(est.states) if s.members == (1, 3))
        b = next(i for i, s in enumerate(est.states) if s.members == (0, 2))
        assert est.states[a].classification is Classification.INDETERMINATE
        assert est.states[b].classification is Classification.INDETERMINATE
        assert est.transitions[(a, "tick", 0)] == b
        assert est.transitions[(b, "tick", 1)] == a

    def test_no_external_actions_gives_initials_only(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "f", 1)],
            actions=(
                q2_model().fault_action,
            ),
        )
        est = build_estimator(model)
        assert len(est.states) == 1
        assert est.transitions == {}

    def test_state_cap(self, q2, monkeypatch):
        monkeypatch.setattr("hydiag.estimator.DEFAULT_MAX_STATES", 2)
        with pytest.raises(CapExceeded) as err:
            build_estimator(q2)
        assert (err.value.what, err.value.count, err.value.cap) == ("estimator states", 3, 2)

    def test_build_is_deterministic(self, q2):
        a = build_estimator(q2)
        b = build_estimator(q2)
        assert a.states == b.states
        assert a.initials == b.initials
        assert a.transitions == b.transitions


class TestInvariants:
    def test_faulty_absorption_on_fixtures(self, q1, q2):
        for model in (q1, q2):
            est = build_estimator(model)
            for (src, _, _), dst in est.transitions.items():
                if est.states[src].classification is Classification.FAULTY:
                    assert est.states[dst].classification is Classification.FAULTY

    def test_reachable_state_count_bound(self):
        for model in random_models(40, 4242):
            est = build_estimator(model)
            assert len(est.states) <= 2 ** len(model.classes)

    def test_state_observable_is_well_defined(self, q2):
        est = build_estimator(q2)
        incoming = {sid: {obs} for obs, sid in est.initials.items()}
        for (_, _, obs), dst in est.transitions.items():
            incoming.setdefault(dst, set()).add(obs)
        for sid, state in enumerate(est.states):
            observables = {est.model.obs[c] for c in state.members}
            assert len(observables) == 1
            assert incoming[sid] == observables

    def test_members_agree_with_path_enumeration(self, q1, q2):
        for model in (q1, q2):
            est = build_estimator(model)
            assert estimator_trace_map(est, 4) == enumerate_utraces(model, 4)

    def test_nonfaulty_members_chain_backwards(self):
        # Every non-faulty member of a successor estimate is reachable
        # from a non-faulty member of the predecessor: faults are
        # irreversible, so a run ending healthy was healthy throughout.
        # (This is why transient ambiguity never refutes diagnosability
        # on the healthy side.)
        for model in random_models(40, 321):
            est = build_estimator(model)
            step = nx_observed_step(model)
            for (src, action, obs), dst in est.transitions.items():
                healthy_src = [c for c in est.states[src].members if not model.faulty[c]]
                healthy_dst = {c for c in est.states[dst].members if not model.faulty[c]}
                assert healthy_dst <= step(healthy_src, action, obs)


class TestAgainstNetworkx:
    def test_transitions_are_set_successors(self, corpus):
        # The estimator and enumerate_utraces both read external_moves, so
        # their agreement alone would not catch a fault in that table.
        for model in corpus:
            est = build_estimator(model)
            step = nx_observed_step(model)
            cells = sorted(set(model.obs))
            for sid, state in enumerate(est.states):
                for action in model.external_actions:
                    for obs in cells:
                        dst = est.transitions.get((sid, action.name, obs))
                        members = set() if dst is None else set(est.states[dst].members)
                        assert members == step(state.members, action.name, obs)


@pytest.fixture(scope="module")
def models(corpus):
    """The corpus, benchmark family members, random TA quotients, and
    models with sparse observable ids."""
    models = [*corpus, _family_model("leak_ta", 20), _chain_model(100)]
    models += [_family_model("kclock_ta", *args) for args in [(2, 4), (3, 2), (3, 4)]]
    models += [region_quotient(random_progressive_ta(seed)) for seed in range(30)]
    models += map(_spread_observables, [q2_model(), _chain_model(60), *random_models(20, 7)])
    return models


class TestAgainstReferenceBuild:
    """The build reads each class's rows once and merges bitsets of whole
    target sets; the per-member loop it replaced gives the same graph, ids
    included, on sparse and dense, narrow and wide estimates."""

    @pytest.mark.parametrize("expand_faulty", [True, False])
    def test_same_graph(self, models, expand_faulty):
        for model in models:
            est = build_estimator(model, expand_faulty=expand_faulty)
            ref = reference_build_estimator(model, expand_faulty=expand_faulty)
            assert est.states == ref.states
            assert est.initials == ref.initials
            assert est.transitions == ref.transitions

    def test_one_row_lookup_per_class_and_action(self, row_lookups):
        est = build_estimator(_family_model("kclock_ta", 3, 4))
        assert len(est.states) == 1383
        assert len(est.transitions) == 6121
        assert sum(len(st.members) for st in est.states) == 22065
        assert len(row_lookups) == len(set(row_lookups)) == 960

    def test_check_build_reads_only_the_rows_it_expands(self, row_lookups):
        # With expand_faulty=False the all-faulty states are leaves, so the
        # rows of a class that only they hold are never read.
        model = _family_model("kclock_ta", 3, 4)
        est = build_estimator(model, expand_faulty=False)
        expanded = {c for st in est.states if st.classification is not Classification.FAULTY
                    for c in st.members}
        assert len(est.states) == 11
        assert sorted(row_lookups) == sorted(
            (c, a.name) for c in expanded for a in model.external_actions)

    def test_wide_estimates(self):
        # The 100-link chain's estimates hold up to 51 of the 102 classes
        # they touch: their masks span four 30-bit digits, decoded densely.
        est = build_estimator(_chain_model(100))
        touched = {c for st in est.states for c in st.members}
        widest = max(len(st.members) for st in est.states)
        assert len(touched) == 102 and widest * estimator._SPARSE >= len(touched)

    def test_decodes_sparse_and_dense_masks(self):
        # Member sets of every density over 603 classes, numbered in a
        # shuffled order: both decodes give back each set's classes.
        model = _chain_model(600)
        rule = estimator._successor_rule(model, True)
        rng = random.Random(5)
        order = list(range(len(model.obs)))
        rng.shuffle(order)
        rule.encode(order)
        for size in [1, 2, 3, 20, 37, 38, 60, 300, 603]:
            members = rng.sample(order, size)
            assert sorted(rule.decode(rule.encode(members))) == sorted(members)


class TestEstimateWalker:
    """The on-demand walk reads the full build's successor rule, so on every
    trace it reaches the estimate the full build reaches."""

    def test_agrees_with_full_build(self, models):
        for model in models:
            est = build_estimator(model)
            members = estimate_walker(model)
            traces = list(enumerate_utraces(model, 4))
            # Every one-step extension of the shorter traces, realizable or not,
            # and a head with no initial estimate, so both sides also meet None.
            cells = sorted(set(model.obs))
            steps = [(a.name, obs) for a in model.external_actions for obs in cells]
            traces += [t.extend(*s) for t in traces if len(t.steps) < 4 for s in steps]
            traces.append(UTrace(max(model.obs) + 1))
            for trace in traces:
                ids = walk(est, trace.head, trace.steps)
                expected = None if ids is None else est.states[ids[-1]].members
                assert members(trace.head, trace.steps) == expected, trace.pretty()

    def test_expands_each_set_once(self, q2, monkeypatch):
        expanded = record_expansions(monkeypatch)
        members = estimate_walker(q2)
        traces = enumerate_utraces(q2, 4)
        for trace in traces:
            members(trace.head, trace.steps)
        # The estimates of the traces with a step after them, and no other.
        reached = {members(t.head, t.steps[:i]) for t in traces for i in range(len(t.steps))}
        assert sorted(expanded) == sorted(reached)

    def test_state_cap(self, q2, monkeypatch):
        monkeypatch.setattr("hydiag.estimator.DEFAULT_MAX_STATES", 2)
        members = estimate_walker(q2)
        with pytest.raises(CapExceeded) as err:
            for trace in enumerate_utraces(q2, 4):
                members(trace.head, trace.steps)
        assert (err.value.what, err.value.count, err.value.cap) == ("estimator states", 3, 2)


class TestExport:
    def test_export_shape(self, q1):
        est = build_estimator(q1)
        data = json.loads(dumps_diagnoser(est))
        assert set(data) == {"states", "initials", "transitions"}
        assert data["states"][0] == [0, [0], "nonfaulty"]
        assert data["initials"] == {"0": 0}
        assert {(src, a, obs): dst for src, a, obs, dst in data["transitions"]} == {
            (s, a, o): d for (s, a, o), d in est.transitions.items()
        }
