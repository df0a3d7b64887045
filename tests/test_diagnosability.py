"""Tests for progressiveness and the diagnosability decision."""

import json
import random

import networkx as nx
import pytest

from hydiag import diagnosability
from hydiag.cli import main
from hydiag.diagnosability import (
    DiagnosabilityVerdict,
    ProgressWitness,
    check_diagnosable,
    check_progressive,
    detection_delay_bound,
    replay_lasso,
)
from hydiag.diagnoser import dumps_diagnoser, loads_diagnoser, synthesize
from hydiag.errors import CapExceeded
from hydiag.estimator import (
    Classification,
    EstimatorGraph,
    EstimatorState,
    build_estimator,
    walk,
)
from hydiag.oracle import brute_force_diagnosable, random_models
from hydiag.quotient import ClassInfo, Lasso, QuotientModel, dumps_model, load_model, loads_model
from hydiag.regions import load_ta, parse_ta, region_quotient

from .conftest import FIXTURES
from .helpers import (
    FAULT,
    HIDDEN,
    TICK,
    benchmark_families,
    kclock_ta_34,
    koenig_model,
    linear_chain_model,
    make_model,
    nx_observed_step,
    peak_per_document,
    q3_model,
    random_progressive_ta,
    reference_automata,
    reference_check_progressive,
    reference_delay_bound,
    save_model,
    unpruned_check_diagnosable,
)

KCLOCK2 = FIXTURES / "kclock2.ta.json"


def checked_progressive(model):
    """``check_progressive``'s report, asserted equal to the reference's."""
    report = check_progressive(model)
    assert report == reference_check_progressive(model)
    return report


class TestProgressive:
    def test_q1_is_progressive(self, q1):
        report = checked_progressive(q1)
        assert report.progressive
        assert report.witness is None

    def test_internal_self_loop_breaks_progress(self, q1):
        model = make_model(
            [(c.faulty, c.initial, c.obs) for c in q1.classes],
            [(s, a.name, d) for s, a, d in q1.edges] + [(2, "h", 2)],
            actions=(TICK, FAULT, HIDDEN),
        )
        report = checked_progressive(model)
        assert not report.progressive
        assert report.witness.kind == "cycle"
        assert report.witness.classes == (2, 2)
        assert report.witness.labels == ("h",)

    def test_dead_faulty_class_is_a_deadlock(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1)],
        )
        report = checked_progressive(model)
        assert not report.progressive
        assert report.witness.kind == "deadlock"
        assert report.witness.classes == (1,)

    def test_time_escape_from_deadlock_counts(self):
        # The dead-looking class can let time pass into one with an edge.
        model = make_model(
            [(False, True, 0), (True, False, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (2, "tick", 2)],
            time=[(1, 2)],
        )
        assert checked_progressive(model).progressive

    def test_divergent_self_loop_is_a_cycle(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
            time=[(1, 1)],
        )
        report = checked_progressive(model)
        assert not report.progressive
        assert report.witness.kind == "cycle"
        assert report.witness.labels == ("time",)

    def test_time_cycle_between_distinct_classes(self):
        model = make_model(
            [(False, True, 0), (False, False, 0), (True, False, 0)],
            [(0, "f", 2), (1, "f", 2), (0, "tick", 1), (1, "tick", 0), (2, "tick", 2)],
            time=[(0, 1), (1, 0)],
        )
        report = checked_progressive(model)
        assert not report.progressive
        assert report.witness.kind == "cycle"

    def test_zero_external_actions_valid_but_not_progressive(self):
        from hydiag.quotient import validate_model

        from .helpers import FAULT as fault_label

        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "f", 1)],
            actions=(fault_label,),
        )
        assert validate_model(model).ok
        assert not checked_progressive(model).progressive

    def test_unreachable_problems_are_ignored(self):
        # Class 3 deadlocks but nothing reaches it.
        model = make_model(
            [(False, True, 0), (True, False, 0), (False, False, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1), (2, "f", 3), (2, "tick", 2)],
        )
        assert checked_progressive(model).progressive


def random_progress_case(rng):
    """Random classes, edges, time chains and divergence marks (unvalidated)."""
    n = rng.randint(1, 10)
    classes = [
        ClassInfo(c, rng.random() < 0.4, rng.random() < 0.3, rng.randrange(2))
        for c in range(n)
    ]
    edges = [
        (rng.randrange(n), rng.choice("tick tick h f".split()), rng.randrange(n))
        for _ in range(rng.randint(0, n))
    ]
    time = []
    for _ in range(rng.randint(0, 3)):
        chain = rng.sample(range(n), rng.randint(1, n))
        time.extend(zip(chain, chain[1:]))
        if rng.random() < 0.2:
            time.append((chain[-1], chain[0]))  # closes the chain into a cycle
    divergent = [c for c in range(n) if rng.random() < 0.1]
    return classes, edges, time, divergent


def expected_progress(n, initial, edges, time, divergent):
    """(deadlocked class or None, reachable silent cycle?) computed by networkx."""
    everything = nx.DiGraph()
    everything.add_nodes_from(range(n))
    everything.add_edges_from((s, d) for s, _, d in edges)
    everything.add_edges_from(time)
    reachable = set(initial).union(*(nx.descendants(everything, c) for c in initial))

    flow = nx.DiGraph()
    flow.add_nodes_from(range(n))
    flow.add_edges_from(time)
    has_edge = {s for s, _, _ in edges}
    stuck = [
        c
        for c in sorted(reachable)
        if c not in divergent and not ({c} | nx.descendants(flow, c)) & has_edge
    ]

    silent = nx.DiGraph()
    silent.add_nodes_from(reachable)
    silent.add_edges_from(
        (s, d) for s, a, d in edges if a != "tick" and s in reachable and d in reachable
    )
    silent.add_edges_from((s, d) for s, d in time if s in reachable and d in reachable)
    silent.add_edges_from((c, c) for c in divergent if c in reachable)
    return (stuck[0] if stuck else None), not nx.is_directed_acyclic_graph(silent)


class TestProgressiveAgainstNetworkx:
    def test_random_quotients(self):
        rng = random.Random(31)
        seen = {"deadlock": 0, "cycle": 0, None: 0}
        for _ in range(2000):
            classes, edges, time, divergent = random_progress_case(rng)
            marked = time + [(c, c) for c in divergent]
            model = QuotientModel(classes, (TICK, FAULT, HIDDEN), edges, marked)
            n = len(classes)
            initial = [c.id for c in classes if c.initial]
            marks = set(divergent) | {s for s, d in time if s == d}
            stuck, cyclic = expected_progress(n, initial, edges, time, marks)
            report = check_progressive(model)
            witness = report.witness
            assert report.progressive == (stuck is None and not cyclic)
            seen[witness.kind if witness else None] += 1
            if stuck is not None:
                assert witness.kind == "deadlock"
                assert witness.classes == (stuck,)
            elif cyclic:
                assert witness.kind == "cycle"
                assert witness.classes[0] == witness.classes[-1]
                for a, label, b in zip(witness.classes, witness.labels, witness.classes[1:]):
                    if label == "time":
                        # A declared pair or a divergence mark, never a closure pair.
                        assert (a, b) in time or (a == b and a in marks)
                    else:
                        assert label != "tick" and (a, label, b) in edges
        assert min(seen.values()) > 200


class TestProgressiveAgainstReference:
    """The Kahn decision against ``explore`` and Tarjan in every case."""

    def test_two_disjoint_cycles_witness_the_first_tarjan_reports(self):
        # Cycle {1, 2} reaches cycle {3, 4} silently, so Tarjan completes
        # {3, 4} first although class 1 is smaller.
        model = make_model(
            [(False, True, 0)] + [(False, False, 0)] * 4,
            [(0, "tick", 1), (1, "h", 2), (2, "h", 1), (2, "h", 3), (3, "h", 4), (4, "h", 3)],
            actions=(TICK, FAULT, HIDDEN),
        )
        report = check_progressive(model)
        assert report == reference_check_progressive(model)
        assert report.witness == ProgressWitness("cycle", (3, 4, 3), ("h", "h"))

    def test_reachable_divergent_class(self):
        model = make_model(
            [(False, True, 0), (True, False, 0)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
            time=[(0, 1), (1, 1)],
        )
        report = check_progressive(model)
        assert report == reference_check_progressive(model)
        assert report.witness == ProgressWitness("cycle", (1, 1), ("time",))

    def test_deadlock_comes_before_a_cycle(self):
        model = make_model(
            [(False, True, 0), (False, False, 0), (True, False, 0)],
            [(0, "h", 1), (1, "h", 0), (0, "f", 2)],
            actions=(TICK, FAULT, HIDDEN),
        )
        report = check_progressive(model)
        assert report == reference_check_progressive(model)
        assert report.witness == ProgressWitness("deadlock", (2,), ())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fuzz_models(self, seed):
        for model in random_models(300, seed):
            assert check_progressive(model) == reference_check_progressive(model)

    def test_region_quotients(self):
        reports = set()
        for ta in reference_automata():
            model = region_quotient(ta)
            report = check_progressive(model)
            assert report == reference_check_progressive(model)
            reports.add(report.witness.kind if report.witness else None)
        assert reports == {None, "deadlock", "cycle"}

    def test_random_quotients(self):
        rng = random.Random(31)
        for _ in range(2000):
            classes, edges, time, divergent = random_progress_case(rng)
            marked = time + [(c, c) for c in divergent]
            model = QuotientModel(classes, (TICK, FAULT, HIDDEN), edges, marked)
            assert check_progressive(model) == reference_check_progressive(model)

    def test_corpus(self):
        families = benchmark_families()
        models = [load_model(FIXTURES / f"{name}.quot.json") for name in ("q1", "q2", "bad-d1")]
        models += [q3_model(), koenig_model(), linear_chain_model(50)]
        models += [region_quotient(load_ta(FIXTURES / f"{name}.ta.json"))
                   for name in ("ta1", "kclock2")]
        models += [region_quotient(parse_ta(json.dumps(doc)))
                   for doc in (families.leak_ta(100), families.kclock_ta(3, 4))]
        for model in models:
            assert check_progressive(model) == reference_check_progressive(model)


class TestProgressiveMemory:
    def test_transient_is_a_fraction_of_the_model(self):
        # Only the time pairs out of classes with no discrete edge are read
        # backwards: on kclock_ta(3,4) the check allocates 190,256 bytes,
        # 0.14 times the decoded document of the model's file, where a
        # time-predecessor list per class took 0.40 times.
        text = dumps_model(region_quotient(kclock_ta_34()))
        assert peak_per_document(text, check_progressive, loads_model(text)) <= 0.17


def synthetic_estimator(classifications, edges, initial_obs=0):
    """Hand-built estimator graph over dummy member sets."""
    states = []
    for i, cls in enumerate(classifications):
        states.append(EstimatorState((i,), cls))
    transitions = {
        (src, "tick", obs): dst for (src, obs, dst) in edges
    }
    return EstimatorGraph(states, {initial_obs: 0}, transitions, None)


class TestDiagnosable:
    def test_q1_diagnosable(self, q1):
        est = build_estimator(q1)
        assert check_diagnosable(est) == DiagnosabilityVerdict(True, None)

    def test_q2_witness_cycle(self, q2):
        est = build_estimator(q2)
        verdict = check_diagnosable(est)
        assert not verdict.diagnosable
        lasso = verdict.witness
        assert lasso.prefix.pretty() == "o0 tick o1"
        assert lasso.cycle.pretty() == "o1 tick o0 tick o1"
        assert replay_lasso(est, lasso)
        # The same steps with the cycle starting in o0 are no witness.
        assert not replay_lasso(est, lasso._replace(cycle=lasso.cycle._replace(head=0)))
        # The cycle runs through the two indeterminate states.
        sid = est.initials[lasso.prefix.head]
        for action, obs in lasso.prefix.steps:
            sid = est.transitions[(sid, action, obs)]
        visited = {est.states[sid].members}
        for action, obs in lasso.cycle.steps:
            sid = est.transitions[(sid, action, obs)]
            visited.add(est.states[sid].members)
        assert visited == {(1, 3), (0, 2)}

    def test_transient_indeterminacy_is_fine(self):
        est = synthetic_estimator(
            [Classification.INDETERMINATE, Classification.FAULTY],
            [(0, 0, 1), (1, 0, 1)],
        )
        assert check_diagnosable(est).diagnosable

    def test_unsustainable_indeterminate_loop_is_diagnosable(self):
        # Indeterminate self-loop in the estimator, but the faulty branch
        # cannot follow it forever: still diagnosable, and the twin-plant
        # oracle agrees.
        model = koenig_model()
        est = build_estimator(model)
        loops = {
            src
            for (src, _, _), dst in est.transitions.items()
            if src == dst
            and est.states[src].classification is Classification.INDETERMINATE
        }
        assert loops, "fixture should have an indeterminate self-loop"
        assert check_diagnosable(est).diagnosable
        assert brute_force_diagnosable(model).diagnosable

    def test_q3_mimic_chain_is_diagnosable(self):
        est = build_estimator(q3_model())
        assert check_diagnosable(est).diagnosable

    def test_cyclic_synthetic_estimator_needs_model(self):
        est = synthetic_estimator(
            [Classification.INDETERMINATE, Classification.INDETERMINATE],
            [(0, 0, 1), (1, 0, 0)],
        )
        with pytest.raises(ValueError):
            check_diagnosable(est)


class TestPrunedProduct:
    """The fault product over cyclic indeterminate components alone gives
    the verdict and witness of the product over every indeterminate state."""

    def test_corpus(self, corpus, ta1):
        models = [*corpus, q3_model(), koenig_model(), linear_chain_model(40),
                  region_quotient(ta1)]
        models += [region_quotient(random_progressive_ta(seed)) for seed in range(30)]
        refuted = 0
        for model in models:
            est = build_estimator(model)
            verdict = check_diagnosable(est)
            assert verdict == unpruned_check_diagnosable(est)
            refuted += not verdict.diagnosable
        assert 0 < refuted < len(models)


class TestFaultyLeaves:
    """``build_estimator(expand_faulty=False)`` gives what the full build
    gives wherever diagnosability looks: the same verdict, witness and
    delay bound, and the same non-faulty and indeterminate states."""

    @pytest.fixture(scope="class")
    def models(self, corpus, ta1):
        models = [*corpus, q3_model(), koenig_model(), linear_chain_model(40),
                  region_quotient(ta1), region_quotient(load_ta(KCLOCK2))]
        models += [region_quotient(random_progressive_ta(seed)) for seed in range(30)]
        return models

    def test_verdict_witness_and_bound(self, models):
        refuted = 0
        for model in models:
            full = build_estimator(model)
            est = build_estimator(model, expand_faulty=False)
            verdict = check_diagnosable(full)
            assert check_diagnosable(est) == verdict
            if verdict.diagnosable:
                assert detection_delay_bound(est) == detection_delay_bound(full)
            refuted += not verdict.diagnosable
        assert 0 < refuted < len(models)

    def test_faulty_states_are_leaves(self, models):
        pruned = 0
        for model in models:
            full = build_estimator(model)
            est = build_estimator(model, expand_faulty=False)
            faulty = {
                sid for sid, st in enumerate(est.states)
                if st.classification is Classification.FAULTY
            }
            assert not any(src in faulty for src, _, _ in est.transitions)
            pruned += len(est.states) < len(full.states)
        assert pruned > 0

    def test_other_states_keep_their_members_and_order(self, models):
        def kept(est):
            return [
                (st.members, st.classification) for st in est.states
                if st.classification is not Classification.FAULTY
            ]

        for model in models:
            assert kept(build_estimator(model, expand_faulty=False)) == kept(
                build_estimator(model)
            )

    def test_cap_counts_the_explored_states(self, monkeypatch):
        model = region_quotient(load_ta(KCLOCK2))
        assert len(build_estimator(model).states) == 13
        monkeypatch.setattr("hydiag.estimator.DEFAULT_MAX_STATES", 6)
        assert len(build_estimator(model, expand_faulty=False).states) == 6
        with pytest.raises(CapExceeded) as err:
            build_estimator(model)
        assert (err.value.what, err.value.cap) == ("estimator states", 6)


class TestDelayBound:
    def test_q1_bound_is_one(self, q1):
        assert detection_delay_bound(build_estimator(q1)) == 1

    def test_chain_of_three_bound_is_four_model_backed(self):
        assert detection_delay_bound(build_estimator(q3_model())) == 4

    def test_linear_chain_of_2000(self):
        # Deeper than the interpreter's recursion limit.
        assert detection_delay_bound(build_estimator(linear_chain_model(2000))) == 2001

    def test_needs_a_backing_model(self, q1):
        # Hand-built and loaded graphs have no model to pair classes by,
        # even where no state is indeterminate.
        chain = synthetic_estimator(
            [Classification.INDETERMINATE, Classification.FAULTY], [(0, 0, 1), (1, 0, 1)]
        )
        single = synthetic_estimator([Classification.FAULTY], [(0, 0, 0)])
        loaded = loads_diagnoser(dumps_diagnoser(synthesize(build_estimator(q1))))
        for est in (chain, single, loaded):
            assert est.model is None
            with pytest.raises(ValueError, match="backing model"):
                detection_delay_bound(est)

    def test_against_reference(self):
        models = [q3_model(), linear_chain_model(2000)]
        models += [m for seed in (0, 1) for m in random_models(300, seed)]
        checked = 0
        for model in models:
            est = build_estimator(model)
            if check_diagnosable(est).diagnosable:
                assert detection_delay_bound(est) == reference_delay_bound(est)
                checked += 1
        assert checked > 100

    def test_rejected_when_not_diagnosable(self, q2):
        with pytest.raises(ValueError):
            detection_delay_bound(build_estimator(q2))


class TestWitnessProperties:
    def test_witnesses_replay_on_corpus(self):
        seen_bad = 0
        for model in random_models(120, 777):
            est = build_estimator(model)
            verdict = check_diagnosable(est)
            if not verdict.diagnosable:
                seen_bad += 1
                assert replay_lasso(est, verdict.witness)
        assert seen_bad > 0

    def test_tampered_witnesses_are_rejected(self):
        rejected = {}
        for model in random_models(120, 777):
            est = build_estimator(model)
            verdict = check_diagnosable(est)
            if verdict.diagnosable:
                continue
            for defect, tampered_est, lasso in _tampered_witnesses(est, verdict.witness):
                assert not replay_lasso(tampered_est, lasso), defect
                rejected[defect] = rejected.get(defect, 0) + 1
        assert len(rejected) == 5 and min(rejected.values()) > 0

    def test_monotone_refutation_under_edge_addition(self):
        # Adding edges while the original witness stays replayable (with
        # every replayed cycle state still indeterminate) must keep the
        # model non-diagnosable.
        import random as _random

        rng = _random.Random(5)
        checked = 0
        for model in random_models(120, 31337):
            est = build_estimator(model)
            verdict = check_diagnosable(est)
            if verdict.diagnosable:
                continue
            flags = model.faulty
            same_flag_pairs = [
                (s, d)
                for s in range(len(model.classes))
                for d in range(len(model.classes))
                if flags[s] == flags[d]
            ]
            src, dst = rng.choice(same_flag_pairs)
            action = rng.choice(model.external_actions)
            bigger = QuotientModel(
                model.classes,
                model.actions,
                list(model.edges) + [(src, action, dst)],
                model.time,
            )
            est2 = build_estimator(bigger)
            if replay_lasso(est2, verdict.witness):
                sustained = _witness_product_sustained(bigger, est2, verdict.witness)
                if sustained:
                    assert not check_diagnosable(est2).diagnosable
                checked += 1
        assert checked > 0


def _tampered_witnesses(est, lasso):
    """A witness broken each way ``replay_lasso`` must notice, as
    (defect, estimator, lasso) triples.

    Which steps a cycle can lose and still return depends on the graph
    (a witness cycle may pass its start twice), so the structural defects
    are made in a copy of the estimator: the move that closes the cycle
    goes missing, or leads to a fresh copy of the cycle's first state.
    """
    prefix, cycle = lasso.prefix, lasso.cycle
    ids = walk(est, prefix.head, prefix.steps + cycle.steps)
    anchor = ids[len(prefix.steps)]
    closing = (ids[-2], *cycle.steps[-1])
    action, _ = cycle.steps[-1]
    unused = max(est.model.obs) + 1

    yield "detached cycle head", est, lasso._replace(cycle=cycle._replace(head=cycle.head + 1))
    changed = cycle.steps[:-1] + ((action, unused),)
    yield "changed observable", est, Lasso.from_steps(prefix.head, prefix.steps, changed)
    dropped = {key: dst for key, dst in est.transitions.items() if key != closing}
    yield "dropped step", est._replace(transitions=dropped), lasso
    away = {**est.transitions, closing: len(est.states)}
    yield "cycle that does not return", est._replace(
        states=[*est.states, est.states[anchor]], transitions=away
    ), lasso
    states = list(est.states)
    states[anchor] = states[anchor]._replace(classification=Classification.NONFAULTY)
    yield "cycle through a determinate state", est._replace(states=states), lasso


def _witness_product_sustained(model, est, lasso):
    """Does some faulty class follow the witness cycle forever?"""
    step = nx_observed_step(model)
    sid = est.initials.get(lasso.prefix.head)
    for action, obs in lasso.prefix.steps:
        sid = est.transitions.get((sid, action, obs))
    start = sid
    faulty_here = {c for c in est.states[sid].members if model.faulty[c]}
    # Iterate the cycle enough times to detect a stable nonempty core.
    for _ in range(len(est.states) * len(model.classes) + 1):
        for action, obs in lasso.cycle.steps:
            nxt = step(faulty_here, action, obs)
            sid = est.transitions.get((sid, action, obs))
            faulty_here = {c for c in nxt if sid is not None and c in est.states[sid].members}
        if not faulty_here:
            return False
    return bool(faulty_here)


class TestFaultProductCap:
    """The fault product counts its nodes, the faulty members of the states
    it pairs, before building them, and stops past the state cap."""

    def lower_cap(self, monkeypatch, cap):
        monkeypatch.setattr(diagnosability, "DEFAULT_MAX_STATES", cap)

    def test_check_diagnosable(self, monkeypatch):
        est = build_estimator(region_quotient(load_ta(KCLOCK2)))
        self.lower_cap(monkeypatch, 2)
        with pytest.raises(CapExceeded) as err:
            check_diagnosable(est)
        assert (err.value.what, err.value.count, err.value.cap) == ("fault product nodes", 3, 2)
        self.lower_cap(monkeypatch, 3)
        assert not check_diagnosable(est).diagnosable

    def test_detection_delay_bound(self, monkeypatch):
        est = build_estimator(q3_model())
        bound = detection_delay_bound(est)
        self.lower_cap(monkeypatch, 3)
        with pytest.raises(CapExceeded) as err:
            detection_delay_bound(est)
        assert (err.value.what, err.value.count, err.value.cap) == ("fault product nodes", 4, 3)
        self.lower_cap(monkeypatch, 4)
        assert detection_delay_bound(est) == bound

    def test_check_exits_5(self, monkeypatch, capsys):
        self.lower_cap(monkeypatch, 2)
        assert main(["check", "--ta", str(KCLOCK2)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fault product nodes: 3 exceeds cap 2\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_exits_5_on_the_delay_bound(self, monkeypatch, capsys, tmp_path, fmt):
        # q3's verdict needs no product; its delay bound needs 4 nodes.
        path = tmp_path / "q3.quot.json"
        save_model(q3_model(), path)
        self.lower_cap(monkeypatch, 3)
        assert main(["check", str(path), "--format", fmt]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fault product nodes: 4 exceeds cap 3\n"
