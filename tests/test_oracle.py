"""Tests for the twin-plant oracle, trace enumeration, and simulation."""

import json

import pytest

from hydiag.cli import main
from hydiag.diagnosability import check_diagnosable, check_progressive, detection_delay_bound
from hydiag.diagnoser import run_trace, synthesize
from hydiag.errors import CapExceeded
from hydiag.estimator import Classification, build_estimator
from hydiag.graphs import find_lasso, strongly_connected_components
from hydiag.oracle import (
    CounterExample,
    OracleVerdict,
    brute_force_diagnosable,
    enumerate_utraces,
    random_model,
    random_models,
    run_fuzz,
    simulate_runs,
    twin_product,
    verify_counterexample,
)
from hydiag.quotient import Lasso, UTrace, validate_model
from hydiag.regions import parse_ta, region_quotient

from .conftest import FIXTURES
from .helpers import (
    benchmark_families,
    f2_violating_model,
    linear_chain_model,
    q3_model,
    random_progressive_ta,
    reference_enumerate_utraces,
    reference_simulate_runs,
    reference_twin_product,
)

Q2 = str(FIXTURES / "q2.quot.json")


def _bad_cycle_states(model, twin):
    bad = {sid for sid, (left, _) in enumerate(twin.states) if model.faulty[left]}

    def succ(sid):
        return (e for e in twin.edges[sid] if e[1] in bad)

    return {
        v
        for comp, cyclic in strongly_connected_components(sorted(bad), succ)
        if cyclic
        for v in comp
    }


def _full_twin_plant_verdict(model):
    """The lasso search of ``brute_force_diagnosable`` run on the full twin plant."""
    states, initials, edges = reference_twin_product(model)
    bad = {
        sid
        for sid, (left, right) in enumerate(states)
        if model.faulty[left] and not model.faulty[right]
    }

    def bad_succ(sid):
        return ((label, d) for label, d in edges[sid] if d in bad)

    found = find_lasso(initials, edges.__getitem__, sorted(bad), bad_succ, lambda sid: sid)
    if found is None:
        return OracleVerdict(True, None)
    prefix_nodes, prefix_labels, cycle_nodes, cycle_labels = found
    return OracleVerdict(
        False,
        CounterExample(
            Lasso.from_steps(model.obs[states[prefix_nodes[0]][0]], prefix_labels, cycle_labels),
            tuple(states[s][0] for s in prefix_nodes),
            tuple(states[s][0] for s in cycle_nodes),
            tuple(states[s][1] for s in prefix_nodes),
            tuple(states[s][1] for s in cycle_nodes),
        ),
    )


class TestTwinProduct:
    def test_q1_has_no_bad_cycle(self, q1):
        assert _bad_cycle_states(q1, twin_product(q1)) == set()

    def test_q2_has_a_bad_cycle(self, q2):
        assert _bad_cycle_states(q2, twin_product(q2))

    def test_diagonal_initials(self, q1, q2):
        for model in (q1, q2, q3_model()):
            twin = twin_product(model)
            initial_pairs = {twin.states[sid] for sid in twin.initials}
            for c in model.initial_classes:
                assert (c, c) in initial_pairs

    def test_flags_mirror_class_status(self, q2):
        twin = twin_product(q2)
        assert any(q2.faulty[left] for left, _ in twin.states)
        for left, right in twin.states:
            assert not q2.faulty[right]
            assert q2.obs[left] == q2.obs[right]

    def test_twin_states_share_observables(self, q2):
        twin = twin_product(q2)
        for left, right in twin.states:
            assert q2.obs[left] == q2.obs[right]

    def test_verifier_is_the_healthy_right_part_of_the_full_twin_plant(self):
        for model in random_models(200, 31):
            states, initials, edges = reference_twin_product(model)
            kept = [sid for sid, (_, right) in enumerate(states) if not model.faulty[right]]
            renumber = {old: new for new, old in enumerate(kept)}
            twin = twin_product(model)
            assert twin.states == [states[s] for s in kept]
            assert twin.initials == [renumber[s] for s in initials if s in renumber]
            assert twin.edges == {
                renumber[s]: [(label, renumber[d]) for label, d in edges[s] if d in renumber]
                for s in kept
            }

    def test_verdicts_match_the_full_twin_plant(self):
        not_diagnosable = 0
        for model in random_models(200, 32):
            verdict = brute_force_diagnosable(model)
            assert verdict == _full_twin_plant_verdict(model)
            not_diagnosable += not verdict.diagnosable
        assert not_diagnosable > 50

    def test_state_cap(self, q2, monkeypatch, capsys):
        monkeypatch.setattr("hydiag.oracle.DEFAULT_MAX_STATES", 2)
        with pytest.raises(CapExceeded) as err:
            twin_product(q2)
        assert (err.value.what, err.value.count, err.value.cap) == ("twin states", 3, 2)
        assert main(["oracle", Q2]) == 5
        assert capsys.readouterr().err == "error: twin states: 3 exceeds cap 2\n"

    @pytest.mark.parametrize("time", [False, True], ids=["edge", "time"])
    def test_rejects_reversible_faults(self, time):
        model = f2_violating_model(time)
        assert {"D3", "T1"} & {v.rule for v in validate_model(model).violations}
        with pytest.raises(ValueError, match=r"faulty class 2 leads to non-faulty class 0"):
            twin_product(model)


class TestBruteForce:
    def test_q1_diagnosable(self, q1):
        verdict = brute_force_diagnosable(q1)
        assert verdict.diagnosable
        assert verdict.counterexample is None

    def test_q2_two_step_counterexample(self, q2):
        verdict = brute_force_diagnosable(q2)
        assert not verdict.diagnosable
        cx = verdict.counterexample
        assert len(cx.shared.cycle.steps) == 2
        assert verify_counterexample(q2, cx)
        # Exactly the faulty side loops through faulty classes.
        assert all(q2.faulty[c] for c in cx.left_cycle)
        assert not any(q2.faulty[c] for c in cx.right_prefix + cx.right_cycle)

    def test_counterexamples_verify_on_corpus(self):
        seen = 0
        for model in random_models(120, 2024):
            verdict = brute_force_diagnosable(model)
            if not verdict.diagnosable:
                seen += 1
                assert verify_counterexample(model, verdict.counterexample)
        assert seen > 0

    def test_tampered_counterexamples_are_rejected(self):
        seen = 0
        for model in random_models(120, 2024):
            cx = brute_force_diagnosable(model).counterexample
            if cx is None:
                continue
            seen += 1
            swapped = CounterExample(
                cx.shared, cx.right_prefix, cx.right_cycle, cx.left_prefix, cx.left_cycle
            )
            assert not verify_counterexample(model, swapped)
            other = next(c for c in range(len(model.classes)) if c != cx.left_cycle[0])
            broken = cx._replace(left_cycle=cx.left_cycle[:-1] + (other,))
            assert not verify_counterexample(model, broken)
            (_, obs), *rest = cx.shared.cycle.steps
            undeclared = cx.shared._replace(
                cycle=cx.shared.cycle._replace(steps=(("undeclared", obs), *rest))
            )
            assert not verify_counterexample(model, cx._replace(shared=undeclared))
        assert seen > 0

    def test_immediately_revealing_fault_is_diagnosable(self):
        # The faulty branch never shares a trace with the healthy one.
        from .helpers import make_model

        toy = make_model(
            [(False, True, 0), (True, False, 1)],
            [(0, "tick", 0), (0, "f", 1), (1, "tick", 1)],
        )
        assert brute_force_diagnosable(toy).diagnosable


class TestEnumerateUtraces:
    def test_q1_depth_one(self, q1):
        traces = enumerate_utraces(q1, 1)
        assert traces == {
            UTrace(0): frozenset({0}),
            UTrace(0, (("tick", 1),)): frozenset({1}),
            UTrace(0, (("tick", 0),)): frozenset({2}),
        }

    def test_depth_zero_is_initials_by_observable(self, q1, q2):
        for model in (q1, q2):
            traces = enumerate_utraces(model, 0)
            assert traces == {UTrace(0): frozenset({0})}

    def test_q2_depth_one_mixes_flags(self, q2):
        traces = enumerate_utraces(q2, 1)
        assert traces[UTrace(0, (("tick", 1),))] == frozenset({1, 3})

    def test_cap_exceeded(self, q2, monkeypatch):
        monkeypatch.setattr("hydiag.oracle.MAX_TRACES", 2)
        with pytest.raises(CapExceeded) as info:
            enumerate_utraces(q2, 4)
        assert (info.value.what, info.value.count, info.value.cap) == ("enumerated traces", 3, 2)


@pytest.fixture(scope="module")
def enumeration_models(corpus):
    """The corpus, random models, random TA quotients and kclock family members."""
    models = [*corpus, *random_models(300, 0), *random_models(300, 1)]
    models += [region_quotient(random_progressive_ta(seed)) for seed in range(30)]
    models += [_kclock_model(2, 4), _kclock_model(3, 4)]
    return models


def _kclock_model(clocks, ceiling):
    ta = benchmark_families().kclock_ta(clocks, ceiling)
    return region_quotient(parse_ta(json.dumps(ta)))


class TestEnumerateAgainstReference:
    """The trace-tree enumeration extends each trace once per (action, obs)
    its classes allow; the per-(class, trace) search it replaced extends
    it once per class and move, and both map every trace to the same
    classes."""

    @pytest.mark.parametrize("depth", range(6))
    def test_same_traces(self, enumeration_models, depth):
        for model in enumeration_models:
            assert enumerate_utraces(model, depth) == reference_enumerate_utraces(model, depth)

    def test_one_extend_per_trace(self, monkeypatch):
        model = _kclock_model(3, 4)
        extend = UTrace.extend
        calls = []

        def counted(self, action, obs):
            calls.append(self)
            return extend(self, action, obs)

        monkeypatch.setattr(UTrace, "extend", counted)
        traces = enumerate_utraces(model, 4)
        assert len(traces) == 313
        assert len(calls) == len([t for t in traces if t.steps]) == 313 - 1


class TestSimulateRuns:
    def test_q1_has_no_losing_runs(self, q1):
        # q1 answers yes on the first observation after a fault, so even a
        # deadline of 0 is met, and no fault-free run counts as a miss.
        diag = synthesize(build_estimator(q1))
        for yes_deadline in (0, 1):
            report = simulate_runs(q1, diag, 6, yes_deadline=yes_deadline)
            assert report.ok
            assert report.runs == 7

    def test_q2_has_a_missed_fault(self, q2):
        diag = synthesize(build_estimator(q2))
        report = simulate_runs(q2, diag, 6)
        assert not report.ok
        assert {lr.reason for lr in report.losing} == {"missed-fault"}
        losing = report.losing[0]
        # The reported run replays to all-no verdicts.
        assert all(v.answer == "no" for v in run_trace(diag, losing.trace))

    def test_no_fault_run_never_elicits_yes(self, q1, q2):
        for model in (q1, q2, q3_model()):
            diag = synthesize(build_estimator(model))
            report = simulate_runs(model, diag, 6)
            assert not any(lr.reason == "false-alarm" for lr in report.losing)

    def test_q3_faults_answered_within_bound(self):
        model = q3_model()
        est = build_estimator(model)
        bound = detection_delay_bound(est)
        assert bound == 4
        diag = synthesize(est)
        report = simulate_runs(model, diag, 7, yes_deadline=bound)
        assert report.ok
        # A tighter deadline is not met: the bound is exact here.
        report = simulate_runs(model, diag, 7, yes_deadline=bound - 1)
        assert not report.ok


class TestSimulateRunsReference:
    """The search on ``explore`` counts and scores the runs the layered
    reference does.  Which equally short run represents a losing node, and
    the order of the list, may differ."""

    HORIZONS = [(5, None), (5, 0), (6, 1), (6, 2), (7, 4)]

    @pytest.fixture(scope="class")
    def models(self, q1, q2):
        models = [m for s in (0, 1, 777) for m in random_models(300, s)]
        models += [q1, q2, q3_model(), linear_chain_model(30)]
        models += [region_quotient(random_progressive_ta(seed)) for seed in range(60)]
        return models

    @staticmethod
    def summary(report):
        losing = sorted((lr.reason, len(lr.trace.steps)) for lr in report.losing)
        return report.runs, report.ok, losing

    @staticmethod
    def check_losing_run(diag, lr):
        answers = [v.answer for v in run_trace(diag, lr.trace)]
        if lr.reason == "missed-fault":
            assert set(answers) == {"no"}
        else:
            assert lr.reason == "false-alarm" and answers[-1] == "yes"

    def compare(self, model, diag, k, yes_deadline):
        """Check one case against the reference; return the losing reasons."""
        report = simulate_runs(model, diag, k, yes_deadline)
        ref = reference_simulate_runs(model, diag, k, yes_deadline)
        assert self.summary(report) == self.summary(ref)
        for lr in report.losing:
            self.check_losing_run(diag, lr)
        return {lr.reason for lr in report.losing}

    @pytest.mark.parametrize("k, yes_deadline", HORIZONS)
    def test_same_runs_and_losing_runs(self, models, k, yes_deadline):
        for model in models:
            self.compare(model, synthesize(build_estimator(model)), k, yes_deadline)

    def test_tampered_diagnosers(self, models):
        # Every third state answers yes, so runs also lose by false alarm.
        reasons = set()
        for model in models[:300] + models[900:904]:
            diag = synthesize(build_estimator(model))
            diag = diag._replace(states=[
                st._replace(classification=Classification.FAULTY) if sid % 3 == 1 else st
                for sid, st in enumerate(diag.states)
            ])
            for k, yes_deadline in self.HORIZONS:
                reasons |= self.compare(model, diag, k, yes_deadline)
        assert reasons == {"false-alarm", "missed-fault"}


class TestRandomModels:
    def test_generator_yields_valid_progressive_models(self):
        for model in random_models(50, 6):
            assert validate_model(model).ok
            assert check_progressive(model).progressive
            assert len(model.classes) <= 6
            assert len(model.external_actions) <= 2
            assert set(model.obs) <= {0, 1}

    def test_generator_is_deterministic(self):
        a = list(random_models(10, 42))
        b = list(random_models(10, 42))
        assert a == b

    def test_single_seed_model(self):
        model = random_model(7)
        assert validate_model(model).ok


class TestAgreement:
    def test_oracle_matches_estimator_route(self):
        for model in random_models(150, 555):
            via_estimator = check_diagnosable(build_estimator(model)).diagnosable
            via_twin = brute_force_diagnosable(model).diagnosable
            assert via_estimator == via_twin

    def test_agreement_on_region_quotients(self):
        # A second model population: quotients of random timed automata,
        # whose proper time edges exercise the silent closure much harder
        # than the hand-rolled generator does.
        from .helpers import estimator_trace_map, random_progressive_ta

        seen = {True: 0, False: 0}
        for seed in range(80):
            model = region_quotient(random_progressive_ta(seed))
            assert validate_model(model).ok
            assert check_progressive(model).progressive
            est = build_estimator(model)
            verdict = check_diagnosable(est).diagnosable
            assert verdict == brute_force_diagnosable(model).diagnosable
            assert estimator_trace_map(est, 4) == enumerate_utraces(model, 4)
            seen[verdict] += 1
            if verdict:
                bound = detection_delay_bound(est)
                outcome = simulate_runs(model, synthesize(est), 5, yes_deadline=bound)
                assert outcome.ok
        assert seen[True] > 0 and seen[False] > 0

    def test_run_fuzz_report(self):
        report = run_fuzz(60, 9)
        assert report.ok
        assert report.models == 60
        assert report.first_disagreement is None
