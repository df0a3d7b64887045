"""Tests for diagnoser synthesis and online stepping."""

import json

import pytest

from hydiag.diagnoser import (
    Verdict,
    dumps_diagnoser,
    loads_diagnoser,
    run_trace,
    step,
    synthesize,
)
from hydiag.errors import ModelFormatError, NoConsistentExecution
from hydiag.estimator import Classification, build_estimator
from hydiag.oracle import enumerate_utraces, random_models
from hydiag.quotient import UTrace

from .helpers import array_path, legacy_diagnoser_data, q3_model

# The one message for a legacy ``output`` map that is not the answers.
BAD_OUTPUT = "output must map every state id to its state's answer"


def diag_of(model):
    return synthesize(build_estimator(model))


def outputs(diag):
    """The Moore output per state id, as ``step`` answers on entering the state."""
    moves = [(None, None, obs) for obs in diag.initials] + list(diag.transitions)
    return {sid: verdict.answer for sid, verdict in (step(diag, *move) for move in moves)}


class TestSynthesize:
    def test_q1_outputs(self, q1):
        diag = diag_of(q1)
        assert len(diag.states) == 4
        out = outputs(diag)
        by_members = {s.members: out[i] for i, s in enumerate(diag.states)}
        assert by_members == {(0,): "no", (2,): "yes", (1,): "no", (3,): "yes"}

    def test_the_diagnoser_is_the_estimator_graph(self, q1):
        est = build_estimator(q1)
        assert synthesize(est) is est

    def test_q2_answers_no_on_indeterminate_cycle(self, q2):
        diag = diag_of(q2)
        assert set(outputs(diag).values()) == {"no"}

    def test_empty_transition_machine(self):
        from .helpers import FAULT, make_model

        model = make_model(
            [(False, True, 0), (True, False, 0)], [(0, "f", 1)], actions=(FAULT,)
        )
        diag = diag_of(model)
        assert diag.transitions == {}
        assert list(diag.initials) == [0]


class TestStep:
    def test_initial_observation(self, q1):
        diag = diag_of(q1)
        sid, verdict = step(diag, None, None, 0)
        assert diag.states[sid].members == (0,)
        assert verdict.answer == "no"
        assert verdict.status is Classification.NONFAULTY

    def test_fault_revealed_by_observable(self, q1):
        diag = diag_of(q1)
        sid, _ = step(diag, None, None, 0)
        sid, verdict = step(diag, sid, "tick", 0)
        assert diag.states[sid].members == (2,)
        assert verdict.answer == "yes"
        assert verdict.status is Classification.FAULTY

    def test_one_shared_verdict_per_classification(self, q2):
        diag = diag_of(q2)
        sid, first = step(diag, None, None, 0)
        sid, second = step(diag, sid, "tick", 1)
        sid, third = step(diag, sid, "tick", 0)
        sid, fourth = step(diag, sid, "tick", 1)
        assert second is third is fourth
        assert first == Verdict("no", Classification.NONFAULTY)
        assert second == Verdict("no", Classification.INDETERMINATE)

    def test_inconsistent_step(self, q1):
        diag = diag_of(q1)
        sid, _ = step(diag, None, None, 0)
        sid, _ = step(diag, sid, "tick", 0)
        with pytest.raises(NoConsistentExecution):
            step(diag, sid, "tick", 1)

    def test_unknown_initial_observable(self, q1):
        diag = diag_of(q1)
        with pytest.raises(NoConsistentExecution):
            step(diag, None, None, 1)

    def test_init_must_come_first(self, q1):
        diag = diag_of(q1)
        sid, _ = step(diag, None, None, 0)
        with pytest.raises(ValueError):
            step(diag, sid, None, 0)
        with pytest.raises(ValueError):
            step(diag, None, "tick", 0)


class TestRunTrace:
    def test_clean_run_stays_no(self, q1):
        diag = diag_of(q1)
        verdicts = run_trace(diag, UTrace(0, (("tick", 1), ("tick", 0))))
        assert [v.answer for v in verdicts] == ["no", "no", "no"]

    def test_faulty_run_turns_yes(self, q1):
        diag = diag_of(q1)
        verdicts = run_trace(diag, UTrace(0, (("tick", 0),)))
        assert [v.answer for v in verdicts] == ["no", "yes"]

    def test_mimicking_run_stays_indeterminate(self, q2):
        diag = diag_of(q2)
        verdicts = run_trace(diag, UTrace(0, (("tick", 1), ("tick", 0))))
        assert [v.answer for v in verdicts] == ["no", "no", "no"]
        assert [v.status for v in verdicts[1:]] == [Classification.INDETERMINATE] * 2

    def test_failure_index_reported(self, q1):
        diag = diag_of(q1)
        with pytest.raises(NoConsistentExecution) as err:
            run_trace(diag, UTrace(0, (("tick", 0), ("tick", 1))))
        assert err.value.index == 2

    def test_yes_is_absorbing_along_traces(self, q1, q2):
        for model in [q1, q2, q3_model(), *random_models(30, 11)]:
            diag = diag_of(model)
            for trace in enumerate_utraces(model, 5):
                answers = [v.answer for v in run_trace(diag, trace)]
                if "yes" in answers:
                    first = answers.index("yes")
                    assert all(a == "yes" for a in answers[first:])


class TestSoundness:
    def test_verdicts_match_consistent_class_sets(self, q1, q2):
        for model in [q1, q2, q3_model(), *random_models(40, 99)]:
            diag = diag_of(model)
            for trace, classes in enumerate_utraces(model, 4).items():
                verdict = run_trace(diag, trace)[-1]
                flags = {model.faulty[c] for c in classes}
                if verdict.answer == "yes":
                    assert flags == {True}
                if verdict.status is Classification.NONFAULTY:
                    assert flags == {False}
                if verdict.status is Classification.INDETERMINATE:
                    assert flags == {True, False}


class TestSerialization:
    def test_round_trip_preserves_behavior(self, q1):
        diag = diag_of(q1)
        again = loads_diagnoser(dumps_diagnoser(diag))
        assert again.states == diag.states
        assert again.initials == diag.initials
        assert again.transitions == diag.transitions
        assert dumps_diagnoser(again) == dumps_diagnoser(diag)
        verdicts = run_trace(again, UTrace(0, (("tick", 0),)))
        assert [v.answer for v in verdicts] == ["no", "yes"]

    def test_output_must_cover_states(self, q1):
        data = q1_legacy_json(q1)
        del data["output"]["0"]
        with pytest.raises(ModelFormatError, match=BAD_OUTPUT):
            loads_diagnoser(json.dumps(data))

    def test_unknown_key_rejected(self, q1):
        data = json.loads(dumps_diagnoser(diag_of(q1)))
        data["mystery"] = 1
        with pytest.raises(ModelFormatError):
            loads_diagnoser(json.dumps(data))


def q1_diagnoser_json(q1):
    return json.loads(dumps_diagnoser(diag_of(q1)))


def q1_legacy_json(q1):
    """q1's diagnoser file as earlier versions wrote it, with ``output``."""
    return legacy_diagnoser_data(q1_diagnoser_json(q1))


def set_path(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


class TestStrictLoader:
    @pytest.mark.parametrize(
        "path",
        [
            ("states", 0, "id"),
            ("states", 0, "members", 0),
            ("initials", "0"),
            ("transitions", 0, "src"),
            ("transitions", 0, "dst"),
            ("transitions", 0, "obs"),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    @pytest.mark.parametrize("value", ["0", 1.7, False], ids=["string", "float", "bool"])
    def test_non_integer_ids_and_observables_rejected(self, q1, path, value):
        data = q1_diagnoser_json(q1)
        set_path(data, array_path(path), value)
        with pytest.raises(ModelFormatError, match="integer"):
            loads_diagnoser(json.dumps(data))

    @pytest.mark.parametrize("key", ["00", "+0", " 0", "0.0", "o0", "-0"])
    @pytest.mark.parametrize("field", ["initials", "output"])
    def test_non_canonical_integer_keys_rejected(self, q1, field, key):
        data = q1_legacy_json(q1)
        data[field][key] = data[field].pop("0")
        message = BAD_OUTPUT if field == "output" else "key must be an integer"
        with pytest.raises(ModelFormatError, match=message):
            loads_diagnoser(json.dumps(data))

    def test_yes_on_a_nonfaulty_state_rejected(self, q1):
        data = q1_legacy_json(q1)
        assert data["states"][0][-1] == "nonfaulty"  # the row's class
        data["output"]["0"] = "yes"
        with pytest.raises(ModelFormatError, match=BAD_OUTPUT):
            loads_diagnoser(json.dumps(data))

    def test_no_on_a_faulty_state_rejected(self, q1):
        data = q1_legacy_json(q1)
        assert data["states"][1][-1] == "faulty"
        data["output"]["1"] = "no"
        with pytest.raises(ModelFormatError, match=BAD_OUTPUT):
            loads_diagnoser(json.dumps(data))

    def test_no_on_an_indeterminate_state_loads(self, q2):
        text = dumps_diagnoser(diag_of(q2))
        diag = loads_diagnoser(text)
        assert "indeterminate" in {s.classification.value for s in diag.states}
        assert loads_diagnoser(json.dumps(legacy_diagnoser_data(json.loads(text)))) == diag

    @pytest.mark.parametrize("field", ["output", "initials"])
    def test_non_object_map_rejected(self, q1, field):
        data = q1_legacy_json(q1)
        data[field] = list(data[field].values())
        message = BAD_OUTPUT if field == "output" else "initials must be an object"
        with pytest.raises(ModelFormatError, match=message):
            loads_diagnoser(json.dumps(data))

    @pytest.mark.parametrize("key", ["4", "99"])
    def test_out_of_range_output_key_rejected(self, q1, key):
        data = q1_legacy_json(q1)
        assert len(data["states"]) == 4
        data["output"][key] = "no"
        with pytest.raises(ModelFormatError, match=BAD_OUTPUT):
            loads_diagnoser(json.dumps(data))

    @pytest.mark.parametrize("field", ["states", "transitions"])
    def test_non_list_field_rejected(self, q1, field):
        data = q1_diagnoser_json(q1)
        data[field] = {"0": data[field][0]}
        with pytest.raises(ModelFormatError, match=f"{field} must be a list"):
            loads_diagnoser(json.dumps(data))
