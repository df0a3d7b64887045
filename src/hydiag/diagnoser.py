"""Executable diagnoser: a Moore machine over estimator states.

The winning strategy factors through the estimator, so two observation
prefixes reaching the same estimate always get the same answer.  The
machine answers yes exactly on states whose members are all faulty;
indeterminate states answer no but expose their ambiguity through the
richer status field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ModelFormatError, NoConsistentExecution
from .estimator import Classification, _graph_data, _key_int, _parse_graph_json, _state_id
from .quotient import _as_object, _dumps_json, _loads_json, _read_text


class Status(str, Enum):
    FAULTY = "determinate-faulty"
    NONFAULTY = "determinate-nonfaulty"
    INDETERMINATE = "indeterminate"


_STATUS_OF = {
    Classification.FAULTY: Status.FAULTY,
    Classification.NONFAULTY: Status.NONFAULTY,
    Classification.INDETERMINATE: Status.INDETERMINATE,
}


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no"
    status: Status

    def pretty(self):
        return f"{self.answer} {self.status.value}"


@dataclass(frozen=True)
class ObsEvent:
    """One streamed observation: the initial cell, or an action plus cell."""

    obs: int
    action: str | None = None

    @classmethod
    def init(cls, obs):
        return cls(int(obs), None)

    @classmethod
    def step(cls, action, obs):
        return cls(int(obs), action)

    @property
    def is_init(self):
        return self.action is None


@dataclass
class DiagnoserAutomaton:
    """Moore machine emitting yes/no along an observation stream.

    Structurally the estimator graph plus an output per state.  The
    machine itself is immutable; the online cursor (current state id) is
    owned by the caller, so concurrent sessions over one machine are safe.
    """

    states: list
    initials: dict[int, int]
    transitions: dict[tuple[int, str, int], int]
    output: tuple[str, ...]
    model: object = field(default=None, repr=False)

    def verdict(self, sid):
        return Verdict(self.output[sid], _STATUS_OF[self.states[sid].classification])


def _answer(classification):
    """The Moore output: yes exactly on all-faulty estimates."""
    return "yes" if classification is Classification.FAULTY else "no"


def synthesize(est):
    """Turn an estimator graph into the diagnoser Moore machine.

    Well-defined for any estimator; it is a winning strategy only when
    the underlying system is diagnosable.
    """
    output = tuple(_answer(s.classification) for s in est.states)
    return DiagnoserAutomaton(
        list(est.states), dict(est.initials), dict(est.transitions), output, est.model
    )


def step(diag, current, event):
    """Advance the online diagnoser by one event.

    ``current`` is None before the initial observation and a state id
    afterwards.  Raises NoConsistentExecution when no execution of the
    model can produce the event from here.
    """
    if event.is_init:
        if current is not None:
            raise ValueError("initial observation only allowed as the first event")
        sid = diag.initials.get(event.obs)
        if sid is None:
            raise NoConsistentExecution(
                f"no execution starts in observable o{event.obs}", index=0
            )
    else:
        if current is None:
            raise ValueError("the first event must be the initial observation")
        sid = diag.transitions.get((current, event.action, event.obs))
        if sid is None:
            raise NoConsistentExecution(
                f"no execution continues with {event.action} into o{event.obs}"
            )
    return sid, diag.verdict(sid)


def events_of(trace):
    """The streaming event form of an untimed observation trace."""
    out = [ObsEvent.init(trace.head)]
    out.extend(ObsEvent.step(a, o) for a, o in trace.steps)
    return out


def run_trace(diag, trace):
    """Verdicts after the initial observable and after each step.

    Raises NoConsistentExecution carrying the index of the failing event
    (0 is the initial observation).
    """
    verdicts = []
    current = None
    for i, event in enumerate(events_of(trace)):
        try:
            current, verdict = step(diag, current, event)
        except NoConsistentExecution as e:
            e.index = i
            raise
        verdicts.append(verdict)
    return verdicts


def dumps_diagnoser(diag):
    data = _graph_data(diag)
    data["output"] = {str(i): out for i, out in enumerate(diag.output)}
    return _dumps_json(data)


def loads_diagnoser(text):
    data = _loads_json(text)
    states, initials, transitions = _parse_graph_json(
        data, "diagnoser", extra_keys={"output"}
    )
    output = [None] * len(states)
    for key, value in _as_object(data["output"], "output").items():
        sid = _state_id(_key_int(key, "output"), len(states), f"output[{key}]")
        cls = states[sid].classification
        if value != _answer(cls):
            raise ModelFormatError(f"output[{key}] must be {_answer(cls)!r} on {cls.value} states")
        output[sid] = value
    if any(o is None for o in output):
        raise ModelFormatError("output must cover every state")
    return DiagnoserAutomaton(states, initials, transitions, tuple(output))


def load_diagnoser(path):
    return loads_diagnoser(_read_text(path))
