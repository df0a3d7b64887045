"""Executable diagnoser: a Moore machine over estimator states.

It reads what the observer sees: the initial observable, then one
``(action, obs)`` pair per external event.  The winning strategy factors
through the estimator, so the diagnoser is the estimator graph itself and
two observation prefixes reaching the same estimate always get the same
answer.  The Moore output is read off each state's classification: yes
exactly on states whose members are all faulty; indeterminate states
answer no but expose their ambiguity through the richer status field.
"""

from collections import namedtuple

from .errors import ModelFormatError, NoConsistentExecution
from .fileformat import Classification, EstimatorGraph, _as_object, _dumps_graph, _excerpt
from .fileformat import _key_int, _loads_json, _parse_graph_json, _read_text
from .fileformat import _state_id


class Verdict(namedtuple("Verdict", "answer status")):
    __slots__ = ()  # answer: "yes" | "no"

    def pretty(self):
        if self.status is Classification.INDETERMINATE:
            return f"{self.answer} indeterminate"
        return f"{self.answer} determinate-{self.status.value}"


_VERDICTS = {
    c: Verdict("yes" if c is Classification.FAULTY else "no", c) for c in Classification
}


def synthesize(est):
    """The diagnoser Moore machine of an estimator graph: the graph itself.

    Well-defined for any estimator; it is a winning strategy only when
    the underlying system is diagnosable.  The machine is immutable; the
    online cursor (current state id) is owned by the caller, so
    concurrent sessions over one machine are safe.
    """
    return est


def step(diag, current, action, obs):
    """Advance the online diagnoser by one ``(action, obs)`` step.

    ``current`` is None before the initial observation, whose ``action``
    is None, and a state id afterwards.  Raises NoConsistentExecution
    when no execution of the model can produce the step from here.
    """
    if (current is None) != (action is None):
        raise ValueError("only the initial observation, the first step, has no action")
    if current is None:
        sid = diag.initials.get(obs)
        if sid is None:
            raise NoConsistentExecution(
                f"no execution starts in observable {_excerpt(f'o{obs}', 0)}", index=0
            )
    else:
        sid = diag.transitions.get((current, action, obs))
        if sid is None:
            raise NoConsistentExecution(
                f"no execution continues with {_excerpt(action, 0)} "
                f"into {_excerpt(f'o{obs}', 0)}"
            )
    return sid, _VERDICTS[diag.states[sid].classification]


def run_trace(diag, trace):
    """Verdicts after the initial observable and after each step.

    Raises NoConsistentExecution carrying the index of the failing event
    (0 is the initial observation).
    """
    verdicts = []
    current = None
    for i, (action, obs) in enumerate([(None, trace.head), *trace.steps]):
        try:
            current, verdict = step(diag, current, action, obs)
        except NoConsistentExecution as e:
            e.index = i
            raise
        verdicts.append(verdict)
    return verdicts


def dumps_diagnoser(diag):
    """The estimator file plus ``output``, each state's Moore output."""
    return _dumps_graph(diag, {c: verdict.answer for c, verdict in _VERDICTS.items()})


def loads_diagnoser(text):
    """Parse a diagnoser file, checking ``output`` against each state's class."""
    data = _loads_json(text)
    states, initials, transitions = _parse_graph_json(
        data, "diagnoser", extra_keys={"output"}
    )
    covered = set()
    for key, value in _as_object(data["output"], "output").items():
        sid = _state_id(_key_int(key, "output"), len(states), "output", key)
        verdict = _VERDICTS[states[sid].classification]
        if value != verdict.answer:
            raise ModelFormatError(
                f"output[{sid}] must be {verdict.answer!r} on {verdict.status.value} states"
            )
        covered.add(sid)
    if len(covered) != len(states):
        raise ModelFormatError("output must cover every state")
    return EstimatorGraph(states, initials, transitions)


def load_diagnoser(path):
    return loads_diagnoser(_read_text(path))
