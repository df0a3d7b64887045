"""Executable diagnoser: a Moore machine over estimator states.

It reads what the observer sees: the initial observable, then one
``(action, obs)`` pair per external event.  The winning strategy factors
through the estimator, so the diagnoser is the estimator graph itself and
two observation prefixes reaching the same estimate always get the same
answer.  The Moore output is read off each state's classification: yes
exactly on states whose members are all faulty; indeterminate states
answer no but expose their ambiguity through the richer status field.
Its file is the estimator file, which ``fileformat.dumps_diagnoser`` writes.
"""

from collections import namedtuple

from .errors import ModelFormatError, NoConsistentExecution
from .fileformat import Classification, EstimatorGraph, _excerpt, _loads_json
from .fileformat import _parse_graph_json, _read_text, dumps_diagnoser


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


def loads_diagnoser(text):
    """Parse a diagnoser file, which is an estimator file.  A file from an
    earlier version may also hold ``output``, each state id's Moore output;
    it loads only if that map is the answer of every state's class."""
    data = _loads_json(text)
    del text
    legacy = {"output"} & data.keys() if isinstance(data, dict) else set()
    states, initials, transitions = _parse_graph_json(data, "diagnoser", legacy)
    if legacy and data["output"] != {
        str(i): _VERDICTS[s.classification].answer for i, s in enumerate(states)
    }:
        raise ModelFormatError("output must map every state id to its state's answer")
    return EstimatorGraph(states, initials, transitions)


def load_diagnoser(path):
    return loads_diagnoser(_read_text(path))
