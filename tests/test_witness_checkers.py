"""The witness checkers are total.

``Lasso.from_json`` reads a lasso with exact types or raises
ModelFormatError; ``replay_lasso`` and ``verify_counterexample`` answer
True or False on any lasso it accepts and on any tuples as class paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.diagnosability import replay_lasso
from hydiag.errors import ModelFormatError
from hydiag.estimator import build_estimator
from hydiag.oracle import brute_force_diagnosable, random_models, verify_counterexample
from hydiag.quotient import Lasso

from .helpers import q1_model, q2_model

MODELS = [q1_model(), q2_model(), *random_models(40, 7)]
ESTIMATORS = [build_estimator(m) for m in MODELS]
COUNTEREXAMPLES = [
    (m, v.counterexample) for m in MODELS
    if not (v := brute_force_diagnosable(m)).diagnosable
]
PATH_FIELDS = ("left_prefix", "left_cycle", "right_prefix", "right_cycle")

ACTIONS = ["tick", "f", "u", "undeclared"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
           | st.floats() | st.sampled_from(ACTIONS) | st.text(max_size=3))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["head", "steps", "prefix", "cycle"])
                      | st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
# Mostly near-valid documents, so that many load and reach the checkers.
STEP = st.tuples(st.sampled_from(ACTIONS) | JSON, st.integers(-1, 4) | JSON).map(list) | JSON
TRACE = st.fixed_dictionaries(
    {"head": st.integers(-1, 4) | JSON, "steps": st.lists(STEP, max_size=4) | JSON}
) | JSON
LASSO = st.fixed_dictionaries({"prefix": TRACE, "cycle": TRACE}) | JSON
CLASS = st.integers(-2, 12) | st.booleans() | st.floats() | st.text(max_size=2) | st.none()


def loaded(doc):
    """The lasso ``doc`` reads as, or None if it is rejected."""
    try:
        lasso = Lasso.from_json(doc)
    except ModelFormatError:
        return None
    for trace in (lasso.prefix, lasso.cycle):
        assert type(trace.head) is int
        assert all(type(a) is str and type(o) is int for a, o in trace.steps)
    return lasso


@settings(max_examples=300, deadline=None)
@given(doc=LASSO)
def test_lasso_from_json_reads_exact_types_or_raises(doc):
    lasso = loaded(doc)
    if lasso is not None:
        assert Lasso.from_json(lasso.to_json()) == lasso
        for est in ESTIMATORS[:4]:
            assert type(replay_lasso(est, lasso)) is bool


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tampered_counterexamples_give_a_bool(data):
    model, cx = data.draw(st.sampled_from(COUNTEREXAMPLES))
    for field in data.draw(st.sets(st.sampled_from(PATH_FIELDS), min_size=1)):
        path = list(getattr(cx, field))
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(path)))
            if i < len(path) and data.draw(st.booleans()):
                path[i] = data.draw(CLASS)
            elif data.draw(st.booleans()):
                path.insert(i, data.draw(CLASS))
            elif path:
                del path[min(i, len(path) - 1)]
        cx = cx._replace(**{field: tuple(path)})
    shared = loaded(data.draw(LASSO)) if data.draw(st.booleans()) else None
    if shared is not None:
        cx = cx._replace(shared=shared)
    assert type(verify_counterexample(model, cx)) is bool


def test_class_outside_the_model_is_false(q2):
    cx = brute_force_diagnosable(q2).counterexample
    assert verify_counterexample(q2, cx)
    for bad in [99, len(q2.classes), -1, True, 0.0, "0", None]:
        assert not verify_counterexample(q2, cx._replace(left_prefix=(bad, *cx.left_prefix[1:])))
        assert not verify_counterexample(q2, cx._replace(right_cycle=(*cx.right_cycle[:-1], bad)))


def test_unattached_lasso_is_false(q2):
    # The runs replay the steps whatever the cycle's head says, so only the
    # attachment check rejects a cycle that starts in another observable.
    cx = brute_force_diagnosable(q2).counterexample
    cycle = cx.shared.cycle
    shared = cx.shared._replace(cycle=cycle._replace(head=cycle.head + 1))
    assert not shared.attached()
    assert not verify_counterexample(q2, cx._replace(shared=shared))


def test_cycle_paths_must_span_the_shared_cycle(q2):
    cx = brute_force_diagnosable(q2).counterexample
    assert not verify_counterexample(q2, cx._replace(left_cycle=()))
    # One class moved from the faulty run's prefix into its cycle.
    moved = cx._replace(left_prefix=cx.left_prefix[:-1],
                        left_cycle=(cx.left_prefix[-1], *cx.left_cycle))
    assert not verify_counterexample(q2, moved)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"prefix": {"head": 0.9, "steps": [["tick", "1"]]},
          "cycle": {"head": True, "steps": [["tick", 1.5]]}},
         "lasso.prefix.head must be an integer, got float"),
        ({"prefix": {"head": 0, "steps": [["tick", 1]]},
          "cycle": {"head": True, "steps": [["tick", 1]]}},
         "lasso.cycle.head must be an integer, got bool"),
        ({"prefix": {"head": 0, "steps": [["tick", True]]},
          "cycle": {"head": 1, "steps": []}},
         "lasso.prefix.steps[0] must be a list [action, obs] of a string and an integer"),
        ({"prefix": {"head": 0, "steps": [[1, 1]]}, "cycle": {"head": 1, "steps": []}},
         "lasso.prefix.steps[0] must be a list [action, obs] of a string and an integer"),
        ({"prefix": {"head": 0, "steps": []}, "cycle": {"head": 0, "steps": {}}},
         "lasso.cycle.steps must be a list, got dict"),
        ({"prefix": {"head": 0, "steps": []}}, "lasso is missing keys: ['cycle']"),
        ([], "lasso must be an object"),
    ],
    ids=["float-head", "bool-head", "bool-obs", "int-action", "steps-object", "no-cycle",
         "list"],
)
def test_malformed_lasso_is_rejected(doc, message):
    with pytest.raises(ModelFormatError) as info:
        Lasso.from_json(doc)
    assert str(info.value) == message
