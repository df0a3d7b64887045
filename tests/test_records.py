"""The public records: named tuples with the fields, hashes and reprs the
dataclasses they replaced had.

Each record is a ``namedtuple`` subclass, so ``_replace`` and ``_asdict``
stand where ``dataclasses.replace`` and ``asdict`` stood, and a record
equals the tuple of its values.
"""

import importlib

import pytest

# (module, record, field names in order, frozen): frozen records were
# hashable dataclasses; the others held lists or dicts.
RECORDS = [
    ("quotient", "ActionLabel", ("name", "kind"), True),
    ("quotient", "ClassInfo", ("id", "faulty", "initial", "obs"), True),
    ("quotient", "UTrace", ("head", "steps"), True),
    ("quotient", "Lasso", ("prefix", "cycle"), True),
    ("quotient", "Violation", ("rule", "subject", "message"), True),
    ("quotient", "ValidationReport", ("ok", "violations"), True),
    ("fileformat", "EstimatorState", ("members", "classification"), True),
    ("fileformat", "EstimatorGraph", ("states", "initials", "transitions", "model"), False),
    ("diagnoser", "Verdict", ("answer", "status"), True),
    ("diagnosability", "ProgressWitness", ("kind", "classes", "labels"), True),
    ("diagnosability", "ProgressReport", ("progressive", "witness"), True),
    ("diagnosability", "DiagnosabilityVerdict", ("diagnosable", "witness"), True),
    ("regions", "ObservableSpec", ("id", "pred"), True),
    ("regions", "Location", ("name", "faulty", "initial", "invariant"), True),
    ("regions", "TAEdge", ("src", "dst", "action", "kind", "guard", "resets"), True),
    ("regions", "RegionQuotient", ("model", "class_regions"), False),
    ("oracle", "TwinGraph", ("states", "initials", "edges"), False),
    ("oracle", "CounterExample",
     ("shared", "left_prefix", "left_cycle", "right_prefix", "right_cycle"), True),
    ("oracle", "OracleVerdict", ("diagnosable", "counterexample"), True),
    ("oracle", "LosingRun", ("trace", "reason"), True),
    ("oracle", "SimulationReport", ("runs", "losing"), False),
    ("oracle", "FuzzReport", ("models", "agreements", "first_disagreement"), False),
]
DEFAULTS = {"UTrace": {"steps": ()}, "EstimatorGraph": {"model": None}}
IDS = [name for _, name, _, _ in RECORDS]


def record(module, name):
    return getattr(importlib.import_module(f"hydiag.{module}"), name)


@pytest.mark.parametrize("module, name, fields, frozen", RECORDS, ids=IDS)
class TestRecords:
    def test_fields_and_defaults(self, module, name, fields, frozen):
        cls = record(module, name)
        assert cls._fields == fields
        assert cls._field_defaults == DEFAULTS.get(name, {})

    def test_is_a_slotted_named_tuple(self, module, name, fields, frozen):
        value = record(module, name)(*range(len(fields)))
        assert value == tuple(range(len(fields)))
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            setattr(value, fields[0], -1)

    def test_repr(self, module, name, fields, frozen):
        value = record(module, name)(*range(len(fields)))
        shown = [f for f in fields if (name, f) != ("EstimatorGraph", "model")]
        assert repr(value) == f"{name}({', '.join(f'{f}={fields.index(f)}' for f in shown)})"

    def test_replace_and_asdict(self, module, name, fields, frozen):
        value = record(module, name)(*range(len(fields)))
        changed = value._replace(**{fields[-1]: "x"})
        assert type(changed) is type(value)
        assert changed == (*range(len(fields) - 1), "x")
        assert value._asdict() == dict(zip(fields, range(len(fields))))


@pytest.mark.parametrize("module, name, fields, frozen", [r for r in RECORDS if r[3]],
                         ids=[r[1] for r in RECORDS if r[3]])
def test_frozen_record_hashes_its_values(module, name, fields, frozen):
    values = tuple(range(len(fields)))
    assert hash(record(module, name)(*values)) == hash(values)


def test_every_record_is_listed():
    """No module in the package defines a named tuple this table misses."""
    listed = {(module, name) for module, name, _, _ in RECORDS}
    found = set()
    for module in {module for module, _, _, _ in RECORDS}:
        mod = importlib.import_module(f"hydiag.{module}")
        for name, value in vars(mod).items():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and value.__module__ == mod.__name__ and name != "Region"):
                found.add((module, name))
    assert found == listed


def test_repr_of_nested_records():
    from hydiag.estimator import Classification, EstimatorGraph, EstimatorState
    from hydiag.quotient import Lasso

    lasso = Lasso.from_steps(0, [("tick", 1)], [("tick", 0), ("tick", 1)])
    assert repr(lasso) == (
        "Lasso(prefix=UTrace(head=0, steps=(('tick', 1),)), "
        "cycle=UTrace(head=1, steps=(('tick', 0), ('tick', 1))))"
    )
    state = EstimatorState((0, 2), Classification.INDETERMINATE)
    graph = EstimatorGraph([state], {0: 0}, {(0, "tick", 0): 0}, model=object())
    assert repr(graph) == (
        "EstimatorGraph(states=[EstimatorState(members=(0, 2), "
        "classification=<Classification.INDETERMINATE: 'indeterminate'>)], "
        "initials={0: 0}, transitions={(0, 'tick', 0): 0})"
    )
