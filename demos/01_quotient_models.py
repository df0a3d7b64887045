"""Build a quotient model by hand and query it.

The model here is the four-class "Q1" system: a non-faulty part that
alternates between two observables on each tick, and a faulty part that
gets stuck on a constant observable.  Because the fault action is
silent, the only way to notice it is through that broken alternation.
"""

from hydiag import (
    ActionLabel,
    ClassInfo,
    Kind,
    QuotientModel,
    external_moves,
    unobservable_closure,
    validate_model,
)

tick = ActionLabel("tick", Kind.EXTERNAL)
fault = ActionLabel("f", Kind.FAULT)

model = QuotientModel(
    classes=[
        ClassInfo(0, faulty=False, initial=True, obs=0),   # n0
        ClassInfo(1, faulty=False, initial=False, obs=1),  # n1
        ClassInfo(2, faulty=True, initial=False, obs=0),   # f0
        ClassInfo(3, faulty=True, initial=False, obs=1),   # f1
    ],
    actions=[tick, fault],
    edges=[
        (0, "tick", 1),
        (1, "tick", 0),
        (0, "f", 2),   # the fault can strike at any moment...
        (1, "f", 3),
        (2, "tick", 2),  # ...after which the observable freezes
        (3, "tick", 3),
    ],
)

print("validation:", validate_model(model).ok)

# Before anything is observed, the system may already have faulted:
print("silent closure of {n0}:", sorted(unobservable_closure(model, {0})))

# One tick later, the observable tells the two futures apart:
for dst, obs in external_moves(model)[(0, "tick")]:
    print(f"tick observed in o{obs} -> [{dst}]")

# Validation reports broken axioms as data, with witnesses:
broken = QuotientModel(
    classes=model.classes,
    actions=model.actions,
    edges=[(s, a.name, d) for s, a, d in model.edges if (s, d) != (1, 3)],
)
for violation in validate_model(broken).violations:
    print("violation:", violation.rule, "at", violation.subject, "-", violation.message)
