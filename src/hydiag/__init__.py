"""hydiag: time-abstract fault diagnosability and diagnoser synthesis.

Works on finite time-abstract quotients of hybrid systems with a single
fault action.  Quotients can be supplied directly or computed from timed
automata via the region construction; the toolkit decides diagnosability
(no sustainable ambiguity in the state estimator), synthesizes an
executable online diagnoser, and ships an independent twin-plant oracle
for cross-checking every verdict.

Public names are served lazily (PEP 562): the first use of one imports
the module that defines it, so a program loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "diagnosability": "DiagnosabilityVerdict ProgressReport ProgressWitness check_diagnosable"
    " check_progressive detection_delay_bound replay_lasso",
    "diagnoser": "Verdict load_diagnoser run_trace step synthesize",
    "errors": "CapExceeded ModelFormatError NoConsistentExecution PartitionError"
    " TAValidationError",
    "estimator": "Classification EstimatorGraph EstimatorState build_estimator classify"
    " initial_estimates",
    "oracle": "CounterExample OracleVerdict brute_force_diagnosable enumerate_utraces"
    " random_model random_models simulate_runs twin_product verify_counterexample",
    "quotient": "ActionLabel ClassInfo Kind Lasso QuotientModel UTrace ValidationReport"
    " external_moves load_model unobservable_closure validate_model",
    "regions": "Region TimedAutomatonWithFaults load_ta parse_ta region_count_bound"
    " region_quotient",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "graphs")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
