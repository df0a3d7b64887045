"""hydiag: time-abstract fault diagnosability and diagnoser synthesis.

Works on finite time-abstract quotients of hybrid systems with a single
fault action.  Quotients can be supplied directly or computed from timed
automata via the region construction; the toolkit decides diagnosability
(no sustainable ambiguity in the state estimator), synthesizes an
executable online diagnoser, and ships an independent twin-plant oracle
for cross-checking every verdict.
"""

from .diagnosability import (
    DiagnosabilityVerdict,
    ProgressReport,
    ProgressWitness,
    check_diagnosable,
    check_progressive,
    detection_delay_bound,
    replay_lasso,
)
from .diagnoser import (
    Verdict,
    load_diagnoser,
    run_trace,
    step,
    synthesize,
)
from .errors import (
    CapExceeded,
    ModelFormatError,
    NoConsistentExecution,
    PartitionError,
    TAValidationError,
)
from .estimator import (
    Classification,
    EstimatorGraph,
    EstimatorState,
    build_estimator,
    classify,
    initial_estimates,
)
from .oracle import (
    CounterExample,
    OracleVerdict,
    brute_force_diagnosable,
    enumerate_utraces,
    random_model,
    random_models,
    simulate_runs,
    twin_product,
    verify_counterexample,
)
from .quotient import (
    ActionLabel,
    ClassInfo,
    Kind,
    Lasso,
    QuotientModel,
    UTrace,
    ValidationReport,
    external_moves,
    load_model,
    unobservable_closure,
    validate_model,
)
from .regions import (
    Region,
    TimedAutomatonWithFaults,
    load_ta,
    parse_ta,
    region_count_bound,
    region_quotient,
)

__version__ = "0.1.0"
