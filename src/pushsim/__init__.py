"""Deterministic push-sum averaging and push-sum subgradient descent on
time-varying directed networks, with finite-time certificate checking."""

from .graphs import (
    Digraph,
    GraphSequence,
    connectivity_windows,
    digraph,
    generate_sequence,
    parse_graph_sequence,
    uniform_connectivity_window,
)
from .weights import (
    WeightMatrix,
    WeightStack,
    WeightValidation,
    build_weight_stack,
    build_weights,
    parse_matrix,
    validate_column_stochastic,
)
from .pushsum import (
    AbsProbSeq,
    CompanionView,
    NetworkState,
    SMatrix,
    TheoryConstants,
    absolute_probability,
    build_s_matrix,
    initial_state,
    pushsum_step,
    ratio_state,
    theory_constants,
)
from .subgradient import (
    AbsoluteTerm,
    HingeTerm,
    ObjectiveSpec,
    QuadraticTerm,
    RunTrace,
    ScheduleReport,
    StepsizeSchedule,
    ZeroTerm,
    hinge_objective,
    l1_objective,
    quadratic_objective,
    run_push_subgradient,
    stepsize,
    stepsize_array,
    subgradient,
    validate_schedule,
    zero_objective,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    BoundSeries,
    ContractionSeries,
    GeometricFit,
    RateFit,
    agent_series,
    bound_fixed,
    contraction_series,
    fit_geometric_rate,
    fit_rate,
    timevarying_series,
)
from .harness import (
    CheckResult,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SummaryReport,
    ValidationFailure,
    apply_overrides,
    export_trace,
    import_trace,
    load_config,
    parse_config,
    report_from_dir,
    run_experiment,
    sweep_experiment,
    verify_experiment,
    write_report,
)

__version__ = "0.1.0"
