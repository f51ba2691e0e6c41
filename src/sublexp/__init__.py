"""Exact sub-linear expectation calculus and CLT convergence experiments.

The package evaluates upper/lower expectations of functionals of sums of
independent and m-dependent sequences over finite ambiguity sets by exact
backward induction, solves the G-heat equation defining the G-normal limit
law, and ships the blocking, truncation, and moment-inequality diagnostics
needed to check every hypothesis of the underlying limit theorems at desk
scale.
"""

from .errors import (
    GuardError,
    PDENumericsError,
    PDEStabilityError,
    StateCapError,
    SublexpError,
    ValidationError,
)
from .laws import (
    AmbiguitySet,
    DiscreteLaw,
    Event,
    MomentSummary,
    ambiguity,
    bernoulli_pm1,
    centered_three_point_law,
    lower_capacity,
    lower_expect,
    moments,
    point_mass,
    singleton,
    truncate,
    two_point_law,
    upper_capacity,
    upper_expect,
)
from .engine import (
    EvalResult,
    Functional,
    SequenceModel,
    bounded_lipschitz_catalog,
    catalog,
    catalog_by_name,
    compile_sum,
    eval_sum,
    eval_sums,
    eval_window,
    evaluate,
    evaluate_columns,
    marginals,
    oracle_policy_enum,
    scaled,
)
from .gnormal import (
    G,
    GParams,
    PDEGrid,
    default_grid,
    gnormal_reference,
    peng_oracle,
    solve_gheat,
    solve_gheats,
)
from .experiments import (
    ExperimentConfig,
    load_config,
    reference_experiments,
)

__version__ = "0.1.0"
