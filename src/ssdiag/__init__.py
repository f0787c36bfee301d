"""Design-based simulation diagnostics for shift-share regression inference."""

from .analytics import (
    ConvergenceRow,
    EnumerationResult,
    StylizedParams,
    enumerate_assignment_variance,
    eps_fixed_variance_ratio_limit,
    randomization_variance_robust,
    randomization_variance_true,
    ratio_convergence_experiment,
    y_fixed_variance_ratio_limit,
)
from .data import (
    Dataset,
    PartitionDesign,
    contiguous_partition,
    validate_dataset,
)
from .dgp import (
    GroupedDGP,
    PANEL_PARAMS,
    crossed_shares,
    draw_flagging,
    draw_grouped,
    run_flagging_curve,
    run_grouped_experiment,
)
from .engines import (
    ESTIMATORS,
    ShareDesign,
    SimConfig,
    SimReport,
    run_outcome_fixed,
    share_design,
)
from .errors import BudgetError, DegeneracyError, SsdiagError, ValidationError
from .estimators import (
    RegressionFit,
    VarianceEstimate,
    ols_simple,
)

__version__ = "0.1.0"
