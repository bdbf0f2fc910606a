"""Rate regions and power splitting for two-user SWIPT multiple-access
channels whose receivers pay a rate-dependent decoding cost out of the
harvested energy.

Modules
-------
models            EH / decoding-cost model families and parameter records
numerics          bracketed bisection, critical points of an array
                  objective, 2x2 linear solve
region            boundary curves, time-sharing hulls, dominance metrics
classical_simul   simultaneous decoding: bounds, breakpoints, MDRB, sum rate
classical_sic     successive decoding: both orders, MDRB, sum rate
coop_mac          user cooperation: weighted-rate solvers and MDRB
oracle            brute-force grid maximizers for cross-checking the above
cli               `swipt-mac` command-line front end
"""

from .models import (
    UNBOUNDED,
    ClassicalParams,
    ConstCost,
    CoopParams,
    CostModel,
    EhModel,
    ExpCost,
    LinCost,
    LinearEh,
    LogCost,
    LogisticEh,
    ModelDomainError,
    NoInverseError,
    PowerAllocation,
    RatePoint,
    SaturationError,
    SolveReport,
)
from .numerics import (
    BracketError,
    ConvergenceError,
    EvaluationError,
    RootConfig,
    ScanConfig,
    SingularMatrixError,
    bisect_root,
    critical_points,
    solve_2x2,
)
from .region import BoundaryCurve, dominates, hausdorff
from .classical_simul import (
    InfeasibleRegionError,
    SimulBreakpoints,
    mdrb_simultaneous,
    rate_bound_sum,
    rate_bound_user1,
    rate_bound_user2,
    simul_breakpoints,
    simul_closed_form,
    simul_feasible,
    sumrate_simultaneous,
)
from .classical_sic import (
    DecodingOrder,
    SicBreakpoints,
    SicClosedForm,
    mdrb_sic,
    sic_breakpoints,
    sic_feasible,
    sic_max_sum_at_rho,
    sic_rate_bounds,
    sic_sumrate_closed_form,
    sic_sumrate_numeric,
)
from .coop_mac import (
    CoopSolution,
    NonUniqueSolutionError,
    classicalized,
    coop_constraints_eval,
    coop_mdrb,
    coop_solve_closed_form,
    coop_solve_general,
)
from .oracle import oracle_coop_weighted, oracle_sic_sumrate, oracle_simul_sumrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "UNBOUNDED",
    "ModelDomainError",
    "SaturationError",
    "NoInverseError",
    "EhModel",
    "LogisticEh",
    "LinearEh",
    "CostModel",
    "ExpCost",
    "LogCost",
    "LinCost",
    "ConstCost",
    "ClassicalParams",
    "CoopParams",
    "PowerAllocation",
    "RatePoint",
    "SolveReport",
    # numerics
    "RootConfig",
    "ScanConfig",
    "BracketError",
    "ConvergenceError",
    "EvaluationError",
    "SingularMatrixError",
    "bisect_root",
    "critical_points",
    "solve_2x2",
    # region
    "BoundaryCurve",
    "dominates",
    "hausdorff",
    # simultaneous decoding
    "InfeasibleRegionError",
    "SimulBreakpoints",
    "rate_bound_user1",
    "rate_bound_user2",
    "rate_bound_sum",
    "simul_feasible",
    "simul_breakpoints",
    "mdrb_simultaneous",
    "sumrate_simultaneous",
    "simul_closed_form",
    # successive decoding
    "DecodingOrder",
    "SicBreakpoints",
    "SicClosedForm",
    "sic_rate_bounds",
    "sic_feasible",
    "sic_breakpoints",
    "mdrb_sic",
    "sic_max_sum_at_rho",
    "sic_sumrate_numeric",
    "sic_sumrate_closed_form",
    # cooperation
    "NonUniqueSolutionError",
    "CoopSolution",
    "coop_constraints_eval",
    "coop_solve_closed_form",
    "coop_solve_general",
    "coop_mdrb",
    "classicalized",
    # oracles
    "oracle_simul_sumrate",
    "oracle_sic_sumrate",
    "oracle_coop_weighted",
]
