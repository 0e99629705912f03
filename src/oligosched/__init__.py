"""Dynamic-oligopoly load scheduling toolkit.

Closed-form linear strategies and welfare/risk analysis for the two-type
market, Monte Carlo simulation of the arrival-driven dynamics, the
general-L surrogate system with H2 performance measures, fixed-point
computation of linear-pricing equilibria, Pareto-front synthesis, and the
system operator's pricing design.
"""

__version__ = "0.1.0"

from .analysis import (
    RiskBound,
    StationaryMoments,
    efficiency,
    mixture_component_moments,
    mixture_tail_probability,
    risk_upper_bound,
    stationary_moments,
)
from .errors import (
    FixedPointUnstableError,
    InsufficientSamplesError,
    InvalidMarginError,
    InvalidParamsError,
    NonStationaryError,
    NoSolutionError,
    NoStableRootError,
    NotConvergedError,
    OligoschedError,
    SingularRowError,
    UnstableError,
)
from .fixed_point import (
    FixedPointConfig,
    MpeSolution,
    PricingRule,
    even_split_gain,
    f_map,
    marginal_cost_pricing,
    solve_mpe,
)
from .operator_design import (
    OperatorResult,
    OperatorWeights,
    evaluate_pricing,
    optimize_pricing,
)
from .pareto import (
    ParetoPoint,
    default_weight_grid,
    objective_and_gradient,
    synthesize,
    trace_front,
)
from .simulate import (
    ArrivalSpec,
    ConditionalTailReport,
    PathStats,
    SimConfig,
    conditional_tail_report,
    simulate_general,
    simulate_l2,
)
from .statespace import (
    FeedbackGain,
    H2Report,
    OutputWeights,
    StateSpace,
    br_demand_volatility_approx,
    build_state_space,
    h2_norms,
    make_f_alpha,
    make_f_br,
    make_f_dl_projection,
    solve_lyapunov,
)
from .strategies import (
    CoopValue,
    LinearStrategyL2,
    MarketParamsL2,
    RiskSensitiveCoeffs,
    RiskSensitivity,
    baseline_strategies,
    congestion_strategy,
    coop_strategy,
    coop_value,
    k_agent_strategy,
    mpe_strategy,
    risk_sensitive_coeffs,
    risk_sensitive_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
