"""Dynamic-oligopoly load scheduling toolkit.

Closed-form linear strategies and welfare/risk analysis for the two-type
market, Monte Carlo simulation of the arrival-driven dynamics, the
general-L surrogate system with H2 performance measures, fixed-point
computation of linear-pricing equilibria, Pareto-front synthesis, and the
system operator's pricing design.

Imported before numpy, it has OpenBLAS run one thread unless a thread
count is set (see README).  The package imports none of its modules: each
public name in ``__all__`` (and each submodule) is imported on first use.
"""

import importlib as _importlib
import os as _os
import sys as _sys

__version__ = "0.1.0"


def _blas_threads():
    """The OpenBLAS thread count set in the environment: the first of the
    variables OpenBLAS reads that is set, or None."""
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    return next((_os.environ[v] for v in names if _os.environ.get(v)), None)


# The dense algebra here is D_c = L(L+1)/2 wide, 6 to 105 in the usual
# commands, below where a second OpenBLAS thread pays; an idle worker only
# spins through start-up.  OpenBLAS reads its thread count when numpy
# loads, so set the default before the first numpy import, and never over
# a count the user set.
if "numpy" not in _sys.modules and _blas_threads() is None:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Each public name, by the module that defines it.  A name resolves on
# first use (PEP 562), so ``import oligosched`` loads no submodule and a
# command loads only the modules it runs.
_EXPORTS = {
    "analysis": ("RiskBound", "StationaryMoments", "efficiency", "mixture_component_moments",
                 "mixture_tail_probability", "risk_upper_bound", "stationary_moments"),
    "errors": ("FixedPointUnstableError", "InsufficientSamplesError", "InvalidMarginError",
               "InvalidParamsError", "NonStationaryError", "NoSolutionError",
               "NoStableRootError", "NotAnEquilibriumError", "NotConvergedError",
               "OligoschedError", "SingularRowError", "UnstableError"),
    "fixed_point": ("FixedPointConfig", "MpeSolution", "PricingRule", "even_split_gain",
                    "f_map", "marginal_cost_pricing", "solve_mpe"),
    "operator_design": ("OperatorResult", "OperatorWeights", "evaluate_pricing",
                        "optimize_pricing"),
    "pareto": ("ParetoPoint", "default_weight_grid", "objective_and_gradient", "synthesize",
               "trace_front"),
    "simulate": ("ArrivalSpec", "ConditionalTailReport", "PathStats", "SimConfig",
                 "conditional_tail_report", "simulate_general", "simulate_l2"),
    "statespace": ("FeedbackGain", "H2Report", "OutputWeights", "StateSpace",
                   "br_demand_volatility_approx", "build_state_space", "h2_norms",
                   "make_f_alpha", "make_f_br", "make_f_dl_projection", "solve_lyapunov"),
    "strategies": ("CoopValue", "LinearStrategyL2", "MarketParamsL2", "RiskSensitiveCoeffs",
                   "RiskSensitivity", "baseline_strategies", "congestion_strategy",
                   "coop_strategy", "coop_value", "k_agent_strategy", "mpe_strategy",
                   "risk_sensitive_coeffs", "risk_sensitive_strategy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "rngstreams", "cli", "_render", "_textio"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, taken from its module on first use and kept here; or
    a submodule, which importing binds here."""
    if name in _MODULE_OF:
        value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
