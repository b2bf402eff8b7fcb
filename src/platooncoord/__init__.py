"""Coordinated junction platooning: cost model, threshold-policy solvers,
and a renewal-arrival junction simulator."""

from .arrivals import (
    ArrivalModel,
    Constant,
    DiscreteRandom,
    Exponential,
    RateEstimator,
    make_rng,
    rate_estimates,
)
from .cost import (
    CostConstants,
    CostParams,
    compute_constants,
    nominal_params,
    platoon_bonus,
    reward,
    reward_cruise,
    reward_merge,
    reward_merge_derivative,
)
from .dp import (
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    REDUCED_GRID,
    SolveResult,
    SolverError,
    StateGrid,
    ThresholdPolicy,
    ValueFunction,
    solve_bvi,
    solve_ra,
)
from .poisson import PoissonSolution, closed_form_value, residuals
from .poisson import solve as solve_poisson
from .simulate import (
    Baseline,
    FlowSchedule,
    PolicyA,
    PolicyB,
    RealTimeStrategy,
    SimulationResult,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalModel",
    "Baseline",
    "Constant",
    "CostConstants",
    "CostParams",
    "DEFAULT_EPSILON",
    "DEFAULT_GRID",
    "DiscreteRandom",
    "Exponential",
    "FlowSchedule",
    "PoissonSolution",
    "PolicyA",
    "PolicyB",
    "RateEstimator",
    "REDUCED_GRID",
    "RealTimeStrategy",
    "SimulationResult",
    "SolveResult",
    "SolverError",
    "StateGrid",
    "ThresholdPolicy",
    "ValueFunction",
    "closed_form_value",
    "compute_constants",
    "make_rng",
    "nominal_params",
    "platoon_bonus",
    "rate_estimates",
    "residuals",
    "reward",
    "reward_cruise",
    "reward_merge",
    "reward_merge_derivative",
    "simulate",
    "solve_bvi",
    "solve_poisson",
    "solve_ra",
]
