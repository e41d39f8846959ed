"""Scheduling to minimize time-average nonlinear age-of-information costs.

N sources share one broadcast slot per time step over reliable or Bernoulli
channels. This package synthesizes index (whittle) policies from single-arm
decoupled problems, evaluates any policy exactly (cycle detection) or by
seeded Monte Carlo, computes exact optima by finite-horizon DP over truncated
age boxes, and verifies the structural theory (threshold optimality,
indexability, strong-switch shape, two-source index-policy optimality).
"""

__version__ = "0.1.0"

from . import config, cost, decoupled, dp, policies, runner, sim, structure  # noqa: F401
from .cost import (  # noqa: F401
    CostFunction,
    exponential,
    indicator,
    is_bounded_cost,
    linear,
    logarithmic,
    power,
    table,
)
from .decoupled import (  # noqa: F401
    NEVER,
    DecoupledProblem,
    ThresholdPolicy,
    decoupled_value_iteration,
    indexability_sweep,
    optimal_threshold,
    whittle_index,
)
from .policies import (  # noqa: F401
    FixedCycle,
    MaxAge,
    RoundRobin,
    Source,
    StationaryRandomized,
    SystemSpec,
    Whittle,
    decide,
    whittle_index_table,
)
from .dp import TruncatedBox, extract_cycle_policy, finite_horizon_dp  # noqa: F401
from .sim import Cycle, SimulationResult, detect_cycle, divergence_probe, simulate  # noqa: F401
from .structure import (  # noqa: F401
    best_two_source_cycle,
    certify_theorem3,
    check_strong_switch,
    two_source_cycle_cost,
)
