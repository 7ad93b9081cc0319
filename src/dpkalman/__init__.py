"""Differentially private steady-state Kalman filtering.

Calibrate Gaussian privacy noise for shared output trajectories, solve the
steady-state filter any recipient of the privatized stream would run,
evaluate analytic bounds on that recipient's error and entropy, invert the
bounds to select privacy levels, and validate everything by seeded Monte
Carlo simulation.

``__all__`` holds the public names the README lists under "Public API";
everything else (result types, error subclasses, matrix helpers) is imported
from its own module, e.g. ``dpkalman.errors`` or ``dpkalman.linalg``.
"""

from .bounds import (
    APOSTERIORI_LOGDET,
    APOSTERIORI_TRACE,
    APRIORI_LOGDET,
    APRIORI_TRACE,
    all_bounds,
    aposteriori_logdet_bounds,
    aposteriori_trace_bounds,
    apriori_logdet_bounds,
    apriori_trace_bounds,
)
from .calibration import CalibrationTarget, calibrate_aposteriori, calibrate_apriori, verify_calibration
from .config import build_agents, build_privacy, load_config
from .errors import DPKalmanError, NumericalError, ValidationError
from .filtering import FilterState, FilterTrajectory, run_filter, solve_filter
from .linalg import SystemModel, solve_dare
from .network import AgentSpec, compose, per_agent_slices
from .privacy import PrivacyConfig, privatize
from .simulation import SimulationConfig, simulate, write_csv

__version__ = "0.1.0"

__all__ = [
    "APOSTERIORI_LOGDET",
    "APOSTERIORI_TRACE",
    "APRIORI_LOGDET",
    "APRIORI_TRACE",
    "AgentSpec",
    "CalibrationTarget",
    "DPKalmanError",
    "FilterState",
    "FilterTrajectory",
    "NumericalError",
    "PrivacyConfig",
    "SimulationConfig",
    "SystemModel",
    "ValidationError",
    "all_bounds",
    "aposteriori_logdet_bounds",
    "aposteriori_trace_bounds",
    "apriori_logdet_bounds",
    "apriori_trace_bounds",
    "build_agents",
    "build_privacy",
    "calibrate_aposteriori",
    "calibrate_apriori",
    "compose",
    "load_config",
    "per_agent_slices",
    "privatize",
    "run_filter",
    "simulate",
    "solve_dare",
    "solve_filter",
    "verify_calibration",
    "write_csv",
]
