"""Privacy-level selection from target error bounds.

Given a target interval [B_l, B_u] for the steady-state mean squared error
(prediction or estimation), these routines invert the trace bounds into a
sufficient epsilon interval

    (1/8) * ((1 + sqrt(36 eta + 1)) / eta)^2  <=  epsilon  <=  1 / eta_lo,

valid for delta in [1e-5, 1e-1] with the noise scale set to the minimal
compliant value. The interval may be empty: infeasibility is a reported
outcome, not an error, since the condition is sufficient rather than tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import _inputs, json_number
from .errors import DegenerateSystemError, InvalidTargetError, OutOfDomainError
from .linalg import SystemModel, _as_real, solve_dare
from .privacy import gaussian_sigma, sensitivity_bound

APRIORI = "apriori"
APOSTERIORI = "aposteriori"

DELTA_MIN = 1e-5
DELTA_MAX = 1e-1


@dataclass(frozen=True)
class CalibrationTarget:
    """Requested MSE interval [B_l, B_u] for one error kind."""

    kind: str
    B_l: float
    B_u: float
    delta: float
    adjacency_B: float

    def __post_init__(self):
        for name in ("B_l", "B_u", "delta", "adjacency_B"):
            _as_real(getattr(self, name), name)
        if self.kind not in (APRIORI, APOSTERIORI):
            raise InvalidTargetError(f"kind must be '{APRIORI}' or '{APOSTERIORI}', got {self.kind!r}")
        if not self.B_l < self.B_u:
            raise InvalidTargetError(f"target needs B_l < B_u, got [{self.B_l}, {self.B_u}]")
        if self.kind == APOSTERIORI and self.B_l <= 0.0:
            raise InvalidTargetError(f"aposteriori target needs B_l > 0, got {self.B_l}")
        if not DELTA_MIN <= self.delta <= DELTA_MAX:
            raise InvalidTargetError(
                f"delta must lie in [{DELTA_MIN}, {DELTA_MAX}] for calibration, got {self.delta}"
            )
        if not (math.isfinite(self.adjacency_B) and self.adjacency_B > 0.0):
            raise InvalidTargetError(f"adjacency_B must be positive, got {self.adjacency_B}")


@dataclass(frozen=True)
class EpsilonInterval:
    """Sufficient epsilon range with diagnostics.

    ``feasible`` iff eps_min <= eps_max. The noise scales the mechanism
    would use at both endpoints are included so callers see the span of the
    privacy/utility trade-off.
    """

    eps_min: float
    eps_max: float
    feasible: bool
    eta_values: dict[str, float] = field(default_factory=dict)
    sigma_at_eps_min: float = 0.0
    sigma_at_eps_max: float = 0.0

    def to_dict(self) -> dict:
        # non-finite endpoints (degenerate output channels) become null
        return {
            "eps_min": json_number(self.eps_min),
            "eps_max": json_number(self.eps_max),
            "feasible": bool(self.feasible),
            "eta_values": {k: float(v) for k, v in self.eta_values.items()},
            "sigma_at_eps_min": float(self.sigma_at_eps_min),
            "sigma_at_eps_max": float(self.sigma_at_eps_max),
        }


@dataclass(frozen=True)
class CalibrationVerification:
    """Ground-truth check of one epsilon choice against the target."""

    sigma: float
    achieved_trace: float
    within_bounds: bool

    def to_dict(self) -> dict:
        return {
            "sigma": float(self.sigma),
            "achieved_trace": float(self.achieved_trace),
            "within_bounds": bool(self.within_bounds),
        }


def _epsilon_floor(eta: float) -> float:
    if eta <= 0.0:
        return math.inf
    return 0.125 * ((1.0 + math.sqrt(36.0 * eta + 1.0)) / eta) ** 2


def _interval(eta_lo: float, eta_hi: float, names: tuple[str, str],
              delta: float, sensitivity: float) -> EpsilonInterval:
    # eta_lo drives eps_max (lower target bound), eta_hi drives eps_min.
    eps_min = _epsilon_floor(eta_hi)
    eps_max = math.inf if eta_lo == 0.0 else 1.0 / eta_lo
    return EpsilonInterval(
        eps_min=eps_min,
        eps_max=eps_max,
        feasible=eps_min <= eps_max,
        eta_values={names[0]: eta_lo, names[1]: eta_hi},
        sigma_at_eps_min=gaussian_sigma(eps_min, delta, sensitivity) if math.isfinite(eps_min) else 0.0,
        sigma_at_eps_max=gaussian_sigma(eps_max, delta, sensitivity) if math.isfinite(eps_max) else 0.0,
    )


def _sensitivity_for(system: SystemModel, target: CalibrationTarget) -> float:
    sens = sensitivity_bound(system.C, target.adjacency_B)
    if sens <= 0.0:
        raise InvalidTargetError("output sensitivity is zero; no noise level can be calibrated")
    return sens


def calibrate_apriori(system: SystemModel, target: CalibrationTarget) -> EpsilonInterval:
    """Epsilon interval keeping the steady-state prediction MSE in [B_l, B_u]."""
    if target.kind != APRIORI:
        raise InvalidTargetError(f"target kind is {target.kind!r}, expected '{APRIORI}'")
    sens = _sensitivity_for(system, target)
    _, _, cu2, cl2, lam_min_w, _, tr_w, _ = _inputs(system, np.ones(system.n))
    tr_hth = float(np.sum(system.H * system.H))
    if tr_hth == 0.0:
        raise DegenerateSystemError("tr(H^T H) is zero; the prediction MSE cannot exceed tr W")
    if target.B_l <= tr_w:
        raise InvalidTargetError(f"B_l = {target.B_l} must exceed tr W = {tr_w}")
    denom = tr_hth * lam_min_w - target.B_l + tr_w
    if denom <= 0.0:
        raise InvalidTargetError(
            f"B_l = {target.B_l} must stay below tr W + tr(H^T H) * lambda_min(W) = "
            f"{tr_w + tr_hth * lam_min_w}"
        )
    eta1 = math.sqrt((target.B_l - tr_w) * lam_min_w * cu2 / (sens**2 * denom))
    eta3 = math.sqrt((target.B_u - tr_w) * cl2 / (sens**2 * tr_hth))
    return _interval(eta1, eta3, ("eta1", "eta3"), target.delta, sens)


def calibrate_aposteriori(system: SystemModel, target: CalibrationTarget) -> EpsilonInterval:
    """Epsilon interval keeping the steady-state estimation MSE in [B_l, B_u]."""
    if target.kind != APOSTERIORI:
        raise InvalidTargetError(f"target kind is {target.kind!r}, expected '{APOSTERIORI}'")
    sens = _sensitivity_for(system, target)
    _, _, cu2, cl2, lam_min_w, _, _, _ = _inputs(system, np.ones(system.n))
    n = system.n
    denom = n - target.B_l / lam_min_w
    if denom <= 0.0:
        raise InvalidTargetError(
            f"B_l = {target.B_l} must stay below n * lambda_min(W) = {n * lam_min_w}"
        )
    eta2 = math.sqrt(target.B_l * cu2 / (sens**2 * denom))
    eta4 = math.sqrt(target.B_u * cl2 / (n * sens**2))
    return _interval(eta2, eta4, ("eta2", "eta4"), target.delta, sens)


def verify_calibration(system: SystemModel, target: CalibrationTarget,
                       epsilon: float) -> CalibrationVerification:
    """Solve the steady state at ``epsilon`` and check the achieved MSE.

    Uses the minimal compliant isotropic noise scale, exactly as the
    calibration assumes. The scale is positive whenever the sensitivity is,
    so the noise covariance stays invertible.
    """
    epsilon = _as_real(epsilon, "epsilon")
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise OutOfDomainError(f"epsilon must be positive and finite, got {epsilon}")
    sens = _sensitivity_for(system, target)
    sigma = gaussian_sigma(epsilon, target.delta, sens)
    with np.errstate(over="ignore", invalid="ignore"):  # solve_dare rejects a variance past float range
        V = np.float64(sigma) ** 2 * np.eye(system.q)
    ric = solve_dare(system, V)
    if target.kind == APRIORI:
        achieved = float(np.trace(ric.sigma))
    else:
        achieved = float(np.trace(ric.sigma_bar))
    return CalibrationVerification(
        sigma=sigma,
        achieved_trace=achieved,
        within_bounds=target.B_l <= achieved <= target.B_u,
    )
