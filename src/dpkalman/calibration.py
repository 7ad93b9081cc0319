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
from dataclasses import dataclass

import numpy as np

from .bounds import apriori_trace_bounds, to_json
from .errors import DegenerateSystemError, InvalidTargetError, OutOfDomainError
from .filtering import solve_filter
from .linalg import SystemModel, _as_real, solve_dare  # noqa: F401 (bench/test_bench.py looks solve_dare up here)
from .privacy import _radius, gaussian_sigma, sensitivity_bound

APRIORI = "apriori"
APOSTERIORI = "aposteriori"

# Per target kind: the names of eta_lo and eta_hi, and the solved covariance
# (prediction or estimation) whose trace the target bounds.
_KINDS = {APRIORI: ("eta1", "eta3", "sigma"), APOSTERIORI: ("eta2", "eta4", "sigma_bar")}

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
        if self.kind not in tuple(_KINDS):  # a tuple, since a kind may be unhashable
            raise InvalidTargetError(f"kind must be '{APRIORI}' or '{APOSTERIORI}', got {self.kind!r}")
        if not self.B_l < self.B_u:
            raise InvalidTargetError(f"target needs B_l < B_u, got [{self.B_l}, {self.B_u}]")
        if self.kind == APOSTERIORI and self.B_l <= 0.0:
            raise InvalidTargetError(f"aposteriori target needs B_l > 0, got {self.B_l}")
        if not DELTA_MIN <= self.delta <= DELTA_MAX:
            raise InvalidTargetError(
                f"delta must lie in [{DELTA_MIN}, {DELTA_MAX}] for calibration, got {self.delta}"
            )
        _radius(self.adjacency_B)


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
    eta_values: dict[str, float]
    sigma_at_eps_min: float
    sigma_at_eps_max: float

    def to_dict(self) -> dict:
        return to_json(self)


@dataclass(frozen=True)
class CalibrationVerification:
    """Ground-truth check of one epsilon choice against the target."""

    sigma: float
    achieved_trace: float
    within_bounds: bool

    def to_dict(self) -> dict:
        return to_json(self)


def _epsilon_floor(eta: float) -> float:
    # 0.125 ((1 + sqrt(36 eta + 1)) / eta)^2, written in t = 1 / eta so that
    # no eta in (0, inf] overflows to a NaN
    if eta <= 0.0:
        return math.inf
    t = 1.0 / eta
    root = t + math.sqrt(36.0 * t + t * t)
    return 0.125 * (root * root)


def _sensitivity_for(system: SystemModel, target: CalibrationTarget) -> float:
    sens = sensitivity_bound(system.C, target.adjacency_B)
    if sens <= 0.0:
        raise InvalidTargetError("output sensitivity is zero; no noise level can be calibrated")
    return sens


def _calibrate(system: SystemModel, target: CalibrationTarget, kind: str) -> EpsilonInterval:
    # Both trace bounds read offset + scale * s with s0 <= s <= s1, so each
    # target maps to per-dimension targets b = (B - offset) / scale and
    # inverts through the same etas; a target is admissible iff
    # 0 < b_l < lambda_min(W). Each output-map entry is divided by the
    # sensitivity, which scales with it, before it multiplies anything, so no
    # output map or radius in float range overflows or underflows here.
    if target.kind != kind:
        raise InvalidTargetError(f"target kind is {target.kind!r}, expected '{kind}'")
    sens = _sensitivity_for(system, target)
    window = apriori_trace_bounds(system, np.ones(system.q)).intermediates
    lam_min_w, tr_w, tr_hth = window["lambda_min_w"], window["tr_w"], window["tr_hth"]
    if kind == APRIORI:
        offset, scale = tr_w, tr_hth
        if scale == 0.0:
            raise DegenerateSystemError("tr(H^T H) is zero; the prediction MSE cannot exceed tr W")
        if target.B_l <= tr_w:
            raise InvalidTargetError(f"B_l = {target.B_l} must exceed tr W = {tr_w}")
        reach = "tr W + tr(H^T H) * lambda_min(W)"
    else:
        offset, scale, reach = 0.0, float(system.n), "n * lambda_min(W)"
    b_l, b_u = (target.B_l - offset) / scale, (target.B_u - offset) / scale
    if not b_l < lam_min_w:
        raise InvalidTargetError(
            f"B_l = {target.B_l} must stay below {reach} = {offset + scale * lam_min_w}"
        )
    # eta_lo drives eps_max (lower target bound), eta_hi drives eps_min
    eta_lo = math.sqrt(b_l * lam_min_w / (lam_min_w - b_l)) * (abs(window["c_u"]) / sens)
    eta_hi = math.sqrt(b_u) * (abs(window["c_l"]) / sens)
    eps_min = _epsilon_floor(eta_hi)
    eps_max = math.inf if eta_lo == 0.0 else 1.0 / eta_lo
    # the noise at each end; gaussian_sigma gives 0 at an infinite epsilon,
    # and epsilon 0 takes infinite noise
    sigmas = [gaussian_sigma(eps, target.delta, sens) if eps > 0.0 else math.inf
              for eps in (eps_min, eps_max)]
    lo_name, hi_name, _ = _KINDS[kind]
    return EpsilonInterval(eps_min, eps_max, eps_min <= eps_max,
                           {lo_name: eta_lo, hi_name: eta_hi}, *sigmas)


def calibrate_apriori(system: SystemModel, target: CalibrationTarget) -> EpsilonInterval:
    """Epsilon interval keeping the steady-state prediction MSE in [B_l, B_u]."""
    return _calibrate(system, target, APRIORI)


def calibrate_aposteriori(system: SystemModel, target: CalibrationTarget) -> EpsilonInterval:
    """Epsilon interval keeping the steady-state estimation MSE in [B_l, B_u]."""
    return _calibrate(system, target, APOSTERIORI)


# The calibrator of each target kind, in the order the CLI lists them.
CALIBRATORS = {APRIORI: calibrate_apriori, APOSTERIORI: calibrate_aposteriori}


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
    ric = solve_filter(system, np.full(system.q, sigma)).riccati
    achieved = float(np.trace(getattr(ric, _KINDS[target.kind][2])))
    return CalibrationVerification(
        sigma=sigma,
        achieved_trace=achieved,
        within_bounds=target.B_l <= achieved <= target.B_u,
    )
