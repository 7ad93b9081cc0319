"""Analytic bounds on what a recipient of privatized outputs can infer.

All four reports bound steady-state error covariances of the filter through
the per-channel signal-to-noise ratios C_ii^2 / sigma_i^2. They require a
square, diagonal output matrix. Trace bounds cover the mean squared error of
prediction and estimation; log-determinant bounds cover the differential
entropy of the corresponding error up to fixed additive/multiplicative terms.

The upper log-determinant bound on the prediction covariance holds only under
a spectral precondition on H; when that precondition fails, the report is
marked inapplicable and carries the (always valid) lower bound alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveSigmaError, NotDiagonalError
from .linalg import SystemModel, as_matrix, as_vector, singular_values

DIAGONALITY_RTOL = 1e-12

APRIORI_TRACE = "apriori_trace"
APOSTERIORI_TRACE = "aposteriori_trace"
APRIORI_LOGDET = "apriori_logdet"
APOSTERIORI_LOGDET = "aposteriori_logdet"


def json_number(x: float) -> float | None:
    """``x`` as a float, or ``None`` (JSON null) when it is not finite."""
    return float(x) if math.isfinite(x) else None


@dataclass(frozen=True)
class ChannelExtremes:
    """Channels with the weakest (l) and strongest (u) signal-to-noise ratio."""

    l: int
    u: int
    c_l: float
    c_u: float
    sigma_l: float
    sigma_u: float


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Lower/upper values for one bound kind plus its named intermediates.

    ``upper`` is ``None`` when the bound's precondition fails (see
    ``applicable``) and ``math.inf`` when no finite upper bound exists.
    """

    kind: str
    lower: float
    upper: float | None
    applicable: bool
    intermediates: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lower": float(self.lower),
            "upper": None if self.upper is None else json_number(self.upper),
            "applicable": bool(self.applicable),
            "intermediates": {k: float(v) for k, v in self.intermediates.items()},
        }


def channel_extremes(C, sigma) -> ChannelExtremes:
    """Locate the extreme ratios C_ii^2 / sigma_i^2 of a diagonal output map.

    Ties break toward the lowest channel index.
    """
    C = as_matrix(C, "C")
    if C.shape[0] != C.shape[1]:
        raise NotDiagonalError(f"C must be square and diagonal, got shape {C.shape}")
    diag = np.diag(C).copy()
    off = C - np.diag(diag)
    off_max = float(np.max(np.abs(off)))
    diag_max = float(np.max(np.abs(diag)))
    if off_max != 0.0 and off_max >= DIAGONALITY_RTOL * diag_max:
        raise NotDiagonalError(
            f"C must be diagonal: max off-diagonal magnitude {off_max:.3e} "
            f"exceeds {DIAGONALITY_RTOL:.0e} * max |C_ii|"
        )
    sigma = as_vector(sigma, "sigma", length=C.shape[0])
    if np.any(sigma <= 0.0):
        raise NonPositiveSigmaError("all noise scales must be strictly positive")
    ratios = diag**2 / sigma**2
    l = int(np.argmin(ratios))
    u = int(np.argmax(ratios))
    return ChannelExtremes(
        l=l, u=u, c_l=float(diag[l]), c_u=float(diag[u]),
        sigma_l=float(sigma[l]), sigma_u=float(sigma[u]),
    )


def _common_quantities(system: SystemModel, sigma):
    ext = channel_extremes(system.C, sigma)
    w = np.linalg.eigvalsh(system.W)
    return ext, float(w[0]), float(w[-1])


def apriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared prediction error (tr of the
    prediction covariance)."""
    ext, lam_min_w, _ = _common_quantities(system, sigma)
    tr_w = float(np.trace(system.W))
    tr_hth = float(np.sum(system.H * system.H))
    su2, sl2 = ext.sigma_u**2, ext.sigma_l**2
    cu2, cl2 = ext.c_u**2, ext.c_l**2
    lower = tr_w + su2 * tr_hth * lam_min_w / (su2 + lam_min_w * cu2)
    upper = math.inf if cl2 == 0.0 else tr_w + sl2 * tr_hth / cl2
    return BoundReport(
        kind=APRIORI_TRACE,
        lower=lower,
        upper=upper,
        applicable=True,
        intermediates={
            "tr_w": tr_w, "tr_hth": tr_hth, "lambda_min_w": lam_min_w,
            "c_l": ext.c_l, "c_u": ext.c_u, "sigma_l": ext.sigma_l, "sigma_u": ext.sigma_u,
        },
    )


def aposteriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared estimation error (tr of the
    estimation covariance)."""
    ext, lam_min_w, _ = _common_quantities(system, sigma)
    n = system.n
    su2, sl2 = ext.sigma_u**2, ext.sigma_l**2
    cu2, cl2 = ext.c_u**2, ext.c_l**2
    lower = n * su2 / (cu2 + su2 / lam_min_w)
    upper = math.inf if cl2 == 0.0 else n * sl2 / cl2
    return BoundReport(
        kind=APOSTERIORI_TRACE,
        lower=lower,
        upper=upper,
        applicable=True,
        intermediates={
            "n": float(n), "lambda_min_w": lam_min_w,
            "c_l": ext.c_l, "c_u": ext.c_u, "sigma_l": ext.sigma_l, "sigma_u": ext.sigma_u,
        },
    )


def apriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the prediction error covariance.

    The upper bound requires s1(H)^2 < 1 + eta * C_l^2 / sigma_l^2 with
    eta = s_n(H)^2 * max_i gamma_i + lambda_min(W); the lower bound needs
    no precondition and is always reported.
    """
    ext, lam_min_w, lam_max_w = _common_quantities(system, sigma)
    sigma = as_vector(sigma, "sigma", length=system.n)
    n = system.n
    tr_w = float(np.trace(system.W))
    c_diag = np.diag(system.C)
    w_diag = np.diag(system.W)
    sig2 = sigma**2
    gammas = sig2 * w_diag / (sig2 + c_diag**2 * w_diag)
    s = singular_values(system.H)
    eta = float(s[-1] ** 2 * gammas.max() + lam_min_w)
    det_h = float(np.linalg.det(system.H))
    det_w = float(np.linalg.det(system.W))
    su2, sl2 = ext.sigma_u**2, ext.sigma_l**2
    cu2, cl2 = ext.c_u**2, ext.c_l**2
    lhs = float(s[0] ** 2)
    rhs = 1.0 + eta * cl2 / sl2
    applicable = lhs < rhs
    lower = math.log(su2 * det_h**2 / (su2 / lam_min_w + cu2 + su2 * math.log(n)) + det_w)
    if applicable:
        upper = sl2 * lam_max_w / (sl2 + eta * cl2 - sl2 * lhs) * float(np.sum(s**2)) + tr_w
    else:
        upper = None
    intermediates = {
        "eta": eta, "lambda_min_w": lam_min_w, "lambda_max_w": lam_max_w,
        "tr_w": tr_w, "tr_hth": float(np.sum(s**2)), "det_h": det_h, "det_w": det_w,
        "precondition_lhs": lhs, "precondition_rhs": rhs,
        "c_l": ext.c_l, "c_u": ext.c_u, "sigma_l": ext.sigma_l, "sigma_u": ext.sigma_u,
    }
    for i, g in enumerate(gammas):
        intermediates[f"gamma_{i + 1}"] = float(g)
    for i, si in enumerate(s):
        intermediates[f"s_{i + 1}"] = float(si)
    return BoundReport(
        kind=APRIORI_LOGDET, lower=lower, upper=upper,
        applicable=applicable, intermediates=intermediates,
    )


def aposteriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the estimation error covariance."""
    ext, lam_min_w, _ = _common_quantities(system, sigma)
    n = system.n
    su2, sl2 = ext.sigma_u**2, ext.sigma_l**2
    cu2, cl2 = ext.c_u**2, ext.c_l**2
    lower = n * math.log(su2 / (cu2 + su2 / lam_min_w))
    upper = math.inf if cl2 == 0.0 else n * math.log(sl2 / cl2)
    return BoundReport(
        kind=APOSTERIORI_LOGDET,
        lower=lower,
        upper=upper,
        applicable=True,
        intermediates={
            "n": float(n), "lambda_min_w": lam_min_w,
            "c_l": ext.c_l, "c_u": ext.c_u, "sigma_l": ext.sigma_l, "sigma_u": ext.sigma_u,
        },
    )


def all_bounds(system: SystemModel, sigma) -> dict[str, BoundReport]:
    """All four reports keyed by kind."""
    return {
        APRIORI_TRACE: apriori_trace_bounds(system, sigma),
        APOSTERIORI_TRACE: aposteriori_trace_bounds(system, sigma),
        APRIORI_LOGDET: apriori_logdet_bounds(system, sigma),
        APOSTERIORI_LOGDET: aposteriori_logdet_bounds(system, sigma),
    }
