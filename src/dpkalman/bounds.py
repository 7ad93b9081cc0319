"""Analytic bounds on what a recipient of privatized outputs can infer.

All four reports follow from one window on the steady-state estimation
covariance, s0 I <= Sigma_bar <= s1 I, set by the strongest (u) and weakest
(l) of the per-channel signal-to-noise ratios C_ii^2 / sigma_i^2:
s0 = sigma_u^2 / (sigma_u^2 / lambda_min(W) + C_u^2) and s1 = sigma_l^2 / C_l^2.
They require a square, diagonal output matrix. Trace bounds cover the mean
squared error of prediction and estimation; log-determinant bounds cover the
differential entropy of the corresponding error up to fixed
additive/multiplicative terms.

The upper log-determinant bound on the prediction covariance holds only under
a spectral precondition on H; when that precondition fails, the report is
marked inapplicable and carries the (always valid) lower bound alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NonPositiveSigmaError, NotDiagonalError
from .linalg import SystemModel, as_matrix, as_vector

DIAGONALITY_RTOL = 1e-12

APRIORI_TRACE = "apriori_trace"
APOSTERIORI_TRACE = "aposteriori_trace"
APRIORI_LOGDET = "apriori_logdet"
APOSTERIORI_LOGDET = "aposteriori_logdet"


def to_json(value):
    """``value`` as JSON values: a dataclass or dict becomes an object, a
    tuple, list or array a list, and a float that is not finite null."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [to_json(v) for v in value]
    if isinstance(value, np.generic):  # a numpy scalar as its Python number
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value


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
        return to_json(self)


def channel_extremes(C, sigma) -> ChannelExtremes:
    """Locate the extreme ratios |C_ii / sigma_i| of a diagonal output map.

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
    with np.errstate(over="ignore"):  # an overflowing |C_ii / sigma_i| orders as inf
        ratios = np.abs(diag / sigma)
    l = int(np.argmin(ratios))
    u = int(np.argmax(ratios))
    return ChannelExtremes(
        l=l, u=u, c_l=float(diag[l]), c_u=float(diag[u]),
        sigma_l=float(sigma[l]), sigma_u=float(sigma[u]),
    )


def _inputs(system: SystemModel, sigma):
    # What every report reads: the window ends s0 and s1 (module docstring),
    # lambda_min(W), lambda_max(W), tr W, tr(H^T H) (infinite past float
    # range, with no overflow warning), and the channel intermediates; it
    # checks sigma through channel_extremes. The ratios r = C_ii / sigma_i are
    # squared, not the scales, so no scale in float range overflows to a NaN:
    # s0 = lambda_min(W) / (1 + lambda_min(W) r_u^2), and s1 = 1 / r_l^2 is
    # infinite when the weakest channel is silent.
    ext = channel_extremes(system.C, sigma)
    w = np.linalg.eigvalsh(system.W)
    lam_min_w = float(w[0])
    r_u = ext.c_u / ext.sigma_u
    s0 = lam_min_w / (1.0 + lam_min_w * (r_u * r_u))
    s1 = math.inf if ext.c_l == 0.0 else (ext.sigma_l / ext.c_l) * (ext.sigma_l / ext.c_l)
    with np.errstate(over="ignore"):
        tr_hth = float(np.sum(system.H * system.H))
    channels = {"c_l": ext.c_l, "c_u": ext.c_u, "sigma_l": ext.sigma_l, "sigma_u": ext.sigma_u}
    return s0, s1, lam_min_w, float(w[-1]), float(np.trace(system.W)), tr_hth, channels


def _log(x: float) -> float:
    # log of a window end, -inf where it underflowed to 0
    return math.log(x) if x > 0.0 else -math.inf


def apriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared prediction error (tr of the
    prediction covariance): tr W + tr(H^T H) s0 and tr W + tr(H^T H) s1."""
    s0, s1, lam_min_w, _, tr_w, tr_hth, channels = _inputs(system, sigma)
    # infinite, not NaN, when tr(H^T H) = 0 meets s1 = inf
    upper = math.inf if s1 == math.inf else tr_w + tr_hth * s1
    return BoundReport(APRIORI_TRACE, tr_w + tr_hth * s0, upper, True,
                       {"tr_w": tr_w, "tr_hth": tr_hth, "lambda_min_w": lam_min_w, **channels})


def aposteriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared estimation error (tr of the
    estimation covariance): n s0 and n s1."""
    s0, s1, lam_min_w, _, _, _, channels = _inputs(system, sigma)
    n = system.n
    return BoundReport(APOSTERIORI_TRACE, n * s0, n * s1, True,
                       {"n": float(n), "lambda_min_w": lam_min_w, **channels})


def apriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the prediction error covariance.

    The upper bound requires ||H||_2^2 < 1 + eta / s1 with
    eta = s_n(H)^2 * max_i gamma_i + lambda_min(W). The lower bound,
    log(det(H)^2 s0^n + det W), needs no precondition and is always reported.
    The ``det_h`` and ``det_w`` intermediates are taken from the
    log-determinants.
    """
    s0, s1, lam_min_w, lam_max_w, tr_w, tr_hth, channels = _inputs(system, sigma)
    n = system.n
    w_diag = np.diag(system.W)
    s = np.linalg.svd(system.H, compute_uv=False)
    sign_h, logdet_h = np.linalg.slogdet(system.H)
    logdet_w = np.linalg.slogdet(system.W)[1]
    with np.errstate(over="ignore"):  # past float range a ratio is inf, a det null
        ratios = np.diag(system.C) / np.asarray(sigma, dtype=float)  # sigma checked by _inputs
        gammas = w_diag / (1.0 + w_diag * (ratios * ratios))
        det_h, det_w = float(sign_h * np.exp(logdet_h)), float(np.exp(logdet_w))
        eta = float(s[-1] ** 2 * gammas.max() + lam_min_w)
        lhs = float(s[0] ** 2)  # inf past float range: the precondition fails
    rhs = 1.0 + eta / s1 if s1 > 0.0 else math.inf
    applicable = lhs < rhs
    # the estimation covariance dominates s0 * I, so with det(A + B) >=
    # det A + det B for A, B >= 0: det(H Sigma_bar H^T + W) >= det(H)^2 s0^n + det W,
    # summed in log space so that neither term under- or overflows at large n
    lower = float(np.logaddexp(2.0 * logdet_h + n * _log(s0), logdet_w))
    upper = lam_max_w / (rhs - lhs) * tr_hth + tr_w if applicable else None
    intermediates = {
        "eta": eta, "lambda_min_w": lam_min_w, "lambda_max_w": lam_max_w,
        "tr_w": tr_w, "tr_hth": tr_hth, "det_h": det_h, "det_w": det_w,
        "precondition_lhs": lhs, "precondition_rhs": rhs, **channels,
    }
    for i, g in enumerate(gammas):
        intermediates[f"gamma_{i + 1}"] = float(g)
    for i, si in enumerate(s):
        intermediates[f"s_{i + 1}"] = float(si)
    return BoundReport(APRIORI_LOGDET, lower, upper, applicable, intermediates)


def aposteriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the estimation error covariance:
    n log s0 and n log s1."""
    s0, s1, lam_min_w, _, _, _, channels = _inputs(system, sigma)
    n = system.n
    return BoundReport(APOSTERIORI_LOGDET, n * _log(s0), n * _log(s1), True,
                       {"n": float(n), "lambda_min_w": lam_min_w, **channels})


def all_bounds(system: SystemModel, sigma) -> dict[str, BoundReport]:
    """All four reports keyed by kind."""
    return {
        APRIORI_TRACE: apriori_trace_bounds(system, sigma),
        APOSTERIORI_TRACE: aposteriori_trace_bounds(system, sigma),
        APRIORI_LOGDET: apriori_logdet_bounds(system, sigma),
        APOSTERIORI_LOGDET: aposteriori_logdet_bounds(system, sigma),
    }
