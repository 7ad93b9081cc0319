"""Analytic bounds on what a recipient of privatized outputs can infer.

All four reports follow from one window on the steady-state estimation
covariance, s0 I <= Sigma_bar <= s1 I. The noise scales enter only through the
whitened output map C~ = diag(sigma)^-1 C, through r_u = s_1(C~) and
r_l = s_n(C~): Sigma >= W gives Sigma_bar^-1 = Sigma^-1 + C~^T C~ <=
(1 / lambda_min(W) + r_u^2) I, and Sigma_bar^-1 >= C~^T C~ >= r_l^2 I, so
s0 = lambda_min(W) / (1 + lambda_min(W) r_u^2) and s1 = 1 / r_l^2, infinite
when C~ has rank below n. That holds for any q x n map C; for a square diagonal
C, r_u and r_l are the extreme ratios |C_ii / sigma_i|: the paper's formulas. Trace
bounds cover the mean squared error of prediction and estimation;
log-determinant bounds cover the differential entropy of the corresponding
error up to fixed additive/multiplicative terms.

``all_bounds`` is the one place that builds the window and the four reports
from it; each single-report function returns its kind of ``all_bounds``.
Calibration inverts the trace bounds through the intermediates of
``apriori_trace_bounds`` at unit noise scales, r_u = s_1(C) and r_l = s_n(C).

The upper log-determinant bound on the prediction covariance needs a square
diagonal C and a spectral precondition on H; without either, the report is
marked inapplicable and carries the (always valid) lower bound alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NonPositiveSigmaError
from .linalg import SystemModel, as_vector

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


def _log(x: float) -> float:
    # log of a window end, -inf where it underflowed to 0
    return math.log(x) if x > 0.0 else -math.inf


def apriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared prediction error (tr of the
    prediction covariance): tr W + tr(H^T H) s0 and tr W + tr(H^T H) s1."""
    return all_bounds(system, sigma)[APRIORI_TRACE]


def aposteriori_trace_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the steady-state mean squared estimation error (tr of the
    estimation covariance): n s0 and n s1."""
    return all_bounds(system, sigma)[APOSTERIORI_TRACE]


def apriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the prediction error covariance.

    The upper bound requires a square diagonal C and ||H||_2^2 < 1 + eta / s1
    with eta = s_n(H)^2 * max_i gamma_i + lambda_min(W) and
    gamma_i = W_ii / (1 + W_ii (C_ii / sigma_i)^2). The lower bound,
    log(det(H)^2 s0^n + det W), needs no precondition and is always reported.
    The ``det_h`` and ``det_w`` intermediates are taken from the
    log-determinants.
    """
    return all_bounds(system, sigma)[APRIORI_LOGDET]


def aposteriori_logdet_bounds(system: SystemModel, sigma) -> BoundReport:
    """Bounds on the log-determinant of the estimation error covariance:
    n log s0 and n log s1."""
    return all_bounds(system, sigma)[APOSTERIORI_LOGDET]


def _whitened_extremes(C: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    # r_u = s_1(C~) and r_l = s_n(C~) (0 for fewer rows than columns). Row i
    # of C~ is 2^(e_i - x_i) (C_i 2^-e_i) / m_i for max_j |C_ij| < 2^e_i and
    # sigma_i = m_i 2^x_i, and the SVD reads it times 2^-k, exactly, with the
    # strongest row near 1: a ratio past float range reads r_u = inf, not NaN,
    # and a row weaker than that by float range reads 0, which widens the window.
    top = np.max(np.abs(C), axis=1)
    e = np.frexp(top)[1]
    m, x = np.frexp(sigma)
    shift = e - x
    k = max(shift[top > 0.0], default=0)
    s = np.linalg.svd(np.ldexp(np.ldexp(C, -e[:, None]) / m[:, None], (shift - k)[:, None]),
                      compute_uv=False)
    with np.errstate(over="ignore"):
        r_u, r_l = np.ldexp([s[0], s[-1] if len(s) == C.shape[1] else 0.0], k)
    return float(r_u), float(r_l)


def all_bounds(system: SystemModel, sigma) -> dict[str, BoundReport]:
    """All four reports keyed by kind, from one window s0 I <= Sigma_bar <= s1 I."""
    # r_u and r_l are squared, not the scales, so no scale in float range
    # overflows to a NaN: s0 = 0 when r_u^2 passes float range, and s1 is
    # infinite when r_l = 0
    sigma = as_vector(sigma, "sigma", length=system.q)
    if np.any(sigma <= 0.0):
        raise NonPositiveSigmaError("all noise scales must be strictly positive")
    C = system.C
    r_u, r_l = _whitened_extremes(C, sigma)
    w = np.linalg.eigvalsh(system.W)
    lam_min_w, lam_max_w = float(w[0]), float(w[-1])
    s0 = lam_min_w / (1.0 + lam_min_w * (r_u * r_u))
    s1 = math.inf if r_l == 0.0 else (1.0 / r_l) * (1.0 / r_l)
    n, tr_w = system.n, float(np.trace(system.W))
    channels = {"r_l": r_l, "r_u": r_u}
    s = np.linalg.svd(system.H, compute_uv=False)
    sign_h, logdet_h = np.linalg.slogdet(system.H)
    logdet_w = np.linalg.slogdet(system.W)[1]
    # past float range tr(H^T H) and a ratio are inf and a det null, with no
    # overflow warning
    with np.errstate(over="ignore"):
        tr_hth = float(np.sum(system.H * system.H))
        det_h, det_w = float(sign_h * np.exp(logdet_h)), float(np.exp(logdet_w))
        lhs = float(s[0] ** 2)  # inf past float range: the precondition fails
    # the estimation covariance dominates s0 * I, so with det(A + B) >=
    # det A + det B for A, B >= 0: det(H Sigma_bar H^T + W) >= det(H)^2 s0^n + det W,
    # summed in log space so that neither term under- or overflows at large n
    logdet_lower = float(np.logaddexp(2.0 * logdet_h + n * _log(s0), logdet_w))
    logdet = {
        "lambda_min_w": lam_min_w, "lambda_max_w": lam_max_w, "tr_w": tr_w, "tr_hth": tr_hth,
        "det_h": det_h, "det_w": det_w, "precondition_lhs": lhs, **channels,
    }
    applicable = False
    # gamma_i = W_ii / (1 + W_ii (C_ii / sigma_i)^2) needs a ratio per state,
    # which only a square diagonal C has: for any other C there is no eta,
    # and the report carries its lower bound alone
    if C.shape[0] == C.shape[1] and np.array_equal(C, np.diag(np.diag(C))):
        w_diag = np.diag(system.W)
        with np.errstate(over="ignore"):
            ratios = np.diag(C) / sigma
            gammas = w_diag / (1.0 + w_diag * (ratios * ratios))
            eta = float(s[-1] ** 2 * gammas.max() + lam_min_w)
        rhs = 1.0 + eta / s1 if s1 > 0.0 else math.inf
        applicable = lhs < rhs
        logdet.update(eta=eta, precondition_rhs=rhs)
        logdet.update((f"gamma_{i + 1}", float(g)) for i, g in enumerate(gammas))
    logdet.update((f"s_{i + 1}", float(si)) for i, si in enumerate(s))
    logdet_upper = lam_max_w / (rhs - lhs) * tr_hth + tr_w if applicable else None
    per_dim = {"n": float(n), "lambda_min_w": lam_min_w, **channels}
    return {
        # the trace upper bound is infinite, not NaN, when tr(H^T H) = 0 meets s1 = inf
        APRIORI_TRACE: BoundReport(
            APRIORI_TRACE, tr_w + tr_hth * s0, math.inf if s1 == math.inf else tr_w + tr_hth * s1,
            True, {"tr_w": tr_w, "tr_hth": tr_hth, "lambda_min_w": lam_min_w, **channels}),
        APOSTERIORI_TRACE: BoundReport(APOSTERIORI_TRACE, n * s0, n * s1, True, dict(per_dim)),
        APRIORI_LOGDET: BoundReport(APRIORI_LOGDET, logdet_lower, logdet_upper, applicable, logdet),
        APOSTERIORI_LOGDET: BoundReport(APOSTERIORI_LOGDET, n * _log(s0), n * _log(s1), True, per_dim),
    }
