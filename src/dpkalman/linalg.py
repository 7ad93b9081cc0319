"""Dense small-matrix primitives and the steady-state Riccati machinery.

Matrices are 2-D ``numpy.float64`` arrays and vectors are 1-D. Every function
is a pure function of its inputs; model dataclasses freeze their arrays after
validation so instances are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FactorizationError,
    NoConvergenceError,
    NonSymmetricError,
    NotDetectableError,
    SingularMatrixError,
    ValidationError,
)

SYMMETRY_TOL = 1e-9
RANK_TOL = 1e-10
SINGULARITY_RTOL = 1e-12
DARE_RESIDUAL_TOL = 1e-10
DARE_CHANGE_TOL = 1e-12
DARE_MAX_ITERATIONS = 100_000


def _finite_array(value, name: str, ndim: int, length: int | None = None) -> np.ndarray:
    # a copy of value as a nonempty finite ndim-D float array, of length rows
    # if given; strings, ragged nestings and ints beyond float range are not numbers
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatchError(f"{name} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise DimensionMismatchError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Copy ``value`` into a finite 2-D float array."""
    return _finite_array(value, name, 2)


def as_vector(value, name: str = "vector", length: int | None = None) -> np.ndarray:
    """Copy ``value`` into a finite 1-D float array, optionally of fixed length."""
    return _finite_array(value, name, 1, length)


def _freeze(obj, **arrays: np.ndarray) -> None:
    # store each array on the frozen dataclass obj, read-only; callers pass
    # arrays of their own, never one a caller of obj may still write
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _as_int(value, name: str) -> int:
    # a Python int, not a bool or a float
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _as_size(value, name: str) -> int:
    # an integer in [1, sys.maxsize]: larger sizes cannot index an array
    if not 1 <= _as_int(value, name) <= sys.maxsize:
        raise ValidationError(f"{name} must lie in [1, {sys.maxsize}], got {value}")
    return value


def _as_instance(value, cls: type, name: str):
    # value itself if it is a cls, so that no attribute lookup on it fails
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _as_real(value, name: str) -> float:
    # a real number other than a bool, as a float; NaN and infinities pass
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got {value!r}") from None


def symmetrize(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.T)


def require_symmetric(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check max |S_ij - S_ji| <= ``SYMMETRY_TOL`` and return the symmetrized matrix.

    A finite ``S`` gives a finite result: a skew past float range is
    infinite, and so rejected, and two entries whose sum overflows differ by
    at most the tolerance, far below their spacing, so they are equal and
    their mean is the entry itself.
    """
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {S.shape}")
    with np.errstate(over="ignore"):
        skew = float(np.max(np.abs(S - S.T)))
        if skew > SYMMETRY_TOL:
            raise NonSymmetricError(f"{name} is not symmetric: max |S_ij - S_ji| = {skew:.3e} > {SYMMETRY_TOL:.1e}")
        out = symmetrize(S)
    np.copyto(out, S, where=np.isinf(out))
    return out


def singular_values(A) -> np.ndarray:
    """Singular values of ``A`` in descending order."""
    return np.linalg.svd(as_matrix(A, "A"), compute_uv=False)


def observability_check(H, C) -> bool:
    """True iff the stacked map [C; CH; ...; CH^(n-1)] has numerical rank n."""
    H = as_matrix(H, "H")
    C = as_matrix(C, "C")
    n = H.shape[0]
    if H.shape != (n, n) or C.shape[1] != n:
        raise DimensionMismatchError(f"inconsistent shapes H {H.shape}, C {C.shape}")
    # the map's transpose, the Krylov matrix [C^T, H^T C^T, ..., (H^T)^(n-1) C^T]
    blocks = [C.T]
    for _ in range(n - 1):
        blocks.append(H.T @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0])) == n


def symmetric_factor(W, name: str = "W") -> np.ndarray:
    """Factor D with W = D D^T via the eigendecomposition of symmetric PSD W."""
    W = require_symmetric(as_matrix(W, name), name)
    w, U = np.linalg.eigh(W)
    # rounding leaves |w[0]| within about n eps |w[-1]|: clipped, in any units
    if w[0] < -W.shape[0] * np.finfo(float).eps * abs(w[-1]):
        raise FactorizationError(f"{name} has a negative eigenvalue {w[0]:.3e}; cannot factor as D D^T")
    return U * np.sqrt(np.clip(w, 0.0, None))


def controllability_check(H, W) -> bool:
    """True iff [D, HD, ..., H^(n-1)D] has numerical rank n, where W = D D^T.

    The same Krylov rank test as :func:`observability_check` of (H^T, D^T).
    ``solve_dare`` does not call it: ``SystemModel`` requires W positive
    definite, which makes every pair (H, D) controllable.
    """
    return observability_check(as_matrix(H, "H").T, symmetric_factor(W).T)


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Assemble a block-diagonal matrix from a nonempty list of 2-D blocks."""
    if not blocks:
        raise DimensionMismatchError("block_diag needs at least one block")
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Public LTI plant: state update ``H``, output map ``C``, process-noise
    covariance ``W`` (symmetric positive definite), and the public mean
    initial condition ``x0_hat``.
    """

    H: np.ndarray
    C: np.ndarray
    W: np.ndarray
    x0_hat: np.ndarray

    def __post_init__(self):
        H = as_matrix(self.H, "H")
        n = H.shape[0]
        if H.shape != (n, n):
            raise DimensionMismatchError(f"H must be square, got shape {H.shape}")
        C = as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"C must have {n} columns, got shape {C.shape}")
        W = require_symmetric(as_matrix(self.W, "W"), "W")
        if W.shape != (n, n):
            raise DimensionMismatchError(f"W must be {n}x{n}, got shape {W.shape}")
        w = np.linalg.eigvalsh(W)
        if w[0] <= 0.0:
            raise ValidationError(f"W must be positive definite; smallest eigenvalue is {w[0]:.3e}")
        _freeze(self, H=H, C=C, W=W, x0_hat=as_vector(self.x0_hat, "x0_hat", length=n))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def q(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Steady-state covariances of the filter driven by noise covariance V.

    ``sigma`` is the prediction (a priori) error covariance, ``sigma_bar``
    the estimation (a posteriori) error covariance, and ``gain`` the constant
    filter gain ``sigma_bar C^T V^-1`` of the plant itself, V = diag(s^2), also
    when :func:`~dpkalman.filtering.solve_filter` solves on diag(s)^-1 C, V = I.
    """

    sigma: np.ndarray
    sigma_bar: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        _freeze(self, **{name: np.array(getattr(self, name), dtype=float)
                         for name in ("sigma", "sigma_bar", "gain")})


def _require_invertible_spd(M: np.ndarray, name: str) -> None:
    w = np.linalg.eigvalsh(M)
    if w[-1] <= 0.0 or w[0] < SINGULARITY_RTOL * w[-1]:
        raise SingularMatrixError(
            f"{name} is singular by condition estimate "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )


def _require_observable(system: SystemModel) -> None:
    # each output row at a largest entry of 1: observability ignores a channel's (noise) scale
    top = np.max(np.abs(system.C), axis=1, keepdims=True)
    if not observability_check(system.H, system.C / np.where(top > 0.0, top, 1.0)):
        raise NotDetectableError("the pair (H, C) is not observable; the filter has no steady state")


def _posterior(sigma: np.ndarray, info: np.ndarray) -> np.ndarray:
    # (sigma^-1 + info)^-1 with info = C^T V^-1 C, not symmetrized; inv runs
    # the same LAPACK gesv on the identity as solve(., eye), and an
    # information spread over float range can leave the sum singular
    try:
        return np.linalg.inv(np.linalg.inv(sigma) + info)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("sigma^-1 + C^T V^-1 C is singular to working precision") from None


def _in_float_range(reduce, x: np.ndarray, value: float) -> float:
    # value = reduce(x), for a reduce with reduce(c x) = c reduce(x) (c > 0),
    # redone on x / max|x| if it passed float range, so a finite x keeps a
    # finite value; callers run reduce(x) under errstate(over="ignore")
    if math.isfinite(value):
        return value
    big = float(np.max(np.abs(x)))
    return big * reduce(x / big) if math.isfinite(big) else value


def _frobenius(x: np.ndarray) -> float:
    # np.linalg.norm(x) without its dispatch: the same ravel, dot and sqrt,
    # inline for the Riccati loop; a sum of squares past float range goes
    # through _in_float_range
    r = x.ravel(order="K")
    norm = math.sqrt(r.dot(r))
    if norm == math.inf:
        return _in_float_range(lambda s: math.sqrt(s.dot(s)), r, norm)
    return norm


def _riccati_pass(sigma, info, H, Ht, W) -> tuple[np.ndarray, np.ndarray, float]:
    # One fixed-point map of sigma: the posterior inner, the symmetrized
    # H inner H^T + W, and |map(sigma) - sigma|_F, the numerator of sigma's
    # residual.
    inner = _posterior(sigma, info)
    nxt = symmetrize(H @ inner @ Ht + W)
    return inner, nxt, _frobenius(nxt - sigma)


def solve_dare(system: SystemModel, V) -> RiccatiSolution:
    """Solve the steady-state Riccati fixed point for noise covariance ``V``.

    Iterates sigma <- H (sigma^-1 + C^T V^-1 C)^-1 H^T + W from sigma = W,
    symmetrizing each iterate, and returns the first iterate whose relative
    change is below ``DARE_CHANGE_TOL`` and whose fixed-point residual
    |map(sigma) - sigma|_F / |sigma|_F is at most ``DARE_RESIDUAL_TOL``, as is
    and on D sigma D, D = diag(sigma)^(-1/2), so that each diagonal block
    converges on its own scale; ``sigma_bar`` is the posterior inside that
    same map, and the residual reported the unscaled one; ``NoConvergenceError``
    after ``DARE_MAX_ITERATIONS``, or at the first residual that is not
    finite. The start at W is valid because the solution dominates W.
    """
    V = require_symmetric(as_matrix(V, "V"), "V")
    if V.shape != (system.q, system.q):
        raise DimensionMismatchError(f"V must be {system.q}x{system.q}, got shape {V.shape}")
    _require_observable(system)
    _require_invertible_spd(V, "V")

    H, W = system.H, system.W
    Ht = H.T
    info = system.C.T @ np.linalg.solve(V, system.C)
    tiny = np.finfo(float).tiny
    sigma = W
    # one errstate for the whole loop, which is the hot path: a norm whose
    # square passes float range is inf, and an iterate past it ends the loop
    # at its non-finite residual, neither with an overflow warning
    with np.errstate(over="ignore"):
        last_step = np.inf  # the start has no predecessor
        # pass k maps sigma_k once: |nxt - sigma_k| over |sigma_k| is sigma_k's
        # residual, and the previous pass's step over |sigma_k| its change
        for iterations in range(DARE_MAX_ITERATIONS + 1):
            sigma_norm = max(_frobenius(sigma), tiny)
            inner, nxt, step = _riccati_pass(sigma, info, H, Ht, W)
            residual = step / sigma_norm
            if last_step / sigma_norm < DARE_CHANGE_TOL and residual <= DARE_RESIDUAL_TOL:
                d = 1.0 / np.sqrt(np.diag(sigma))  # D X D = (X * d) * d[:, None], no factor overflowing
                scaled = _frobenius((nxt - sigma) * d * d[:, None]) / _frobenius(sigma * d * d[:, None])
                if scaled <= DARE_RESIDUAL_TOL:
                    break
            if not math.isfinite(residual):  # NaN, or past float range for good: the iterates grow
                raise NoConvergenceError(f"Riccati iteration diverged after {iterations} iterations "
                                         f"(residual {residual:.3e})")
            last_step, sigma = step, nxt
        else:
            raise NoConvergenceError(
                f"Riccati iteration did not converge within {DARE_MAX_ITERATIONS} iterations "
                f"(residual {residual:.3e})"
            )

    sigma_bar = symmetrize(inner)
    gain = np.linalg.solve(V, system.C @ sigma_bar).T
    return RiccatiSolution(
        sigma=sigma, sigma_bar=sigma_bar, gain=gain, residual=residual, iterations=iterations
    )
