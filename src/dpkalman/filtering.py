"""Steady-state Kalman filter runtime for privatized output streams.

The gain is fixed at its steady-state value from time zero; each step applies
the measurement update with the received output, then predicts one step ahead.
In row form, with the priors p_k, estimates x̂_k and outputs y_k as row
vectors, A_t = I - Cᵀ K_t = (I - KC)ᵀ, H_t = Hᵀ and K_t = Kᵀ,

    x̂_k = p_k A_t + y_k K_t,    p_{k+1} = x̂_k H_t.

On a plant x_{k+1} = x_k H_t + w_k, y_k = x_k Cᵀ + v_k, the prior error
e_k = x_k - p_k and the estimation error ē_k = x_k - x̂_k follow a recursion
driven by the noises alone, which :func:`dpkalman.simulation.simulate` steps:

    ē_k = e_k A_t - v_k K_t,    e_{k+1} = ē_k H_t + w_k.

:func:`run_filter` computes a whole trajectory at once from the prediction
form p_{k+1} = p_k F_t + y_k G_t, with F_t = A_t H_t and G_t = K_t H_t. The
priors are a linear recursion driven by the outputs, which a two-level scan
evaluates in O(L + log T) numpy calls. The trajectory is cut into windows of
L = FILTER_WINDOW steps. Level 1: the recursion itself, one step for all
windows at once, makes each prior the sum of its own window's terms so far;
its L - 1 products of (T / L, n) slabs are about one pass of the filter's
arithmetic. Level 2: a doubling over the window ends with F_t^L, F_t^2L,
... (the parallel-prefix evaluation of a linear recursion; Blelloch, "Prefix
sums and their applications", 1990) makes each window end the full prior
there; then one product with the side-by-side powers [F_t, F_t^2, ...,
F_t^L] carries the end of each window into every step of the next. The
estimates then follow in one product.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError
from .linalg import (RiccatiSolution, SystemModel, _as_instance, _freeze, _require_observable, as_matrix,
                     as_vector, solve_dare)

# Steps per window of run_filter's scan; a power of two, for _powers. Longer
# windows mean fewer window ends but more in-window steps and a wider carry
# product. At T = 2000 on one pinned core of a 2-vCPU x86_64 VM (median time
# relative to 8 over 15 interleaved rounds), no length of 4..64 was fastest
# at every n: 4 was 7 % faster at n = 2 but 5-10 % slower at n = 18, 64 and
# 256; 16 was 3-6 % faster at n = 18 and 64 but 19-23 % slower at n = 2 and
# 6 % slower at n = 256; 32 and 64 were slower at every n. 8 is within 7 % of
# the fastest at each n.
FILTER_WINDOW = 8


@dataclass(frozen=True, eq=False)
class FilterState:
    """Prediction and estimate at one time step."""

    k: int
    x_hat_prior: np.ndarray
    x_hat: np.ndarray


@dataclass(frozen=True, eq=False)
class FilterTrajectory(Sequence):
    """A filtered trajectory: read-only (T, n) arrays of priors and estimates.

    Row k of ``x_hat_prior`` is the prediction used at step k and row k of
    ``x_hat`` the estimate after it. The trajectory is also a sequence of
    per-step :class:`FilterState` records, whose arrays are views of those
    rows; the records are built at the first per-step access and kept.
    """

    x_hat_prior: np.ndarray
    x_hat: np.ndarray

    @cached_property
    def _states(self) -> list[FilterState]:
        return list(map(FilterState, range(len(self.x_hat)), self.x_hat_prior, self.x_hat))

    def __len__(self) -> int:
        return len(self.x_hat)

    def __getitem__(self, index):
        return self._states[index]

    def __iter__(self):
        return iter(self._states)


@dataclass(frozen=True, eq=False)
class FilterSolution:
    """A system together with the Riccati solution for its noise scales.

    ``H_t`` and ``K_t`` are read-only contiguous copies of Hᵀ and the
    gain's transpose, built once: a batched matrix product reads a
    contiguous operand about twice as fast as a transposed view. ``A_t``,
    ``F_t`` and ``G_t`` are the row-form matrices of the module docstring:
    A_t = I - Cᵀ K_t, F_t = A_t H_t and G_t = K_t H_t, read-only and
    contiguous too.
    """

    system: SystemModel
    riccati: RiccatiSolution
    H_t: np.ndarray = field(init=False, repr=False)
    K_t: np.ndarray = field(init=False, repr=False)
    A_t: np.ndarray = field(init=False, repr=False)
    F_t: np.ndarray = field(init=False, repr=False)
    G_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        C_t, H_t, K_t = (np.ascontiguousarray(m.T) for m in
                         (self.system.C, self.system.H, self.riccati.gain))
        A_t = np.eye(self.system.n) - C_t @ K_t
        _freeze(self, H_t=H_t, K_t=K_t, A_t=A_t, F_t=A_t @ H_t, G_t=K_t @ H_t)


def solve_filter(system: SystemModel, sigma) -> FilterSolution:
    """Solve the steady state for per-channel noise scales ``sigma``.

    The scales enter only through the whitened map C~ = diag(sigma)^-1 C: the
    solution of (H, C~, W) with unit noise, its gain's column i divided by
    sigma_i, is that of V = diag(sigma_i^2), and no sigma_i^2 is formed. A scale
    so small (or zero) that C~^T C~ or the gain passes float range is a singular
    noise covariance, raised after the observability test as by ``solve_dare``.
    """
    sigma = as_vector(sigma, "sigma", length=system.q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        C = system.C / sigma[:, None]
        singular = not np.all(np.isfinite(C.T @ C))
    if not singular:
        riccati = solve_dare(replace(system, C=C), np.eye(system.q))
        with np.errstate(over="ignore"):
            gain = riccati.gain / sigma
        singular = not np.all(np.isfinite(gain))
    if singular:
        _require_observable(system)
        raise SingularMatrixError("the noise covariance is singular: a noise scale is zero, or so small "
                                  "that (C / sigma)^T (C / sigma) or the filter gain passes float range")
    return FilterSolution(system=system, riccati=replace(riccati, gain=gain))


def _powers(F_t: np.ndarray, m: int) -> np.ndarray:
    # [F_t | F_t^2 | ... | F_t^m] side by side, an (n, m n) array, for m a
    # power of two: each product F_t^j [F_t ... F_t^j] doubles the stack
    n = len(F_t)
    out = np.empty((n, m * n))
    out[:, :n] = F_t
    j = 1
    while j < m:
        np.matmul(out[:, (j - 1) * n:j * n], out[:, :j * n], out=out[:, j * n:2 * j * n])
        j *= 2
    return out


def run_filter(sol: FilterSolution, y_tilde, x0_hat) -> FilterTrajectory:
    """Filter a whole (T, q) trajectory starting from the prediction ``x0_hat``.

    Evaluates the prediction form by a two-level scan (module
    docstring): the same filter as the step-by-step recursion, equal to it
    up to rounding in the last bits. The returned arrays are read-only.
    """
    _as_instance(sol, FilterSolution, "sol")
    y_tilde = as_matrix(y_tilde, "y_tilde")
    if y_tilde.shape[1] != sol.system.q:
        raise DimensionMismatchError(
            f"y_tilde has {y_tilde.shape[1]} channels, system has {sol.system.q}"
        )
    x0_hat = as_vector(x0_hat, "x0_hat", length=sol.system.n)
    T, L, n = len(y_tilde), FILTER_WINDOW, sol.system.n
    nw = -(-T // L)
    # the terms of the priors' sums, zero-padded to whole windows; no padded
    # row feeds a returned one
    buf = np.empty((nw * L, n))
    buf[0] = x0_hat
    np.matmul(y_tilde[:-1], sol.G_t, out=buf[1:T])
    buf[T:] = 0.0
    windows = buf.reshape(nw, L, n)
    powers = _powers(sol.F_t, L)
    # level 1: the window's own recursion, one step for all windows at once,
    # makes each row the sum of its own window's terms so far
    for i in range(1, L):
        windows[:, i] += windows[:, i - 1] @ sol.F_t
    # level 2: a doubling over the window ends with F_t^L makes each end the
    # full prior; then one product carries end w - 1 into every row i of
    # window w through F_t^(i+1), the end rows included, so the doubling
    # works on a copy of them (with one window there are no ends to carry)
    ends = windows[:-1, L - 1].copy()
    power, d = powers[:, -n:], 1
    while d < nw - 1:
        ends[d:] += ends[:-d] @ power
        power, d = power @ power, 2 * d
    windows[1:] += (ends @ powers).reshape(nw - 1, L, n)
    priors = buf[:T]
    est = priors @ sol.A_t
    est += y_tilde @ sol.K_t
    priors.setflags(write=False)
    est.setflags(write=False)
    return FilterTrajectory(priors, est)
