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
priors are a linear recursion driven by the outputs, which windowed doubling
evaluates in O(T / FILTER_WINDOW + log FILTER_WINDOW) numpy calls (the
parallel-prefix evaluation of a linear recursion; Blelloch, "Prefix sums and
their applications", 1990): log2(FILTER_WINDOW) doubling rounds over the whole
trajectory make each prior the sum of its last FILTER_WINDOW terms, then one
product per window carries in the window before it. The estimates then follow
in one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .linalg import RiccatiSolution, SystemModel, as_matrix, as_vector, solve_dare

# Steps per window of run_filter's doubling; a power of two. Longer windows
# mean fewer carry products but more doubling rounds over the trajectory: at
# T = 2000 on one core of a 2-vCPU x86_64 VM, 16 was within 10 % of the
# fastest of 4..64 for n up to 64, and 30 % slower than 4 at n = 256.
FILTER_WINDOW = 16


@dataclass(frozen=True, eq=False)
class FilterState:
    """Prediction and estimate at one time step."""

    k: int
    x_hat_prior: np.ndarray
    x_hat: np.ndarray


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
        arrays = {"H_t": H_t, "K_t": K_t, "A_t": A_t, "F_t": A_t @ H_t, "G_t": K_t @ H_t}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def solve_filter(system: SystemModel, sigma) -> FilterSolution:
    """Solve the steady state for per-channel noise scales ``sigma``.

    Builds V = diag(sigma_i^2); singular V (any zero scale) is rejected by
    the Riccati solver.
    """
    sigma = as_vector(sigma, "sigma", length=system.q)
    return FilterSolution(system=system, riccati=solve_dare(system, np.diag(sigma**2)))


def run_filter(sol: FilterSolution, y_tilde, x0_hat) -> list[FilterState]:
    """Filter a whole (T, q) trajectory starting from the prediction ``x0_hat``.

    Evaluates the prediction form by windowed doubling (module docstring):
    the same filter as the step-by-step recursion, equal to it up to
    rounding in the last bits. The returned arrays are read-only.
    """
    y_tilde = as_matrix(y_tilde, "y_tilde")
    if y_tilde.shape[1] != sol.system.q:
        raise DimensionMismatchError(
            f"y_tilde has {y_tilde.shape[1]} channels, system has {sol.system.q}"
        )
    x0_hat = as_vector(x0_hat, "x0_hat", length=sol.system.n)
    T, L = len(y_tilde), FILTER_WINDOW
    priors = np.empty((T, sol.system.n))
    priors[0] = x0_hat
    np.matmul(y_tilde[:-1], sol.G_t, out=priors[1:])
    # after the round for span d, each prior sums its last 2d terms; the
    # right side is evaluated before the add, so it reads the old priors
    power, d = sol.F_t, 1
    while d < min(L, T):
        priors[d:] += priors[:-d] @ power
        power, d = power @ power, 2 * d
    # when T > L, power is now F_t^L: carry each window's full priors into
    # the next
    for s in range(L, T, L):
        end = min(s + L, T)
        priors[s:end] += priors[s - L:end - L] @ power
    est = priors @ sol.A_t
    est += y_tilde @ sol.K_t
    priors.setflags(write=False)
    est.setflags(write=False)
    return list(map(FilterState, range(T), priors, est))
