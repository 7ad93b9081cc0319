"""Steady-state Kalman filter runtime for privatized output streams.

The gain is fixed at its steady-state value from time zero; each step applies
the measurement update with the received output, then predicts one step ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .linalg import RiccatiSolution, SystemModel, as_matrix, as_vector, solve_dare


@dataclass(frozen=True, eq=False)
class FilterState:
    """Prediction and estimate at one time step."""

    k: int
    x_hat_prior: np.ndarray
    x_hat: np.ndarray


@dataclass(frozen=True, eq=False)
class FilterSolution:
    """A system together with the Riccati solution for its noise scales.

    ``C_t``, ``H_t`` and ``K_t`` are read-only contiguous copies of Cᵀ, Hᵀ
    and the gain's transpose, built once: a batched matrix product reads a
    contiguous operand about twice as fast as a transposed view.
    """

    system: SystemModel
    riccati: RiccatiSolution
    C_t: np.ndarray = field(init=False, repr=False)
    H_t: np.ndarray = field(init=False, repr=False)
    K_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, matrix in (("C_t", self.system.C), ("H_t", self.system.H),
                             ("K_t", self.riccati.gain)):
            arr = np.ascontiguousarray(matrix.T)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def solve_filter(system: SystemModel, sigma) -> FilterSolution:
    """Solve the steady state for per-channel noise scales ``sigma``.

    Builds V = diag(sigma_i^2); singular V (any zero scale) is rejected by
    the Riccati solver.
    """
    sigma = as_vector(sigma, "sigma", length=system.q)
    return FilterSolution(system=system, riccati=solve_dare(system, np.diag(sigma**2)))


def filter_step(sol: FilterSolution, x_hat_prior, y_tilde) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-gain step on arrays with any leading batch axes.

    Returns the estimate x_hat = x_hat_prior + K (y_tilde - C x_hat_prior) and
    the next prediction H x_hat. Inputs are not validated here; callers check
    shapes once per trajectory.
    """
    x_hat = x_hat_prior + (y_tilde - x_hat_prior @ sol.C_t) @ sol.K_t
    return x_hat, x_hat @ sol.H_t


def run_filter(sol: FilterSolution, y_tilde, x0_hat) -> list[FilterState]:
    """Filter a whole (T, q) trajectory starting from the prediction ``x0_hat``."""
    y_tilde = as_matrix(y_tilde, "y_tilde")
    if y_tilde.shape[1] != sol.system.q:
        raise DimensionMismatchError(
            f"y_tilde has {y_tilde.shape[1]} channels, system has {sol.system.q}"
        )
    prior = as_vector(x0_hat, "x0_hat", length=sol.system.n)
    states = []
    for k, y in enumerate(y_tilde):
        est, next_prior = filter_step(sol, prior, y)
        states.append(FilterState(k=k, x_hat_prior=prior, x_hat=est))
        prior = next_prior
    return states
