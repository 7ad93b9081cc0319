"""Gaussian-mechanism noise calibration and trajectory privatization.

The privacy level (epsilon, delta) and the adjacency radius B determine the
noise scale through the tail quantile K = Qinv(delta) of the standard normal:

    sigma >= sensitivity / (2 epsilon) * (K + sqrt(K^2 + 2 epsilon)),

where the sensitivity of the shared output stream is bounded by s1(C) * B.
Trajectories are arrays of shape (T, dim), one row per time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NonPositiveSigmaError, OutOfDomainError, ValidationError
from .linalg import _as_int, _as_real, _freeze, as_matrix, as_vector, singular_values
from .rng import STREAM_PRIVACY, gaussian_generator

# Relative undershoot tolerated when a caller supplies noise scales rounded
# for publication (e.g. to three significant digits).
SIGMA_ROUNDING_SLACK = 0.005


def q_inverse(delta: float) -> float:
    """The y with P[Z > y] = delta for standard normal Z: the quantile of 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise OutOfDomainError(f"q_inverse requires delta in (0, 1), got {delta}")
    return -NormalDist().inv_cdf(delta)


def _radius(adjacency_B) -> float:
    # the adjacency radius B as a positive finite float
    radius = _as_real(adjacency_B, "adjacency_B")
    if not (math.isfinite(radius) and radius > 0.0):
        raise OutOfDomainError(f"adjacency_B must be positive, got {adjacency_B}")
    return radius


def sensitivity_bound(C, adjacency_B: float) -> float:
    """Upper bound s1(C) * B on the worst-case output-trajectory distance."""
    radius = _radius(adjacency_B)
    s = singular_values(as_matrix(C, "C"))
    return float(s[0]) * radius


def _level(epsilon, delta) -> tuple[float, float]:
    # (epsilon, delta) as floats in the domain of the Gaussian mechanism
    epsilon = _as_real(epsilon, "epsilon")
    delta = _as_real(delta, "delta")
    if not epsilon > 0.0:
        raise OutOfDomainError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 0.5:
        raise OutOfDomainError(f"delta must lie in (0, 0.5), got {delta}")
    return epsilon, delta


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Minimal compliant Gaussian noise scale for (epsilon, delta)-privacy."""
    epsilon, delta = _level(epsilon, delta)
    sensitivity = _as_real(sensitivity, "sensitivity")
    if not sensitivity >= 0.0:
        raise OutOfDomainError(f"sensitivity must be nonnegative, got {sensitivity}")
    if math.isinf(epsilon):
        return 0.0
    k = q_inverse(delta)
    if 2.0 * epsilon < math.inf:
        return sensitivity / (2.0 * epsilon) * (k + math.sqrt(k * k + 2.0 * epsilon))
    # the same value with 2 epsilon, which overflows, halved inside the root
    return sensitivity / epsilon * (0.5 * k + math.sqrt(0.25 * k * k + 0.5 * epsilon))


def meets_minimum(sigma, minimal: float) -> bool:
    """True unless some scale falls below ``minimal`` beyond the rounding slack."""
    return not np.any(np.asarray(sigma) < minimal * (1.0 - SIGMA_ROUNDING_SLACK))


def noise_scales(system, epsilon: float, delta: float, adjacency_B: float,
                 sigma=None) -> tuple[np.ndarray, bool]:
    """Per-channel noise scales for ``system`` and whether they are compliant.

    ``sigma`` defaults to the minimal isotropic scale for (epsilon, delta) and
    the output sensitivity; a scalar applies to every channel and a sequence
    needs one nonnegative entry per channel. Compliance is
    :func:`meets_minimum` against that minimal scale.
    """
    return _paired(system, epsilon, delta, adjacency_B, sigma, check=False)


def paired_scales(system, privacy: "PrivacyConfig") -> np.ndarray:
    """The scales of ``privacy`` on ``system``, if :func:`noise_scales` finds them compliant."""
    return _paired(system, privacy.epsilon, privacy.delta, privacy.adjacency_B, privacy.sigma, check=True)[0]


def _paired(system, epsilon, delta, adjacency_B, sigma, *, check: bool) -> tuple[np.ndarray, bool]:
    # noise_scales, raising for a vector it finds not compliant if check is
    # set; a ragged nesting has no ndim, and _nonnegative rejects it
    minimal = gaussian_sigma(epsilon, delta, sensitivity_bound(system.C, adjacency_B))
    if sigma is None:
        sigma = minimal
    try:
        scalar = np.ndim(sigma) == 0
    except ValueError:
        scalar = False
    vec = _nonnegative(np.full(system.q, sigma) if scalar else sigma, system.q)
    compliant = meets_minimum(vec, minimal)
    if check and not compliant:
        raise ValidationError(f"noise scale below the ({epsilon}, {delta}) minimum {minimal:.6g}: "
                              f"got {vec.min():.6g}")
    return vec, compliant


def _nonnegative(sigma, length: int | None = None) -> np.ndarray:
    # sigma as a vector of nonnegative noise scales, of ``length`` if given
    vec = as_vector(sigma, "sigma", length=length)
    if np.any(vec < 0.0):
        raise NonPositiveSigmaError("noise scales must be nonnegative")
    return vec


def privatize(y, sigma, rng_seed: int, *, stream_index: int = 0) -> np.ndarray:
    """Add independent per-channel Gaussian noise to an output trajectory.

    ``y`` has shape (T, q) and ``sigma`` holds the q per-channel noise
    scales. Output is deterministic for a fixed (seed, stream_index); parallel
    callers privatizing several trajectories under one seed should pass
    distinct stream indices.
    """
    y = as_matrix(y, "trajectory")  # a copy: the noise is added into it
    sigma = _nonnegative(sigma, y.shape[1])
    _as_int(rng_seed, "rng_seed")
    if _as_int(stream_index, "stream_index") < 0:
        raise OutOfDomainError(f"stream_index must be nonnegative, got {stream_index}")
    noise = gaussian_generator(rng_seed, trial=stream_index, stream=STREAM_PRIVACY).standard_normal(y.shape)
    noise *= sigma
    y += noise
    return y


@dataclass(frozen=True, eq=False)
class PrivacyConfig:
    """Privacy parameters and per-channel noise scales, checked on their own.

    Compliance depends on the output map the scales protect, so
    :func:`paired_scales` checks it wherever a config meets a system.
    """

    epsilon: float
    delta: float
    adjacency_B: float
    sigma: np.ndarray

    def __post_init__(self):
        _level(self.epsilon, self.delta)
        _radius(self.adjacency_B)
        _freeze(self, sigma=_nonnegative(self.sigma))

    @classmethod
    def for_system(cls, system, epsilon: float, delta: float, adjacency_B: float,
                   sigma=None) -> "PrivacyConfig":
        """Build a config for ``system`` with the scales of :func:`noise_scales`, if compliant."""
        return cls(epsilon, delta, adjacency_B, _paired(system, epsilon, delta, adjacency_B, sigma, check=True)[0])
