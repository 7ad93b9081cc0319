"""Shared generators and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dpkalman import (
    CalibrationTarget,
    SystemModel,
    calibrate_aposteriori,
    calibrate_apriori,
    run_filter,
    solve_filter,
)
from dpkalman.calibration import APOSTERIORI, APRIORI

CASE_H = np.array([[1.0, 1.0], [0.0, 1.0]])
CASE_C = np.eye(2)
CASE_W = 10.0 * np.eye(2)


def case_study_system() -> SystemModel:
    return SystemModel(H=CASE_H, C=CASE_C, W=CASE_W, x0_hat=np.zeros(2))


def any_scalar():
    """Strategy for what a caller might pass as a real parameter.

    Numbers in and out of every domain, NaN and the infinities, an int past
    float range, a bool, numeric and other strings, None, a list, and numpy
    scalars.
    """
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 3),
        st.sampled_from([10**400, True, "1", "x", None, [0.001], np.float64(0.01), np.int64(2)]),
    )


def extreme_magnitude():
    """Strategy for positive floats log-uniform from 1e-320 to 1e300."""
    return st.floats(-320.0, 300.0).map(lambda e: 10.0**e)


def random_diagonal_system(rng: np.random.Generator, n_max: int = 4):
    """Random observable system with diagonal C and SPD W, plus noise scales.

    Diagonal C with nonzero entries makes the pair observable outright.
    """
    n = int(rng.integers(1, n_max + 1))
    H = rng.normal(scale=0.7, size=(n, n))
    c = rng.uniform(0.3, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    body = rng.normal(size=(n, n))
    W = body @ body.T + np.diag(rng.uniform(0.3, 2.0, size=n))
    system = SystemModel(H=H, C=np.diag(c), W=W, x0_hat=rng.normal(size=n))
    sigma = rng.uniform(0.3, 3.0, size=n)
    return system, sigma


def random_feasible_pair(rng: np.random.Generator, kind: str, max_attempts: int = 200):
    """Random (system, target) pair whose calibration interval is nonempty."""
    for _ in range(max_attempts):
        system, _ = random_diagonal_system(rng, n_max=3)
        tr_w = float(np.trace(system.W))
        tr_hth = float(np.sum(system.H * system.H))
        lam_min_w = float(np.linalg.eigvalsh(system.W)[0])
        adjacency_B = float(rng.uniform(0.5, 2.0))
        delta = float(rng.uniform(1e-4, 1e-1))
        if kind == APRIORI:
            B_l = tr_w + float(rng.uniform(0.02, 0.35)) * tr_hth * lam_min_w
            B_u = B_l + float(rng.uniform(20.0, 400.0)) * max(tr_hth, 1.0)
        else:
            n = system.n
            B_l = float(rng.uniform(0.05, 0.5)) * n * lam_min_w
            B_u = B_l + float(rng.uniform(20.0, 400.0)) * n
        target = CalibrationTarget(kind=kind, B_l=B_l, B_u=B_u, delta=delta, adjacency_B=adjacency_B)
        interval = (calibrate_apriori if kind == APRIORI else calibrate_aposteriori)(system, target)
        if interval.feasible:
            return system, target, interval
    raise AssertionError(f"no feasible {kind} pair found in {max_attempts} attempts")


def reference_paths(system: SystemModel, sigma, T: int, trials: int, seed: int):
    """Independent plain-loop simulator for cross-checking the engine.

    Draws its noise from numpy's default generator (not the package streams)
    and pushes trajectories through run_filter. Returns per-trial arrays of
    prior errors, posterior errors, true states, and privatized outputs with
    shapes (trials, T, n|q).
    """
    sol = solve_filter(system, sigma)
    rng = np.random.default_rng(seed)
    chol_w = np.linalg.cholesky(system.W)
    n, q = system.n, system.q
    prior_err = np.empty((trials, T, n))
    post_err = np.empty((trials, T, n))
    truth = np.empty((trials, T, n))
    outputs = np.empty((trials, T, q))
    for t in range(trials):
        x = system.x0_hat.copy()
        xs = np.empty((T, n))
        ys = np.empty((T, q))
        for k in range(T):
            xs[k] = x
            ys[k] = system.C @ x + rng.normal(size=q) * sigma
            x = system.H @ x + chol_w @ rng.normal(size=n)
        traj = run_filter(sol, ys, system.x0_hat)
        prior_err[t] = xs - traj.x_hat_prior
        post_err[t] = xs - traj.x_hat
        truth[t] = xs
        outputs[t] = ys
    return sol, prior_err, post_err, truth, outputs
