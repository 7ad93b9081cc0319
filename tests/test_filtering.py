import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkalman import (
    AgentSpec,
    FilterTrajectory,
    PrivacyConfig,
    SystemModel,
    ValidationError,
    compose,
    run_filter,
    solve_filter,
)
from dpkalman.errors import DimensionMismatchError
from dpkalman.filtering import FILTER_WINDOW
from dpkalman.linalg import block_diag
from helpers import any_scalar, case_study_system, reference_paths

LN3 = math.log(3.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def scalar_solution():
    system = SystemModel(H=[[1.0]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])
    return solve_filter(system, np.array([1.0]))


def first_estimate(sol, prior, observed):
    """Estimate after one step from ``prior`` with output ``observed``."""
    return run_filter(sol, np.atleast_2d(observed), prior)[0].x_hat


def predicted(sol, x_hat):
    """Prediction made from the estimate ``x_hat``: a zero-innovation first
    step leaves the estimate at its prior, and the second step's prior is
    H times it."""
    x_hat = np.asarray(x_hat, dtype=float)
    states = run_filter(sol, np.tile(sol.system.C @ x_hat, (2, 1)), x_hat)
    np.testing.assert_array_equal(states[0].x_hat, x_hat)
    np.testing.assert_array_equal(states[1].x_hat_prior, sol.system.H @ states[0].x_hat)
    return states[1].x_hat_prior


class TestPredict:
    def test_identity_dynamics(self):
        system = SystemModel(H=np.eye(2), C=np.eye(2), W=np.eye(2), x0_hat=np.zeros(2))
        sol = solve_filter(system, np.ones(2))
        np.testing.assert_array_equal(predicted(sol, [1.5, -2.0]), [1.5, -2.0])

    def test_zero_dynamics(self):
        system = SystemModel(H=np.zeros((2, 2)), C=np.eye(2), W=np.eye(2), x0_hat=np.zeros(2))
        sol = solve_filter(system, np.ones(2))
        np.testing.assert_array_equal(predicted(sol, [1.0, 2.0]), [0.0, 0.0])

    def test_case_study_step(self):
        sol = solve_filter(case_study_system(), np.full(2, 2.9663))
        np.testing.assert_allclose(predicted(sol, [2.0, 3.0]), [5.0, 3.0])


class TestUpdate:
    def test_zero_innovation_is_noop(self):
        sol = solve_filter(case_study_system(), np.full(2, 2.9663))
        prior = np.array([0.7, -1.2])
        np.testing.assert_allclose(first_estimate(sol, prior, sol.system.C @ prior), prior, atol=1e-14)

    def test_vanishing_gain_limit(self):
        # needs strictly stable dynamics so the prediction covariance stays
        # bounded while the noise grows, sending the gain to zero
        system = SystemModel(H=0.5 * np.array([[1.0, 1.0], [0.0, 1.0]]), C=np.eye(2),
                             W=10.0 * np.eye(2), x0_hat=np.zeros(2))
        sol = solve_filter(system, np.full(2, 1e4))
        prior = np.array([0.7, -1.2])
        out = first_estimate(sol, prior, np.array([5.0, 5.0]))
        denom = np.linalg.norm(prior, ord=np.inf) + 1.0
        assert np.abs(out - prior).max() / denom < 1e-5

    def test_scalar_steady_state(self, scalar_solution):
        out = first_estimate(scalar_solution, np.array([0.0]), np.array([1.0]))
        assert out[0] == pytest.approx(GOLDEN / (GOLDEN + 1.0), abs=1e-8)

    def test_matches_innovation_form_gain(self):
        # heterogeneous noise makes the gain non-symmetric, so orientation
        # errors cannot hide; cross-check against the equivalent
        # sigma C^T (C sigma C^T + V)^-1 form
        system = case_study_system()
        sigma_scales = np.array([1.0, 4.0])
        sol = solve_filter(system, sigma_scales)
        ric = sol.riccati
        alt_gain = ric.sigma @ system.C.T @ np.linalg.inv(
            system.C @ ric.sigma @ system.C.T + np.diag(sigma_scales**2)
        )
        np.testing.assert_allclose(ric.gain, alt_gain, atol=1e-10)
        assert not np.allclose(ric.gain, ric.gain.T)
        prior = np.array([0.3, -2.0])
        observed = np.array([1.0, 0.5])
        expected = prior + alt_gain @ (observed - system.C @ prior)
        np.testing.assert_allclose(first_estimate(sol, prior, observed), expected, atol=1e-10)

    def test_rectangular_output_map(self):
        # single measured channel: gain is a column, shapes must line up
        system = SystemModel(H=np.array([[0.9, 0.2], [0.0, 0.8]]), C=np.array([[1.0, 0.5]]),
                             W=np.eye(2), x0_hat=np.zeros(2))
        sol = solve_filter(system, np.array([2.0]))
        assert sol.riccati.gain.shape == (2, 1)
        out = first_estimate(sol, np.zeros(2), np.array([1.0]))
        assert out.shape == (2,)
        states = run_filter(sol, np.ones((20, 1)), np.zeros(2))
        assert states[-1].x_hat.shape == (2,)
        assert states[-1].x_hat_prior.shape == (2,)


class TestRunFilter:
    def test_single_consistent_sample_returns_prior(self):
        system = case_study_system()
        sol = solve_filter(system, np.full(2, 2.9663))
        x0 = np.array([3.0, -1.0])
        states = run_filter(sol, (system.C @ x0).reshape(1, 2), x0)
        assert len(states) == 1
        assert states[0].k == 0
        np.testing.assert_allclose(states[0].x_hat, x0, atol=1e-14)

    def test_constant_signal_tracked(self):
        system = SystemModel(H=np.eye(2), C=np.eye(2), W=np.eye(2), x0_hat=np.zeros(2))
        sol = solve_filter(system, np.ones(2))
        target = np.array([4.0, -2.0])
        stream = np.tile(target, (1000, 1))
        states = run_filter(sol, stream, np.zeros(2))
        start_gap = np.linalg.norm(target)
        assert np.linalg.norm(states[-1].x_hat - target) < 1e-2 * start_gap

    def test_empty_stream_rejected(self):
        sol = solve_filter(case_study_system(), np.full(2, 2.9663))
        with pytest.raises(ValidationError):
            run_filter(sol, np.empty((0, 2)), np.zeros(2))

    def test_channel_mismatch_rejected(self):
        sol = solve_filter(case_study_system(), np.full(2, 2.9663))
        with pytest.raises(DimensionMismatchError):
            run_filter(sol, np.zeros((5, 3)), np.zeros(2))

    @given(sol=st.one_of(any_scalar(), st.just(case_study_system()),
                         st.just(solve_filter(case_study_system(), np.full(2, 2.9663)))),
           y_tilde=st.one_of(any_scalar(), st.just(np.zeros((3, 2)))),
           x0_hat=st.one_of(any_scalar(), st.just(np.zeros(2))))
    @settings(max_examples=60, deadline=None)
    def test_malformed_arguments_raise_validation_errors(self, sol, y_tilde, x0_hat):
        try:
            run_filter(sol, y_tilde, x0_hat)
        except ValidationError:
            pass

    def test_deterministic(self):
        sol = solve_filter(case_study_system(), np.full(2, 2.9663))
        stream = np.random.default_rng(0).normal(size=(50, 2))
        a = run_filter(sol, stream, np.zeros(2))
        b = run_filter(sol, stream, np.zeros(2))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x_hat, sb.x_hat)


def dense_solution(n, q, seed=0):
    """Seeded stable plant with dense H, C (q x n) and W, a nonzero x0_hat."""
    rng = np.random.default_rng([seed, n, q])
    H = rng.normal(size=(n, n))
    H *= 0.9 / np.max(np.abs(np.linalg.eigvals(H)))
    body = rng.normal(size=(n, n))
    system = SystemModel(H=H, C=rng.normal(size=(q, n)), W=body @ body.T / n + np.eye(n),
                         x0_hat=rng.normal(size=n))
    return solve_filter(system, rng.uniform(0.5, 2.0, size=q))


def slow_scalar_solution():
    """H=0.999 at epsilon=0.1: the prediction-form F is about 0.997."""
    system = SystemModel(H=[[0.999]], C=[[1.0]], W=[[0.01]], x0_hat=[0.5])
    sigma = PrivacyConfig.for_system(system, epsilon=0.1, delta=1e-3, adjacency_B=1.0).sigma
    return solve_filter(system, sigma)


def network_solution():
    """A composed network shaped like the benchmark's filter workload: a
    seeded mix of six case-study agents (n = q = 2) and six scalar decays
    (n = q = 1), each with its own privacy level, so F_t is block diagonal
    with exact zeros off the blocks. Returns the solution and the block mask."""
    rng = np.random.default_rng(12)
    specs = []
    for i, kind in enumerate(rng.permutation([0, 1] * 6)):
        if kind == 0:
            system = case_study_system()
        else:
            system = SystemModel(H=[[rng.uniform(0.3, 0.9)]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])
        epsilon = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        privacy = PrivacyConfig.for_system(system, epsilon=epsilon, delta=1e-3, adjacency_B=1.0)
        specs.append(AgentSpec(id=f"agent{i:02d}", system=system, privacy=privacy))
    network = compose(specs)
    blocks = block_diag([np.ones((a.system.n, a.system.n)) for a in specs])
    return solve_filter(network.system, network.sigma), blocks


def plain_filter(sol, y_tilde, x0_hat):
    """Per-step reference: estimate p + K(y - Cp), then predict H est."""
    system, gain = sol.system, sol.riccati.gain
    priors = np.empty((len(y_tilde), system.n))
    ests = np.empty_like(priors)
    p = np.asarray(x0_hat, dtype=float)
    for k, y in enumerate(y_tilde):
        priors[k] = p
        ests[k] = p + gain @ (y - system.C @ p)
        p = system.H @ ests[k]
    return priors, ests


def trajectory(states):
    return (np.array([s.x_hat_prior for s in states]), np.array([s.x_hat for s in states]))


def assert_close_to_scale(got, want, rtol):
    # entrywise, relative to the estimates' magnitude: a near-zero entry
    # carries the rounding of the whole sum it came from
    scale = 1.0 + max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rtol * scale


class TestWholeTrajectory:
    """run_filter's two-level doubling against the plain per-step recursion."""

    L = FILTER_WINDOW

    # window counts 1, 2, 3, 5, 33, 34 and 130, with the last window full
    # or partial
    @pytest.mark.parametrize("T", [1, 2, L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1, 4 * L + 1,
                                   33 * L, 33 * L + 1, 129 * L + 3, 2000])
    @pytest.mark.parametrize("n,q", [(1, 1), (2, 2), (5, 5), (18, 18), (64, 64), (5, 2), (18, 3)])
    def test_matches_plain_recursion(self, n, q, T):
        sol = dense_solution(n, q)
        y = np.random.default_rng([T, n, q]).normal(scale=3.0, size=(T, q))
        x0 = sol.system.x0_hat
        assert np.all(x0 != 0.0)
        states = run_filter(sol, y, x0)
        assert [s.k for s in states] == list(range(T))
        assert_close_to_scale(trajectory(states), plain_filter(sol, y, x0), 1e-12)

    def test_wide_plant(self, monkeypatch):
        # the random dense plant is observable; skip the Krylov rank check,
        # which takes seconds at n = 256
        monkeypatch.setattr("dpkalman.linalg.observability_check", lambda *a: True)
        self.test_matches_plain_recursion(256, 256, 2000)

    @pytest.mark.parametrize("T", [L + 1, 2 * L + 1, 2000])
    def test_slow_plant(self, T):
        sol = slow_scalar_solution()
        assert 0.99 < abs(sol.F_t[0, 0]) < 1.0
        y = np.random.default_rng(T).normal(scale=3.0, size=(T, 1))
        states = run_filter(sol, y, sol.system.x0_hat)
        assert_close_to_scale(trajectory(states), plain_filter(sol, y, sol.system.x0_hat), 1e-12)

    @pytest.mark.parametrize("T", [1, L, L + 1, 2000])
    def test_composed_network(self, T):
        sol, blocks = network_solution()
        assert (sol.system.n, sol.system.q) == (18, 18)
        assert np.all(sol.F_t[blocks == 0.0] == 0.0)
        y = np.random.default_rng(T).normal(scale=3.0, size=(T, 18))
        x0 = np.random.default_rng([T, 0]).normal(size=18)
        traj = run_filter(sol, y, x0)
        assert_close_to_scale((traj.x_hat_prior, traj.x_hat), plain_filter(sol, y, x0), 1e-12)

    def test_prediction_form_matrices(self):
        sol = dense_solution(5, 2)
        K, C, H = sol.riccati.gain, sol.system.C, sol.system.H
        A = np.eye(5) - K @ C
        np.testing.assert_allclose(sol.A_t, A.T, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(sol.F_t, (H @ A).T, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(sol.G_t, (H @ K).T, rtol=1e-13, atol=1e-14)
        for arr in (sol.A_t, sol.F_t, sol.G_t):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_returned_arrays_are_read_only(self):
        sol = dense_solution(5, 2)
        states = run_filter(sol, np.ones((2 * self.L + 1, 2)), sol.system.x0_hat)
        for state in (states[0], states[-1]):
            for arr in (state.x_hat, state.x_hat_prior):
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_arrays_are_the_steps(self):
        sol = dense_solution(5, 2)
        traj = run_filter(sol, np.ones((2 * self.L + 1, 2)), sol.system.x0_hat)
        assert isinstance(traj, FilterTrajectory)
        for arr, want in zip((traj.x_hat_prior, traj.x_hat), trajectory(traj)):
            assert arr.shape == (2 * self.L + 1, 5)
            assert arr.flags.c_contiguous and not arr.flags.writeable
            np.testing.assert_array_equal(arr, want)

    @pytest.mark.parametrize("T", [1, L + 3])
    def test_sequence_of_steps(self, T):
        traj = run_filter(dense_solution(5, 2), np.ones((T, 2)), np.zeros(5))
        assert len(traj) == T
        assert [s.k for s in traj] == list(range(T))
        assert traj[-1].k == T - 1
        assert [s.k for s in traj[:2]] == list(range(min(2, T)))
        assert traj[0] is traj[0]  # the per-step records are built once
        with pytest.raises(IndexError):
            traj[T]

    @pytest.mark.parametrize("N", [1, 17, 1000])
    def test_prefix_agrees_with_longer_run(self, N):
        sol = dense_solution(18, 18)
        y = np.random.default_rng(N).normal(scale=3.0, size=(2000, 18))
        full = trajectory(run_filter(sol, y, sol.system.x0_hat)[:N])
        prefix = trajectory(run_filter(sol, y[:N], sol.system.x0_hat))
        assert_close_to_scale(prefix, full, 1e-13)


class TestStatisticalBehavior:
    def test_beats_output_inversion(self):
        # time-averaged squared estimation error vs the naive C^-1 y estimate
        system = case_study_system()
        sigma = np.full(2, 2.966281680892255)
        sol, _, post_err, truth, outputs = reference_paths(system, sigma, T=100, trials=1000, seed=42)
        kalman_mse = (post_err[:, 10:, :] ** 2).sum(axis=2).mean()
        naive = outputs - truth @ system.C.T  # C^-1 y - x reduces to C^-1 v; C = I here
        naive_mse = (naive[:, 10:, :] ** 2).sum(axis=2).mean()
        assert kalman_mse <= naive_mse

    def test_error_covariance_matches_solution(self):
        # long single run: sample covariance of the estimation error vs the
        # solved steady-state covariance, entrywise, with statistical slack
        system = case_study_system()
        sigma = np.full(2, 2.966281680892255)
        sol, _, post_err, _, _ = reference_paths(system, sigma, T=10_000, trials=1, seed=5)
        samples = post_err[0, 100:, :]
        emp = np.cov(samples.T)
        expected = sol.riccati.sigma_bar
        t_eff = samples.shape[0] / 20.0  # serial correlation discount
        for i in range(2):
            for j in range(2):
                stat = 3.0 * math.sqrt(
                    (expected[i, i] * expected[j, j] + expected[i, j] ** 2) / t_eff
                )
                tol = 0.05 * abs(expected[i, j]) + stat
                assert abs(emp[i, j] - expected[i, j]) <= tol

    def test_prediction_error_unbiased(self):
        system = case_study_system()
        sigma = np.full(2, 2.966281680892255)
        _, prior_err, _, _, _ = reference_paths(system, sigma, T=60, trials=800, seed=17)
        tail = prior_err[:, 10:, :]
        mean = tail.mean(axis=(0, 1))
        # per-trial time averages give independent samples for the standard error
        per_trial = tail.mean(axis=1)
        se = per_trial.std(axis=0, ddof=1) / math.sqrt(per_trial.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se)
