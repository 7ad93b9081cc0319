import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_discrete_are

import dpkalman.linalg
from dpkalman import PrivacyConfig, SystemModel, ValidationError, solve_dare
from dpkalman.errors import (
    DimensionMismatchError,
    FactorizationError,
    NoConvergenceError,
    NonSymmetricError,
    NotDetectableError,
    SingularMatrixError,
)
from dpkalman.filtering import FilterSolution
from dpkalman.linalg import (
    SYMMETRY_TOL,
    RiccatiSolution,
    block_diag,
    controllability_check,
    observability_check,
    require_symmetric,
    singular_values,
    symmetric_factor,
)
from dpkalman.simulation import SimulationConfig
from helpers import CASE_H, case_study_system, random_diagonal_system

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def finite_square(n_max=4, scale=5.0):
    side = st.integers(1, n_max)
    return side.flatmap(
        lambda n: arrays(
            np.float64, (n, n),
            elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
        )
    )


class TestSingularValues:
    def test_identity(self):
        assert singular_values(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_diagonal_absolute_sorted(self):
        assert singular_values(np.diag([3.0, -4.0])) == pytest.approx([4.0, 3.0])

    def test_case_study_golden_ratio(self):
        s = singular_values(CASE_H)
        assert s[0] == pytest.approx(GOLDEN, abs=1e-12)
        assert s[1] == pytest.approx(GOLDEN - 1.0, abs=1e-12)

    @given(finite_square())
    @settings(max_examples=50)
    def test_squares_are_gram_eigenvalues(self, A):
        s = singular_values(A)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0.0)
        gram = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
        np.testing.assert_allclose(s**2, np.clip(gram, 0.0, None), atol=1e-8 * max(1.0, gram[0]))


class TestObservability:
    def test_full_output_always_observable(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            H = rng.normal(size=(3, 3))
            assert observability_check(H, np.eye(3))

    def test_zero_output_never_observable(self):
        assert not observability_check(np.eye(2), np.zeros((2, 2)))

    def test_single_channel_chain(self):
        # [C; CH] = [[1,0],[0,0],[1,1],[0,0]] has rank 2.
        assert observability_check(CASE_H, np.diag([1.0, 0.0]))
        # the mirrored channel sees only the second, decoupled state
        assert not observability_check(np.eye(2), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("H,C", [(np.ones((2, 3)), np.ones((1, 3))), (np.eye(2), np.eye(3))],
                             ids=["non-square H", "C columns"])
    def test_inconsistent_shapes_rejected(self, H, C):
        with pytest.raises(DimensionMismatchError, match="inconsistent shapes"):
            observability_check(H, C)


class TestControllability:
    def test_positive_definite_noise(self):
        assert controllability_check(CASE_H, 10.0 * np.eye(2))

    def test_rank_deficient_noise_reported(self):
        W = np.zeros((2, 2))
        W[0, 0] = 1.0
        assert not controllability_check(np.eye(2), W)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(FactorizationError):
            controllability_check(np.eye(2), np.diag([1.0, -1.0]))

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        W = A @ A.T
        D = symmetric_factor(W)
        np.testing.assert_allclose(D @ D.T, W, atol=1e-10)


class TestSolveDare:
    def test_zero_dynamics_collapse_to_w(self):
        system = SystemModel(H=np.zeros((2, 2)), C=np.eye(2), W=np.diag([3.0, 7.0]), x0_hat=np.zeros(2))
        ric = solve_dare(system, np.eye(2))
        np.testing.assert_allclose(ric.sigma, np.diag([3.0, 7.0]), atol=1e-12)

    def test_scalar_closed_form(self):
        system = SystemModel(H=[[1.0]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])
        ric = solve_dare(system, [[1.0]])
        assert ric.sigma[0, 0] == pytest.approx(GOLDEN, abs=1e-8)
        assert ric.sigma_bar[0, 0] == pytest.approx(GOLDEN / (GOLDEN + 1.0), abs=1e-8)

    def test_case_study_trace_inside_analytic_window(self):
        ric = solve_dare(case_study_system(), 2.9663**2 * np.eye(2))
        assert 34.0 <= np.trace(ric.sigma) <= 46.4

    def test_unobservable_rejected(self):
        system = SystemModel(H=np.eye(2), C=np.zeros((1, 2)), W=np.eye(2), x0_hat=np.zeros(2))
        with pytest.raises(NotDetectableError):
            solve_dare(system, np.eye(1))

    def test_nearly_singular_noise_matches_scipy(self):
        # W positive definite makes (H, W^1/2) controllable however small its
        # second eigenvalue, so no rank test of that pair may reject the plant
        system = SystemModel(H=0.5 * np.eye(2), C=np.eye(2), W=np.diag([1.0, 1e-22]), x0_hat=np.zeros(2))
        ric = solve_dare(system, np.eye(2))
        expected = solve_discrete_are(system.H.T, system.C.T, system.W, np.eye(2))
        np.testing.assert_allclose(ric.sigma, expected, rtol=1e-7, atol=1e-9)

    def test_singular_v_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_dare(case_study_system(), np.diag([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_dare(case_study_system(), np.eye(3))

    def test_iteration_cap_raises(self, monkeypatch):
        # slow-mixing plant: at epsilon = 0.1 the iteration needs 3420 steps
        system = SystemModel(H=[[0.999]], C=[[1.0]], W=[[0.01]], x0_hat=[0.0])
        sigma = PrivacyConfig.for_system(system, epsilon=0.1, delta=1e-3, adjacency_B=1.0).sigma
        V = np.diag(sigma**2)
        assert solve_dare(system, V).iterations == 3420
        monkeypatch.setattr(dpkalman.linalg, "DARE_MAX_ITERATIONS", 50)
        with pytest.raises(NoConvergenceError, match=r"within 50 iterations \(residual \d\.\d{3}e-\d+\)"):
            solve_dare(system, V)

    def test_non_finite_iterate_stops_at_once(self, monkeypatch):
        # W = 1e308 overflows the first map: the solver stops there rather
        # than running DARE_MAX_ITERATIONS passes; the start's norm is the
        # finite 1e308, so the residual of the infinite map reads inf
        passes = []
        riccati_pass = dpkalman.linalg._riccati_pass
        monkeypatch.setattr(dpkalman.linalg, "_riccati_pass", lambda *a: passes.append(1) or riccati_pass(*a))
        with np.errstate(over="ignore", invalid="ignore"):
            system = SystemModel(H=[[1.0]], C=[[1.0]], W=[[1e308]], x0_hat=[0.0])
            sigma = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.01, adjacency_B=1.0).sigma
            with pytest.raises(NoConvergenceError, match=r"after 0 iterations \(residual inf\)"):
                solve_dare(system, np.diag(sigma**2))
        assert len(passes) == 1

    @pytest.mark.parametrize("w", [1e155, 1e300])
    def test_residual_measured_past_float_range(self, w):
        # |sigma|_F squared passes float range, yet the residual is the
        # fixed-point defect of the returned sigma, taken on the matrices
        # scaled by 1 / w
        H = case_study_system().H
        V = np.diag([2.966**2] * 2)
        ric = solve_dare(SystemModel(H=H, C=np.eye(2), W=np.diag([w, 10.0]), x0_hat=np.zeros(2)), V)
        assert 0.0 < ric.residual < math.inf
        inner = np.linalg.inv(np.linalg.inv(ric.sigma) + np.linalg.inv(V))
        image = H @ (inner / w) @ H.T + np.diag([1.0, 10.0 / w])
        S = ric.sigma / w
        defect = np.linalg.norm(0.5 * (image + image.T) - S) / np.linalg.norm(S)
        assert ric.residual == pytest.approx(defect, rel=1e-6)

    @pytest.mark.parametrize("w", [1e12, 1e20])
    def test_small_block_beside_a_large_one_matches_scipy(self, w):
        # the relative Frobenius residual of the whole sigma is blind to the
        # block of variance 10 beside the one of variance w, so each variance
        # is checked on its own scale; scipy's off-diagonal entry is off by
        # 28 % at w = 1e20 (a 60-digit fixed-point iteration gives 5.62881,
        # as solve_dare does), so the oracle is taken on the diagonal
        H = case_study_system().H
        V = np.diag([2.966**2] * 2)
        system = SystemModel(H=H, C=np.eye(2), W=np.diag([w, 10.0]), x0_hat=np.zeros(2))
        ric = solve_dare(system, V)
        expected = solve_discrete_are(H.T, np.eye(2), system.W, V)
        np.testing.assert_allclose(np.diag(ric.sigma), np.diag(expected), rtol=1e-7, atol=0)

    @pytest.mark.parametrize("epsilon,iterations", [(math.log(3.0), 14), (1e-3, 514)])
    def test_case_study_iteration_count(self, epsilon, iterations):
        # the fixed-point counts of the case study at the paper's epsilon and
        # at strong privacy
        sigma = PrivacyConfig.for_system(case_study_system(), epsilon=epsilon, delta=1e-3,
                                         adjacency_B=1.0).sigma
        assert solve_dare(case_study_system(), np.diag(sigma**2)).iterations == iterations

    @pytest.mark.parametrize("plant", ["case_study", "slow_scalar", "dense12"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.1, 1e-3])
    def test_matches_plain_fixed_point(self, plant, epsilon):
        # reference: the docstring's map with solve(., eye) and np.linalg.norm;
        # solve_dare must reproduce its iterates bit for bit
        if plant == "dense12":
            rng = np.random.default_rng(12)
            H = rng.normal(size=(12, 12))
            body = rng.normal(size=(12, 12))
            system = SystemModel(H=0.9 * H / np.max(np.abs(np.linalg.eigvals(H))), C=np.eye(12),
                                 W=body @ body.T / 12 + np.eye(12), x0_hat=np.zeros(12))
        else:
            system = {"case_study": case_study_system(),
                      "slow_scalar": SystemModel(H=[[0.999]], C=[[1.0]], W=[[0.01]], x0_hat=[0.0])}[plant]
        V = np.diag(PrivacyConfig.for_system(system, epsilon=epsilon, delta=1e-3, adjacency_B=1.0).sigma**2)
        H, C, W = system.H, system.C, system.W
        info = C.T @ np.linalg.solve(V, C)
        eye = np.eye(system.n)
        sigma, change, k = W, np.inf, 0
        while True:
            inner = np.linalg.solve(np.linalg.solve(sigma, eye) + info, eye)
            image = H @ inner @ H.T + W
            image = 0.5 * (image + image.T)
            step = float(np.linalg.norm(image - sigma))
            residual = step / float(np.linalg.norm(sigma))
            if change < 1e-12 and residual <= 1e-10:
                break
            change = step / float(np.linalg.norm(image))
            sigma, k = image, k + 1
        ric = solve_dare(system, V)
        assert (ric.iterations, ric.residual) == (k, residual)
        assert np.array_equal(ric.sigma, sigma)
        assert np.array_equal(ric.sigma_bar, 0.5 * (inner + inner.T))
        assert np.array_equal(ric.gain, np.linalg.solve(V, C @ ric.sigma_bar).T)

    @pytest.mark.parametrize("seed", range(12))
    def test_residual_dominance_and_scipy_agreement(self, seed):
        rng = np.random.default_rng(1000 + seed)
        system, sigma = random_diagonal_system(rng)
        V = np.diag(sigma**2)
        ric = solve_dare(system, V)
        # residual contract
        assert ric.residual <= 1e-10
        # the reported residual is the fixed-point defect of the returned sigma
        H, C, W, S = system.H, system.C, system.W, ric.sigma
        eye = np.eye(system.n)
        inner = np.linalg.solve(np.linalg.solve(S, eye) + C.T @ np.linalg.solve(V, C), eye)
        image = H @ inner @ H.T + W
        image = 0.5 * (image + image.T)
        recomputed = np.linalg.norm(image - S) / np.linalg.norm(S)
        assert ric.residual == pytest.approx(recomputed, rel=1e-12, abs=0.0)
        # sigma_bar is the posterior of the returned sigma, in the inverse-sum
        # form bit for bit and in the subtraction form to rounding
        inner = np.linalg.inv(np.linalg.inv(S) + C.T @ np.linalg.solve(V, C))
        assert np.array_equal(ric.sigma_bar, 0.5 * (inner + inner.T))
        subtraction = S - S @ C.T @ np.linalg.solve(C @ S @ C.T + V, C @ S)
        assert np.linalg.norm(ric.sigma_bar - subtraction) <= 1e-9 * np.linalg.norm(subtraction)
        # the solution dominates the process noise
        assert np.linalg.eigvalsh(ric.sigma - system.W).min() >= -1e-8
        # estimation never beats prediction in trace
        assert np.trace(ric.sigma_bar) <= np.trace(ric.sigma) + 1e-12
        # independent Schur-based oracle
        expected = solve_discrete_are(system.H.T, system.C.T, system.W, V)
        np.testing.assert_allclose(ric.sigma, expected, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_noise_monotonicity(self, seed):
        rng = np.random.default_rng(2000 + seed)
        system, sigma = random_diagonal_system(rng)
        V = np.diag(sigma**2)
        base = np.trace(solve_dare(system, V).sigma)
        for t in (1.5, 4.0):
            scaled = np.trace(solve_dare(system, t * V).sigma)
            assert scaled >= base - 1e-9 * max(1.0, base)


class TestPosteriorCovariance:
    # linalg._posterior, the (sigma^-1 + C^T V^-1 C)^-1 of every Riccati pass
    @staticmethod
    def posterior(sigma, C, V):
        sigma, C, V = (np.asarray(a, dtype=float) for a in (sigma, C, V))
        return dpkalman.linalg._posterior(sigma, C.T @ np.linalg.solve(V, C))

    def test_scalar(self):
        out = self.posterior([[1.0]], [[1.0]], [[1.0]])
        assert out[0, 0] == pytest.approx(0.5)

    def test_singular_to_working_precision_is_a_numerical_error(self):
        # channels whose information differs by most of float range can leave
        # sigma^-1 + C^T V^-1 C singular in floating point (seen on a dense
        # 3-channel map at scales 7e64, 1e-81 and 8e-44); that is exit 3, not
        # numpy's own LinAlgError
        with pytest.raises(SingularMatrixError, match="working precision"):
            dpkalman.linalg._posterior(np.eye(2), -np.eye(2))

    def test_huge_noise_returns_prior(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        sigma = A @ A.T + np.eye(3)
        out = self.posterior(sigma, np.eye(3), 1e6 * np.eye(3))
        rel = np.linalg.norm(out - sigma) / np.linalg.norm(sigma)
        assert rel < 1e-4

    def test_hand_computed(self):
        out = self.posterior(2.0 * np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, (2.0 / 3.0) * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_two_algebraic_forms_agree(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        sigma = A @ A.T + 0.5 * np.eye(n)
        C = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        V = B @ B.T + 0.5 * np.eye(n)
        inverse_sum = self.posterior(sigma, C, V)
        subtraction = sigma - sigma @ C.T @ np.linalg.solve(C @ sigma @ C.T + V, C @ sigma)
        rel = np.linalg.norm(inverse_sum - subtraction) / np.linalg.norm(subtraction)
        assert rel <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_prior(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        sigma = A @ A.T + 0.5 * np.eye(n)
        C = rng.normal(size=(n, n))
        out = self.posterior(sigma, C, np.eye(n))
        assert np.linalg.eigvalsh(sigma - out).min() >= -1e-9


class TestMatrixInequalities:
    @given(finite_square(n_max=5))
    @settings(max_examples=60)
    def test_trace_of_product_bracketed_by_extreme_eigenvalues(self, A):
        S = A + A.T
        K = A @ A.T  # PSD
        w = np.linalg.eigvalsh(S)
        lo, hi = w[0], w[-1]
        tr_k = float(np.trace(K))
        tr_ks = float(np.trace(K @ S))
        slack = 1e-8 * max(1.0, abs(tr_k) * max(abs(lo), abs(hi)))
        assert lo * tr_k - slack <= tr_ks <= hi * tr_k + slack

    @given(finite_square(n_max=5), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_largest_eigenvalue_of_sum_bracketing(self, A, seed):
        K = A + A.T
        S = np.random.default_rng(seed).normal(size=K.shape)
        S = S + S.T
        k1 = np.linalg.eigvalsh(K)[-1]
        s_all = np.linalg.eigvalsh(S)
        top = np.linalg.eigvalsh(K + S)[-1]
        slack = 1e-8 * max(1.0, abs(k1) + abs(s_all[-1]))
        assert k1 + s_all[0] - slack <= top <= k1 + s_all[-1] + slack


class TestBlockDiag:
    def test_two_blocks(self):
        out = block_diag([np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])])
        np.testing.assert_allclose(out, [[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            block_diag([])


class TestSystemModel:
    def test_rejects_indefinite_w(self):
        with pytest.raises(ValidationError):
            SystemModel(H=np.eye(2), C=np.eye(2), W=np.diag([1.0, -1.0]), x0_hat=np.zeros(2))

    def test_rejects_semidefinite_w(self):
        # an exact zero eigenvalue: W must be positive definite
        with pytest.raises(ValidationError, match="positive definite"):
            SystemModel(H=np.eye(2), C=np.eye(2), W=np.diag([1.0, 0.0]), x0_hat=np.zeros(2))

    def test_rejects_asymmetric_w(self):
        with pytest.raises(NonSymmetricError):
            SystemModel(H=np.eye(2), C=np.eye(2), W=np.array([[1.0, 0.5], [0.0, 1.0]]), x0_hat=np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SystemModel(H=np.eye(2), C=np.eye(3), W=np.eye(2), x0_hat=np.zeros(2))

    def test_rejects_non_square_h(self):
        with pytest.raises(DimensionMismatchError, match="H must be square"):
            SystemModel(H=np.ones((2, 3)), C=np.eye(2), W=np.eye(2), x0_hat=np.zeros(2))

    def test_rejects_w_of_the_wrong_size(self):
        with pytest.raises(DimensionMismatchError, match="W must be 2x2"):
            SystemModel(H=np.eye(2), C=np.eye(2), W=np.eye(3), x0_hat=np.zeros(2))

    def test_skew_exactly_at_the_tolerance_accepted(self):
        # max |W_ij - W_ji| <= SYMMETRY_TOL is symmetric enough, and W is
        # stored symmetrized; a skew one step past the tolerance is not
        W = np.array([[1.0, SYMMETRY_TOL], [0.0, 1.0]])
        system = SystemModel(H=np.eye(2), C=np.eye(2), W=W, x0_hat=np.zeros(2))
        np.testing.assert_array_equal(system.W, [[1.0, SYMMETRY_TOL / 2], [SYMMETRY_TOL / 2, 1.0]])
        with pytest.raises(NonSymmetricError):
            require_symmetric(np.array([[1.0, math.nextafter(SYMMETRY_TOL, 1.0)], [0.0, 1.0]]))

    def test_huge_w_stays_finite(self):
        # W + W^T overflows at 1e308, but the symmetrized W is W itself
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            system = SystemModel(H=[[1.0]], C=[[1.0]], W=[[1e308]], x0_hat=[0.0])
        assert system.W[0, 0] == 1e308

    def test_arrays_frozen(self):
        system = case_study_system()
        with pytest.raises(ValueError):
            system.H[0, 0] = 2.0


def _frozen_models():
    # per model type: a builder of (model, names of its stored arrays,
    # the arrays its caller passed in), all fresh writable arrays
    def system():
        inputs = [CASE_H.copy(), np.eye(2), 10.0 * np.eye(2), np.zeros(2)]
        return SystemModel(*inputs), ("H", "C", "W", "x0_hat"), inputs

    def riccati():
        inputs = [np.eye(2), np.eye(2), np.eye(2)]
        return RiccatiSolution(*inputs, residual=0.0, iterations=0), ("sigma", "sigma_bar", "gain"), inputs

    def filter_solution():
        ric, _, inputs = riccati()
        return FilterSolution(case_study_system(), ric), ("H_t", "K_t", "A_t", "F_t", "G_t"), inputs

    def privacy():
        inputs = [np.full(2, 100.0)]
        return PrivacyConfig(1.0, 1e-3, 1.0, 1.0, *inputs), ("sigma",), inputs

    def simulation():
        inputs = [np.eye(2)]
        config = SimulationConfig(case_study_system(), privacy()[0], horizon_T=5, trials=1, seed=0,
                                  x0_cov=inputs[0])
        return config, ("x0_cov",), inputs

    return [pytest.param(build, id=build.__name__)
            for build in (system, riccati, filter_solution, privacy, simulation)]


@pytest.mark.parametrize("build", _frozen_models())
def test_stored_arrays_are_read_only_copies(build):
    model, stored, inputs = build()
    for name in stored:
        assert not getattr(model, name).flags.writeable, name
    for arr in inputs:
        assert arr.flags.writeable
