import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from dpkalman import (
    SystemModel,
    aposteriori_logdet_bounds,
    aposteriori_trace_bounds,
    apriori_logdet_bounds,
    apriori_trace_bounds,
    solve_dare,
)
from dpkalman.bounds import channel_extremes
from dpkalman.errors import NonPositiveSigmaError, NotDiagonalError
from helpers import case_study_system, random_diagonal_system

SIGMA_CASE = 2.966281680892255


def scalar_system():
    return SystemModel(H=[[1.0]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])


class TestChannelExtremes:
    def test_tie_breaks_to_lowest_index(self):
        ext = channel_extremes(np.eye(2), np.array([3.0, 3.0]))
        assert ext.l == 0 and ext.u == 0
        assert ext.c_l == 1.0 and ext.sigma_l == 3.0

    def test_two_channel(self):
        ext = channel_extremes(np.diag([1.0, 2.0]), np.array([1.0, 4.0]))
        assert (ext.l, ext.u) == (1, 0)

    def test_three_channel(self):
        ext = channel_extremes(np.diag([2.0, 3.0, 1.0]), np.array([1.0, 1.0, 2.0]))
        assert (ext.l, ext.u) == (2, 1)
        assert ext.c_l == 1.0 and ext.sigma_l == 2.0
        assert ext.c_u == 3.0 and ext.sigma_u == 1.0

    def test_rejects_off_diagonal(self):
        with pytest.raises(NotDiagonalError):
            channel_extremes(np.array([[1.0, 0.1], [0.0, 1.0]]), np.ones(2))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigmaError):
            channel_extremes(np.eye(2), np.array([1.0, 0.0]))


class TestAprioriTrace:
    def test_zero_dynamics_collapse(self):
        system = SystemModel(H=np.zeros((2, 2)), C=np.eye(2), W=np.diag([2.0, 5.0]), x0_hat=np.zeros(2))
        rep = apriori_trace_bounds(system, np.ones(2))
        assert rep.lower == pytest.approx(7.0)
        assert rep.upper == pytest.approx(7.0)
        ric = solve_dare(system, np.eye(2))
        assert np.trace(ric.sigma) == pytest.approx(7.0)

    def test_case_study_values(self):
        rep = apriori_trace_bounds(case_study_system(), np.full(2, SIGMA_CASE))
        assert rep.lower == pytest.approx(34.04, abs=0.01)
        assert rep.upper == pytest.approx(46.40, abs=0.01)
        ric = solve_dare(case_study_system(), SIGMA_CASE**2 * np.eye(2))
        assert rep.lower <= np.trace(ric.sigma) <= rep.upper

    def test_scalar_window_contains_closed_form(self):
        rep = apriori_trace_bounds(scalar_system(), np.ones(1))
        assert rep.lower == pytest.approx(1.5)
        assert rep.upper == pytest.approx(2.0)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert rep.lower <= golden <= rep.upper


class TestAposterioriTrace:
    def test_case_study_values(self):
        rep = aposteriori_trace_bounds(case_study_system(), np.full(2, SIGMA_CASE))
        assert rep.lower == pytest.approx(9.36, abs=0.01)
        assert rep.upper == pytest.approx(17.60, abs=0.01)
        ric = solve_dare(case_study_system(), SIGMA_CASE**2 * np.eye(2))
        assert rep.lower <= np.trace(ric.sigma_bar) <= rep.upper

    def test_scalar_window(self):
        rep = aposteriori_trace_bounds(scalar_system(), np.ones(1))
        assert rep.lower == pytest.approx(0.5)
        assert rep.upper == pytest.approx(1.0)
        assert rep.lower <= 0.618034 <= rep.upper

    def test_noiseless_limit(self):
        rep = aposteriori_trace_bounds(case_study_system(), np.full(2, 1e-6))
        assert rep.upper == pytest.approx(2e-12)


class TestAprioriLogdet:
    def test_case_study_unit_noise(self):
        rep = apriori_logdet_bounds(case_study_system(), np.ones(2))
        assert rep.applicable
        assert rep.intermediates["gamma_1"] == pytest.approx(10.0 / 11.0)
        assert rep.intermediates["eta"] == pytest.approx(10.347242, abs=1e-5)
        assert rep.upper == pytest.approx(23.44, abs=0.01)
        assert rep.lower == pytest.approx(4.613, abs=0.001)

    def test_case_study_sigma_fails_precondition(self):
        rep = apriori_logdet_bounds(case_study_system(), np.full(2, SIGMA_CASE))
        assert not rep.applicable
        assert rep.upper is None
        assert rep.intermediates["precondition_rhs"] == pytest.approx(2.3397, abs=1e-3)
        assert rep.intermediates["precondition_lhs"] == pytest.approx(2.6180, abs=1e-3)
        # the lower bound is still emitted and still valid
        ric = solve_dare(case_study_system(), SIGMA_CASE**2 * np.eye(2))
        assert rep.lower <= np.linalg.slogdet(ric.sigma)[1]

    def test_zero_dynamics(self):
        system = SystemModel(H=np.zeros((2, 2)), C=np.eye(2), W=np.diag([2.0, 5.0]), x0_hat=np.zeros(2))
        rep = apriori_logdet_bounds(system, np.ones(2))
        assert rep.applicable
        assert rep.upper == pytest.approx(7.0)  # tr W
        assert rep.lower == pytest.approx(math.log(10.0))  # ln det W


    @pytest.mark.parametrize("H,c,W,sigma,lower", [
        pytest.param([[-0.3298, -0.0771], [-0.0771, -0.4115]], [-0.6109, -0.4618],
                     [[0.0211, -0.0026], [-0.0026, 0.039]], [4.7236, 2.9023], -7.102, id="stable"),
        pytest.param([[-0.6192, -0.2856], [-0.5224, -1.6312]], [0.0712, -1.519],
                     [[0.0233, 0.0067], [0.0067, 0.0448]], [0.2882, 0.3545], -6.748, id="unstable"),
    ])
    def test_lower_holds_on_small_noise_plants(self, H, c, W, sigma, lower):
        # two plants with lambda_max(W) < 0.05 on which log(s det(H)^2 + det W),
        # s = sigma_u^2 / (sigma_u^2 / lambda_min(W) + C_u^2 + sigma_u^2 ln n),
        # lay above the true log det (by 0.029 and 0.80); scipy is the oracle
        system = SystemModel(H=H, C=np.diag(c), W=W, x0_hat=np.zeros(2))
        sigma = np.asarray(sigma)
        true = np.linalg.slogdet(solve_discrete_are(system.H.T, system.C.T, system.W,
                                                    np.diag(sigma**2)))[1]
        rep = apriori_logdet_bounds(system, sigma)
        assert rep.lower == pytest.approx(lower, abs=1e-3)
        assert rep.lower <= true

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_holds_over_a_wide_plant_range(self, seed):
        # n up to 6, per-channel SNR 1e-6..1e6, spectral radius up to 1.6,
        # cond(W) up to e^8, lambda_max(W) down to 1e-3; scipy is the oracle
        rng = np.random.default_rng(9100 + seed)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            H = rng.normal(size=(n, n))
            H *= rng.uniform(0.0, 1.6) / max(np.max(np.abs(np.linalg.eigvals(H))), 1e-12)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            W = (q * np.exp(-rng.uniform(0.0, 8.0, size=n))) @ q.T * 10.0 ** rng.uniform(-3, 1)
            c = rng.uniform(0.05, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            sigma = np.abs(c) / np.sqrt(10.0 ** rng.uniform(-6, 6, size=n))
            system = SystemModel(H=H, C=np.diag(c), W=(W + W.T) / 2, x0_hat=np.zeros(n))
            true = np.linalg.slogdet(solve_discrete_are(system.H.T, system.C.T, system.W,
                                                        np.diag(sigma**2)))[1]
            assert apriori_logdet_bounds(system, sigma).lower <= true + 1e-9 * max(1.0, abs(true))


class TestAposterioriLogdet:
    def test_case_study_values(self):
        rep = aposteriori_logdet_bounds(case_study_system(), np.full(2, SIGMA_CASE))
        assert rep.lower == pytest.approx(3.087, abs=0.001)
        assert rep.upper == pytest.approx(4.349, abs=0.001)
        ric = solve_dare(case_study_system(), SIGMA_CASE**2 * np.eye(2))
        assert rep.lower <= np.linalg.slogdet(ric.sigma_bar)[1] <= rep.upper

    def test_scalar_window(self):
        rep = aposteriori_logdet_bounds(scalar_system(), np.ones(1))
        assert rep.lower == pytest.approx(math.log(0.5))
        assert rep.upper == pytest.approx(0.0)
        assert rep.lower <= math.log(0.618034) <= rep.upper

    def test_isotropic_width_identity(self):
        # equal scales with C = I: width reduces to n ln(1 + sigma^2 / lambda_min(W))
        system = case_study_system()
        for s in (0.5, 1.0, 3.0):
            rep = aposteriori_logdet_bounds(system, np.full(2, s))
            width = rep.upper - rep.lower
            assert width == pytest.approx(2.0 * math.log(1.0 + s**2 / 10.0), rel=1e-12)


class TestReportShape:
    def test_serialization_round_trip(self):
        import json

        rep = apriori_logdet_bounds(case_study_system(), np.full(2, SIGMA_CASE))
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["kind"] == "apriori_logdet"
        assert doc["applicable"] is False
        assert doc["upper"] is None
        assert isinstance(doc["intermediates"], dict)
        assert doc["lower"] == pytest.approx(rep.lower)

    def test_all_intermediates_finite(self):
        rep = apriori_logdet_bounds(case_study_system(), np.ones(2))
        assert all(math.isfinite(v) for v in rep.intermediates.values())


class TestContainmentProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_system_containment(self, seed):
        rng = np.random.default_rng(7000 + seed)
        system, sigma = random_diagonal_system(rng)
        ric = solve_dare(system, np.diag(sigma**2))
        tr_prior = float(np.trace(ric.sigma))
        tr_post = float(np.trace(ric.sigma_bar))
        logdet_post = float(np.linalg.slogdet(ric.sigma_bar)[1])
        logdet_prior = float(np.linalg.slogdet(ric.sigma)[1])

        rep1 = apriori_trace_bounds(system, sigma)
        assert rep1.lower - 1e-8 <= tr_prior <= rep1.upper + 1e-8
        rep2 = aposteriori_trace_bounds(system, sigma)
        assert rep2.lower - 1e-8 <= tr_post <= rep2.upper + 1e-8
        rep4 = aposteriori_logdet_bounds(system, sigma)
        assert rep4.lower - 1e-8 <= logdet_post <= rep4.upper + 1e-8
        rep3 = apriori_logdet_bounds(system, sigma)
        assert logdet_prior >= rep3.lower - 1e-8
        if rep3.applicable:
            assert logdet_prior < rep3.upper

    @pytest.mark.parametrize("seed", range(8))
    def test_scaling_noise_widens_aposteriori_bounds(self, seed):
        rng = np.random.default_rng(8000 + seed)
        system, sigma = random_diagonal_system(rng)
        base = aposteriori_trace_bounds(system, sigma)
        for t in (1.5, 3.0):
            scaled = aposteriori_trace_bounds(system, t * sigma)
            assert scaled.upper > base.upper
            assert scaled.lower >= base.lower - 1e-12

    def test_entropy_consistent_with_logdet_window(self):
        system = case_study_system()
        sigma = np.full(2, SIGMA_CASE)
        ric = solve_dare(system, np.diag(sigma**2))
        rep = aposteriori_logdet_bounds(system, sigma)
        sign, logdet = np.linalg.slogdet(ric.sigma_bar)
        assert sign > 0
        const = 0.5 * 2 * math.log(2.0 * math.pi * math.e)
        h = const + 0.5 * float(logdet)
        assert const + 0.5 * rep.lower <= h <= const + 0.5 * rep.upper
