import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_discrete_are

import dpkalman.bounds
from dpkalman import (
    APOSTERIORI_LOGDET,
    APOSTERIORI_TRACE,
    APRIORI_LOGDET,
    APRIORI_TRACE,
    SystemModel,
    all_bounds,
    aposteriori_logdet_bounds,
    aposteriori_trace_bounds,
    apriori_logdet_bounds,
    apriori_trace_bounds,
    solve_dare,
)
from dpkalman.bounds import to_json
from dpkalman.errors import NonPositiveSigmaError
from helpers import case_study_system, extreme_magnitude, random_diagonal_system

SIGMA_CASE = 2.966281680892255


def scalar_system():
    return SystemModel(H=[[1.0]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])


def wide_plants(seed, count=50):
    """Seeded plants with their noise scales: n up to 6, per-channel SNR
    1e-6..1e6, spectral radius up to 1.6, cond(W) up to e^8, lambda_max(W)
    down to 1e-3."""
    rng = np.random.default_rng(9100 + seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        H = rng.normal(size=(n, n))
        H *= rng.uniform(0.0, 1.6) / max(np.max(np.abs(np.linalg.eigvals(H))), 1e-12)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        W = (q * np.exp(-rng.uniform(0.0, 8.0, size=n))) @ q.T * 10.0 ** rng.uniform(-3, 1)
        c = rng.uniform(0.05, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        sigma = np.abs(c) / np.sqrt(10.0 ** rng.uniform(-6, 6, size=n))
        yield SystemModel(H=H, C=np.diag(c), W=(W + W.T) / 2, x0_hat=np.zeros(n)), sigma


def dense_map_plants(seed, count=40):
    """Seeded plants with a dense C of n - 1 to n + 2 rows, and their noise
    scales: n up to 6, spectral radius up to 1.3, C scaled 1e-2 to 1e2."""
    rng = np.random.default_rng(9400 + seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        q = int(rng.integers(n - 1, n + 3))
        H = rng.normal(size=(n, n))
        H *= rng.uniform(0.0, 1.3) / max(np.max(np.abs(np.linalg.eigvals(H))), 1e-12)
        body = rng.normal(size=(n, n))
        W = body @ body.T / n + np.diag(rng.uniform(0.1, 2.0, size=n))
        C = rng.normal(size=(q, n)) * 10.0 ** rng.uniform(-2, 2)
        yield SystemModel(H=H, C=C, W=W, x0_hat=np.zeros(n)), rng.uniform(0.1, 10.0, size=q)


def assert_reports_contain_scipy(system, sigma):
    """Check that every report of ``all_bounds`` holds scipy's value, and return
    the reports. The prediction covariance is scipy's, the estimation
    covariance its information form; a report that is not applicable has no
    upper end."""
    C = system.C
    prior = solve_discrete_are(system.H.T, C.T, system.W, np.diag(sigma**2))
    post = np.linalg.inv(np.linalg.inv(prior) + C.T @ np.diag(sigma**-2.0) @ C)
    exact = {APRIORI_TRACE: np.trace(prior), APOSTERIORI_TRACE: np.trace(post),
             APRIORI_LOGDET: np.linalg.slogdet(prior)[1],
             APOSTERIORI_LOGDET: np.linalg.slogdet(post)[1]}
    reports = all_bounds(system, sigma)
    for kind, rep in reports.items():
        slack = 1e-9 * max(1.0, abs(exact[kind]))
        assert rep.lower <= exact[kind] + slack, kind
        assert (rep.upper is None) == (not rep.applicable), kind
        if rep.applicable:
            assert exact[kind] <= rep.upper + slack, kind
    return reports


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

    def test_eta_takes_the_largest_gamma(self):
        # gamma_i = W_ii / (1 + W_ii (C_ii / sigma_i)^2) = 0.5 and 0.75; eta is
        # sigma_min(H)^2 max gamma_i + lambda_min(W) = 1 * 0.75 + 1
        system = SystemModel(H=np.diag([2.0, 1.0]), C=np.eye(2), W=np.diag([1.0, 3.0]), x0_hat=np.zeros(2))
        rep = apriori_logdet_bounds(system, np.ones(2))
        assert (rep.intermediates["gamma_1"], rep.intermediates["gamma_2"]) == (0.5, 0.75)
        assert rep.intermediates["eta"] == pytest.approx(1.75, rel=1e-14)

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
        # scipy is the oracle
        for system, sigma in wide_plants(seed):
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

    def test_one_window_per_call(self, monkeypatch):
        # all four reports come from one SVD of the whitened map and one eigvalsh(W)
        system = case_study_system()
        calls = []
        extremes, eigvalsh = dpkalman.bounds._whitened_extremes, np.linalg.eigvalsh
        monkeypatch.setattr(dpkalman.bounds, "_whitened_extremes",
                            lambda *a: calls.append("whitened") or extremes(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append("eigvalsh") or eigvalsh(*a))
        reports = all_bounds(system, np.full(2, SIGMA_CASE))
        assert sorted(calls) == ["eigvalsh", "whitened"]
        assert list(reports) == [APRIORI_TRACE, APOSTERIORI_TRACE, APRIORI_LOGDET, APOSTERIORI_LOGDET]

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigmaError):
            all_bounds(case_study_system(), np.array([1.0, 0.0]))


class TestWhitenedMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_map_reads_the_extreme_ratios(self, seed):
        # for a square diagonal C the extreme singular values of C / sigma
        # are the extreme ratios |C_ii / sigma_i|, to an ulp of the SVD, so
        # the window is the paper's
        for system, sigma in wide_plants(seed):
            ratios = np.abs(np.diag(system.C) / sigma)
            per_dim = all_bounds(system, sigma)[APOSTERIORI_TRACE].intermediates
            assert (per_dim["r_u"], per_dim["r_l"]) == pytest.approx((ratios.max(), ratios.min()), rel=1e-15)

    def test_a_silent_channel_scale_does_not_matter(self):
        # C_22 = 0: the scale of that channel, here a subnormal one, sets no
        # power of two for the SVD, so the live channel keeps its ratio 1e-10
        system = SystemModel(H=case_study_system().H, C=np.diag([1.0, 0.0]), W=10.0 * np.eye(2),
                             x0_hat=np.zeros(2))
        reports = all_bounds(system, np.array([1e10, 1e-320]))
        assert reports[APOSTERIORI_TRACE].intermediates["r_u"] == 1e-10
        assert {k: r.to_dict() for k, r in reports.items()} == {
            k: r.to_dict() for k, r in all_bounds(system, np.array([1e10, 1.0])).items()}

    def test_ratio_past_float_range(self):
        # C_11 / sigma_1 = 1e320 is past float range: r_u reads inf and
        # s0 = 0, while the weak channel keeps its finite s1 = 1 / r_l^2
        reports = all_bounds(case_study_system(), np.array([1e-320, 2.0]))
        post = reports[APOSTERIORI_TRACE]
        assert post.intermediates["r_u"] == math.inf and post.intermediates["r_l"] == 0.5
        assert (post.lower, post.upper) == (0.0, 8.0)


class TestJsonRule:
    def test_objects_lists_and_null(self):
        @dataclass
        class Pair:
            b: tuple
            a: dict

        doc = to_json(Pair(b=(np.float64(1.5), math.inf), a={"x": np.array([np.nan, 2.0]), "n": np.int64(3),
                                                             "ok": np.bool_(True), "s": "text"}))
        assert doc == {"b": [1.5, None], "a": {"x": [None, 2.0], "n": 3, "ok": True, "s": "text"}}
        assert list(doc) == ["b", "a"]
        assert [type(v) for v in doc["a"].values()] == [list, int, bool, str]


class TestExtremeScales:
    @given(sigma=st.lists(extreme_magnitude(), min_size=2, max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_reports_are_quiet_results(self, sigma):
        # noise scales from 1e-320 to 1e300: every report is a result with no
        # NaN, its non-finite values become null, and numpy warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = all_bounds(case_study_system(), np.array(sigma))
        for rep in reports.values():
            values = [rep.lower, rep.upper, *rep.intermediates.values()]
            assert not any(v is not None and math.isnan(v) for v in values)
            json.dumps(rep.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_window_limits(self, scale):
        # vanishing noise pins the estimation error to 0; overwhelming noise
        # leaves the upper bounds unbounded and the lower ones at the
        # noiseless-output limit s0 = lambda_min(W)
        reports = all_bounds(case_study_system(), np.full(2, scale))
        post = reports[APOSTERIORI_TRACE]
        if scale < 1.0:
            assert post.lower == post.upper == 0.0
            assert reports[APOSTERIORI_LOGDET].upper == -math.inf
        else:
            assert post.lower == pytest.approx(20.0) and post.upper == math.inf
            assert reports[APRIORI_TRACE].upper == math.inf


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

    @pytest.mark.parametrize("seed", range(40))
    def test_every_report_contains_the_exact_value_over_a_wide_plant_range(self, seed):
        for system, sigma in wide_plants(seed):
            assert_reports_contain_scipy(system, sigma)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_report_contains_the_exact_value_for_a_dense_output_map(self, seed):
        # fewer channels than states leave no upper end on the estimation
        # error (s1 = inf); a dense C has no per-channel eta, so the a-priori
        # log-det report keeps its lower bound alone
        for system, sigma in dense_map_plants(seed):
            reports = assert_reports_contain_scipy(system, sigma)
            assert (reports[APOSTERIORI_TRACE].upper == math.inf) == (system.q < system.n)
            assert not reports[APRIORI_LOGDET].applicable

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
