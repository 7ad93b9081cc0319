import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import dpkalman.privacy
from dpkalman import AgentSpec, PrivacyConfig, SimulationConfig, SystemModel, ValidationError, privatize
from dpkalman.errors import DPKalmanError, NonPositiveSigmaError, OutOfDomainError
from dpkalman.privacy import (SIGMA_ROUNDING_SLACK, gaussian_sigma, meets_minimum, noise_scales, paired_scales,
                              q_inverse, sensitivity_bound)
from dpkalman.rng import STREAM_PRIVACY, gaussian_generator
from helpers import any_scalar, case_study_system

LN3 = math.log(3.0)


def q_inverse_bisect(delta, lo=-15.0, hi=15.0):
    # independent oracle: bisection on scipy's standard normal tail probability
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm.sf(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQInverse:
    def test_median(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "delta,expected",
        [(0.001, 3.090232), (0.05, 1.644854)],
    )
    def test_against_bisection_oracle(self, delta, expected):
        oracle = q_inverse_bisect(delta)
        assert q_inverse(delta) == pytest.approx(oracle, abs=1e-9)
        assert q_inverse(delta) == pytest.approx(expected, abs=1e-5)

    def test_round_trip_grid(self):
        for delta in [1e-300, 1e-100, 1e-20, 1e-10, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.3, 0.4]:
            assert abs(norm.sf(q_inverse(delta)) - delta) <= 1e-11 * delta

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=200)
    def test_round_trip_property(self, delta):
        assert abs(norm.sf(q_inverse(delta)) - delta) <= 1e-11 * delta

    def test_tail_quantile_window(self):
        # the calibration regime delta in [1e-5, 1e-1] keeps the quantile within [1, 4.5]
        deltas = np.geomspace(1e-5, 1e-1, 25)
        values = np.array([q_inverse(d) for d in deltas])
        assert values.max() == pytest.approx(4.2649, abs=1e-4)
        assert values.min() == pytest.approx(1.2815, abs=1e-4)
        assert np.all((values >= 1.0) & (values <= 4.5))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(OutOfDomainError):
                q_inverse(bad)


class TestSensitivityBound:
    def test_identity(self):
        assert sensitivity_bound(np.eye(3), 1.0) == pytest.approx(1.0)

    def test_diagonal(self):
        assert sensitivity_bound(np.diag([2.0, 1.0]), 3.0) == pytest.approx(6.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain(self, radius):
        with pytest.raises(OutOfDomainError, match="adjacency_B"):
            sensitivity_bound(np.eye(2), radius)

    def test_matches_unit_sphere_search(self):
        rng = np.random.default_rng(11)
        C = rng.normal(size=(3, 3))
        directions = rng.normal(size=(200_000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        brute = np.linalg.norm(directions @ C.T, axis=1).max()
        assert sensitivity_bound(C, 1.0) == pytest.approx(brute, abs=1e-3)


class TestGaussianSigma:
    def test_case_study_value(self):
        assert gaussian_sigma(LN3, 0.001, 1.0) == pytest.approx(2.9663, abs=5e-3)
        assert gaussian_sigma(LN3, 0.001, 1.0) == pytest.approx(2.966281680892255, abs=1e-9)

    def test_zero_sensitivity(self):
        assert gaussian_sigma(1.0, 0.05, 0.0) == 0.0

    def test_formula_evaluation(self):
        # direct evaluation with the bisection oracle's quantile
        k = q_inverse_bisect(0.05)
        expected = 2.0 / 2.0 * (k + math.sqrt(k * k + 2.0))
        assert expected == pytest.approx(3.814080091407274, abs=1e-9)
        assert gaussian_sigma(1.0, 0.05, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            gaussian_sigma(0.0, 0.05, 1.0)
        with pytest.raises(OutOfDomainError):
            gaussian_sigma(math.nan, 0.05, 1.0)
        with pytest.raises(OutOfDomainError):
            gaussian_sigma(1.0, 0.5, 1.0)
        with pytest.raises(OutOfDomainError):
            gaussian_sigma(1.0, 0.05, -1.0)
        with pytest.raises(OutOfDomainError):
            gaussian_sigma(1.0, 0.05, math.nan)

    def test_epsilon_past_half_float_range(self):
        # 2 epsilon overflows; sigma is about sensitivity / sqrt(2 epsilon)
        assert gaussian_sigma(1e308, 0.01, 1.0) == pytest.approx(1.0 / math.sqrt(2e308), rel=1e-12)
        assert gaussian_sigma(sys.float_info.max, 0.01, 1e10) > 0.0

    @given(epsilon=st.floats(1e-320, 1e308), delta=st.floats(1e-10, 0.49),
           sens=st.floats(1e-320, 1e308))
    @settings(max_examples=100)
    def test_closed_form_bits_kept(self, epsilon, delta, sens):
        # wherever the closed form is finite and positive, sigma is its value
        k = q_inverse(delta)
        closed = sens / (2.0 * epsilon) * (k + math.sqrt(k * k + 2.0 * epsilon))
        if math.isfinite(closed) and closed > 0.0:
            assert gaussian_sigma(epsilon, delta, sens) == closed

    @given(
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
        st.floats(1e-4, 0.45),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100)
    def test_strictly_decreasing_in_epsilon(self, e1, e2, delta, sens):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        assert gaussian_sigma(hi, delta, sens) < gaussian_sigma(lo, delta, sens)

    @given(
        st.floats(1e-4, 0.45),
        st.floats(1e-4, 0.45),
        st.floats(0.05, 10.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=100)
    def test_strictly_decreasing_in_delta(self, d1, d2, epsilon, sens):
        lo, hi = sorted((d1, d2))
        if hi - lo < 1e-9:
            return
        assert gaussian_sigma(epsilon, hi, sens) < gaussian_sigma(epsilon, lo, sens)

    @given(st.floats(0.05, 10.0), st.floats(1e-4, 0.45), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=100)
    def test_linear_in_sensitivity(self, epsilon, delta, sens, c):
        left = gaussian_sigma(epsilon, delta, c * sens)
        right = c * gaussian_sigma(epsilon, delta, sens)
        assert left == pytest.approx(right, rel=1e-12)


class TestPrivatize:
    def test_zero_noise_is_identity(self):
        y = np.arange(12.0).reshape(6, 2)
        out = privatize(y, np.zeros(2), rng_seed=3)
        np.testing.assert_array_equal(out, y)

    def test_deterministic_per_seed(self):
        y = np.zeros((50, 2))
        a = privatize(y, np.array([1.0, 2.0]), rng_seed=9)
        b = privatize(y, np.array([1.0, 2.0]), rng_seed=9)
        np.testing.assert_array_equal(a, b)
        c = privatize(y, np.array([1.0, 2.0]), rng_seed=10)
        assert not np.array_equal(a, c)

    def test_stream_index_splits(self):
        y = np.zeros((50, 2))
        a = privatize(y, np.ones(2), rng_seed=9, stream_index=0)
        b = privatize(y, np.ones(2), rng_seed=9, stream_index=1)
        assert not np.array_equal(a, b)

    def test_sample_variance_concentrates(self):
        T = 100_000
        noise = privatize(np.zeros((T, 2)), np.array([3.0, 3.0]), rng_seed=7)
        for ch in range(2):
            var = noise[:, ch].var(ddof=1)
            assert 8.83 <= var <= 9.17

    def test_lag_one_autocorrelation_negligible(self):
        T = 100_000
        noise = privatize(np.zeros((T, 1)), np.array([1.0]), rng_seed=21)[:, 0]
        centered = noise - noise.mean()
        rho = (centered[:-1] * centered[1:]).mean() / centered.var()
        assert abs(rho) <= 0.01

    @pytest.mark.parametrize("j", [0, 3])
    def test_adds_scaled_privacy_stream(self, j):
        # the noise is scaled and added in place; the caller's y is only read
        y = np.random.default_rng(1).normal(scale=50.0, size=(40, 3))
        before = y.copy()
        sigma = np.array([0.5, 2.0, 7.0])
        out = privatize(y, sigma, rng_seed=11, stream_index=j)
        z = gaussian_generator(11, trial=j, stream=STREAM_PRIVACY).standard_normal(y.shape)
        assert np.array_equal(out, y + z * sigma)
        assert np.array_equal(y, before)
        assert out is not y

    def test_rejects_negative_sigma(self):
        with pytest.raises(NonPositiveSigmaError):
            privatize(np.zeros((3, 1)), np.array([-1.0]), rng_seed=0)

    def test_rejects_negative_stream_index(self):
        with pytest.raises(OutOfDomainError, match="stream_index"):
            privatize(np.zeros((3, 1)), np.array([1.0]), rng_seed=0, stream_index=-1)

    @pytest.mark.parametrize("value", [2.5, "x", None, True])
    @pytest.mark.parametrize("name", ["rng_seed", "stream_index"])
    def test_rejects_non_integer_seed(self, name, value):
        # a float would be truncated to another stream's key
        kwargs = {"rng_seed": 0, "stream_index": 0, name: value}
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            privatize(np.zeros((3, 1)), np.array([1.0]), **kwargs)


class TestPrivacyConfig:
    def test_minimal_scale_by_default(self):
        system = case_study_system()
        cfg = PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0)
        assert [f.name for f in dataclasses.fields(cfg)] == ["epsilon", "delta", "adjacency_B", "sigma"]
        np.testing.assert_allclose(cfg.sigma, np.full(2, 2.966281680892255))

    def test_published_rounding_accepted(self):
        system = case_study_system()
        cfg = PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0, sigma=2.96)
        np.testing.assert_allclose(cfg.sigma, [2.96, 2.96])

    def test_grossly_small_scale_rejected(self):
        system = case_study_system()
        with pytest.raises(ValidationError):
            PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0, sigma=1.0)

    @pytest.mark.parametrize(
        "field,value", [("epsilon", 0.0), ("delta", 0.5), ("adjacency_B", 0.0),
                        ("adjacency_B", math.nan), ("adjacency_B", math.inf), ("adjacency_B", -math.inf)]
    )
    def test_direct_construction_checks_parameters(self, field, value):
        kwargs = dict(epsilon=1.0, delta=0.01, adjacency_B=1.0, sigma=np.array([10.0]))
        kwargs[field] = value
        with pytest.raises(OutOfDomainError):
            PrivacyConfig(**kwargs)

    def test_sensitivity_computed_once(self, monkeypatch):
        calls = []
        bound = dpkalman.privacy.sensitivity_bound

        def counted(C, adjacency_B):
            calls.append(1)
            return bound(C, adjacency_B)

        monkeypatch.setattr(dpkalman.privacy, "sensitivity_bound", counted)
        cfg = PrivacyConfig.for_system(case_study_system(), epsilon=LN3, delta=0.001, adjacency_B=1.0)
        assert len(calls) == 1
        assert np.array_equal(cfg.sigma, noise_scales(case_study_system(), LN3, 0.001, 1.0)[0])

    def test_oversized_scales_allowed(self):
        system = case_study_system()
        cfg = PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0, sigma=[5.0, 6.0])
        np.testing.assert_allclose(cfg.sigma, [5.0, 6.0])


class TestNoiseScales:
    def scales(self, sigma):
        return noise_scales(case_study_system(), LN3, 0.001, 1.0, sigma)

    def test_compliance_is_per_channel(self):
        assert self.scales([2.96, 5.0])[1] is True
        assert self.scales([5.0, 2.9])[1] is False

    def test_rounding_slack_is_half_a_percent(self):
        # the README's 0.5 %: 0.995 times the minimum 2.96628 is 2.95145
        assert self.scales([2.952, 5.0])[1] is True
        assert self.scales([5.0, 2.951])[1] is False

    @pytest.mark.parametrize("sigma", [[0.0, [0.001]], ([1.0], 2.0)])
    def test_ragged_scales_rejected(self, sigma):
        # a ragged nesting has no ndim; it is an error of the library, not of numpy
        with pytest.raises(ValidationError, match="sigma must be an array of numbers"):
            self.scales(sigma)

    def test_zero_accepted_but_not_compliant(self):
        # a zero scale reaches the Riccati solver, which reports V singular
        vec, compliant = self.scales(0.0)
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert compliant is False


def _accepts(make) -> bool:
    # whether make() returns rather than rejecting its noise scales
    try:
        make()
    except ValidationError as exc:
        assert "noise scale below" in str(exc)
        return False
    return True


class TestPairing:
    # a scale is compliant only for the output map it was computed for, and
    # every place a config meets a system checks it through noise_scales
    def test_scale_certified_for_a_small_output_map_is_rejected_on_a_large_one(self):
        small = SystemModel(H=[[0.5]], C=[[1e-3]], W=[[1.0]], x0_hat=[0.0])
        large = SystemModel(H=[[0.5]], C=[[1e3]], W=[[1.0]], x0_hat=[0.0])
        cfg = PrivacyConfig.for_system(small, epsilon=1.0, delta=0.001, adjacency_B=1.0)
        assert f"{cfg.sigma[0]:.6g}" == "0.00324435"
        AgentSpec(id="a", system=small, privacy=cfg)
        SimulationConfig(system=small, privacy=cfg, horizon_T=5, trials=1, seed=0)
        message = r"noise scale below the \(1.0, 0.001\) minimum 3244.35: got 0.00324435$"
        with pytest.raises(ValidationError, match=message):
            AgentSpec(id="a", system=large, privacy=cfg)
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(system=large, privacy=cfg, horizon_T=5, trials=1, seed=0)
        with pytest.raises(ValidationError, match=message):
            PrivacyConfig.for_system(large, epsilon=1.0, delta=0.001, adjacency_B=1.0, sigma=cfg.sigma)

    @pytest.mark.parametrize("seed", range(4))
    def test_accepted_exactly_when_noise_scales_finds_them_compliant(self, seed):
        # random dense output maps over twelve decades and scales within 2 %
        # of the minimum, on both sides of the rounding slack
        rng = np.random.default_rng(seed)
        outcomes = set()
        for _ in range(50):
            n, q = (int(k) for k in rng.integers(1, 4, size=2))
            system = SystemModel(H=0.5 * np.eye(n), C=rng.normal(size=(q, n)) * 10.0 ** rng.uniform(-6, 6),
                                 W=np.eye(n), x0_hat=np.zeros(n))
            epsilon, delta, radius = 10.0 ** rng.uniform(-2, 1), rng.uniform(1e-4, 0.1), rng.uniform(0.5, 2.0)
            sigma = noise_scales(system, epsilon, delta, radius)[0] * rng.uniform(0.98, 1.02, size=q)
            compliant = noise_scales(system, epsilon, delta, radius, sigma)[1]
            cfg = PrivacyConfig(epsilon=epsilon, delta=delta, adjacency_B=radius, sigma=sigma)
            assert _accepts(lambda: AgentSpec(id="a", system=system, privacy=cfg)) is compliant
            assert _accepts(lambda: SimulationConfig(system=system, privacy=cfg, horizon_T=5, trials=1,
                                                     seed=0)) is compliant
            assert _accepts(lambda: PrivacyConfig.for_system(system, epsilon, delta, radius, sigma)) is compliant
            outcomes.add(compliant)
        assert outcomes == {True, False}


_SCALES = st.one_of(any_scalar(), st.lists(st.one_of(st.floats(0.0, 10.0), any_scalar()), max_size=3))


class TestMalformedInputs:
    # every outcome is a result or a DPKalmanError, never a Python or numpy
    # traceback
    @given(epsilon=any_scalar(), delta=any_scalar(), adjacency_B=any_scalar(),
           sigma=st.one_of(st.none(), _SCALES))
    @settings(max_examples=60, deadline=None)
    def test_for_system(self, epsilon, delta, adjacency_B, sigma):
        try:
            PrivacyConfig.for_system(case_study_system(), epsilon, delta, adjacency_B, sigma)
        except DPKalmanError:
            pass

    @given(epsilon=any_scalar(), delta=any_scalar(), adjacency_B=any_scalar(), sigma=_SCALES)
    @settings(max_examples=60, deadline=None)
    def test_direct_construction(self, epsilon, delta, adjacency_B, sigma):
        try:
            PrivacyConfig(epsilon=epsilon, delta=delta, adjacency_B=adjacency_B, sigma=sigma)
        except DPKalmanError:
            pass

    @given(y=st.one_of(any_scalar(), st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), any_scalar()),
                                                       max_size=3), max_size=4)),
           sigma=_SCALES,
           rng_seed=st.one_of(st.integers(-5, 2**70), any_scalar()),
           stream_index=st.one_of(st.integers(-2, 2**70), any_scalar()))
    @settings(max_examples=60, deadline=None)
    def test_privatize(self, y, sigma, rng_seed, stream_index):
        with np.errstate(over="ignore"):
            try:
                privatize(y, sigma, rng_seed, stream_index=stream_index)
            except DPKalmanError:
                pass


class TestDocumentedBoundaries:
    @pytest.mark.parametrize("epsilon", [5e-324, 1e-300, 1.0, 1e308, sys.float_info.max, math.inf])
    def test_zero_sensitivity_needs_no_noise_at_any_epsilon(self, epsilon):
        # both branches of the formula, and the infinite epsilon, give 0
        assert gaussian_sigma(epsilon, 0.001, 0.0) == 0.0

    def test_scale_exactly_at_the_rounding_slack_is_compliant(self):
        # compliant unless more than the slack below the minimum
        minimal = gaussian_sigma(LN3, 0.001, 1.0)
        edge = minimal * (1.0 - SIGMA_ROUNDING_SLACK)
        assert meets_minimum([edge], minimal)
        assert not meets_minimum([math.nextafter(edge, 0.0)], minimal)
        cfg = PrivacyConfig(epsilon=LN3, delta=0.001, adjacency_B=1.0, sigma=[edge, edge])
        assert np.array_equal(paired_scales(case_study_system(), cfg), [edge, edge])

    def test_scale_below_the_minimum_names_the_smallest_scale(self):
        minimal = gaussian_sigma(LN3, 0.001, 1.0)
        cfg = PrivacyConfig(epsilon=LN3, delta=0.001, adjacency_B=1.0, sigma=[10.0 * minimal, minimal / 2])
        with pytest.raises(ValidationError, match=f"got {minimal / 2:.6g}$"):
            paired_scales(case_study_system(), cfg)

    def test_zero_delta_rejected_by_the_sigma_rule(self):
        with pytest.raises(OutOfDomainError, match=r"delta must lie in \(0, 0.5\), got 0.0"):
            gaussian_sigma(1.0, 0.0, 1.0)
