import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpkalman.linalg
from dpkalman import CalibrationTarget, SystemModel, calibrate_aposteriori, calibrate_apriori, verify_calibration
from dpkalman.calibration import APOSTERIORI, APRIORI, CALIBRATORS
from dpkalman.errors import DegenerateSystemError, DPKalmanError, InvalidTargetError, OutOfDomainError
from helpers import any_scalar, case_study_system, extreme_magnitude, random_feasible_pair


def target(kind, B_l, B_u, delta=0.001, adjacency_B=1.0):
    return CalibrationTarget(kind=kind, B_l=B_l, B_u=B_u, delta=delta, adjacency_B=adjacency_B)


class TestTargetValidation:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(InvalidTargetError):
            target(APRIORI, 50.0, 40.0)

    def test_delta_window_enforced(self):
        with pytest.raises(InvalidTargetError):
            target(APRIORI, 21.0, 2000.0, delta=1e-6)
        with pytest.raises(InvalidTargetError):
            target(APRIORI, 21.0, 2000.0, delta=0.2)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_adjacency_radius_checked(self, radius):
        with pytest.raises(OutOfDomainError, match="adjacency_B must be positive"):
            target(APRIORI, 21.0, 2000.0, adjacency_B=radius)

    @pytest.mark.parametrize("kind,B_l,B_u", [(APRIORI, 50.0, 50.0), (APOSTERIORI, 0.0, 100.0)])
    def test_boundary_target_rejected(self, kind, B_l, B_u):
        # an empty interval, and an estimation floor of exactly 0
        with pytest.raises(InvalidTargetError, match="B_l"):
            target(kind, B_l, B_u)

    @pytest.mark.parametrize("delta", [1e-5, 1e-1])
    def test_delta_window_is_closed(self, delta):
        assert target(APRIORI, 21.0, 2000.0, delta=delta).delta == delta

    def test_kind_checked(self):
        with pytest.raises(InvalidTargetError):
            target("transient", 1.0, 2.0)

    def test_kind_mismatch_rejected_by_ops(self):
        t = target(APRIORI, 21.0, 2000.0)
        with pytest.raises(InvalidTargetError):
            calibrate_aposteriori(case_study_system(), t)

    @pytest.mark.parametrize("op", [
        lambda system: calibrate_apriori(system, target(APRIORI, 21.0, 2000.0)),
        lambda system: calibrate_aposteriori(system, target(APOSTERIORI, 1.0, 2000.0)),
        lambda system: verify_calibration(system, target(APRIORI, 21.0, 2000.0), 1.0),
    ], ids=["calibrate_apriori", "calibrate_aposteriori", "verify_calibration"])
    def test_zero_sensitivity_rejected_by_ops(self, op):
        # C = 0: no noise level can be calibrated, and nothing divides by zero
        system = SystemModel(H=case_study_system().H, C=np.zeros((2, 2)), W=10.0 * np.eye(2), x0_hat=np.zeros(2))
        with pytest.raises(InvalidTargetError, match="sensitivity is zero"):
            op(system)


class TestPredictionCalibration:
    def test_tight_target_is_infeasible_with_endpoints(self):
        interval = calibrate_apriori(case_study_system(), target(APRIORI, 34.0, 46.0))
        assert not interval.feasible
        assert interval.eps_min == pytest.approx(1.856, abs=1e-3)
        assert interval.eps_max == pytest.approx(0.338, abs=1e-3)
        assert interval.eta_values["eta3"] == pytest.approx(2.944, abs=1e-3)
        assert interval.eta_values["eta1"] == pytest.approx(2.958, abs=1e-3)
        assert interval.sigma_at_eps_min > 0 and interval.sigma_at_eps_max > 0

    def test_wide_target_is_feasible(self):
        interval = calibrate_apriori(case_study_system(), target(APRIORI, 21.0, 2000.0))
        assert interval.feasible
        assert interval.eps_min == pytest.approx(0.187, abs=1e-3)
        assert interval.eps_max == pytest.approx(1.703, abs=1e-3)
        assert interval.eta_values["eta3"] == pytest.approx(25.69, abs=0.01)
        assert interval.eta_values["eta1"] == pytest.approx(0.587, abs=1e-3)
        # more privacy (smaller epsilon) means more noise
        assert interval.sigma_at_eps_min > interval.sigma_at_eps_max

    def test_floor_below_process_noise_rejected(self):
        with pytest.raises(InvalidTargetError):
            calibrate_apriori(case_study_system(), target(APRIORI, 19.0, 2000.0))

    def test_floor_at_process_noise_rejected(self):
        # tr W = 20 for the case study: the per-dimension floor would be 0
        with pytest.raises(InvalidTargetError, match="must exceed tr W"):
            calibrate_apriori(case_study_system(), target(APRIORI, 20.0, 2000.0))

    def test_floor_above_reachable_window_rejected(self):
        # tr W + tr(H^T H) * lambda_min(W) = 50 for the case study
        with pytest.raises(InvalidTargetError):
            calibrate_apriori(case_study_system(), target(APRIORI, 55.0, 2000.0))


class TestEstimationCalibration:
    def test_feasible_window(self):
        interval = calibrate_aposteriori(case_study_system(), target(APOSTERIORI, 1.8, 100.0))
        assert interval.feasible
        assert interval.eta_values["eta4"] == pytest.approx(7.071, abs=1e-3)
        assert interval.eta_values["eta2"] == pytest.approx(0.9945, abs=1e-4)
        assert interval.eps_min == pytest.approx(0.721, abs=1e-3)
        assert interval.eps_max == pytest.approx(1.006, abs=1e-3)

    def test_narrower_ceiling_flips_to_infeasible(self):
        interval = calibrate_aposteriori(case_study_system(), target(APOSTERIORI, 1.8, 50.0))
        assert not interval.feasible
        assert interval.eta_values["eta4"] == pytest.approx(5.0, abs=1e-9)
        assert interval.eps_min == pytest.approx(1.044, abs=1e-3)
        assert interval.eps_max == pytest.approx(1.006, abs=1e-3)

    def test_floor_beyond_reachable_window_rejected(self):
        # n * lambda_min(W) = 20 for the case study
        with pytest.raises(InvalidTargetError):
            calibrate_aposteriori(case_study_system(), target(APOSTERIORI, 25.0, 100.0))


class TestVerification:
    def test_apriori_choice_lands_inside(self):
        t = target(APRIORI, 21.0, 2000.0)
        report = verify_calibration(case_study_system(), t, 1.0)
        assert report.within_bounds
        assert t.B_l <= report.achieved_trace <= t.B_u

    def test_aposteriori_choice_lands_inside(self):
        t = target(APOSTERIORI, 1.8, 100.0)
        report = verify_calibration(case_study_system(), t, 0.9)
        assert report.within_bounds

    @pytest.mark.parametrize("kind,epsilon", [(APRIORI, 1.0), (APOSTERIORI, 0.9)])
    def test_achieved_trace_at_either_end_is_within(self, kind, epsilon):
        system = case_study_system()
        achieved = verify_calibration(system, target(kind, 1.0, 2000.0), epsilon).achieved_trace
        for B_l, B_u in ((achieved, achieved + 1.0), (achieved - 1.0, achieved)):
            report = verify_calibration(system, target(kind, B_l, B_u), epsilon)
            assert report.achieved_trace == achieved
            assert report.within_bounds

    def test_serializes(self):
        t = target(APOSTERIORI, 1.8, 100.0)
        doc = verify_calibration(case_study_system(), t, 0.9).to_dict()
        assert set(doc) == {"sigma", "achieved_trace", "within_bounds"}


class TestMalformedInputs:
    @given(field=st.sampled_from([None, "B_l", "B_u", "delta", "adjacency_B"]), value=any_scalar(),
           epsilon=any_scalar())
    @settings(max_examples=60, deadline=None)
    def test_target_and_verify_success_or_library_error(self, field, value, epsilon):
        # a valid target with at most one field replaced, checked at any
        # epsilon: a result or a DPKalmanError, never a traceback. A tiny
        # epsilon needs more Riccati passes than the lowered cap and raises
        # NoConvergenceError, as it does under the full cap, only sooner.
        kwargs = dict(kind=APRIORI, B_l=21.0, B_u=2000.0, delta=0.001, adjacency_B=1.0)
        if field is not None:
            kwargs[field] = value
        with mock.patch.object(dpkalman.linalg, "DARE_MAX_ITERATIONS", 500):
            try:
                verify_calibration(case_study_system(), CalibrationTarget(**kwargs), epsilon)
            except DPKalmanError:
                pass


class TestExtremeScales:
    def test_subnormal_aposteriori_target_is_infeasible(self):
        # eta_hi near 1e-155 put the epsilon floor past float range
        interval = calibrate_aposteriori(case_study_system(), target(APOSTERIORI, 1e-320, 1e-310))
        assert not interval.feasible
        assert interval.to_dict()["eps_min"] is None
        assert interval.eps_max == pytest.approx(1.0 / interval.eta_values["eta2"])

    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    def test_extreme_radius_scales_the_interval(self, radius):
        # eps_max scales with adjacency_B; past float range the floor reads
        # infinite and the interval is infeasible
        base = calibrate_apriori(case_study_system(), target(APRIORI, 21.0, 2000.0))
        interval = calibrate_apriori(case_study_system(), target(APRIORI, 21.0, 2000.0, adjacency_B=radius))
        assert interval.eps_max == pytest.approx(base.eps_max * radius, rel=1e-12)
        if radius < 1.0:
            assert interval.feasible
        else:
            assert interval.eps_min == math.inf and not interval.feasible
        json.dumps(interval.to_dict(), allow_nan=False)

    @given(kind=st.sampled_from([APRIORI, APOSTERIORI]), adjacency_B=extreme_magnitude(),
           lower=extreme_magnitude(), width=extreme_magnitude())
    @settings(max_examples=100, deadline=None)
    def test_result_or_library_error(self, kind, adjacency_B, lower, width):
        # B_l = offset + lower, B_u = B_l + width, and adjacency_B log-uniform
        # from 1e-320 to 1e300: an interval whose non-finite values are null,
        # or a DPKalmanError, never a traceback; the a-priori offset tr W = 20
        # keeps about half the lower targets admissible
        B_l = (20.0 if kind == APRIORI else 0.0) + lower
        try:
            interval = CALIBRATORS[kind](case_study_system(), target(kind, B_l, B_l + width,
                                                                     adjacency_B=adjacency_B))
        except DPKalmanError:
            return
        assert interval.feasible == (interval.eps_min <= interval.eps_max)
        assert not any(math.isnan(v) for v in (interval.eps_min, interval.eps_max,
                                                 interval.sigma_at_eps_min, interval.sigma_at_eps_max,
                                                 *interval.eta_values.values()))
        json.dumps(interval.to_dict(), allow_nan=False)


class TestSufficiencySweep:
    @pytest.mark.parametrize("kind", [APRIORI, APOSTERIORI])
    def test_grid_of_feasible_epsilons_verifies(self, kind):
        rng = np.random.default_rng(99 if kind == APRIORI else 100)
        for _ in range(12):
            system, t, interval = random_feasible_pair(rng, kind)
            for eps in np.linspace(interval.eps_min, interval.eps_max, 10):
                report = verify_calibration(system, t, float(eps))
                assert report.within_bounds, (
                    f"{kind} sweep failed at eps={eps} "
                    f"(achieved {report.achieved_trace}, target [{t.B_l}, {t.B_u}])"
                )


class TestIntervalAlgebra:
    @pytest.mark.parametrize("kind,eta_key", [(APRIORI, "eta3"), (APOSTERIORI, "eta4")])
    def test_floor_inverts_the_pivot_identity(self, kind, eta_key):
        rng = np.random.default_rng(123)
        for _ in range(10):
            _, _, interval = random_feasible_pair(rng, kind)
            eps = interval.eps_min
            eta = interval.eta_values[eta_key]
            pivot = (9.0 + math.sqrt(2.0 * eps)) / (2.0 * eps)
            assert abs(pivot - eta) <= 1e-9 * max(1.0, eta)

    def test_adjacency_scaling_halves_etas(self):
        base = target(APRIORI, 21.0, 2000.0, adjacency_B=1.0)
        doubled = target(APRIORI, 21.0, 2000.0, adjacency_B=2.0)
        system = case_study_system()
        a = calibrate_apriori(system, base)
        b = calibrate_apriori(system, doubled)
        for key in ("eta1", "eta3"):
            assert b.eta_values[key] == pytest.approx(a.eta_values[key] / 2.0, rel=1e-12)
        assert b.feasible == (b.eps_min <= b.eps_max)

    def test_decreasing_delta_keeps_sufficiency(self):
        system = case_study_system()
        hi = target(APRIORI, 21.0, 2000.0, delta=0.01)
        lo = target(APRIORI, 21.0, 2000.0, delta=0.0001)
        iv_hi = calibrate_apriori(system, hi)
        iv_lo = calibrate_apriori(system, lo)
        assert iv_hi.feasible and iv_lo.feasible
        overlap_lo = max(iv_hi.eps_min, iv_lo.eps_min)
        overlap_hi = min(iv_hi.eps_max, iv_lo.eps_max)
        assert overlap_lo <= overlap_hi
        for eps in np.linspace(overlap_lo, overlap_hi, 5):
            assert verify_calibration(system, lo, float(eps)).within_bounds


def scalar_system(h=0.5, c=1.0, w=1.0):
    return SystemModel(H=[[h]], C=[[c]], W=[[w]], x0_hat=[0.0])


class TestOutputScale:
    # the sensitivity scales with C, so the interval does not depend on the
    # scale c of C; squaring c before dividing by the sensitivity put the
    # interval at [0, 0] past c = 1e155 and [inf, inf] below c = 1e-170
    @pytest.mark.parametrize("kind,B_l,B_u", [(APRIORI, 1.1, 10.0), (APOSTERIORI, 0.1, 100.0)])
    def test_interval_independent_of_the_output_scale(self, kind, B_l, B_u):
        base = CALIBRATORS[kind](scalar_system(), target(kind, B_l, B_u))
        assert base.feasible
        for k in range(-300, 301, 10):
            interval = CALIBRATORS[kind](scalar_system(c=10.0**k), target(kind, B_l, B_u))
            assert interval.feasible, k
            assert interval.eps_min == pytest.approx(base.eps_min, rel=1e-12), k
            assert interval.eps_max == pytest.approx(base.eps_max, rel=1e-12), k
            assert interval.sigma_at_eps_min == pytest.approx(base.sigma_at_eps_min * 10.0**k, rel=1e-12), k


class TestDocumentedBoundaries:
    def test_zero_dynamics_rejected_for_prediction(self):
        with pytest.raises(DegenerateSystemError, match="tr\\(H\\^T H\\) is zero"):
            calibrate_apriori(scalar_system(h=0.0), target(APRIORI, 1.1, 10.0))

    def test_floor_at_the_reachable_edge_rejected(self):
        # B_l = n lambda_min(W) exactly: b_l = lambda_min(W) is outside (0, lambda_min(W))
        with pytest.raises(InvalidTargetError, match="must stay below n \\* lambda_min\\(W\\) = 2.0"):
            calibrate_aposteriori(scalar_system(w=2.0), target(APOSTERIORI, 2.0, 10.0))

    def test_zero_epsilon_rejected_by_verification(self):
        with pytest.raises(OutOfDomainError, match="epsilon must be positive and finite"):
            verify_calibration(scalar_system(), target(APRIORI, 1.1, 10.0), 0.0)

    def test_zero_epsilon_endpoint_takes_infinite_noise(self):
        # B_l just below lambda_min(W) and a tiny radius put eta_lo past float
        # range, so eps_max is 0, which takes infinite noise
        t = target(APOSTERIORI, math.nextafter(1.0, 0.0), 10.0, adjacency_B=1e-305)
        interval = calibrate_aposteriori(scalar_system(), t)
        assert interval.eps_max == 0.0 and interval.sigma_at_eps_max == math.inf
        assert not interval.feasible
        assert interval.to_dict()["sigma_at_eps_max"] is None
