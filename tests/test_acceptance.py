"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np
import pytest

from dpkalman import (
    CalibrationTarget,
    PrivacyConfig,
    SimulationConfig,
    aposteriori_logdet_bounds,
    aposteriori_trace_bounds,
    apriori_logdet_bounds,
    apriori_trace_bounds,
    calibrate_apriori,
    compose,
    simulate,
    solve_dare,
    verify_calibration,
)
from dpkalman.calibration import APOSTERIORI, APRIORI
from dpkalman.cli import main
from dpkalman.linalg import block_diag
from dpkalman.privacy import gaussian_sigma
from helpers import case_study_system, random_diagonal_system, random_feasible_pair
from test_network import random_agent

LN3 = math.log(3.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_sigma_reproduction():
    sigma = gaussian_sigma(LN3, 0.001, 1.0)
    ok = abs(sigma - 2.9663) <= 0.005
    report(1, "noise scale reproduction", ok, f"sigma = {sigma:.6f}, expected 2.9663 +- 0.005")


def test_criterion_2_case_study_mean_containment():
    system = case_study_system()
    privacy = PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0)
    config = SimulationConfig(system=system, privacy=privacy, horizon_T=100, trials=2000, seed=42)
    result = simulate(config, threads=1)
    s = result.summary
    prior_ok = (34.0 - 3.0 * s.stderr_sq_err_prior) <= s.mean_sq_err_prior <= (46.4 + 3.0 * s.stderr_sq_err_prior)
    post_ok = (9.36 - 3.0 * s.stderr_sq_err_post) <= s.mean_sq_err_post <= (17.60 + 3.0 * s.stderr_sq_err_post)
    report(
        2, "case-study mean containment", prior_ok and post_ok,
        f"prediction {s.mean_sq_err_prior:.3f} (se {s.stderr_sq_err_prior:.3f}) in [34.0, 46.4]; "
        f"estimation {s.mean_sq_err_post:.3f} (se {s.stderr_sq_err_post:.3f}) in [9.36, 17.60]",
    )


def test_criterion_3_scalar_closed_form():
    from dpkalman import SystemModel

    system = SystemModel(H=[[1.0]], C=[[1.0]], W=[[1.0]], x0_hat=[0.0])
    ric = solve_dare(system, [[1.0]])
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    err_sigma = abs(ric.sigma[0, 0] - golden)
    err_bar = abs(ric.sigma_bar[0, 0] - golden / (golden + 1.0))
    ok = err_sigma <= 1e-8 and err_bar <= 1e-8
    report(3, "scalar closed-form equivalence", ok,
           f"|sigma - golden| = {err_sigma:.2e}, |sigma_bar - golden/(golden+1)| = {err_bar:.2e}")


def test_criterion_4_randomized_containment():
    rng = np.random.default_rng(20260809)
    total = 100
    applicable_count = 0
    for i in range(total):
        system, sigma = random_diagonal_system(rng, n_max=4)
        ric = solve_dare(system, np.diag(sigma**2))
        tr_prior = float(np.trace(ric.sigma))
        tr_post = float(np.trace(ric.sigma_bar))
        logdet_prior = float(np.linalg.slogdet(ric.sigma)[1])
        logdet_post = float(np.linalg.slogdet(ric.sigma_bar)[1])

        rep1 = apriori_trace_bounds(system, sigma)
        assert rep1.lower - 1e-8 <= tr_prior <= rep1.upper + 1e-8, f"system {i}: prediction trace"
        rep2 = aposteriori_trace_bounds(system, sigma)
        assert rep2.lower - 1e-8 <= tr_post <= rep2.upper + 1e-8, f"system {i}: estimation trace"
        rep4 = aposteriori_logdet_bounds(system, sigma)
        assert rep4.lower - 1e-8 <= logdet_post <= rep4.upper + 1e-8, f"system {i}: estimation logdet"
        rep3 = apriori_logdet_bounds(system, sigma)
        assert logdet_prior >= rep3.lower - 1e-8, f"system {i}: prediction logdet lower"
        if rep3.applicable:
            applicable_count += 1
            assert logdet_prior < rep3.upper, f"system {i}: prediction logdet upper"
    report(4, "randomized containment suite", True,
           f"{total} systems, all bounds contained; logdet upper applicable on {applicable_count}")


def test_criterion_5_calibration_round_trip():
    checked = {APRIORI: 0, APOSTERIORI: 0}
    for kind, seed in ((APRIORI, 515), (APOSTERIORI, 525)):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            system, target, interval = random_feasible_pair(rng, kind)
            for eps in np.linspace(interval.eps_min, interval.eps_max, 10):
                outcome = verify_calibration(system, target, float(eps))
                assert outcome.within_bounds, (
                    f"{kind}: eps = {eps} gave {outcome.achieved_trace} "
                    f"outside [{target.B_l}, {target.B_u}]"
                )
            checked[kind] += 1
    report(5, "calibration sufficiency round-trip", True,
           f"{checked[APRIORI]} + {checked[APOSTERIORI]} feasible pairs, 10-point grids all verified")


def test_criterion_6_documented_infeasibility_and_inapplicability():
    system = case_study_system()
    target = CalibrationTarget(kind=APRIORI, B_l=34.0, B_u=46.0, delta=0.001, adjacency_B=1.0)
    interval = calibrate_apriori(system, target)
    cal_ok = (
        not interval.feasible
        and abs(interval.eps_min - 1.856) <= 1e-3
        and abs(interval.eps_max - 0.338) <= 1e-3
    )
    sigma = gaussian_sigma(LN3, 0.001, 1.0)
    rep = apriori_logdet_bounds(system, np.full(2, sigma))
    logdet_ok = not rep.applicable and rep.upper is None
    report(6, "documented infeasibility and inapplicability", cal_ok and logdet_ok,
           f"interval [{interval.eps_min:.4f}, {interval.eps_max:.4f}] infeasible; "
           f"logdet precondition {rep.intermediates['precondition_lhs']:.3f} >= "
           f"{rep.intermediates['precondition_rhs']:.3f} -> inapplicable")


def test_criterion_7_block_diagonal_decomposition():
    worst = 0.0
    for seed, count in ((81, 2), (82, 3), (83, 4)):
        rng = np.random.default_rng(seed)
        agents = [random_agent(rng, f"agent{i}") for i in range(count)]
        network = compose(agents)
        whole = solve_dare(network.system, np.diag(network.sigma**2))
        parts = block_diag([
            solve_dare(a.system, np.diag(a.privacy.sigma**2)).sigma for a in agents
        ])
        rel = float(np.linalg.norm(whole.sigma - parts) / np.linalg.norm(parts))
        worst = max(worst, rel)
        assert rel <= 1e-9, f"N = {count}: relative deviation {rel:.2e}"
    report(7, "block-diagonal decomposition", True, f"worst relative deviation {worst:.2e} <= 1e-9")


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "system": {
            "H": {"rows": 2, "cols": 2, "entries": [[1.0, 1.0], [0.0, 1.0]]},
            "C": {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]},
            "W": {"rows": 2, "cols": 2, "entries": [[10.0, 0.0], [0.0, 10.0]]},
            "x0_hat": [0.0, 0.0],
        },
        "privacy": {"epsilon": LN3, "delta": 0.001, "adjacency_B": 1.0},
        "simulation": {"horizon_T": 100, "trials": 2000, "seed": 42},
    }
    config_path = tmp_path / "case.json"
    config_path.write_text(json.dumps(config))
    payloads = []
    for name, threads in (("run1.csv", "1"), ("run2.csv", "1"), ("run4.csv", "4")):
        out = tmp_path / name
        code = main(["simulate", "--config", str(config_path), "--out", str(out), "--threads", threads])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report(8, "seeded CLI determinism across runs and threads", ok,
           f"{len(payloads[0])} bytes, identical across reruns and thread counts 1 and 4")
