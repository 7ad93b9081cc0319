import dataclasses
import math
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkalman import (
    DPKalmanError,
    PrivacyConfig,
    SimulationConfig,
    SystemModel,
    ValidationError,
    compose,
    run_filter,
    simulate,
    write_csv,
)
from dpkalman.rng import STREAM_PRIVACY, STREAM_PROCESS, gaussian_generator
from dpkalman.simulation import BURN_IN, CSV_HEADER, NOISE_BLOCK
from helpers import case_study_system, reference_paths
from test_network import agent, scalar_agent

LN3 = math.log(3.0)


def case_config(trials=200, horizon=100, seed=42, **kw):
    system = case_study_system()
    privacy = PrivacyConfig.for_system(system, epsilon=LN3, delta=0.001, adjacency_B=1.0)
    return SimulationConfig(system=system, privacy=privacy, horizon_T=horizon,
                            trials=trials, seed=seed, **kw)


def dense_config(trials, horizon, seed, n=16, **kw):
    # a seeded stable plant with dense H and W: n >= 8 state components
    rng = np.random.default_rng(16)
    H = rng.normal(size=(n, n))
    H *= 0.9 / np.max(np.abs(np.linalg.eigvals(H)))
    body = rng.normal(size=(n, n))
    system = SystemModel(H=H, C=np.diag(rng.uniform(0.5, 2.0, size=n)),
                         W=body @ body.T / n + np.eye(n), x0_hat=rng.normal(size=n))
    privacy = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.001, adjacency_B=1.0)
    return SimulationConfig(system=system, privacy=privacy, horizon_T=horizon,
                            trials=trials, seed=seed, **kw)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        a = simulate(case_config(trials=50))
        b = simulate(case_config(trials=50))
        np.testing.assert_array_equal(a.sq_err_prior, b.sq_err_prior)
        np.testing.assert_array_equal(a.sq_err_post, b.sq_err_post)

    def test_thread_count_irrelevant(self):
        base = simulate(case_config(trials=101), threads=1)
        for threads in (2, 4, 7):
            other = simulate(case_config(trials=101), threads=threads)
            np.testing.assert_array_equal(base.sq_err_prior, other.sq_err_prior)
            np.testing.assert_array_equal(base.sq_err_post, other.sq_err_post)

    @pytest.mark.parametrize("x0_cov", [None, 25.0 * np.eye(2)], ids=["mean-start", "spread-start"])
    def test_thread_count_irrelevant_across_blocks(self, x0_cov):
        # three noise blocks, the last one partial, so the threads split them;
        # the streamed summary (no paths kept) equals the one from the paths
        trials = 2 * NOISE_BLOCK + 37
        config = case_config(trials=trials, horizon=8, x0_cov=x0_cov)
        base = simulate(config, threads=1)
        for threads in (1, 2, 3, 7):
            other = simulate(config, threads=threads)
            np.testing.assert_array_equal(base.sq_err_prior, other.sq_err_prior)
            np.testing.assert_array_equal(base.sq_err_post, other.sq_err_post)
            streamed = simulate(config, threads=threads, paths=False)
            assert streamed.sq_err_prior is None and streamed.sq_err_post is None
            assert streamed.summary == base.summary
            assert (streamed.trials, streamed.horizon_T) == (trials, 8)

    def test_trials_differ_within_a_run(self):
        res = simulate(case_config(trials=2))
        assert not np.array_equal(res.sq_err_prior[0], res.sq_err_prior[1])

    def test_csv_bytes_identical(self, tmp_path):
        res = simulate(case_config(trials=20))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(res, p1)
        write_csv(simulate(case_config(trials=20)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_needs_paths(self, tmp_path):
        res = simulate(case_config(trials=3, horizon=5), paths=False)
        with pytest.raises(ValidationError, match="paths"):
            write_csv(res, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_csv_format(self, tmp_path):
        res = simulate(case_config(trials=3, horizon=5))
        path = tmp_path / "out.csv"
        write_csv(res, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[4]) == pytest.approx(res.bound_prior[0])


class TestKernelInvariants:
    @pytest.mark.parametrize("trials", [1, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1,
                                        2 * NOISE_BLOCK + 37])
    @pytest.mark.parametrize("make_config,n", [pytest.param(case_config, 2, id="case-study"),
                                               pytest.param(partial(dense_config, n=4), 4, id="dense-n4")])
    def test_paths_and_streamed_summary_agree(self, make_config, n, trials):
        # T = 1 leaves no burn-in, T = 40 leaves enough steps past it that
        # the order of the time sum shows; threads=3 splits the larger runs
        for T in (1, 2, 11, 40):
            burn = min(BURN_IN, T - 1)
            for threads in (1, 3):
                for x0_cov in (None, 4.0 * np.eye(n)):
                    config = make_config(trials=trials, horizon=T, seed=21, x0_cov=x0_cov)
                    full = simulate(config, threads=threads)
                    assert simulate(config, threads=threads, paths=False).summary == full.summary
                    s = full.summary
                    for paths, mean in ((full.sq_err_prior, s.mean_sq_err_prior),
                                        (full.sq_err_post, s.mean_sq_err_post)):
                        assert paths.shape == (trials, T)
                        per_trial = paths[:, burn:].mean(axis=1)
                        assert per_trial.mean() == pytest.approx(mean, rel=1e-14, abs=0.0)


class TestWriteCsv:
    def test_extra_memory_is_a_few_rows(self, tmp_path):
        # the whole array as Python floats would take about 4 MB here, and
        # tracing every allocation makes each trial written cost 60 ms
        res = simulate(case_config(trials=32, horizon=2000))
        tracemalloc.start()
        try:
            write_csv(res, tmp_path / "out.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_bytes_match_a_row_by_row_reference(self, tmp_path):
        # 17 trials cross the edges of the chunks write_csv copies at a time
        res = simulate(case_config(trials=17, horizon=9))
        path = tmp_path / "out.csv"
        write_csv(res, path)
        tail = ",".join(repr(float(b)) for b in (*res.bound_prior, *res.bound_post))
        rows = [CSV_HEADER]
        for t in range(17):
            for k in range(9):
                rows.append(f"{t},{k},{float(res.sq_err_prior[t, k])!r},"
                            f"{float(res.sq_err_post[t, k])!r},{tail}")
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


_SIZES = st.one_of(st.integers(1, 3), st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0, -1, 2**62, 2**63, 10**30, -(2**63), "2", None]))
_MATRICES = st.one_of(
    st.none(),
    st.sampled_from([np.eye(3), np.ones(2), [[1.0, 2.0], [3.0]], "x", np.eye(2, dtype=bool),
                     -np.eye(2), [[1.0, 2.0], [3.0, 4.0]], [[10**400, 0], [0, 1]],
                     np.empty((0, 0)), 1e300 * np.eye(2), np.eye(1), np.ones((2, 2, 2))]),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=4, max_size=4)
    .map(lambda v: np.reshape(v, (2, 2))),
)


class TestMalformedInputs:
    @given(
        system=st.sampled_from([case_study_system(), compose([scalar_agent("dot", 0.5)]),
                                None, "case study"]),
        privacy=st.sampled_from([case_config().privacy, None, "ln 3"]),
        horizon=_SIZES, trials=_SIZES,
        seed=st.one_of(st.integers(-5, 2**70), st.booleans(), st.floats(allow_nan=True),
                       st.sampled_from(["x", None])),
        x0_cov=_MATRICES,
        threads=st.one_of(st.integers(-2, 4), st.booleans(),
                          st.sampled_from([10**400, 2.5, float("nan"), None, "2"])),
        paths=st.booleans(),
        mangle=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_success_or_library_error(self, system, privacy, horizon, trials, seed, x0_cov,
                                      threads, paths, mangle):
        # every outcome is a result or a DPKalmanError, never a numpy or
        # Python traceback; the valid sizes are small, so nothing large runs
        with np.errstate(all="ignore"):
            try:
                config = SimulationConfig(system=system, privacy=privacy, horizon_T=horizon,
                                          trials=trials, seed=seed, x0_cov=x0_cov)
                result = simulate(config, threads=threads, paths=paths)
                if mangle and paths:
                    result = dataclasses.replace(result, sq_err_post=result.sq_err_post[:, :-1])
                write_csv(result, os.devnull)
            except DPKalmanError:
                pass


class TestStatistics:
    def test_near_noiseless_estimation_is_exact(self):
        system = SystemModel(H=case_study_system().H, C=np.eye(2), W=1e-12 * np.eye(2), x0_hat=np.zeros(2))
        privacy = PrivacyConfig.for_system(system, epsilon=5.0, delta=0.01, adjacency_B=1e-5)
        assert privacy.sigma.max() < 2e-5
        cfg = SimulationConfig(system=system, privacy=privacy, horizon_T=50, trials=5, seed=3)
        res = simulate(cfg)
        assert float(res.sq_err_post[:, 1:].max()) < 1e-8

    def test_seed_changes_paths_not_means(self):
        a = simulate(case_config(trials=600, seed=11))
        b = simulate(case_config(trials=600, seed=12))
        assert not np.array_equal(a.sq_err_prior, b.sq_err_prior)
        for field in ("mean_sq_err_prior", "mean_sq_err_post"):
            ma, mb = getattr(a.summary, field), getattr(b.summary, field)
            sa = getattr(a.summary, field.replace("mean", "stderr"))
            sb = getattr(b.summary, field.replace("mean", "stderr"))
            assert abs(ma - mb) <= 3.0 * math.hypot(sa, sb)

    def test_means_converge_to_solved_traces(self):
        res = simulate(case_config(trials=10_000, horizon=100), threads=4)
        tr_prior = float(np.trace(res.solution.riccati.sigma))
        tr_post = float(np.trace(res.solution.riccati.sigma_bar))
        assert res.summary.mean_sq_err_prior == pytest.approx(tr_prior, rel=0.02)
        assert res.summary.mean_sq_err_post == pytest.approx(tr_post, rel=0.02)

    def test_matches_reference_simulator(self):
        # the engine and the plain-loop reference use different RNG streams,
        # so only the distributions must agree
        res = simulate(case_config(trials=1500, horizon=80))
        system = case_study_system()
        _, prior_err, post_err, _, _ = reference_paths(
            system, np.full(2, 2.966281680892255), T=80, trials=1500, seed=7)
        ref_prior = (prior_err[:, 10:, :] ** 2).sum(axis=2).mean()
        ref_post = (post_err[:, 10:, :] ** 2).sum(axis=2).mean()
        assert res.summary.mean_sq_err_prior == pytest.approx(ref_prior, rel=0.05)
        assert res.summary.mean_sq_err_post == pytest.approx(ref_post, rel=0.05)


class TestFilterWiring:
    def test_trial_zero_matches_run_filter(self):
        # rebuild trial 0 from its own noise streams and filter it with
        # run_filter: the engine must run exactly that recursion
        seed, T = 13, 40
        cfg = case_config(trials=3, horizon=T, seed=seed)
        res = simulate(cfg)
        system, sigma = cfg.system, cfg.privacy.sigma
        w = gaussian_generator(seed, trial=0, stream=STREAM_PROCESS).standard_normal((T, 2))
        w = w @ np.linalg.cholesky(system.W).T
        v = gaussian_generator(seed, trial=0, stream=STREAM_PRIVACY).standard_normal((T, 2)) * sigma
        x = np.empty((T, 2))
        x[0] = system.x0_hat
        for k in range(T - 1):
            x[k + 1] = system.H @ x[k] + w[k]
        traj = run_filter(res.solution, x @ system.C.T + v, system.x0_hat)
        prior = ((x - traj.x_hat_prior) ** 2).sum(axis=1)
        post = ((x - traj.x_hat) ** 2).sum(axis=1)
        np.testing.assert_allclose(res.sq_err_prior[0], prior, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.sq_err_post[0], post, rtol=1e-12, atol=1e-12)


    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 on this platform")
    def test_trial_zero_accurate_on_a_growing_state(self):
        # the case-study plant is a double integrator: started at a public
        # velocity of 1e3, its state passes 1e6 by T = 2000 whatever the
        # draws (the noise moves the position by about 1.6e5, one standard
        # deviation), so forming x - x_hat in float64 would cancel bits;
        # compare with a longdouble state-and-filter reference
        seed, T = 13, 2000
        moving = dataclasses.replace(case_study_system(), x0_hat=np.array([0.0, 1e3]))
        cfg = dataclasses.replace(case_config(trials=1, horizon=T, seed=seed), system=moving)
        res = simulate(cfg)
        system, ld = cfg.system, np.longdouble
        H, C, K = (np.asarray(a, dtype=ld) for a in (system.H, system.C, res.solution.riccati.gain))
        chol_w = np.asarray(np.linalg.cholesky(system.W), dtype=ld)
        z = gaussian_generator(seed, trial=0, stream=STREAM_PROCESS).standard_normal((T, 2))
        w = z.astype(ld) @ chol_w.T
        z = gaussian_generator(seed, trial=0, stream=STREAM_PRIVACY).standard_normal((T, 2))
        v = z.astype(ld) * cfg.privacy.sigma.astype(ld)
        x = np.asarray(system.x0_hat, dtype=ld)
        p = x.copy()
        prior, post = np.empty(T, dtype=ld), np.empty(T, dtype=ld)
        for k in range(T):
            x_hat = p + K @ (C @ x + v[k] - C @ p)
            prior[k], post[k] = ((x - p) ** 2).sum(), ((x - x_hat) ** 2).sum()
            x, p = H @ x + w[k], H @ x_hat
        assert np.abs(x).max() > 1e5
        for got, ref in ((res.sq_err_prior[0], prior), (res.sq_err_post[0], post)):
            assert float(np.max(np.abs(got - ref) / (1 + np.abs(ref)))) <= 1e-12

    @pytest.mark.parametrize("make_config,trial", [
        pytest.param(case_config, 5, id="row-5-of-block-0"),
        pytest.param(case_config, NOISE_BLOCK, id="row-0-of-block-1"),
        pytest.param(dense_config, 5, id="dense-n16-row-5-of-block-0"),
        pytest.param(dense_config, NOISE_BLOCK, id="dense-n16-row-0-of-block-1"),
    ])
    def test_trial_is_its_row_of_the_block_stream(self, make_config, trial):
        # trial i draws row i % NOISE_BLOCK of block i // NOISE_BLOCK's
        # trial-major (trials, T, n) streams; the run has trial + 1 trials, so
        # row 0 of block 1 is a block of one trial
        seed, T = 13, 40
        cfg = make_config(trials=trial + 1, horizon=T, seed=seed)
        res = simulate(cfg)
        system, sigma = cfg.system, cfg.privacy.sigma
        n, q = system.n, system.q
        block, row = divmod(trial, NOISE_BLOCK)

        def draw(stream, width):
            gen = gaussian_generator(seed, trial=block, stream=stream)
            return gen.standard_normal((row + 1, T, width))[row]

        w = draw(STREAM_PROCESS, n) @ np.linalg.cholesky(system.W).T
        v = draw(STREAM_PRIVACY, q) * sigma
        x = np.empty((T, n))
        x[0] = system.x0_hat
        for k in range(T - 1):
            x[k + 1] = system.H @ x[k] + w[k]
        traj = run_filter(res.solution, x @ system.C.T + v, system.x0_hat)
        prior = ((x - traj.x_hat_prior) ** 2).sum(axis=1)
        post = ((x - traj.x_hat) ** 2).sum(axis=1)
        np.testing.assert_allclose(res.sq_err_prior[trial], prior, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.sq_err_post[trial], post, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make_config,n,rtol", [
        pytest.param(case_config, 3, 0.0, id="3"),
        pytest.param(case_config, NOISE_BLOCK + 2, 0.0, id=str(NOISE_BLOCK + 2)),
        # on a dense plant the shorter run's one-trial last block rounds its
        # matrix products differently (another BLAS path), by a few ulp
        pytest.param(partial(dense_config, seed=3, n=4), NOISE_BLOCK + 1, 1e-13, id="dense-n4-1025"),
    ])
    def test_trial_count_keeps_earlier_trials(self, make_config, n, rtol):
        longer = simulate(make_config(trials=NOISE_BLOCK + 5, horizon=8))
        shorter = simulate(make_config(trials=n, horizon=8))
        # rtol 0 asks for equal bits; full blocks are always the same computation
        full = n - n % NOISE_BLOCK
        for a, b in ((longer.sq_err_prior, shorter.sq_err_prior), (longer.sq_err_post, shorter.sq_err_post)):
            np.testing.assert_array_equal(a[:full], b[:full])
            np.testing.assert_allclose(a[:n], b, rtol=rtol, atol=0)


class TestMemory:
    def test_noise_is_not_held_for_every_trial(self):
        # one block of noise at a time: a (trials, T, n) noise array would
        # alone be as large as both outputs together
        tracemalloc.start()
        try:
            res = simulate(case_config(trials=5000, horizon=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (res.sq_err_prior.nbytes + res.sq_err_post.nbytes)

    def test_summary_without_paths_holds_one_block(self):
        # the two (trials, T) outputs alone would take 64 MB here
        tracemalloc.start()
        try:
            simulate(case_config(trials=20_000, horizon=200), paths=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestGaussianInitialSpread:
    def test_spread_raises_early_error_only(self):
        tight = simulate(case_config(trials=400, horizon=40))
        spread = simulate(case_config(trials=400, horizon=40, x0_cov=25.0 * np.eye(2)))
        # the first prediction uses the public mean, so the spread shows up at k=0
        assert spread.sq_err_prior[:, 0].mean() > tight.sq_err_prior[:, 0].mean() + 10.0
        # steady-state behavior is unchanged
        assert spread.summary.mean_sq_err_prior == pytest.approx(
            tight.summary.mean_sq_err_prior, rel=0.1)

    def test_bad_spread_shape_rejected(self):
        with pytest.raises(ValidationError):
            case_config(x0_cov=np.eye(3))


class TestNetworkSimulation:
    def test_network_runs_and_burns_in(self):
        network = compose([agent("plane", case_study_system(), epsilon=LN3, delta=0.001),
                           scalar_agent("dot", 0.5)])
        cfg = SimulationConfig(system=network, privacy=None, horizon_T=60, trials=50, seed=9)
        res = simulate(cfg)
        assert res.sq_err_prior.shape == (50, 60)
        assert res.summary.burn_in == 10

    def test_network_rejects_extra_privacy(self):
        network = compose([scalar_agent("dot", 0.5)])
        stray = PrivacyConfig.for_system(case_study_system(), epsilon=1.0, delta=0.01, adjacency_B=1.0)
        with pytest.raises(ValidationError):
            SimulationConfig(system=network, privacy=stray, horizon_T=10, trials=1, seed=0)


class TestEdges:
    def test_single_step_horizon(self):
        res = simulate(case_config(trials=3, horizon=1))
        assert res.summary.burn_in == 0
        assert res.sq_err_prior.shape == (3, 1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            case_config(trials=0)
        with pytest.raises(ValidationError):
            case_config(horizon=0)

    @pytest.mark.parametrize("field,key,value", [("trials", "trials", 2.5), ("horizon_T", "horizon", 3.0),
                                                 ("trials", "trials", True), ("seed", "seed", 2.5),
                                                 ("seed", "seed", "x"), ("seed", "seed", None),
                                                 ("seed", "seed", True)])
    def test_non_integer_size_rejected(self, field, key, value):
        # the rule of the config file's integers: bool is not a size, and a
        # float seed would be truncated to another seed's noise
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            case_config(**{key: value})

    @pytest.mark.parametrize("field,key", [("trials", "trials"), ("horizon_T", "horizon")])
    @pytest.mark.parametrize("size", [2**62, 10**30])
    @pytest.mark.parametrize("paths", [True, False])
    def test_unallocatable_size_rejected(self, field, key, size, paths):
        # 10**30 is refused by the config, 2**62 by numpy at simulate's
        # first allocation; neither allocates anything
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=field):
                simulate(case_config(**{"trials": 3, "horizon": 20, key: size}), paths=paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
