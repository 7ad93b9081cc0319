import dataclasses
import hashlib
import math
import os
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpkalman import (
    DPKalmanError,
    PrivacyConfig,
    SimulationConfig,
    SystemModel,
    ValidationError,
    compose,
    run_filter,
    simulate,
    solve_filter,
    write_csv,
)
from dpkalman.config import build_agents, load_config
from dpkalman.rng import STREAM_INIT, STREAM_PRIVACY, STREAM_PROCESS, gaussian_generator
from dpkalman.simulation import BURN_IN, CHUNK_STEPS, CSV_HEADER, NOISE_BLOCK, _float_texts, _mean_and_stderr
from helpers import case_study_system, reference_paths
from test_cli import CONFIGS
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
                                               pytest.param(partial(dense_config, n=4), 4, id="dense-n4"),
                                               pytest.param(partial(dense_config, n=1), 1, id="dense-n1")])
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

    def test_finite_per_trial_means_give_a_finite_summary(self):
        # squared errors near 1e306: each per-trial mean is finite, but the
        # plain sum over 2000 trials and the squares of their spread are not
        system = SystemModel(H=0.5 * np.eye(2), C=np.eye(2), W=1e306 * np.eye(2), x0_hat=np.zeros(2))
        privacy = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.01, adjacency_B=1.0)
        config = SimulationConfig(system=system, privacy=privacy, horizon_T=3, trials=2000, seed=1)
        full = simulate(config)
        assert simulate(config, paths=False).summary == full.summary
        s = full.summary
        for paths, mean, se in ((full.sq_err_prior, s.mean_sq_err_prior, s.stderr_sq_err_prior),
                                (full.sq_err_post, s.mean_sq_err_post, s.stderr_sq_err_post)):
            per_trial = paths[:, s.burn_in:].mean(axis=1)
            assert np.all(np.isfinite(per_trial))
            # a power of two keeps the scaled values exact
            scale = 2.0 ** math.frexp(per_trial.max())[1]
            assert mean / scale == pytest.approx((per_trial / scale).mean(), rel=1e-13, abs=0.0)
            want_se = (per_trial / scale).std(ddof=1) / math.sqrt(2000)
            assert se / scale == pytest.approx(want_se, rel=1e-13, abs=0.0)
        with np.errstate(over="ignore"):
            assert math.isinf(full.sq_err_prior[:, s.burn_in:].mean(axis=1).sum())


    def test_overflowing_time_sum_gives_finite_means(self):
        # prior squared errors near 2e306 over 290 steps: each trial's plain
        # time sum leaves float range, its mean does not; no RuntimeWarning
        # (an error under this suite's warning filter)
        system = SystemModel(H=0.5 * np.eye(2), C=np.eye(2), W=1e306 * np.eye(2), x0_hat=np.zeros(2))
        privacy = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.01, adjacency_B=1.0)
        config = SimulationConfig(system=system, privacy=privacy, horizon_T=300, trials=2, seed=1)
        full = simulate(config)
        assert simulate(config, paths=False).summary == full.summary
        s = full.summary
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(full.sq_err_prior[:, s.burn_in:].sum(axis=1)))
        for paths, mean in ((full.sq_err_prior, s.mean_sq_err_prior), (full.sq_err_post, s.mean_sq_err_post)):
            assert np.all(np.isfinite(paths))
            # a power of two keeps the scaled values exact
            scale = 2.0 ** math.frexp(paths.max())[1]
            per_trial = (paths[:, s.burn_in:] / scale).mean(axis=1)
            assert mean / scale == pytest.approx(per_trial.mean(), rel=1e-13, abs=0.0)

    def test_trials_whose_time_sum_stays_finite_keep_their_bits(self):
        # near the edge of float range some trials' plain time sums overflow
        # and the others' do not: only the overflowed ones take the sum of
        # their squares scaled by 1 / (T - burn)
        system = SystemModel(H=0.5 * np.eye(2), C=np.eye(2), W=1e306 * np.eye(2), x0_hat=np.zeros(2))
        privacy = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.01, adjacency_B=1.0)
        config = SimulationConfig(system=system, privacy=privacy, horizon_T=90, trials=20, seed=1)
        paths = np.empty((2, 90, 20))
        want = reference_means(config, paths)
        burn = min(BURN_IN, 89)
        overflowed = ~np.isfinite(want)
        assert 0 < overflowed.sum() < overflowed[0].size
        for half, i in zip(*np.nonzero(overflowed)):
            acc = 0.0
            for x in paths[half, burn:, i] * (1.0 / (90 - burn)):
                acc += x
            want[half, i] = acc
        assert np.all(np.isfinite(want))
        (mean_prior, se_prior), (mean_post, se_post) = map(_mean_and_stderr, want)
        full = simulate(config)
        for s in (full.summary, simulate(config, paths=False).summary):
            assert (s.mean_sq_err_prior, s.mean_sq_err_post) == (mean_prior, mean_post)
            assert (s.stderr_sq_err_prior, s.stderr_sq_err_post) == (se_prior, se_post)


def _reference_plant(n, radius):
    # a seeded plant whose dynamics have spectral radius `radius`
    rng = np.random.default_rng(100 + n)
    H = rng.normal(size=(n, n))
    H *= radius / np.max(np.abs(np.linalg.eigvals(H)))
    body = rng.normal(size=(n, n))
    return SystemModel(H=H, C=np.diag(rng.uniform(0.5, 2.0, size=n)), W=body @ body.T / n + np.eye(n),
                       x0_hat=rng.normal(size=n))


# The noise keying simulate documents, written out rather than imported so
# that a change of simulation.NOISE_BLOCK or simulation.NOISE_WINDOW fails the
# tests that draw noise by hand: trial i's process and privacy noise over steps
# [64 w, 64 (w + 1)) is row i % 1024 of the trial-major draws of the
# (seed, i // 1024, w, stream) substream.
BLOCK, WINDOW = 1024, 64


def trial_noise(seed, trial, stream, T, width):
    """Trial ``trial``'s ``(T, width)`` noise of ``stream``, one window at a time."""
    block, row = divmod(trial, BLOCK)
    return np.concatenate([
        gaussian_generator(seed, trial=block, stream=stream, window=k // WINDOW)
        .standard_normal((row + 1, min(WINDOW, T - k), width))[row] for k in range(0, T, WINDOW)])


def reference_means(config, out=None):
    """The per-trial means of ``config``, stepped one step at a time.

    The step loop of the engine before it ran in chunks: per noise block,
    per step, the two noise products, the squared errors added left to
    right, and each trial's sum past the burn-in in time order. Each window's
    noise is drawn at its first step. Fills the ``(2, T, trials)`` ``out``
    with the squared errors if it is given.
    """
    system, sigma = config.resolve()
    sol = solve_filter(system, sigma)
    T, trials, n, seed = config.horizon_T, config.trials, system.n, config.seed
    burn = min(BURN_IN, T - 1)
    sigma_k_t = sigma[:, None] * sol.K_t
    chol_w_t = np.ascontiguousarray(np.linalg.cholesky(system.W).T)
    means = np.empty((2, trials))
    for start in range(0, trials, BLOCK):
        m, block = min(BLOCK, trials - start), start // BLOCK
        prior, post = e = np.empty((2, m, n))
        if config.x0_cov is None:
            prior[:] = 0.0
        else:
            prior[:] = gaussian_generator(seed, trial=block, stream=STREAM_INIT).standard_normal((m, n)) \
                @ config._x0_factor.T
        sums = means[:, start:start + m]
        sums[:] = 0.0
        for k in range(T):
            if k % WINDOW == 0:
                width = min(WINDOW, T - k)
                w = gaussian_generator(seed, trial=block, stream=STREAM_PROCESS,
                                       window=k // WINDOW).standard_normal((m, width, n))
                v = gaussian_generator(seed, trial=block, stream=STREAM_PRIVACY,
                                       window=k // WINDOW).standard_normal((m, width, system.q))
            np.matmul(prior, sol.A_t, out=post)
            post -= v[:, k % WINDOW] @ sigma_k_t
            d = e * e
            sq = d[..., 0].copy()
            for c in range(1, n):
                sq += d[..., c]
            if out is not None:
                out[:, k, start:start + m] = sq
            if k >= burn:
                with np.errstate(over="ignore"):
                    sums += sq
            np.matmul(post, sol.H_t, out=prior)
            prior += w[:, k % WINDOW] @ chol_w_t
        sums /= T - burn
    return means


class TestReferenceLoop:
    # horizons that end on, just past and inside a chunk, burn-ins that end
    # inside one, and horizons that end just before, on and past the edge of
    # a noise window, two windows and a partial third
    HORIZONS = (1, 2, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, BURN_IN, BURN_IN + 1,
                2 * CHUNK_STEPS + 1, 5 * CHUNK_STEPS, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1, 200)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [0.6, 1.05])
    def test_chunks_give_the_bits_of_a_step_at_a_time(self, n, radius):
        system = _reference_plant(n, radius)
        privacy = PrivacyConfig.for_system(system, epsilon=1.0, delta=0.001, adjacency_B=1.0)
        for T in self.HORIZONS:
            for trials in (9, BLOCK + 1):
                for x0_cov in (None, 4.0 * np.eye(n)):
                    config = SimulationConfig(system=system, privacy=privacy, horizon_T=T, trials=trials,
                                              seed=T, x0_cov=x0_cov)
                    paths = np.empty((2, T, trials))
                    (prior, se_prior), (post, se_post) = map(_mean_and_stderr, reference_means(config, paths))
                    for threads in (1, 3):
                        full = simulate(config, threads=threads)
                        assert np.array_equal(full.sq_err_prior, paths[0].T)
                        assert np.array_equal(full.sq_err_post, paths[1].T)
                        for s in (full.summary, simulate(config, threads=threads, paths=False).summary):
                            assert (s.mean_sq_err_prior, s.mean_sq_err_post) == (prior, post)
                            assert (s.stderr_sq_err_prior, s.stderr_sq_err_post) == (se_prior, se_post)


# where repr and orjson's notations part, and values on either side
_REPR_EDGES = [float(x) for x in (
    np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16,
    np.nextafter(1e16, np.inf), 5e-324, sys.float_info.max, 0.0, 1e15, 2**53 + 2,
    math.inf, math.nan)]


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

    def test_extra_memory_does_not_grow_with_the_trial_count(self, tmp_path):
        # many short trials: a scratch copy of every trial's two rows would
        # take twice the size of one path array
        res = simulate(case_config(trials=256, horizon=100))
        tracemalloc.start()
        try:
            write_csv(res, tmp_path / "out.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < res.sq_err_prior.nbytes

    def test_bytes_match_a_row_by_row_reference(self, tmp_path):
        # 17 trials cross the edges of the chunks write_csv copies at a time;
        # T = 1 leaves one piece of each kind per trial; the third result's
        # paths are set by hand to values whose repr orjson does not write
        base = simulate(case_config(trials=17, horizon=9))
        odd = np.resize(_REPR_EDGES + [1.5, 0.1, 123456.789], (9, 17)).T
        hand_built = dataclasses.replace(base, sq_err_prior=odd, sq_err_post=odd[::-1])
        for i, res in enumerate((base, simulate(case_config(trials=17, horizon=1)), hand_built)):
            path = tmp_path / f"out{i}.csv"
            write_csv(res, path)
            tail = ",".join(repr(float(b)) for b in (*res.bound_prior, *res.bound_post))
            rows = [CSV_HEADER]
            for t in range(17):
                for k in range(res.horizon_T):
                    rows.append(f"{t},{k},{float(res.sq_err_prior[t, k])!r},"
                                f"{float(res.sq_err_post[t, k])!r},{tail}")
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    max_size=40))
    @example(_REPR_EDGES)
    @example([-x for x in _REPR_EDGES])
    def test_float_texts_equal_repr(self, values):
        row = np.array(values, dtype=np.float64)
        assert _float_texts(row) == [repr(float(x)) for x in values]

    def test_bytes_pinned_on_the_two_agent_network(self, tmp_path):
        # the exact bytes of a 9-trial run, one trial past a copy chunk, on
        # the shipped network config; any change to the float formatting,
        # the row layout or the noise streams moves this digest
        config = load_config(CONFIGS / "network_two_agents.json")
        network = compose(build_agents(config.agents))
        res = simulate(SimulationConfig(system=network, privacy=None, horizon_T=40, trials=9,
                                        seed=config.simulation.seed))
        path = tmp_path / "out.csv"
        write_csv(res, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c8619d41455ee52a0cbcfd2e91492364ce3dfef09725dc1b67404c0d1062a95f"


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

    def test_slow_plant_mean_follows_the_exact_transient_across_windows(self):
        # H = 0.999 at epsilon = 0.1: the prior error forgets its start over
        # about 300 steps, so T = 1000 spans 16 noise windows inside one
        # transient, whose exact mean is 6.7 standard errors below the steady
        # state's; the prior-error covariance of the fixed-gain filter is
        # P_{k+1} = F P_k F^T + W + H K V K^T H^T with P_0 = 0 and
        # F = H (I - K C) (Anderson & Moore, ch. 4). An error reset, or noise
        # reused, at a window edge moves the mean far from it.
        system = SystemModel(H=[[0.999]], C=[[1.0]], W=[[0.01]], x0_hat=[0.0])
        privacy = PrivacyConfig.for_system(system, epsilon=0.1, delta=1e-3, adjacency_B=1.0)
        T = 1000
        res = simulate(SimulationConfig(system=system, privacy=privacy, horizon_T=T, trials=1024, seed=5),
                       paths=False)
        H, C, K = system.H, system.C, res.solution.riccati.gain
        F = H @ (np.eye(1) - K @ C)
        drive = system.W + H @ K @ np.diag(privacy.sigma**2) @ K.T @ H.T
        P, traces = np.zeros((1, 1)), []
        for _ in range(T):
            traces.append(np.trace(P))
            P = F @ P @ F.T + drive
        s = res.summary
        assert abs(s.mean_sq_err_prior - np.mean(traces[s.burn_in:])) <= 5 * s.stderr_sq_err_prior

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
        w = trial_noise(seed, 0, STREAM_PROCESS, T, 2) @ np.linalg.cholesky(system.W).T
        v = trial_noise(seed, 0, STREAM_PRIVACY, T, 2) * sigma
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
        w = trial_noise(seed, 0, STREAM_PROCESS, T, 2).astype(ld) @ chol_w.T
        v = trial_noise(seed, 0, STREAM_PRIVACY, T, 2).astype(ld) * cfg.privacy.sigma.astype(ld)
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
    def test_trial_is_its_row_of_its_blocks_window_streams(self, make_config, trial):
        # trial i draws row i % 1024 of each of block i // 1024's trial-major
        # (trials, 64, n) window streams, the last window cut to the horizon;
        # the run has trial + 1 trials, so row 0 of block 1 is a block of one
        # trial
        seed, T = 13, 150
        cfg = make_config(trials=trial + 1, horizon=T, seed=seed)
        res = simulate(cfg)
        system, sigma = cfg.system, cfg.privacy.sigma
        w = trial_noise(seed, trial, STREAM_PROCESS, T, system.n) @ np.linalg.cholesky(system.W).T
        v = trial_noise(seed, trial, STREAM_PRIVACY, T, system.q) * sigma
        x = np.empty((T, system.n))
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

    def test_summary_without_paths_holds_one_window(self):
        # a whole block's noise would take 126 MiB at T = 4000, against
        # 6.3 MiB at T = 200; one 64-step window of it takes 2 MiB at both.
        # A first run in the process also holds what it imports and caches.
        simulate(case_config(trials=1, horizon=1), paths=False)
        peaks = []
        for T in (200, 4000):
            tracemalloc.start()
            try:
                simulate(case_config(trials=1024, horizon=T), paths=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20


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
        # an indefinite spread fails when the config is built, naming x0_cov
        with pytest.raises(ValidationError, match="x0_cov has a negative eigenvalue"):
            case_config(x0_cov=np.diag([1.0, -1.0]))
        # a negative variance is not rounding, however large the other one
        with pytest.raises(ValidationError, match="x0_cov has a negative eigenvalue"):
            case_config(x0_cov=np.diag([1e10, -5.0]))

    def test_rank_deficient_spread_in_large_units_simulates(self):
        # the smallest eigenvalue of this rank-1 matrix rounds to -4.8e-7, far
        # below the largest (2.9e10) and so accepted as 0
        v = np.array([2.0, 5.0])
        config = case_config(trials=400, horizon=20, x0_cov=1e9 * np.outer(v, v))
        assert not config.x0_cov.flags.writeable
        res = simulate(config)
        # the first prior error is the initial spread, of mean square tr(x0_cov)
        assert res.sq_err_prior[:, 0].mean() == pytest.approx(1e9 * (v @ v), rel=0.25)
        assert math.isfinite(res.summary.mean_sq_err_prior)


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

    @pytest.mark.parametrize("privacy,message", [("ln 3", "privacy must be a PrivacyConfig or None"),
                                                 (None, "needs a privacy configuration")])
    def test_single_system_needs_a_privacy_config(self, privacy, message):
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(system=case_study_system(), privacy=privacy, horizon_T=5, trials=1, seed=0)

    def test_write_csv_rejects_paths_of_the_wrong_shape(self, tmp_path):
        res = simulate(case_config(trials=3, horizon=5))
        short = dataclasses.replace(res, sq_err_post=res.sq_err_post[:, :-1])
        with pytest.raises(ValidationError, match=r"sq_err_post must have shape \(3, 5\), got \(3, 4\)"):
            write_csv(short, tmp_path / "out.csv")

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
