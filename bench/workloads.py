"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``write_inputs``, in the
parent process), builds its models in ``setup`` (what ``setup_s`` times in a
fresh process), runs one fixed body of operations per call of ``body`` in a
closed loop with one caller, and checks every recorded output in ``check``,
outside the timed regions.  Library functions are looked up through their
module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np

import dpkalman as dk
import dpkalman.cli  # noqa: F401  (binds dk.cli for the in-process CLI)

DELTA = 1e-3
ADJACENCY_B = 1.0
EPS_CASE_STUDY = math.log(3.0)

CASE_STUDY = {"H": [[1.0, 1.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
              "W": [[10.0, 0.0], [0.0, 10.0]], "x0_hat": [0.0, 0.0]}
DECAY = {"H": [[0.5]], "C": [[1.0]], "W": [[1.0]], "x0_hat": [0.0]}
SLOW_SCALAR = {"H": [[0.999]], "C": [[1.0]], "W": [[0.01]], "x0_hat": [0.0]}
# Well posed (scipy solves it) but beyond the fixed-point iteration's cap.
MARGINAL = {"H": [[1.0]], "C": [[1e-3]], "W": [[1e-6]], "x0_hat": [0.0]}
MARGINAL_V = [[1.0]]

EPS_GRID = tuple(float(e) for e in np.logspace(0.0, -3.0, 16))

# Correctness tolerances.
RICCATI_RTOL = 1e-6        # library Riccati traces against scipy
MEAN_SE_LIMIT = 5.0        # simulated mean squared errors against the steady state
FILTER_RTOL = 1e-9         # run_filter against the plain numpy recursion
NOISE_STD_RTOL = 0.1       # privatized noise spread against sigma
STREAM_BURN_IN = 100       # steps skipped before comparing stream errors

CSV_HEADER = ("trial,k,sq_err_prior,sq_err_post,"
              "bound_prior_lo,bound_prior_hi,bound_post_lo,bound_post_hi")


class Op:
    """One timed operation of the closed loop and what it returned."""

    __slots__ = ("kind", "key", "body", "work", "start", "end", "latency", "output", "error",
                 "problems")

    def __init__(self, kind, key, body, work):
        self.kind = kind
        self.key = key
        self.body = body
        self.work = work
        self.start = self.end = 0.0
        self.latency = 0.0  # seconds; host-normalized once measured by a HostClock
        self.output = None
        self.error = None
        self.problems = []  # correctness problems found right after the op


class Recorder:
    """Runs operations one at a time, timing each and keeping its output."""

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.body = -1
        self.tracer = tracer

    def run(self, kind, key, work, fn, *args) -> Op:
        op = Op(kind, key, self.body, work)
        if self.tracer is not None:
            self.tracer.op = f"b{self.body}/{len(self.ops)}"
        op.start = time.perf_counter()
        try:
            op.output = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = time.perf_counter()
        op.latency = op.end - op.start
        self.ops.append(op)
        return op


def _matrix_doc(rows) -> dict:
    arr = np.asarray(rows, dtype=float)
    return {"rows": arr.shape[0], "cols": arr.shape[1], "entries": arr.tolist()}


def _system_doc(plant: dict) -> dict:
    return {"H": _matrix_doc(plant["H"]), "C": _matrix_doc(plant["C"]),
            "W": _matrix_doc(plant["W"]), "x0_hat": [float(v) for v in plant["x0_hat"]]}


def _privacy_doc(epsilon: float) -> dict:
    return {"epsilon": epsilon, "delta": DELTA, "adjacency_B": ADJACENCY_B}


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def scipy_steady_state(system, V) -> tuple[np.ndarray, np.ndarray]:
    """Prediction and estimation covariances from scipy, the independent oracle."""
    from scipy.linalg import solve_discrete_are

    V = np.asarray(V, dtype=float)
    sigma = solve_discrete_are(system.H.T, system.C.T, system.W, V)
    info = system.C.T @ np.linalg.solve(V, system.C)
    sigma_bar = np.linalg.inv(np.linalg.inv(sigma) + info)
    return sigma, sigma_bar


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), np.finfo(float).tiny)


def _cli_json(argv) -> dict:
    """Run the in-process CLI and parse its single stdout JSON document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dk.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dpkalman exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _summary_problems(doc, system, sigma, spec) -> list[str]:
    """Check a simulate summary against its own bounds and scipy's steady state."""
    problems = []
    for key, want in (("trials", spec["trials"]), ("horizon_T", spec["horizon_T"]),
                      ("seed", spec["seed"])):
        if doc.get(key) != want:
            problems.append(f"summary {key} = {doc.get(key)!r}, expected {want!r}")
    prior, post = scipy_steady_state(system, np.diag(np.asarray(sigma) ** 2))
    for kind, window, ref in (("prior", doc["bound_prior"], np.trace(prior)),
                              ("post", doc["bound_post"], np.trace(post))):
        mean, se = doc[f"mean_sq_err_{kind}"], doc[f"stderr_sq_err_{kind}"]
        lo, hi = window[0], window[1] if window[1] is not None else math.inf
        if not lo <= mean <= hi:
            problems.append(f"mean_sq_err_{kind} {mean} outside the bound window [{lo}, {hi}]")
        if not abs(mean - ref) <= MEAN_SE_LIMIT * se:
            problems.append(f"mean_sq_err_{kind} {mean} is more than {MEAN_SE_LIMIT} "
                            f"standard errors ({se}) from the steady state {ref}")
    return problems


class Workload:
    """Shared shape of a workload; subclasses fill in the four steps."""

    name = ""
    work_name = ""       # the throughput metric's own name in the readable table
    percentiles = False  # whether op_p50_ms / op_p90_ms apply
    min_ops = 3          # operations a run needs before it may stop
    min_bodies = 3
    trace_setup = True   # False where set-up serves only the checks

    def write_inputs(self, seed: int, tmp: str) -> dict:
        return {"seed": seed}

    def generators_per_body(self) -> int:
        """Noise generators one body builds with today's per-trial, per-stream keying."""
        return 0


class EpsSweep(Workload):
    """Choose a privacy level: calibrate, then sweep epsilon on three plants."""

    name = "eps_sweep"
    work_name = "solves_per_s"
    percentiles = True
    min_ops = 110  # 52 per body; 110 leaves at least ten beyond the p90
    min_bodies = 2

    def write_inputs(self, seed, tmp):
        doc = {"system": _system_doc(CASE_STUDY), "privacy": _privacy_doc(EPS_CASE_STUDY),
               "calibration": {"kind": "apriori", "B_l": 21.0, "B_u": 2000.0}}
        return {"seed": seed, "config": _write_json(os.path.join(tmp, "case_study.json"), doc)}

    @staticmethod
    def dense_plant(seed: int, n: int = 16):
        """Seeded stable dense plant with a fixed spectrum, so cost barely varies by seed."""
        rng = np.random.default_rng([seed, n])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.linspace(0.3, 0.95, n) * rng.choice([-1.0, 1.0], n)
        A = rng.standard_normal((n, n))
        W = A @ A.T / n + 0.5 * np.eye(n)
        return dk.SystemModel(H=(Q * eig) @ Q.T, C=np.diag(rng.uniform(0.5, 1.5, n)),
                              W=0.5 * (W + W.T), x0_hat=np.zeros(n))

    @staticmethod
    def _target(system, B_u_factor: float):
        # a lower target inside the admissible range, an upper one far above it
        tr_w = float(np.trace(system.W))
        reach = float(np.sum(system.H * system.H)) * float(np.linalg.eigvalsh(system.W)[0])
        return dk.CalibrationTarget(kind="apriori", B_l=tr_w + 0.5 * reach,
                                    B_u=B_u_factor * tr_w, delta=DELTA, adjacency_B=ADJACENCY_B)

    def setup(self, params):
        config = dk.load_config(params["config"])
        cal = config.calibration
        case = (config.system, dk.CalibrationTarget(
            kind=cal.kind, B_l=cal.B_l, B_u=cal.B_u,
            delta=config.privacy.delta, adjacency_B=config.privacy.adjacency_B))
        slow = dk.SystemModel(**SLOW_SCALAR)
        dense = self.dense_plant(params["seed"])
        plants = {"case_study": case, "slow_scalar": (slow, self._target(slow, 1e5)),
                  "dense16": (dense, self._target(dense, 1e3))}
        return SimpleNamespace(plants=plants, marginal=dk.SystemModel(**MARGINAL))

    @staticmethod
    def _sweep_point(system, target, eps):
        privacy = dk.PrivacyConfig.for_system(system, eps, target.delta, target.adjacency_B)
        reports = dk.all_bounds(system, privacy.sigma)
        return privacy, reports, dk.verify_calibration(system, target, eps)

    def body(self, st, rec):
        for name, (system, target) in st.plants.items():
            rec.run("calibrate", name, 0, dk.calibrate_apriori, system, target)
            for eps in EPS_GRID:
                rec.run("solve", (name, eps), 1, self._sweep_point, system, target, eps)
        rec.run("marginal", "marginal", 1, dk.solve_dare, st.marginal, np.array(MARGINAL_V))

    def check(self, st, ops) -> list[tuple[int, str]]:
        problems = []
        refs = {}
        intervals = {(op.body, op.key): op.output for op in ops
                     if op.kind == "calibrate" and op.error is None}
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            if op.kind == "calibrate":
                iv = op.output
                if not (0.0 < iv.eps_min and 0.0 < iv.eps_max and iv.feasible == (iv.eps_min <= iv.eps_max)):
                    problems.append((i, f"{op.key}: malformed epsilon interval {iv.to_dict()}"))
            elif op.kind == "solve":
                name, eps = op.key
                system, target = st.plants[name]
                privacy, reports, ver = op.output
                if op.key not in refs:
                    refs[op.key] = float(np.trace(scipy_steady_state(system, np.diag(privacy.sigma**2))[0]))
                ref = refs[op.key]
                if _rel_err(ver.achieved_trace, ref) > RICCATI_RTOL:
                    problems.append((i, f"{name} eps={eps:.4g}: trace {ver.achieved_trace} vs scipy {ref}"))
                rep = reports[dk.APRIORI_TRACE]
                if not rep.lower <= ver.achieved_trace <= rep.upper:
                    problems.append((i, f"{name} eps={eps:.4g}: trace {ver.achieved_trace} "
                                        f"outside the bound window [{rep.lower}, {rep.upper}]"))
                if _rel_err(ver.sigma, float(privacy.sigma[0])) > 1e-12:
                    problems.append((i, f"{name} eps={eps:.4g}: verify used sigma {ver.sigma}, "
                                        f"for_system gave {privacy.sigma[0]}"))
                iv = intervals.get((op.body, name))
                if iv is not None and iv.eps_min <= eps <= iv.eps_max and not ver.within_bounds:
                    problems.append((i, f"{name} eps={eps:.4g} lies in the calibrated interval "
                                        f"but its trace {ver.achieved_trace} misses the target"))
            elif op.kind == "marginal":
                ric = op.output
                prior, _ = scipy_steady_state(st.marginal, np.array(MARGINAL_V))
                if _rel_err(float(np.trace(ric.sigma)), float(np.trace(prior))) > RICCATI_RTOL:
                    problems.append((i, f"marginal plant: trace {np.trace(ric.sigma)} vs scipy {np.trace(prior)}"))
        return problems

    def count_notes(self) -> list[str]:
        """Riccati iterations at the points of the roadmap's re-anchor table.

        The table records the fixed-point solver, so a solver change moves
        these counts by design: they are reported, not enforced.
        """
        case = dk.SystemModel(**CASE_STUDY)
        slow = dk.SystemModel(**SLOW_SCALAR)
        notes = []
        for label, system, eps, table in (("case study, eps=ln 3", case, EPS_CASE_STUDY, 14),
                                          ("case study, eps=0.001", case, 1e-3, 514),
                                          ("H=0.999 W=0.01, eps=0.1", slow, 0.1, 3420)):
            sigma = dk.PrivacyConfig.for_system(system, eps, DELTA, ADJACENCY_B).sigma
            got = dk.solve_dare(system, np.diag(sigma**2)).iterations
            verdict = "matches" if got == table else "DIFFERS from"
            notes.append(f"Riccati iterations, {label}: {got} ({verdict} the roadmap's {table})")
        return notes


class _CliSimulate(Workload):
    """Shared parts of the two ``dpkalman simulate`` workloads."""

    trials = 0
    horizon_T = 0
    # each simulate call loads and composes the config itself; set-up only
    # builds the models the checks compare against
    trace_setup = False

    def _spec(self, seed):
        return {"horizon_T": self.horizon_T, "trials": self.trials, "seed": seed}

    def generators_per_body(self) -> int:
        # one process-noise and one privacy-noise stream per trial
        return 2 * self.trials

    def body(self, st, rec):
        return rec.run("simulate", None, self.trials * self.horizon_T, _cli_json, st.argv)

    def check(self, st, ops):
        problems = []
        first = None
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            problems += [(i, p) for p in op.problems]
            if first is None:
                first = op.output
                problems += [(i, p) for p in _summary_problems(op.output, st.system, st.sigma, st.spec)]
            elif op.output != first:
                problems.append((i, "summary differs from the first run of the same seed"))
        return problems


class McManyShort(_CliSimulate):
    """Many short trials, summary output only."""

    trials = 20_000
    horizon_T = 200

    name = "mc_many_short"
    work_name = "trial_steps_per_s"

    def write_inputs(self, seed, tmp):
        doc = {"system": _system_doc(CASE_STUDY), "privacy": _privacy_doc(EPS_CASE_STUDY),
               "simulation": self._spec(seed)}
        return {"seed": seed, "config": _write_json(os.path.join(tmp, "many_short.json"), doc)}

    def setup(self, params):
        config = dk.load_config(params["config"])
        privacy = dk.build_privacy(config.system, config.privacy)
        sim = dk.SimulationConfig(system=config.system, privacy=privacy,
                                  horizon_T=self.horizon_T, trials=self.trials, seed=params["seed"])
        argv = ["simulate", "--config", params["config"], "--json", "--threads", "1"]
        return SimpleNamespace(system=config.system, sigma=privacy.sigma, sim=sim, argv=argv,
                               spec=self._spec(params["seed"]))

    @staticmethod
    def thread_speedup(st) -> tuple[float, list[str]]:
        """simulate time at one thread over its time at nproc threads."""
        nproc = len(os.sched_getaffinity(0))
        times = {1: [], nproc: []}
        results = {}
        for _ in range(2):
            for threads in times:
                start = time.perf_counter()
                results[threads] = dk.simulate(st.sim, threads=threads)
                times[threads].append(time.perf_counter() - start)
        problems = []
        if not (np.array_equal(results[1].sq_err_prior, results[nproc].sq_err_prior)
                and np.array_equal(results[1].sq_err_post, results[nproc].sq_err_post)):
            problems.append(f"simulate output differs between 1 and {nproc} threads")
        return float(np.median(times[1]) / np.median(times[nproc])), problems


class McLongExport(_CliSimulate):
    """Few long trials of the two-agent network, written to CSV."""

    trials = 200
    horizon_T = 2_000

    name = "mc_long_export"
    work_name = "trial_steps_per_s"

    def write_inputs(self, seed, tmp):
        agents = [{"id": "ramp", "system": _system_doc(CASE_STUDY), "privacy": _privacy_doc(EPS_CASE_STUDY)},
                  {"id": "decay", "system": _system_doc(DECAY),
                   "privacy": {"epsilon": 0.5, "delta": 0.01, "adjacency_B": 1.0}}]
        doc = {"agents": agents, "simulation": self._spec(seed)}
        return {"seed": seed, "config": _write_json(os.path.join(tmp, "long_export.json"), doc),
                "csv": os.path.join(tmp, "long_export.csv"),
                "summary": os.path.join(tmp, "long_export_summary.json")}

    def setup(self, params):
        config = dk.load_config(params["config"])
        network = dk.compose(dk.build_agents(config.agents))
        argv = ["simulate", "--config", params["config"], "--json", "--threads", "1",
                "--out", params["csv"], "--summary", params["summary"]]
        return SimpleNamespace(system=network.system, sigma=network.sigma, argv=argv,
                               csv=params["csv"], summary=params["summary"],
                               spec=self._spec(params["seed"]))

    def body(self, st, rec):
        op = super().body(st, rec)
        if op.error is None:
            op.problems = self._file_problems(st, op.output)

    def _file_problems(self, st, doc) -> list[str]:
        # run right after the op, before the next run overwrites the files
        problems = []
        with open(st.csv, "rb") as fh:
            header = fh.readline().decode("ascii").rstrip("\n")
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if header != CSV_HEADER:
            problems.append(f"CSV header {header!r}")
        if rows != self.trials * self.horizon_T:
            problems.append(f"CSV has {rows} rows, expected {self.trials * self.horizon_T}")
        with open(st.summary, encoding="ascii") as fh:
            if json.load(fh) != doc:
                problems.append("--summary file differs from the stdout JSON")
        return problems


class NetStream(Workload):
    """Privatize and filter many trajectories on a seeded 12-agent network."""

    agents = 12
    horizon_T = 2_000
    ops_per_body = 20

    name = "net_stream"
    work_name = "filter_steps_per_s"
    percentiles = True
    min_ops = 110  # at least ten beyond the p90

    @staticmethod
    def agent_specs(seed: int, count: int):
        """Seeded mix of case-study and scalar-decay agents with their own privacy."""
        rng = np.random.default_rng([seed, 12])
        kinds = rng.permutation([0, 1] * (count // 2))
        specs = []
        for i, kind in enumerate(kinds):
            if kind == 0:
                plant = CASE_STUDY
            else:
                plant = dict(DECAY, H=[[float(rng.uniform(0.3, 0.9))]])
            eps = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            specs.append((f"agent{i:02d}", plant, eps))
        return specs

    @staticmethod
    def trajectories(system, seed: int, count: int, T: int):
        """True states and clean outputs of ``count`` seeded trajectories."""
        rng = np.random.default_rng([seed, 2])
        w = rng.standard_normal((count, T, system.n)) @ np.linalg.cholesky(system.W).T
        x = np.empty((count, T, system.n))
        x[:, 0] = system.x0_hat
        for k in range(T - 1):
            x[:, k + 1] = x[:, k] @ system.H.T + w[:, k]
        return x, x @ system.C.T

    def setup(self, params):
        seed = params["seed"]
        agents = []
        for agent_id, plant, eps in self.agent_specs(seed, self.agents):
            system = dk.SystemModel(**plant)
            privacy = dk.PrivacyConfig.for_system(system, eps, DELTA, ADJACENCY_B)
            agents.append(dk.AgentSpec(id=agent_id, system=system, privacy=privacy))
        network = dk.compose(agents)
        sol = dk.solve_filter(network.system, network.sigma)
        slices = dk.per_agent_slices(network, sol)
        bounds = dk.all_bounds(network.system, network.sigma)
        x, y = self.trajectories(network.system, seed, self.ops_per_body, self.horizon_T)
        # first[j]: stream j's first outputs; stream_mse[j]: its prediction MSE
        return SimpleNamespace(seed=seed, network=network, sol=sol, slices=slices,
                               bounds=bounds, x=x, y=y, first={}, stream_mse={})

    def generators_per_body(self):
        return self.ops_per_body  # one privatize stream per operation

    @staticmethod
    def _stream(y, sigma, seed, index, sol, x0):
        y_tilde = dk.privatize(y, sigma, seed, stream_index=index)
        return y_tilde, dk.run_filter(sol, y_tilde, x0)

    def body(self, st, rec):
        sigma, x0 = st.network.sigma, st.network.system.x0_hat
        for j in range(self.ops_per_body):
            op = rec.run("stream", j, self.horizon_T, self._stream, st.y[j], sigma, st.seed, j, st.sol, x0)
            if op.error is None:
                # checked at once and dropped, so kept outputs do not inflate
                # peak memory or garbage-collection pauses
                op.problems = self._stream_problems(st, j, *op.output)
                op.output = None

    def _stream_problems(self, st, j, y_tilde, states) -> list[str]:
        est = np.array([s.x_hat for s in states])
        prior = np.array([s.x_hat_prior for s in states])
        if j in st.first:
            same = np.array_equal(y_tilde, st.first[j][0]) and np.array_equal(est, st.first[j][1])
            return [] if same else [f"stream {j} differs from its first run"]
        st.first[j] = (y_tilde, est)
        system, sigma = st.network.system, st.network.sigma
        gain = np.asarray(st.sol.riccati.gain)
        problems = []
        # plain numpy reference recursion on the same privatized outputs
        ref_est = np.empty_like(est)
        ref_prior = np.empty_like(prior)
        p = system.x0_hat.copy()
        for k in range(len(y_tilde)):
            ref_prior[k] = p
            ref_est[k] = p + gain @ (y_tilde[k] - system.C @ p)
            p = system.H @ ref_est[k]
        scale = 1.0 + float(np.max(np.abs(ref_est)))
        if max(np.max(np.abs(est - ref_est)), np.max(np.abs(prior - ref_prior))) > FILTER_RTOL * scale:
            problems.append(f"stream {j}: run_filter differs from the reference recursion")
        noise_std = (y_tilde - st.y[j]).std(axis=0)
        if np.any(np.abs(noise_std / sigma - 1.0) > NOISE_STD_RTOL):
            problems.append(f"stream {j}: privatized noise spread {noise_std} vs sigma {sigma}")
        err = st.x[j, STREAM_BURN_IN:] - prior[STREAM_BURN_IN:]
        st.stream_mse[j] = float(np.mean(np.sum(err**2, axis=1)))
        return problems

    def check(self, st, ops):
        system, sigma = st.network.system, st.network.sigma
        ref_prior, _ = scipy_steady_state(system, np.diag(sigma**2))
        trace = float(np.trace(st.sol.riccati.sigma))
        ref = float(np.trace(ref_prior))
        problems = [(i, p) for i, op in enumerate(ops) for p in op.problems]
        if _rel_err(trace, ref) > RICCATI_RTOL:
            problems.append((-1, f"network trace {trace} vs scipy {ref}"))
        slice_sum = sum(p for p, _ in st.slices.values())
        if _rel_err(slice_sum, trace) > 1e-12:
            problems.append((-1, f"per-agent prediction traces sum to {slice_sum}, not {trace}"))
        rep = st.bounds[dk.APRIORI_TRACE]
        if not rep.lower <= ref <= rep.upper:
            problems.append((-1, f"steady-state trace outside the bound window [{rep.lower}, {rep.upper}]"))
        if len(st.stream_mse) > 1:
            values = np.array(list(st.stream_mse.values()))
            se = values.std(ddof=1) / math.sqrt(len(values))
            if abs(values.mean() - ref) > MEAN_SE_LIMIT * se:
                problems.append((-1, f"stream prediction MSE {values.mean()} is more than "
                                     f"{MEAN_SE_LIMIT} standard errors ({se}) from the steady state {ref}"))
        return problems


WORKLOADS = {w.name: w for w in (EpsSweep(), McManyShort(), McLongExport(), NetStream())}
