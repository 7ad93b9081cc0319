"""Seeded Monte Carlo validation of the analytic error bounds.

Each trial steps the error recursion of the steady-state filter on the
privatized outputs (see :mod:`dpkalman.filtering`): the prior error starts at
the optional initial spread, or 0, and is driven by the process noise and the
privacy noise alone. No state path is formed, so the errors lose no bits to
cancellation when the state grows, as on an unstable plant. Each trial
records squared prediction/estimation errors per step next to the constant
trace bounds; a squared error adds the squared state components left to
right. Trials are drawn in blocks of ``NOISE_BLOCK``: process noise,
privacy noise, and the optional initial spread of block b come from
independent substreams keyed by (seed, b, stream tag), drawn trial-major, so
trial i uses row i % NOISE_BLOCK of block i // NOISE_BLOCK. Its values do
not depend on how blocks are scheduled across threads, and the first N trials
of a longer run equal a run of N trials: bit for bit on the case-study plant,
to a few ulp in general, because a block of fewer trials takes another BLAS
path for its matrix products and a dense plant rounds differently there.

Each span of blocks run by one thread gets its noise buffers once, before the
Riccati solve, so a size that cannot be allocated fails before any work; every
block of the span refills them. The privacy noise is drawn unscaled and the
noise scales enter through the gain, v diag(sigma) K_t = v (diag(sigma) K_t),
folded once per span. Each step's squared errors form one contiguous
row of the block's trials, and each trial's errors past the burn-in are summed
in time order as the steps run. The per-step paths are stored time-major and
returned as ``(trials, T)`` transposed views of that ``(T, trials)`` storage,
so they are not C-contiguous; ``np.ascontiguousarray`` gives a C-ordered copy.
``simulate(..., paths=False)`` keeps only the per-trial means, so its memory is
bounded by one block's noise instead of trials x T; the summary has the same
bits as with the paths kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bounds import aposteriori_trace_bounds, apriori_trace_bounds, to_json
from .errors import ValidationError
from .filtering import FilterSolution, solve_filter
from .linalg import SystemModel, _as_int, _as_size, as_matrix, require_symmetric, symmetric_factor
from .network import NetworkModel
from .privacy import PrivacyConfig
from .rng import STREAM_INIT, STREAM_PRIVACY, STREAM_PROCESS, gaussian_generator

CSV_HEADER = (
    "trial,k,sq_err_prior,sq_err_post,"
    "bound_prior_lo,bound_prior_hi,bound_post_lo,bound_post_hi"
)

# Steps left out of the summary at the start of each trial.
BURN_IN = 10

# Trials per noise block: block b holds trials [b * NOISE_BLOCK, (b + 1) *
# NOISE_BLOCK) and draws from the (seed, b, stream) substreams.
NOISE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Inputs of one Monte Carlo run.

    ``system`` is a single system (with ``privacy`` supplying the noise
    scales) or a composed network (whose agents carry their own privacy).
    By default the true initial state equals the public mean prediction;
    pass ``x0_cov`` for a Gaussian spread around it.
    """

    system: SystemModel | NetworkModel
    privacy: PrivacyConfig | None
    horizon_T: int
    trials: int
    seed: int
    x0_cov: np.ndarray | None = None

    def __post_init__(self):
        # the seed is taken mod 2**64
        _as_int(self.seed, "seed")
        _as_size(self.horizon_T, "horizon_T")
        _as_size(self.trials, "trials")
        if not isinstance(self.system, (SystemModel, NetworkModel)):
            raise ValidationError(f"system must be a SystemModel or NetworkModel, got {type(self.system).__name__}")
        if not isinstance(self.privacy, (PrivacyConfig, type(None))):
            raise ValidationError(f"privacy must be a PrivacyConfig or None, got {type(self.privacy).__name__}")
        if isinstance(self.system, NetworkModel):
            if self.privacy is not None:
                raise ValidationError("a network carries per-agent privacy; top-level privacy must be None")
        elif self.privacy is None:
            raise ValidationError("a single-system simulation needs a privacy configuration")
        if self.x0_cov is not None:
            cov = require_symmetric(as_matrix(self.x0_cov, "x0_cov"), "x0_cov")
            n = self.system.system.n if isinstance(self.system, NetworkModel) else self.system.n
            if cov.shape != (n, n):
                raise ValidationError(f"x0_cov must be {n}x{n}, got shape {cov.shape}")
            object.__setattr__(self, "x0_cov", cov)

    def resolve(self) -> tuple[SystemModel, np.ndarray]:
        """The plain system to simulate and its noise-scale vector."""
        if isinstance(self.system, NetworkModel):
            return self.system.system, self.system.sigma
        return self.system, self.privacy.sigma


@dataclass(frozen=True)
class SimulationSummary:
    """Trial-and-time averages past the burn-in, with Monte Carlo standard errors."""

    mean_sq_err_prior: float
    mean_sq_err_post: float
    stderr_sq_err_prior: float
    stderr_sq_err_post: float
    trials: int
    horizon_T: int
    burn_in: int

    def to_dict(self) -> dict:
        return to_json(self)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Per-step squared errors, (trials, T) arrays, plus bounds and summary.

    The arrays are transposed views of time-major ``(T, trials)`` storage, so
    row i (trial i) is strided and the arrays are not C-contiguous;
    ``np.ascontiguousarray`` gives a C-ordered copy. They are ``None`` when
    :func:`simulate` ran with ``paths=False``.
    """

    sq_err_prior: np.ndarray | None
    sq_err_post: np.ndarray | None
    bound_prior: tuple[float, float]
    bound_post: tuple[float, float]
    summary: SimulationSummary
    seed: int
    solution: FilterSolution

    @property
    def trials(self) -> int:
        return self.summary.trials

    @property
    def horizon_T(self) -> int:
        return self.summary.horizon_T


def _sq_err(e: np.ndarray, out: np.ndarray) -> None:
    # Writes (e ** 2).sum(axis=1) into out by adding the squared state
    # components left to right, at a fraction of the cost of a reduce along
    # a short axis.
    d = e * e
    if d.shape[1] == 1:
        np.copyto(out, d[:, 0])
        return
    np.add(d[:, 0], d[:, 1], out=out)
    for j in range(2, d.shape[1]):
        out += d[:, j]


def _run_trials(lo: int, hi: int, w_buf: np.ndarray, v_buf: np.ndarray, sol: FilterSolution,
                sigma: np.ndarray, seed: int, T: int, burn: int, x0_factor: np.ndarray | None,
                out_prior: np.ndarray | None, out_post: np.ndarray | None,
                mean_prior: np.ndarray, mean_post: np.ndarray) -> None:
    # Simulates trials [lo, hi) one noise block at a time and writes their
    # per-trial means past the burn-in into rows [lo, hi) of the mean
    # vectors. lo is a multiple of NOISE_BLOCK and so is hi unless it is the
    # trial count, so no block is split between calls. w_buf and v_buf are
    # the span's (block, T, n) and (block, T, q) noise buffers, refilled by
    # every block. Each step's squared errors form one contiguous row of the
    # block's trials: row k of the time-major (T, trials) output arrays when
    # given, else one reused row per error.
    system = sol.system
    A_t, H_t, n = sol.A_t, sol.H_t, system.n
    # the noise scales folded into the gain (module docstring): a (q, n)
    # product per span instead of a pass over every block's privacy noise
    sigma_k_t = sigma[:, None] * sol.K_t
    chol_w_t = np.ascontiguousarray(np.linalg.cholesky(system.W).T)
    if out_prior is None:
        step_prior, step_post = np.empty(len(w_buf)), np.empty(len(w_buf))
    for start in range(lo, hi, NOISE_BLOCK):
        stop = min(start + NOISE_BLOCK, hi)
        m, block = stop - start, start // NOISE_BLOCK
        # filling the first m rows in C order draws the same values as
        # standard_normal((m, T, n)) and standard_normal((m, T, q))
        w, v = w_buf[:m], v_buf[:m]
        gaussian_generator(seed, trial=block, stream=STREAM_PROCESS).standard_normal(out=w)
        gaussian_generator(seed, trial=block, stream=STREAM_PRIVACY).standard_normal(out=v)
        if x0_factor is None:
            e = np.zeros((m, n))
        else:
            e = gaussian_generator(seed, trial=block, stream=STREAM_INIT).standard_normal((m, n)) @ x0_factor.T
        if out_prior is None:
            sq_prior, sq_post = step_prior[:m], step_post[:m]
        # per-trial sums past the burn-in, added in time order whether or
        # not the paths are kept, so both give the same bits
        sum_prior, sum_post = mean_prior[start:stop], mean_post[start:stop]
        sum_prior[:] = 0.0
        sum_post[:] = 0.0
        for k in range(T):
            if out_prior is not None:
                sq_prior, sq_post = out_prior[k, start:stop], out_post[k, start:stop]
            post = e @ A_t
            post -= v[:, k] @ sigma_k_t
            _sq_err(e, sq_prior)
            _sq_err(post, sq_post)
            if k >= burn:
                sum_prior += sq_prior
                sum_post += sq_post
            e = post @ H_t
            e += w[:, k] @ chol_w_t
        sum_prior /= T - burn
        sum_post /= T - burn


def simulate(config: SimulationConfig, *, threads: int = 1, paths: bool = True) -> SimulationResult:
    """Run the Monte Carlo experiment; deterministic for a fixed seed.

    ``threads`` controls how trials are chunked across a thread pool and has
    no effect on the output values. With ``paths=False`` the per-step
    squared errors are reduced to per-trial means one noise block at a time
    and not kept: the result's ``sq_err_prior`` and ``sq_err_post`` are
    ``None`` and its summary is the same as with ``paths=True``.
    """
    system, sigma = config.resolve()
    T, trials = config.horizon_T, config.trials
    threads = max(1, _as_int(threads, "threads"))
    try:
        per_trial_prior, per_trial_post = np.empty(trials), np.empty(trials)
        out_prior, out_post = (np.empty((T, trials)), np.empty((T, trials))) if paths else (None, None)
        # spans start at block boundaries, so threads never split a noise
        # block; integer ceiling division, so that no thread count rounds the
        # chunk to 0
        chunk = NOISE_BLOCK * -(-trials // (NOISE_BLOCK * threads))
        spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        # each span's process- and privacy-noise buffers, one block long
        buffers = [(np.empty((size, T, system.n)), np.empty((size, T, system.q)))
                   for size in (min(NOISE_BLOCK, hi - lo) for lo, hi in spans)]
    except (ValueError, MemoryError) as exc:  # a size numpy cannot address, or too large to hold
        raise ValidationError(f"trials={trials} x horizon_T={T} cannot be allocated: {exc}") from None
    sol = solve_filter(system, sigma)
    prior_rep = apriori_trace_bounds(system, sigma)
    post_rep = aposteriori_trace_bounds(system, sigma)

    burn = min(BURN_IN, T - 1)
    x0_factor = symmetric_factor(config.x0_cov) if config.x0_cov is not None else None

    args = (sol, sigma, config.seed, T, burn, x0_factor, out_prior, out_post,
            per_trial_prior, per_trial_post)
    if len(spans) == 1:
        _run_trials(0, trials, *buffers[0], *args)
    else:
        # imported here: concurrent.futures pulls in logging, which no
        # single-span run needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(_run_trials, lo, hi, *bufs, *args)
                       for (lo, hi), bufs in zip(spans, buffers)]
            for f in futures:
                f.result()

    # a mean whose sum, or a spread whose square, passes float range is inf
    with np.errstate(over="ignore"):
        if trials > 1:
            se_prior = float(per_trial_prior.std(ddof=1) / math.sqrt(trials))
            se_post = float(per_trial_post.std(ddof=1) / math.sqrt(trials))
        else:
            se_prior = se_post = 0.0
        summary = SimulationSummary(
            mean_sq_err_prior=float(per_trial_prior.mean()),
            mean_sq_err_post=float(per_trial_post.mean()),
            stderr_sq_err_prior=se_prior,
            stderr_sq_err_post=se_post,
            trials=trials,
            horizon_T=T,
            burn_in=burn,
        )
    return SimulationResult(
        sq_err_prior=None if out_prior is None else out_prior.T,
        sq_err_post=None if out_post is None else out_post.T,
        bound_prior=(prior_rep.lower, prior_rep.upper),
        bound_post=(post_rep.lower, post_rep.upper),
        summary=summary,
        seed=config.seed,
        solution=sol,
    )


def write_csv(result: SimulationResult, path) -> None:
    """Write one row per (trial, k): LF line endings, full-precision floats.

    Needs the per-step paths, so ``result`` must come from a
    ``simulate(..., paths=True)`` run.
    """
    if result.sq_err_prior is None:
        raise ValidationError("write_csv needs per-step paths; simulate with paths=True")
    T = result.horizon_T
    for name in ("sq_err_prior", "sq_err_post"):
        shape = np.shape(getattr(result, name))
        if shape != (result.trials, T):
            raise ValidationError(f"{name} must have shape {(result.trials, T)}, got {shape}")
    b = [repr(float(v)) for v in (*result.bound_prior, *result.bound_post)]
    ks = [f",{k}," for k in range(T)]
    commas = [","] * T
    tails = [f",{b[0]},{b[1]},{b[2]},{b[3]}\n"] * T
    # the paths are views of time-major storage, so a trial's row is strided:
    # copy a few trials at a time into a C-ordered scratch and build one
    # string per trial from its Python floats, keeping the extra memory to a
    # few rows, not the whole array
    step = 8
    scratch = np.empty((2, min(step, result.trials), T))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, result.trials, step):
            m = min(step, result.trials - lo)
            np.copyto(scratch[0, :m], result.sq_err_prior[lo:lo + m])
            np.copyto(scratch[1, :m], result.sq_err_post[lo:lo + m])
            for i in range(m):
                fields = zip([str(lo + i)] * T, ks, map(repr, scratch[0, i].tolist()), commas,
                             map(repr, scratch[1, i].tolist()), tails)
                fh.write("".join(chain.from_iterable(fields)))
