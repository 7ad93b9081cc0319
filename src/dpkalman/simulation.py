"""Seeded Monte Carlo validation of the analytic error bounds.

Each trial steps the error recursion of the steady-state filter on the
privatized outputs (see :mod:`dpkalman.filtering`): the prior error starts at
the optional initial spread, or 0, and is driven by the process noise and the
privacy noise alone. No state path is formed, so the errors lose no bits to
cancellation when the state grows, as on an unstable plant. Each trial
records squared prediction/estimation errors per step next to the constant
trace bounds; a squared error adds the squared state components left to
right. Trials are drawn in blocks of ``NOISE_BLOCK`` and steps in windows of
``NOISE_WINDOW``: the process and privacy noise of block b over window w come
from independent substreams keyed by (seed, b, w, stream tag), and the
optional initial spread of block b from the (seed, b, stream tag) substream,
each drawn trial-major, so trial i uses row i % NOISE_BLOCK of block
i // NOISE_BLOCK's draws. Its values do not depend on how blocks are
scheduled across threads, and the first N trials of a longer run equal a run
of N trials: bit for bit on the case-study plant, to a few ulp in general,
because a block of fewer trials takes another BLAS path for its matrix
products and a dense plant rounds differently there.

Each span of blocks run by one thread gets its noise buffers, one window of
one block, once, before the Riccati solve, so a size that cannot be allocated
fails before any work; every window of every block of the span refills them.
A run whose noise, trials x T x (n + q) float64 values, has more bytes than an
array can address is refused before any work too. The privacy noise is drawn
unscaled and the noise scales enter through the gain,
v diag(sigma) K_t = v (diag(sigma) K_t), folded once per span.

A block runs in chunks of ``CHUNK_STEPS`` steps, none of which crosses the
edge of a noise window. A step makes only the four calls the error recursion
feeds back through: post = prior A_t, post -= its privacy-noise product,
prior' = post H_t, prior' += its process-noise product, writing its (prior,
post) errors into a chunk buffer. Everything else runs once
per chunk on buffers allocated once per span: each noise product is one
stacked matmul over the chunk's steps, whose every slice is the gemm a lone
step would make on the same strides; the squared errors are one multiply and
the components added left to right; one copy writes the chunk into the
time-major (2, T, trials) output; and each trial's errors past the burn-in are
added to its sum in time order. With ``paths=True`` the paths are returned as
``(trials, T)`` transposed views of the output's two halves, so they are not
C-contiguous (``np.ascontiguousarray`` gives a C-ordered copy); with
``paths=False`` no output is allocated, so memory is bounded by one window of
one block's noise and the chunk buffers, whatever trials and T are, and the
summary has the same bits. A trial whose time sum leaves float range while its
mean would not is stepped again from the same noise, each window drawn again
from its keys, with each square scaled by 1 / (T - burn-in) before it is
added.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import APOSTERIORI_TRACE, APRIORI_TRACE, all_bounds, to_json
from .errors import ValidationError
from .filtering import FilterSolution, solve_filter
from .linalg import (SystemModel, _as_int, _as_size, _freeze, _in_float_range, as_matrix, require_symmetric,
                     symmetric_factor)
from .network import NetworkModel
from .privacy import PrivacyConfig, paired_scales
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

# Steps per noise window: window w of block b holds steps [w * NOISE_WINDOW,
# (w + 1) * NOISE_WINDOW) and draws from the (seed, b, w, stream) substreams.
# Memory is one window of one block, whatever T. Measured on
# simulate(paths=False) of the 20000 x 200 case-study run, pinned to one vCPU
# of a 2-vCPU x86_64 VM, median of 5: 0.284 s at 64 steps, 0.290 s at 128 and
# 0.302 s with the whole horizon in one window (the noise is read back while
# it is still in cache); 32 (0.272 s) was within the runs' spread of 64 and
# builds twice the generators, two per window at about 14 us each.
NOISE_WINDOW = 64

# Steps per chunk of the step kernel (module docstring). Measured on simulate
# on a 2-vCPU x86_64 VM: against a step at a time, chunks of 8 took about 20 %
# off the 200 x 2000 two-agent run and 3-5 % off the 20000 x 200 case-study
# run; against 8, chunks of 16 or 32 took 2-3 % more off the first and added
# 3-4 % to the second.
CHUNK_STEPS = 8


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Inputs of one Monte Carlo run.

    ``system`` is a single system (with ``privacy`` supplying noise scales
    compliant for it) or a composed network (whose agents carry their own).
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
        else:
            paired_scales(self.system, self.privacy)
        factor = None
        if self.x0_cov is not None:
            cov = require_symmetric(as_matrix(self.x0_cov, "x0_cov"), "x0_cov")
            n = self.resolve()[0].n
            if cov.shape != (n, n):
                raise ValidationError(f"x0_cov must be {n}x{n}, got shape {cov.shape}")
            factor = symmetric_factor(cov, "x0_cov")  # PSD; simulate draws the spread through it
            _freeze(self, x0_cov=cov)
        object.__setattr__(self, "_x0_factor", factor)

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

    The arrays are transposed views of the two ``(T, trials)`` halves of one
    time-major ``(2, T, trials)`` array, so row i (trial i) is strided and
    the arrays are not C-contiguous;
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


def _mean_and_stderr(x: np.ndarray) -> tuple[float, float]:
    # The mean of the per-trial means and its standard error, kept finite for
    # finite per-trial means by linalg._in_float_range.
    root_n = math.sqrt(len(x))
    reductions = (lambda s: float(s.mean()),
                  lambda s: float(s.std(ddof=1) / root_n) if len(s) > 1 else 0.0)
    with np.errstate(over="ignore"):
        return tuple(_in_float_range(f, x, f(x)) for f in reductions)


def _run_trials(lo: int, hi: int, w_buf: np.ndarray, v_buf: np.ndarray, sol: FilterSolution,
                sigma: np.ndarray, seed: int, T: int, burn: int, x0_factor: np.ndarray | None,
                out: np.ndarray | None, means: np.ndarray) -> None:
    # Simulates trials [lo, hi) one noise block at a time and writes their
    # per-trial means past the burn-in into columns [lo, hi) of the (2,
    # trials) means, prior then posterior, and their squared errors into
    # columns [lo, hi) of the (2, T, trials) output unless it is None. lo is
    # a multiple of NOISE_BLOCK and so is hi unless it is the trial count, so
    # no block is split between calls. w_buf and v_buf are the span's
    # (block, window, n) and (block, window, q) noise buffers, refilled by
    # every window of every block.
    system = sol.system
    A_t, H_t, n, q = sol.A_t, sol.H_t, system.n, system.q
    # the noise scales folded into the gain (module docstring): a (q, n)
    # product per span instead of a pass over every block's privacy noise
    sigma_k_t = sigma[:, None] * sol.K_t
    chol_w_t = np.ascontiguousarray(np.linalg.cholesky(system.W).T)
    S, size = min(CHUNK_STEPS, T), len(w_buf)
    w_flat, v_flat = w_buf.reshape(-1), v_buf.reshape(-1)
    # the chunk buffers: step j of a chunk reads the prior errors e[j, 0] and
    # writes the posterior errors e[j, 1] and the next prior errors
    # e[j + 1, 0]; dv and dw hold the chunk's noise products, d its squared
    # state components and sq[j + 1] its squared errors, with sq[0] free for
    # the running sums
    e_buf, d_buf = np.empty((S + 1, 2, size, n)), np.empty((S, 2, size, n))
    dv_buf, dw_buf, sq_buf = np.empty((S, size, n)), np.empty((S, size, n)), np.empty((S + 1, 2, size))

    def run_block(m: int, block: int, sums: np.ndarray, paths: np.ndarray | None,
                  scale: float | None) -> None:
        # Steps the block's m trials, drawing their noise one window at a
        # time into the buffers, and sets the (2, m) sums to each trial's
        # squared errors past the burn-in, times scale if it is given, added
        # in time order; paths is the block's (2, T, m) slice of the output,
        # or None.
        e, d, sq = e_buf[:, :, :m], d_buf[:, :, :m], sq_buf[:, :, :m]
        dv, dw = dv_buf[:, :m], dw_buf[:, :m]
        if x0_factor is None:
            e[0, 0] = 0.0
        else:
            e[0, 0] = gaussian_generator(seed, trial=block, stream=STREAM_INIT).standard_normal((m, n)) @ x0_factor.T
        steps = [(e[j, 0], e[j, 1], e[j + 1, 0], dv[j], dw[j]) for j in range(S)]
        sums[:] = 0.0
        k0 = 0
        while k0 < T:
            # step k0 is step `at` of its window; a window's first chunk draws
            # the window into the first m x width x n (q) floats of the
            # buffers, in C order: the values of standard_normal((m, width,
            # n)), so trial i's are segment i of the stream whatever m is
            window, at = divmod(k0, NOISE_WINDOW)
            if at == 0:
                width = min(NOISE_WINDOW, T - k0)
                w = w_flat[:m * width * n].reshape(m, width, n)
                v = v_flat[:m * width * q].reshape(m, width, q)
                gaussian_generator(seed, trial=block, stream=STREAM_PROCESS, window=window).standard_normal(out=w)
                gaussian_generator(seed, trial=block, stream=STREAM_PRIVACY, window=window).standard_normal(out=v)
            # a chunk ends at the horizon or the window's edge at the latest
            s = min(S, width - at)
            # slice j of each product is the (m, q) @ (q, n) gemm of step
            # k0 + j, on the strides of v[:, at + j] (w[:, at + j])
            np.matmul(v[:, at:at + s].transpose(1, 0, 2), sigma_k_t, out=dv[:s])
            np.matmul(w[:, at:at + s].transpose(1, 0, 2), chol_w_t, out=dw[:s])
            # np.dot makes the gemm np.matmul would, at less call overhead
            for prior, post, prior_next, dv_j, dw_j in steps[:s]:
                np.dot(prior, A_t, out=post)
                post -= dv_j
                np.dot(post, H_t, out=prior_next)
                prior_next += dw_j
            # a squared error adds the squared state components left to right
            np.multiply(e[:s], e[:s], out=d[:s])
            chunk_sq = sq[1:s + 1]
            if n == 1:
                np.copyto(chunk_sq, d[:s, ..., 0])
            else:
                np.add(d[:s, ..., 0], d[:s, ..., 1], out=chunk_sq)
            for c in range(2, n):
                chunk_sq += d[:s, ..., c]
            if paths is not None:
                np.copyto(paths[:, k0:k0 + s], chunk_sq.transpose(1, 0, 2))
            if scale is not None:
                chunk_sq *= scale
            # the sums take the row before the chunk's first step past the
            # burn-in (the last row if there is none), and a reduce along the
            # leading axis adds the rows in order: the bits of sums += sq[j + 1]
            # for each such step j; a sum past float range is stepped again
            # below
            j0 = min(max(burn - k0, 0), s)
            np.copyto(sq[j0], sums)
            with np.errstate(over="ignore"):
                np.add.reduce(sq[j0:s + 1], axis=0, out=sums)
            np.copyto(e[0, 0], e[s, 0])
            k0 += s

    for start in range(lo, hi, NOISE_BLOCK):
        stop = min(start + NOISE_BLOCK, hi)
        m, block = stop - start, start // NOISE_BLOCK
        sums = means[:, start:stop]
        run_block(m, block, sums, None if out is None else out[:, :, start:stop], None)
        sums /= T - burn
        overflowed = ~np.isfinite(sums)
        if overflowed.any():
            # a trial's sum left float range, or its squares did: step the
            # block again from the same noise, each window drawn again from
            # its keys, scaling each square by 1 / (T - burn) before it is
            # added, and keep the means of the sums that overflowed; the
            # others keep their bits
            scaled = np.empty_like(sums)
            run_block(m, block, scaled, None, 1.0 / (T - burn))
            sums[overflowed] = scaled[overflowed]


def simulate(config: SimulationConfig, *, threads: int = 1, paths: bool = True) -> SimulationResult:
    """Run the Monte Carlo experiment; deterministic for a fixed seed.

    ``threads`` controls how trials are chunked across a thread pool and has
    no effect on the output values. With ``paths=False`` the per-step
    squared errors are reduced to per-trial means one noise block at a time,
    drawn one window at a time, and not kept: the result's ``sq_err_prior``
    and ``sq_err_post`` are ``None`` and its summary is the same as with
    ``paths=True``.
    """
    system, sigma = config.resolve()
    T, trials = config.horizon_T, config.trials
    threads = max(1, _as_int(threads, "threads"))
    try:
        # no more than one window of the noise is held at a time, but a run
        # whose noise could not be held as one array is refused before any
        # work, as the paths of such a run would be
        if 8 * trials * T * (system.n + system.q) > sys.maxsize:
            raise ValueError("its noise, trials x horizon_T x (n + q) float64 values, "
                             "has more bytes than an array can address")
        means = np.empty((2, trials))
        out = np.empty((2, T, trials)) if paths else None
        # spans start at block boundaries, so threads never split a noise
        # block; integer ceiling division, so that no thread count rounds the
        # chunk to 0
        chunk = NOISE_BLOCK * -(-trials // (NOISE_BLOCK * threads))
        spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        # each span's process- and privacy-noise buffers, one window of one
        # block long
        width = min(NOISE_WINDOW, T)
        buffers = [(np.empty((size, width, system.n)), np.empty((size, width, system.q)))
                   for size in (min(NOISE_BLOCK, hi - lo) for lo, hi in spans)]
    except (ValueError, MemoryError) as exc:  # a size numpy cannot address, or too large to hold
        raise ValidationError(f"trials={trials} x horizon_T={T} cannot be allocated: {exc}") from None
    sol = solve_filter(system, sigma)
    reports = all_bounds(system, sigma)
    prior_rep, post_rep = reports[APRIORI_TRACE], reports[APOSTERIORI_TRACE]

    burn = min(BURN_IN, T - 1)
    args = (sol, sigma, config.seed, T, burn, config._x0_factor, out, means)
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

    (mean_prior, se_prior), (mean_post, se_post) = map(_mean_and_stderr, means)
    summary = SimulationSummary(
        mean_sq_err_prior=mean_prior,
        mean_sq_err_post=mean_post,
        stderr_sq_err_prior=se_prior,
        stderr_sq_err_post=se_post,
        trials=trials,
        horizon_T=T,
        burn_in=burn,
    )
    return SimulationResult(
        sq_err_prior=out[0].T if paths else None,
        sq_err_post=out[1].T if paths else None,
        bound_prior=(prior_rep.lower, prior_rep.upper),
        bound_post=(post_rep.lower, post_rep.upper),
        summary=summary,
        seed=config.seed,
        solution=sol,
    )


def _float_texts(row: np.ndarray) -> list[str]:
    """``repr(float(x))`` for each entry of a C-ordered 1-D float64 array.

    orjson's shortest round-trip digits and notation equal ``repr``'s for
    1e-4 <= |x| < 1e16. Outside that range ``repr`` writes an exponent
    (``1e-05``, ``1e+16``) where orjson writes ``0.00001`` or ``1e16``, and
    orjson writes ``null`` for inf and nan, so those entries keep ``repr``.
    """
    # imported here so that the commands that write no CSV skip its import
    import orjson

    if not row.size:
        return []
    texts = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii").split(",")
    a = np.abs(row)
    for i in np.flatnonzero(~((a >= 1e-4) & (a < 1e16))).tolist():
        texts[i] = repr(float(row[i]))
    return texts


def write_csv(result: SimulationResult, path) -> None:
    """Write one row per (trial, k): LF line endings, full-precision floats.

    Needs the per-step paths, so ``result`` must come from a
    ``simulate(..., paths=True)`` run. The squared errors are written as
    their ``repr``, a trial's prior errors by one compiled orjson call and
    its posterior errors by another (see ``_float_texts``); every other
    field of a row is a string built once per call.
    """
    if result.sq_err_prior is None:
        raise ValidationError("write_csv needs per-step paths; simulate with paths=True")
    T = result.horizon_T
    for name in ("sq_err_prior", "sq_err_post"):
        shape = np.shape(getattr(result, name))
        if shape != (result.trials, T):
            raise ValidationError(f"{name} must have shape {(result.trials, T)}, got {shape}")
    b = [repr(float(v)) for v in (*result.bound_prior, *result.bound_post)]
    # one trial's text is six pieces per step: trial, ",k,", prior, ",",
    # post and the bound tail; only the trial and the two errors change from
    # trial to trial, so they are slice-assigned into the constant pieces
    parts = [None] * (6 * T)
    parts[1::6] = [f",{k}," for k in range(T)]
    parts[3::6] = [","] * T
    parts[5::6] = [f",{b[0]},{b[1]},{b[2]},{b[3]}\n"] * T
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
                parts[0::6] = [str(lo + i)] * T
                parts[2::6] = _float_texts(scratch[0, i])
                parts[4::6] = _float_texts(scratch[1, i])
                fh.write("".join(parts))
