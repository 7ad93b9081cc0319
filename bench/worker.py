"""One workload in a fresh interpreter: set up, run the closed loop, check.

    python3 bench/worker.py --workload NAME --params PARAMS.json --setup-only
    python3 bench/worker.py --workload NAME --params PARAMS.json \
        --seconds S --trace 0|1 --result OUT.json [--spans SPANS.jsonl]

``--setup-only`` prints ``ready`` once the workload's models are built and
exits; ``run.py`` times that from process start.  Otherwise the worker runs
whole bodies for about ``--seconds`` and writes its raw result to
``--result``; untraced, its times are host-normalized (see hostclock.py).
With ``--trace 1`` it alternates traced and untraced bodies, with raw
times, to measure the layers and the tracing overhead.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

import tracing
from hostclock import HostClock
from workloads import WORKLOADS, Recorder, RICCATI_RTOL, scipy_steady_state


def run_body(workload, state, rec) -> float:
    """Run one body; its time is the sum of its operations' latencies, so
    work done between operations (inline checks) is not counted."""
    rec.body += 1
    n0 = len(rec.ops)
    workload.body(state, rec)
    return sum(op.latency for op in rec.ops[n0:])


def run_bodies(workload, state, rec, seconds, min_bodies, min_ops) -> list[float]:
    """Run whole bodies until the next one would end past ``seconds``."""
    start = time.perf_counter()
    first_op = len(rec.ops)
    times = []
    while True:
        times.append(run_body(workload, state, rec))
        elapsed = time.perf_counter() - start
        enough = len(times) >= min_bodies and len(rec.ops) - first_op >= min_ops
        if enough and elapsed * (len(times) + 1) / len(times) > seconds:
            return times


def _op_tally(ops, problems) -> tuple[int, int, dict]:
    flagged = {i for i, _ in problems if i >= 0}
    errors = {}
    for op in ops:
        if op.error is not None:
            errors[op.error] = errors.get(op.error, 0) + 1
    failed = sum(1 for i, op in enumerate(ops) if op.error is not None or i in flagged)
    return len(ops), failed, errors


def _riccati_problems(captured) -> list[str]:
    problems = []
    for system, V, ric in captured:
        ref, _ = scipy_steady_state(system, V)
        err = np.linalg.norm(ric.sigma - ref) / np.linalg.norm(ref)
        if err > RICCATI_RTOL:
            problems.append(f"Riccati solution (n={system.n}) is {err:.2e} from scipy")
    return problems


def run_untraced(workload, state, seconds) -> dict:
    """Run bodies under a host clock; every latency becomes host-normalized."""
    rec = Recorder()
    with HostClock() as clock:
        run_bodies(workload, state, rec, seconds, workload.min_bodies, workload.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    body_s, body_raw_s = {}, {}
    for op in rec.ops:
        raw, op.latency = clock.measure(op.start, op.end)
        body_s[op.body] = body_s.get(op.body, 0.0) + op.latency
        body_raw_s[op.body] = body_raw_s.get(op.body, 0.0) + raw
    problems = workload.check(state, rec.ops)
    attempted, failed, errors = _op_tally(rec.ops, problems)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": [msg for _, msg in problems],
        "succeeded": attempted - sum(errors.values()),
        "body_s": list(body_s.values()),
        "body_raw_s": list(body_raw_s.values()),
        "kernel_s": clock.median_kernel_s(),
        "latencies_s": [op.latency for op in rec.ops],
        "work": sum(op.work for op in rec.ops),
        "timed_s": sum(op.latency for op in rec.ops),
        "peak_rss_mb": peak_rss_mb,
    }


def run_traced(workload, state_fn, seconds, spans_path) -> dict:
    """Set up traced, then alternate traced and untraced bodies.

    Alternating keeps drift in the host's speed out of the tracing overhead.
    The wrappers are removed after set-up and after every traced body.  A
    set-up that only serves the benchmark's checks runs untraced.
    """
    tracer = tracing.Tracer()
    if workload.trace_setup:
        tracer.install()
    try:
        state = state_fn()
    finally:
        tracer.remove()
    rec, plain = Recorder(tracer), Recorder()
    traced_s, plain_s = [], []
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            traced_s.append(run_body(workload, state, rec))
        finally:
            tracer.op = "after"
            tracer.remove()
        plain_s.append(run_body(workload, state, plain))
        pairs = len(traced_s)
        if pairs >= 2 and (time.perf_counter() - start) * (pairs + 1) / pairs > seconds:
            break
    problems = []
    speedup = 0.0
    if hasattr(workload, "thread_speedup"):
        speedup, more = workload.thread_speedup(state)
        problems += more

    spans = tracer.spans
    layers, per_body = tracing.layer_metrics(spans, range(len(traced_s)))
    layers["simulation.thread_speedup"] = speedup
    layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    for name in tracing.count_metric_names():
        seen = [b[name] for b in per_body]
        if len(set(seen)) != 1:
            problems.append(f"count {name} differs between traced bodies: {seen}")
    # today's per-stream keying, which a change to RNG keying moves by design
    built, today = per_body[0]["rng.generators_built"], workload.generators_per_body()
    notes = [f"rng.generators_built per body: {built} "
             f"({'matches' if built == today else 'DIFFERS from'} today's {today})"]
    if hasattr(workload, "count_notes"):
        notes += workload.count_notes()
    problems += _riccati_problems(tracer.riccati)

    op_problems = workload.check(state, rec.ops)
    plain_problems = workload.check(state, plain.ops)
    problems += [msg for _, msg in op_problems + plain_problems]
    attempted, failed, errors = _op_tally(rec.ops, op_problems)
    attempted2, failed2, errors2 = _op_tally(plain.ops, plain_problems)
    for msg, n in errors2.items():
        errors[msg] = errors.get(msg, 0) + n
    if spans_path:
        tracer.write(spans_path)
    return {
        "attempted": attempted + attempted2,
        "failed": failed + failed2,
        "errors": errors,
        "problems": problems,
        "notes": notes,
        "succeeded": attempted + attempted2 - sum(errors.values()),
        "layers": layers,
        "traced_body_s": traced_s,
        "untraced_body_s": plain_s,
        "spans": len(spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--params", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with open(args.params, encoding="utf-8") as fh:
        params = json.load(fh)
    if args.trace:
        result = run_traced(workload, lambda: workload.setup(params), args.seconds, args.spans)
    else:
        state = workload.setup(params)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result = run_untraced(workload, state, args.seconds)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
