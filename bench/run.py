"""dpkalman benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--report OUT.json]

Run it from the root of a source checkout; it puts ``src`` on the path
itself, since the package need not be installed.  Untraced (``--trace 0``),
it times set-up in several fresh interpreters, runs the workload's closed
loop in one more fresh interpreter, checks the outputs, and prints the
end-to-end metrics; their times are host-normalized (see hostclock.py) and
the table also gives them raw.  Traced (``--trace 1``), it prints per-layer metrics
from spans recorded around dpkalman's public functions.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

TIME_LIMIT_S = 170.0
SETUP_PROBES = 20
# operations an untraced run needs beyond its p90 latency
MIN_BEYOND_P90 = 10
# a fresh process has this long to build its models and say so
SETUP_TIMEOUT_S = 30.0
# host-clock kernel runs before and after each set-up probe
KERNEL_REPEATS = 3


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": sha}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kernel_s() -> float:
    return statistics.median(hostclock.kernel_s() for _ in range(KERNEL_REPEATS))


def time_setup(workload: str, params_path: Path, probes: int) -> list[tuple[float, float]]:
    """Raw and host-normalized seconds from spawning a fresh interpreter
    until the workload is ready.

    The host clock's kernel runs in this process just before the spawn and
    just after ``ready``, on the one CPU that this process and the probe
    are pinned to, and the probe's time is scaled by its mean.
    """
    times = []
    for _ in range(probes):
        before = _kernel_s()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--params", str(params_path), "--setup-only"],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            raw = time.perf_counter() - start
            ref = 0.5 * (before + _kernel_s())
            times.append((raw, raw * hostclock.REFERENCE_S / ref))
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return times


def run_worker(workload, params_path, seconds, trace, result_path, spans_path, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--params", str(params_path), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result_path)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    # the worker's own stdout goes to our stderr: our stdout carries the result
    subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=sys.stderr, check=True,
                   timeout=timeout)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload, setup_s, raw) -> tuple[dict, list[tuple], list[str]]:
    """Gated metrics for the JSON line, rows for the readable table, and
    problems with the run's sizing."""
    setup_raw_s, setup_norm_s = zip(*setup_s)
    throughput = raw["work"] / raw["timed_s"]
    metrics = {
        "setup_s": (statistics.median(setup_norm_s), "s"),
        "wall_s": (statistics.median(raw["body_s"]), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    lat_ms = [1e3 * t for t in raw["latencies_s"]]
    problems = []
    rows = [
        ("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup_s)} fresh processes"),
        ("wall_s", metrics["wall_s"][0], "s", f"median of {len(raw['body_s'])} bodies"),
        (workload.work_name, throughput, "1/s", f"{raw['work']} units in {raw['timed_s']:.3f} s"),
    ]
    if workload.percentiles:
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
        beyond = sum(1 for v in lat_ms if v > p90)
        rows += [("op_p50_ms", statistics.median(lat_ms), "ms", f"{len(lat_ms)} operations"),
                 ("op_p90_ms", p90, "ms", f"{len(lat_ms)} operations, {beyond} beyond")]
        if beyond < MIN_BEYOND_P90:
            problems.append(f"only {beyond} operations beyond the p90, "
                            f"fewer than {MIN_BEYOND_P90}")
    rows += [("peak_rss_mb", raw["peak_rss_mb"], "MB", "ru_maxrss of the run's process"),
             ("failed_frac", raw["failed"] / raw["attempted"], "1",
              f"{raw['failed']} of {raw['attempted']} operations"),
             ("setup_raw_s", statistics.median(setup_raw_s), "s", "setup_s before normalizing"),
             ("wall_raw_s", statistics.median(raw["body_raw_s"]), "s", "wall_s before normalizing"),
             ("clock_kernel_ms", 1e3 * raw["kernel_s"], "ms",
              f"median host-clock kernel time; {1e3 * hostclock.REFERENCE_S:g} ms uncontended")]
    return metrics, rows, problems


def per_layer(raw) -> tuple[dict, list[tuple]]:
    units = {k: unit for k, (unit, _, _) in tracing.LAYER_METRICS.items()}
    units.update(tracing.EXTRA_LAYER_UNITS)
    metrics = {k: (raw["layers"][k], units[k]) for k in sorted(units)}
    rows = [(k, v, u, "") for k, (v, u) in metrics.items()]
    rows.append(("traced bodies", len(raw["traced_body_s"]), "count",
                 f"then {len(raw['untraced_body_s'])} untraced; {raw['spans']} spans"))
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result with its environment here")
    args = parser.parse_args(argv)

    if not (SRC / "dpkalman" / "__init__.py").is_file():
        print(f"error: no dpkalman sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()  # before pinning, so nproc counts every CPU
    started = time.perf_counter()
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        params = workload.write_inputs(args.seed, str(tmp))
        params_path = tmp / "params.json"
        params_path.write_text(json.dumps(params), encoding="utf-8")
        if args.trace:
            spans = TMP_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
            raw = run_worker(args.workload, params_path, args.seconds, 1, tmp / "result.json",
                             spans, TIME_LIMIT_S - (time.perf_counter() - started))
            metrics, rows = per_layer(raw)
        else:
            # one CPU for this process and its children, so the host clock's
            # kernel runs where the set-up probe it scales runs
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            # half the set-up probes before the loop and half after, so the
            # median spans the run instead of one moment of the host's load
            setup_s = time_setup(args.workload, params_path, SETUP_PROBES // 2)
            raw = run_worker(args.workload, params_path, args.seconds, 0, tmp / "result.json",
                             None, TIME_LIMIT_S - (time.perf_counter() - started))
            setup_s += time_setup(args.workload, params_path, SETUP_PROBES - SETUP_PROBES // 2)
            metrics, rows, problems = end_to_end(workload, setup_s, raw)
            raw["problems"] += problems
            raw["setup_probes_s"] = setup_s
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not raw["problems"] and raw["succeeded"] > 0
    print(f"dpkalman benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':34} {'value':>16}  {'unit':6} note")
    for name, value, unit, note in rows:
        print(f"{name:34} {value:16.6g}  {unit:6} {note}")
    for msg, n in sorted(raw["errors"].items()):
        print(f"failed operation x{n}: {msg}")
    for msg in raw.get("notes", []):
        print(f"note: {msg}")
    for msg in raw["problems"]:
        print(f"CHECK FAILED: {msg}")
    print("checks: " + ("passed" if correct else "FAILED"))
    if args.report:
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "correct": correct,
                  "rows": [{"name": n, "value": v, "unit": u, "note": t} for n, v, u, t in rows],
                  "raw": raw}
        Path(args.report).write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
