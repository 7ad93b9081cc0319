"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 bench/steady.py [--runs 10] [--traced]

Runs the command in BENCHMARK.json once per seed, 1 to ``--runs``, for each
workload it lists, with its ``run_seconds``, and prints for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the inter-quartile distance as a share of the median,
against the metric's bound.  A spread above a third of its bound is marked ``wide``; above the
bound, ``OVER``.  ``--traced`` also makes two traced runs of each workload
with one seed and requires every count metric to repeat exactly.  The full
results go to ``.bench_tmp/steady-<workload>.json``.  Exits 1 if a run
fails, a check fails, a gated spread exceeds its bound or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace, report) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
                              "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["report"] = json.loads(report.read_text(encoding="utf-8"))
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(bench, workload, seeds, out_dir) -> bool:
    runs = []
    for seed in seeds:
        runs.append(run_once(bench, workload, seed, 0, out_dir / f"report-{workload}-{seed}.json"))
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    ok = all(r["correct"] for r in runs)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    def value(run, name):
        if name in run["metrics"]:
            return run["metrics"][name]["value"]
        return next(row["value"] for row in run["report"]["rows"] if row["name"] == name)

    # the gated metrics, then every other row of the readable table
    names = list(runs[0]["metrics"])
    names += [row["name"] for row in runs[0]["report"]["rows"] if row["name"] not in names]
    print(f"{workload}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}")
    print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name in names:
        values = [value(r, name) for r in runs]
        med, q1, q3, sp = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = "OVER" if sp > bound else "wide" if sp > bound / 3 else "steady"
            if sp > bound:
                ok = False
        print(f"  {name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
              f"{'-' if bound is None else bound:>6} {mark}")
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": sp, "bound": bound}
    env = runs[0]["report"]["env"]
    (out_dir / f"steady-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seeds": list(seeds), "env": env, "metrics": summary,
         "correct": [r["correct"] for r in runs]}, indent=1), encoding="utf-8")
    return ok


def counts_repeat(bench, workload, seed, out_dir) -> bool:
    a, b = (run_once(bench, workload, seed, 1, out_dir / f"report-{workload}-traced{i}.json")
            for i in (0, 1))
    differ = [n for n in tracing.count_metric_names() + ["linalg.riccati_iterations_max"]
              if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    for n in differ:
        print(f"  COUNT DIFFERS {n}: {a['metrics'][n]['value']} vs {b['metrics'][n]['value']}")
    print(f"{workload}: traced counts {'repeat exactly' if not differ else 'DIFFER'}; "
          f"checks {'passed' if a['correct'] and b['correct'] else 'FAILED'}")
    return not differ and a["correct"] and b["correct"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_tmp"
    out_dir.mkdir(exist_ok=True)
    seeds = range(1, args.runs + 1)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        ok &= steadiness(bench, workload, seeds, out_dir)
        if args.traced:
            ok &= counts_repeat(bench, workload, seeds[0], out_dir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
