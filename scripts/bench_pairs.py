"""Run the benchmark on two checkouts in alternating pairs and summarize them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 201-210 [--trace 0|1] --out PAIRS.json

Reads ``BENCHMARK.json`` from the change checkout and runs its command,
``--workload NAME --seed N --seconds <run_seconds> --trace 0|1``, from the
root of each checkout, one pair per seed: the parent side first on even
seeds, the change side first on odd ones. Runs go one at a time, never in
parallel, and neither checkout is edited.

``--out`` collects the runs: if the file exists its runs are kept and the new
ones added, so one file can hold several workloads run by several calls.
Untraced runs are summarized per workload and end-to-end metric: each side's
median and quartiles, ``change_vs_parent`` (change median over parent median,
minus 1), ``parent_iqr``, ``pairs_change_better``, the pairs of one seed in
which the change reads better in the metric's ``better`` direction, ties
counting for neither side, and ``gain_shown``: whether at least ten pairs ran,
the change is better in at least 9/10 of them, and its median beats the
parent's by more than ``parent_iqr`` in that direction; and ``within_bound``,
the no-regression rule with that metric's ``bound``: true when the change's
median is worse than the parent's by no more than ``bound`` of the parent's
median, false when it is worse by more, and "unresolved" when the parent's
IQR exceeds ``bound`` of its median, unless every change run beats every
parent run. Traced runs
(``--trace 1``) are kept whole under ``per_layer``. These are the ``runs``,
``summary`` and ``per_layer`` blocks of a ``BENCH_<pr>.json`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """``"201-210"`` or ``"7"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def side_order(seed: int) -> tuple[str, str]:
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run from ``root``; its last stdout line is the result."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, compare the change side to the parent.

    ``runs`` are untraced run records (workload, seed, side, one value per
    metric, attempted, failed); ``metrics`` are ``BENCHMARK.json``'s
    ``end_to_end`` entries, each with a ``name``, ``better`` of "lower" or
    "higher", and a relative ``bound``.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if len(p) == 2]
        block = {}
        for metric in metrics:
            name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
            sides = {s: [r[name] for r in mine if r["side"] == s] for s in ("parent", "change")}
            if not sides["parent"] or not sides["change"]:
                continue
            parent, change = _stats(sides["parent"]), _stats(sides["change"])
            better = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
            iqr = parent["q3"] - parent["q1"]
            bound, base = metric["bound"], parent["median"]
            if iqr > bound * base and not all(sign * (c - p) < 0 for c in sides["change"]
                                              for p in sides["parent"]):
                within = "unresolved"
            else:
                within = sign * (change["median"] - base) <= bound * base
            block[name] = {
                "parent": parent,
                "change": change,
                "change_vs_parent": change["median"] / parent["median"] - 1.0,
                "parent_iqr": iqr,
                "pairs_change_better": f"{better}/{len(pairs)}",
                "gain_shown": (len(pairs) >= 10 and 10 * better >= 9 * len(pairs)
                               and sign * (parent["median"] - change["median"]) > iqr),
                "within_bound": within,
            }
        block["failed"] = {s: f"{sum(r['failed'] for r in mine if r['side'] == s)}/"
                              f"{sum(r['attempted'] for r in mine if r['side'] == s)}"
                           for s in ("parent", "change")}
        summary[workload] = block
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 201-210")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"command": bench["command"], "runs": [], "per_layer": {}})
    roots = {"parent": args.parent, "change": args.change}
    for seed in args.seeds:
        for side in side_order(seed):
            result = run_once(roots[side], bench["command"], args.workload, seed,
                              bench["run_seconds"], args.trace)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if args.trace:
                key = f"{args.workload} seed {seed}"
                doc["per_layer"].setdefault(key, {})[side] = values
                doc["per_layer"][key][f"{side}_failed"] = f"{result['failed']}/{result['attempted']}"
                shown = ""
            else:
                doc["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                    **{m["name"]: values[m["name"]] for m in metrics},
                                    "attempted": result["attempted"], "failed": result["failed"],
                                    "correct": result["correct"]})
                shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics)
            print(f"{args.workload} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
            # written after every run, so an interrupted series keeps what it ran
            doc["summary"] = summarize(doc["runs"], metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, block in doc["summary"].items():
        for name, s in block.items():
            if name != "failed":
                print(f"{workload:15} {name:17} parent {s['parent']['median']:.6g} "
                      f"change {s['change']['median']:.6g} ({s['change_vs_parent']:+.1%}), "
                      f"parent IQR {s['parent_iqr']:.3g}, change better {s['pairs_change_better']}"
                      f"{', gain shown' if s['gain_shown'] else ''}, within bound "
                      f"{s['within_bound']}")
        print(f"{workload:15} failed            parent {block['failed']['parent']} "
              f"change {block['failed']['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
