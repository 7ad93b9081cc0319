"""Span tracer that wraps dpkalman's public functions from outside the package.

``Tracer.install`` replaces each target function at every module attribute
of the ``dpkalman`` package that is bound to it, so a call made through any
import path records a span: name, start, end, parent span and operation id.
Some spans also carry counts (Riccati iterations, CSV bytes, filter steps,
computed simulation array size).  Spans stay in memory until the run ends.
``Tracer.remove`` puts every original binding back and checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time

# (module, attribute) of every traced function; a dotted attribute names a
# classmethod.  The span name is the module's last component plus the
# function name.
TARGETS = (
    ("dpkalman.linalg", "solve_dare"),
    ("dpkalman.linalg", "observability_check"),
    ("dpkalman.linalg", "controllability_check"),
    ("dpkalman.calibration", "calibrate_apriori"),
    ("dpkalman.calibration", "calibrate_aposteriori"),
    ("dpkalman.calibration", "verify_calibration"),
    ("dpkalman.bounds", "all_bounds"),
    ("dpkalman.bounds", "apriori_trace_bounds"),
    ("dpkalman.bounds", "aposteriori_trace_bounds"),
    ("dpkalman.privacy", "PrivacyConfig.for_system"),
    ("dpkalman.privacy", "privatize"),
    ("dpkalman.rng", "gaussian_generator"),
    ("dpkalman.simulation", "simulate"),
    ("dpkalman.simulation", "write_csv"),
    ("dpkalman.filtering", "solve_filter"),
    ("dpkalman.filtering", "run_filter"),
    ("dpkalman.network", "compose"),
    ("dpkalman.network", "per_agent_slices"),
    ("dpkalman.config", "load_config"),
    ("dpkalman.cli", "main"),
)

# Per-layer metrics: name -> (unit, spans it reads, what it takes from them).
# "ms" sums durations, "self_ms" sums self times, "calls" counts spans, and
# any other key sums that count over the spans.
LAYER_METRICS = {
    "linalg.solve_dare.self_ms": ("ms", ("linalg.solve_dare",), "self_ms"),
    "linalg.solve_dare.calls": ("count", ("linalg.solve_dare",), "calls"),
    "linalg.riccati_iterations": ("count", ("linalg.solve_dare",), "iterations"),
    "linalg.rank_checks.calls": (
        "count", ("linalg.observability_check", "linalg.controllability_check"), "calls"),
    "linalg.rank_checks.ms": (
        "ms", ("linalg.observability_check", "linalg.controllability_check"), "ms"),
    "calibration.calibrate.ms": (
        "ms", ("calibration.calibrate_apriori", "calibration.calibrate_aposteriori"), "ms"),
    "calibration.verify.self_ms": ("ms", ("calibration.verify_calibration",), "self_ms"),
    "bounds.all_bounds.ms": ("ms", ("bounds.all_bounds",), "ms"),
    "bounds.all_bounds.calls": ("count", ("bounds.all_bounds",), "calls"),
    "privacy.for_system.ms": ("ms", ("privacy.for_system",), "ms"),
    "rng.generators_built": ("count", ("rng.gaussian_generator",), "calls"),
    "rng.generator_setup.ms": ("ms", ("rng.gaussian_generator",), "ms"),
    "simulation.simulate.self_ms": ("ms", ("simulation.simulate",), "self_ms"),
    "simulation.array_mb": ("MB", ("simulation.simulate",), "array_mb"),
    "simulation.write_csv.ms": ("ms", ("simulation.write_csv",), "ms"),
    "simulation.csv_bytes": ("count", ("simulation.write_csv",), "csv_bytes"),
    "filtering.run_filter.ms": ("ms", ("filtering.run_filter",), "ms"),
    "filtering.run_filter.steps": ("count", ("filtering.run_filter",), "steps"),
    "filtering.solve_filter.ms": ("ms", ("filtering.solve_filter",), "ms"),
    "privacy.privatize.ms": ("ms", ("privacy.privatize",), "ms"),
    "network.compose.ms": ("ms", ("network.compose",), "ms"),
    "network.per_agent_slices.ms": ("ms", ("network.per_agent_slices",), "ms"),
    "config.load_config.ms": ("ms", ("config.load_config",), "ms"),
    "cli.main.self_ms": ("ms", ("cli.main",), "self_ms"),
}
# Metrics not summed from spans: the largest Riccati iteration count, and the
# two ratios the traced run measures itself.
EXTRA_LAYER_UNITS = {
    "linalg.riccati_iterations_max": "count",
    "simulation.thread_speedup": "ratio",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, end, parent, op, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.counts = counts

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append((span.end - span.start) - _covered(c for c in clipped if c[1] > c[0]))
    return out


def _counts_for(name, bound, result) -> dict | None:
    if name == "linalg.solve_dare":
        return {"iterations": int(result.iterations)}
    if name == "simulation.write_csv":
        return {"csv_bytes": os.path.getsize(bound.arguments["path"])}
    if name == "filtering.run_filter":
        return {"steps": int(len(bound.arguments["y_tilde"]))}
    if name == "simulation.simulate":
        system, _ = bound.arguments["config"].resolve()
        cfg = bound.arguments["config"]
        # sq_err_prior, sq_err_post, process noise (n) and privacy noise (q),
        # each (trials, T) float64: what simulate allocates up front
        cells = cfg.trials * cfg.horizon_T * (2 + system.n + system.q)
        return {"array_mb": cells * 8 / 2**20}
    return None


class Tracer:
    """Records spans around every call of the traced dpkalman functions.

    Spans are kept as columns of plain values rather than one object per
    call, so a run with many short calls adds little garbage-collector work.
    """

    def __init__(self):
        self.op = "setup"  # operation id given to new spans
        self.riccati: list[tuple] = []  # (system, V, RiccatiSolution) per solve
        self._names, self._starts, self._ends, self._parents, self._ops = [], [], [], [], []
        self._counts: dict[int, dict] = {}
        self._local = threading.local()
        self._patches: list[tuple] = []  # (owner, attribute, original)

    @property
    def spans(self) -> list[Span]:
        return [Span(*row, self._counts.get(i)) for i, row in enumerate(
            zip(self._names, self._starts, self._ends, self._parents, self._ops))]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name):
        signature = inspect.signature(func)
        needs_args = name in ("linalg.solve_dare", "simulation.write_csv",
                              "filtering.run_filter", "simulation.simulate")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = len(self._names)
            self._names.append(name)
            self._parents.append(stack[-1] if stack else None)
            self._ops.append(self.op)
            self._ends.append(0.0)
            stack.append(index)
            self._starts.append(time.perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self._ends[index] = time.perf_counter()
                stack.pop()
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                self._counts[index] = _counts_for(name, bound, result)
                if name == "linalg.solve_dare":
                    self.riccati.append((bound.arguments["system"], bound.arguments["V"], result))
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap each target at every dpkalman module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dpkalman" or n.startswith("dpkalman."))]
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, classmethod(self._wrap(original.__func__, name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        """Restore every original binding; raise if one is not restored."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        for owner, key, original in self._patches:
            current = vars(owner)[key]
            if current is not original:
                raise RuntimeError(f"tracer left {owner.__name__}.{key} wrapped")
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _aggregate(spans) -> dict:
    """(phase, span name) -> calls, ms, self_ms and each count, summed.

    The phase is the op id up to its first "/": "setup" or "b<body>".
    """
    agg = {}
    for span, self_s in zip(spans, self_times(spans)):
        a = agg.setdefault((span.op.split("/")[0], span.name),
                           {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        a["calls"] += 1
        a["ms"] += 1e3 * (span.end - span.start)
        a["self_ms"] += 1e3 * self_s
        for key, value in (span.counts or {}).items():
            a[key] = a.get(key, 0) + value
    return agg


def layer_totals(agg, phase) -> dict:
    """Per-layer metrics of one phase."""
    return {metric: sum(agg.get((phase, n), {}).get(what, 0) for n in names)
            for metric, (_, names, what) in LAYER_METRICS.items()}


def layer_metrics(spans, bodies) -> tuple[dict, list[dict]]:
    """Per-layer metrics of one set-up plus the mean traced body.

    Returns the metrics and the per-body totals, so that callers can check
    that counts repeat exactly from body to body.
    """
    agg = _aggregate(spans)
    setup = layer_totals(agg, "setup")
    per_body = [layer_totals(agg, f"b{b}") for b in bodies]
    metrics = {k: setup[k] + statistics.fmean(b[k] for b in per_body) for k in setup}
    iterations = [s.counts["iterations"] for s in spans
                  if s.name == "linalg.solve_dare" and s.counts]
    metrics["linalg.riccati_iterations_max"] = max(iterations, default=0)
    return metrics, per_body


def count_metric_names() -> list[str]:
    """Per-layer metrics that are counts, which must repeat exactly."""
    return [k for k, (unit, _, _) in LAYER_METRICS.items() if unit in ("count", "MB")]
