"""Self-tests of the benchmark.  Run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dpkalman  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, EpsSweep, NetStream  # noqa: E402


@pytest.fixture
def tmp_in_checkout():
    path = HERE.parent / ".bench_tmp" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, "b0/0"),
        S("a", 1.0, 4.0, 0, "b0/0"),
        S("a.child", 2.0, 3.0, 1, "b0/0"),
        S("b", 3.0, 6.0, 0, "b0/0"),    # overlaps a: covered once
        S("c", 9.0, 12.0, 0, "b0/0"),   # runs past its parent: clipped
        S("other", 20.0, 21.5, None, "b0/1"),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.5])


def test_layer_totals_sum_self_and_counts_by_phase():
    S = tracing.Span
    spans = [
        S("linalg.solve_dare", 0.0, 0.010, None, "b0/0", {"iterations": 14}),
        S("linalg.observability_check", 0.001, 0.002, 0, "b0/0"),
        S("linalg.solve_dare", 0.0, 0.004, None, "setup", {"iterations": 7}),
        S("linalg.solve_dare", 1.0, 1.010, None, "b1/3", {"iterations": 14}),
    ]
    metrics, per_body = tracing.layer_metrics(spans, range(2))
    assert per_body[0]["linalg.solve_dare.self_ms"] == pytest.approx(9.0)
    assert per_body[0]["linalg.rank_checks.calls"] == 1
    # one set-up plus the mean body
    assert metrics["linalg.riccati_iterations"] == 7 + 14
    assert metrics["linalg.solve_dare.calls"] == 1 + 1
    assert metrics["linalg.riccati_iterations_max"] == 14


def test_host_clock_scales_each_gap_by_the_kernel_time_at_its_ends():
    clock = hostclock.HostClock()
    # samples at 0, 1 and 3 s; the kernel slows from 1x to 2x to 2x its reference
    ref = hostclock.REFERENCE_S
    clock.starts = [0.0, 1.0, 3.0]
    clock.ends = [ref, 1.0 + 2 * ref, 3.0 + 2 * ref]
    clock.kernel_times = [ref, 2 * ref, 2 * ref]
    raw, norm = clock.measure(0.5, 3.0)
    # [0.5, 1] at mean kernel 1.5x, then [1 + 2 ref, 3] at 2x; sampling left out
    assert raw == pytest.approx(0.5 + 2.0 - 2 * ref)
    assert norm == pytest.approx(0.5 / 1.5 + (2.0 - 2 * ref) / 2.0)
    with pytest.raises(ValueError):
        clock.measure(0.5, 4.0)


def test_host_clock_samples_while_work_runs_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(interval_s=0.005) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) > 5
    raw, norm = clock.measure(start, end)
    assert 0.0 < raw < end - start and norm > 0.0


def _bindings():
    """Every attribute of every dpkalman module, and the classmethod descriptor."""
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "dpkalman" or n.startswith("dpkalman.")}
    return mods, dpkalman.privacy.PrivacyConfig.__dict__["for_system"]


def test_install_wraps_every_binding_and_remove_restores_them():
    original = dpkalman.linalg.solve_dare
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (dpkalman, dpkalman.linalg, dpkalman.calibration, dpkalman.filtering,
                    dpkalman.cli):
            assert mod.solve_dare is not original
            assert mod.solve_dare is dpkalman.linalg.solve_dare
        assert dpkalman.simulation.gaussian_generator is dpkalman.privacy.gaussian_generator
        assert dpkalman.simulation.gaussian_generator is not before[0]["dpkalman.rng"]["gaussian_generator"]
    finally:
        tracer.remove()
    assert dpkalman.linalg.solve_dare is original
    after = _bindings()
    assert after[1] is before[1]
    for name, attrs in before[0].items():
        assert all(after[0][name][k] is v for k, v in attrs.items()), name


def test_traced_run_restores_wrappers_and_counts_repeat(tmp_in_checkout):
    before = _bindings()
    workload = WORKLOADS["mc_long_export"]
    params = workload.write_inputs(3, tmp_in_checkout)
    result = worker.run_traced(workload, lambda: workload.setup(params), 0.0, None)
    assert dpkalman.linalg.solve_dare is before[0]["dpkalman.linalg"]["solve_dare"]
    after = _bindings()
    assert after[1] is before[1]
    for name, attrs in before[0].items():
        assert all(after[0][name][k] is v for k, v in attrs.items()), name
    assert result["problems"] == []
    layers = result["layers"]
    assert layers["rng.generators_built"] == 2 * workload.trials
    assert layers["simulation.csv_bytes"] > 0
    assert layers["linalg.solve_dare.calls"] == 1


def test_seeded_inputs_are_deterministic(tmp_in_checkout):
    a, b, c = (EpsSweep.dense_plant(s) for s in (5, 5, 6))
    for name in ("H", "C", "W"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.H, c.H)
    assert NetStream.agent_specs(5, 12) == NetStream.agent_specs(5, 12)
    assert NetStream.agent_specs(5, 12) != NetStream.agent_specs(6, 12)
    net = WORKLOADS["net_stream"]
    s1 = net.setup({"seed": 5})
    s2 = net.setup({"seed": 5})
    assert np.array_equal(s1.y, s2.y) and np.array_equal(s1.x, s2.x)
    for name, wl in WORKLOADS.items():
        docs = []
        for sub in ("x", "y"):
            d = os.path.join(tmp_in_checkout, name + sub)
            os.makedirs(d)
            params = wl.write_inputs(5, d)
            docs.append(Path(params["config"]).read_text() if "config" in params else params)
        assert docs[0] == docs[1], name


def test_no_workload_starts_more_threads_than_nproc(tmp_in_checkout, monkeypatch):
    nproc = len(os.sched_getaffinity(0))
    peak = [0]
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        peak[0] = max(peak[0], threading.active_count() - 1)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for name, wl in WORKLOADS.items():
        params = wl.write_inputs(1, tmp_in_checkout)
        state = wl.setup(params)
        rec = worker.Recorder()
        worker.run_bodies(wl, state, rec, 0.0, 1, 0)
        if hasattr(wl, "thread_speedup"):
            wl.thread_speedup(state)
        assert peak[0] <= nproc, name
    if nproc > 1:
        # the thread-speedup measurement starts a pool, so threads were seen
        assert peak[0] >= 1


def test_benchmark_json_lists_every_metric_the_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = set(tracing.LAYER_METRICS) | set(tracing.EXTRA_LAYER_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    raw = {"work": 10, "timed_s": 1.0, "body_s": [0.5, 0.5], "body_raw_s": [0.9, 0.8],
           "kernel_s": 4e-4, "latencies_s": [0.1] * 10, "peak_rss_mb": 50.0, "failed": 0,
           "attempted": 10}
    for wl in WORKLOADS.values():
        metrics, _, problems = run.end_to_end(wl, [(0.4, 0.2)], raw)
        assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
            [(k, unit) for k, (_, unit) in metrics.items()]
        # ten equal latencies leave none beyond the p90: a sizing problem
        assert bool(problems) == wl.percentiles, wl.name
