import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "throughput_per_s", "better": "higher", "bound": 0.25}]


def fake_run(seed, side, wall_s, throughput_per_s, failed=0):
    return {"workload": "w", "seed": seed, "side": side, "wall_s": wall_s,
            "throughput_per_s": throughput_per_s, "attempted": 10, "failed": failed, "correct": True}


def test_summary_honours_each_direction_and_counts_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 3.0, 6.0]  # better, tie, better, better, worse
    runs = [fake_run(s, "parent", p, 10.0 / p) for s, p in enumerate(parent)]
    runs += [fake_run(s, "change", c, 10.0 / c, failed=s % 2) for s, c in enumerate(change)]
    runs.append(fake_run(99, "parent", 100.0, 0.1))  # a run without a partner: no pair
    block = bench_pairs.summarize(runs, METRICS)["w"]

    wall = block["wall_s"]
    assert wall["parent"] == {"median": 3.5, "q1": 2.25, "q3": 4.75, "n": 6}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0, "n": 5}
    assert wall["change_vs_parent"] == pytest.approx(2.5 / 3.5 - 1.0)
    assert wall["parent_iqr"] == pytest.approx(2.5)
    # ties count for neither side, the unpaired run for no pair
    assert wall["pairs_change_better"] == "3/5"
    # higher is better: the same pairs win, since throughput is 10 / wall
    assert block["throughput_per_s"]["pairs_change_better"] == "3/5"
    assert block["failed"] == {"parent": "0/60", "change": "2/50"}


def test_side_order_alternates_with_the_seed():
    assert bench_pairs.side_order(4) == ("parent", "change")
    assert bench_pairs.side_order(5) == ("change", "parent")
    assert bench_pairs.seed_range("201-203") == [201, 202, 203]
    assert bench_pairs.seed_range("7") == [7]


def test_gain_shown_needs_nine_pairs_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [1.0 + 0.01 * s for s in range(10)]  # median 1.045, IQR 0.045

    def gain_shown(change, seeds=range(10)):
        runs = [fake_run(s, "parent", p, 10.0 / p) for s, p in enumerate(parent)]
        runs += [fake_run(s, "change", c, 10.0 / c) for s, c in zip(seeds, change)]
        block = bench_pairs.summarize(runs, METRICS)["w"]
        return block["wall_s"]["gain_shown"], block["throughput_per_s"]["gain_shown"]

    faster = [p - 0.2 for p in parent]
    assert gain_shown(faster) == (True, True)  # each direction
    assert gain_shown([p + 0.2 for p in parent]) == (False, False)  # worse
    assert gain_shown([p - 0.01 for p in parent]) == (False, False)  # 10/10, gap inside the IQR
    assert gain_shown(faster[:9] + [parent[9] + 0.1]) == (True, True)  # 9/10
    assert gain_shown(faster[:8] + [parent[8] + 0.1, parent[9] + 0.1]) == (False, False)  # 8/10
    assert gain_shown(faster[:9] + [parent[9]]) == (True, True)  # a tie counts for neither side
    assert gain_shown(faster, seeds=range(100, 110)) == (False, False)  # no pairs
    assert gain_shown(faster[:9], seeds=range(1, 10)) == (False, False)  # fewer than ten pairs


def test_within_bound_follows_the_no_regression_rule():
    def within_bound(parent, change):
        runs = [fake_run(s, "parent", p, 10.0 / p) for s, p in enumerate(parent)]
        runs += [fake_run(s, "change", c, 10.0 / c) for s, c in enumerate(change)]
        block = bench_pairs.summarize(runs, METRICS)["w"]
        return block["wall_s"]["within_bound"], block["throughput_per_s"]["within_bound"]

    steady = [1.0, 1.01, 0.99]  # median 1.0, relative IQR 0.01
    assert within_bound(steady, [1.2, 1.21, 1.19]) == (True, True)  # 20 % worse
    assert within_bound(steady, [1.4, 1.41, 1.39]) == (False, False)  # 40 % worse
    assert within_bound(steady, [0.5, 0.51, 0.49]) == (True, True)  # better
    # each metric in its own direction: 30 % more wall time is 23 % less
    # throughput, since throughput is 10 / wall
    assert within_bound(steady, [1.3, 1.31, 1.29]) == (False, True)
    # a parent IQR beyond the bound leaves the verdict open, however the
    # medians compare, unless every change run beats every parent run
    noisy = [1.0, 1.6, 2.2]  # median 1.6, IQR 0.6
    assert within_bound(noisy, [1.6, 1.6, 1.6]) == ("unresolved", "unresolved")
    assert within_bound(noisy, [0.5, 0.9, 2.3]) == ("unresolved", "unresolved")
    assert within_bound(noisy, [0.5, 0.7, 0.9]) == (True, True)
