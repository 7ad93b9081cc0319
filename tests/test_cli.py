import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dpkalman
import dpkalman.cli
import dpkalman.linalg
from dpkalman import CalibrationTarget, solve_dare, verify_calibration
from dpkalman.cli import main
from dpkalman.config import CalibrationSpec, PrivacySpec, SimulationSpec, load_config, loads_config
from dpkalman.errors import ConfigError
from dpkalman.privacy import noise_scales
from helpers import extreme_magnitude

LN3 = math.log(3.0)


def matrix(rows, cols, entries):
    return {"rows": rows, "cols": cols, "entries": entries}


def case_study_doc(**overrides):
    doc = {
        "system": {
            "H": matrix(2, 2, [[1.0, 1.0], [0.0, 1.0]]),
            "C": matrix(2, 2, [[1.0, 0.0], [0.0, 1.0]]),
            "W": matrix(2, 2, [[10.0, 0.0], [0.0, 10.0]]),
            "x0_hat": [0.0, 0.0],
        },
        "privacy": {"epsilon": LN3, "delta": 0.001, "adjacency_B": 1.0},
        "simulation": {"horizon_T": 100, "trials": 200, "seed": 42},
        "calibration": {"kind": "apriori", "B_l": 21.0, "B_u": 2000.0},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def write_config(tmp_path):
    def _write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    # the environment of a fresh interpreter that imports this dpkalman
    src = str(Path(dpkalman.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_process(*argv):
    # the CLI in a fresh interpreter, so stderr holds what a user sees,
    # warnings and tracebacks included
    return subprocess.run([sys.executable, "-m", "dpkalman.cli", *argv],
                          capture_output=True, text=True, env=cli_env(), timeout=120)


class TestCalibrateCommand:
    def test_feasible_apriori(self, write_config, capsys):
        path = write_config(case_study_doc())
        code, out, _ = run(capsys, "calibrate", "--config", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["eps_min"] == pytest.approx(0.187, abs=1e-3)
        assert doc["eps_max"] == pytest.approx(1.703, abs=1e-3)

    def test_infeasible_exits_two_with_endpoints(self, write_config, capsys):
        doc = case_study_doc(calibration={"kind": "aposteriori", "B_l": 1.8, "B_u": 50.0})
        path = write_config(doc)
        code, out, err = run(capsys, "calibrate", "--config", path, "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["eps_min"] == pytest.approx(1.044, abs=1e-3)
        assert payload["eps_max"] == pytest.approx(1.006, abs=1e-3)
        assert "infeasible" in err

    def test_kind_flag_overrides_config(self, write_config, capsys):
        doc = case_study_doc(calibration={"kind": "apriori", "B_l": 1.8, "B_u": 100.0})
        path = write_config(doc)
        # as apriori this target is invalid (B_l < tr W); as aposteriori it is feasible
        code, out, _ = run(capsys, "calibrate", "--config", path, "--kind", "aposteriori", "--json")
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_invalid_target_names_field(self, write_config, capsys):
        doc = case_study_doc(calibration={"kind": "apriori", "B_l": 19.0, "B_u": 2000.0})
        path = write_config(doc)
        code, _, err = run(capsys, "calibrate", "--config", path)
        assert code == 1
        assert "B_l" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system": \n  [broken}')
        code, _, err = run(capsys, "calibrate", "--config", str(path))
        assert code == 1
        assert "line 2" in err and "column" in err


class TestBoundsCommand:
    def test_case_study_reports(self, write_config, capsys):
        path = write_config(case_study_doc())
        code, out, _ = run(capsys, "bounds", "--config", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["apriori_trace"]["lower"] == pytest.approx(34.04, abs=0.01)
        assert doc["apriori_trace"]["upper"] == pytest.approx(46.40, abs=0.01)
        assert doc["aposteriori_trace"]["lower"] == pytest.approx(9.36, abs=0.01)
        assert doc["aposteriori_trace"]["upper"] == pytest.approx(17.60, abs=0.01)
        assert doc["apriori_logdet"]["applicable"] is False
        assert doc["apriori_logdet"]["upper"] is None
        assert doc["sigma"][0] == pytest.approx(2.9663, abs=5e-4)

    def test_sigma_override_used(self, write_config, capsys):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = 1.0
        path = write_config(doc)
        code, out, _ = run(capsys, "bounds", "--config", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["apriori_logdet"]["applicable"] is True
        assert payload["apriori_logdet"]["upper"] == pytest.approx(23.44, abs=0.01)

    def test_zero_dynamics_collapse(self, write_config, capsys):
        doc = case_study_doc()
        doc["system"]["H"] = matrix(2, 2, [[0.0, 0.0], [0.0, 0.0]])
        path = write_config(doc)
        code, out, _ = run(capsys, "bounds", "--config", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["apriori_trace"]["lower"] == payload["apriori_trace"]["upper"] == pytest.approx(20.0)

    def test_non_diagonal_c_rejected(self, write_config, capsys):
        doc = case_study_doc()
        doc["system"]["C"] = matrix(2, 2, [[1.0, 0.5], [0.0, 1.0]])
        path = write_config(doc)
        code, _, err = run(capsys, "bounds", "--config", path)
        assert code == 1
        assert "diagonal" in err


class TestPrivacyCompliance:
    @pytest.mark.parametrize("sigma,compliant", [(None, True), (2.96, True), (0.1, False)])
    @pytest.mark.parametrize("command", ["bounds", "dare"])
    def test_flag_in_json(self, command, sigma, compliant, write_config, capsys):
        doc = case_study_doc()
        if sigma is not None:
            doc["privacy"]["sigma"] = sigma  # 2.96 is within the rounding slack of 2.9663
        path = write_config(doc)
        code, out, _ = run(capsys, command, "--config", path, "--json")
        assert code == 0
        assert strict_json(out)["privacy_compliant"] is compliant

    def test_wrong_length_sigma_same_error_everywhere(self, write_config, capsys):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = [3.0, 3.0, 3.0]
        path = write_config(doc)
        errors = set()
        for command in ("bounds", "dare", "simulate"):
            code, _, err = run(capsys, command, "--config", path, "--json")
            assert code == 1
            errors.add(err)
        assert len(errors) == 1
        assert "length 2" in errors.pop()


class TestDareCommand:
    def test_scalar_closed_form(self, write_config, capsys):
        doc = {
            "system": {
                "H": matrix(1, 1, [[1.0]]),
                "C": matrix(1, 1, [[1.0]]),
                "W": matrix(1, 1, [[1.0]]),
                "x0_hat": [0.0],
            },
            "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0, "sigma": 1.0},
        }
        path = write_config(doc)
        code, out, _ = run(capsys, "dare", "--config", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_prior"] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-8)
        assert payload["residual"] <= 1e-10

    def test_case_study_inside_window(self, write_config, capsys):
        path = write_config(case_study_doc())
        code, out, _ = run(capsys, "dare", "--config", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert 34.0 <= payload["trace_prior"] <= 46.4

    def test_unobservable_exits_one(self, write_config, capsys):
        doc = case_study_doc()
        doc["system"]["C"] = matrix(2, 2, [[0.0, 0.0], [0.0, 0.0]])
        path = write_config(doc)
        code, _, err = run(capsys, "dare", "--config", path)
        assert code == 1
        assert "observable" in err

    def test_zero_noise_scale_exits_three(self, write_config, capsys):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = 0.0
        path = write_config(doc)
        code, _, err = run(capsys, "dare", "--config", path)
        assert code == 3
        assert "singular" in err.lower()

    def test_variance_past_float_range_exits_one(self, write_config, capsys):
        # adjacency_B = 1e200 gives sigma near 3e200, whose square passes
        # float range: V is rejected by name, with no overflow warning
        doc = json.loads((CONFIGS / "case_study.json").read_text())
        doc["privacy"]["adjacency_B"] = 1e200
        path = write_config(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "dare", "--config", path, "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: V ")

    def test_residual_reported_past_float_range(self, write_config, capsys):
        # W[0][0] = 1e155 puts |sigma|_F squared past float range; the
        # residual stays a measured defect, not 0
        doc = json.loads((CONFIGS / "case_study.json").read_text())
        doc["system"]["W"]["entries"][0][0] = 1e155
        path = write_config(doc)
        code, out, _ = run(capsys, "dare", "--config", path, "--json")
        assert code == 0
        assert 0.0 < json.loads(out)["residual"] < math.inf

    def test_human_output_without_json_flag(self, write_config, capsys):
        path = write_config(case_study_doc())
        code, out, _ = run(capsys, "dare", "--config", path)
        assert code == 0
        assert out.startswith("trace_prior: ")
        assert "privacy_compliant: True" in out

    def test_iteration_cap_exits_three(self, write_config, capsys, monkeypatch):
        # H=0.999, W=0.01 at epsilon=0.1 needs 3420 iterations
        doc = {
            "system": {
                "H": matrix(1, 1, [[0.999]]),
                "C": matrix(1, 1, [[1.0]]),
                "W": matrix(1, 1, [[0.01]]),
                "x0_hat": [0.0],
            },
            "privacy": {"epsilon": 0.1, "delta": 0.001, "adjacency_B": 1.0},
        }
        monkeypatch.setattr(dpkalman.linalg, "DARE_MAX_ITERATIONS", 50)
        code, out, err = run(capsys, "dare", "--config", write_config(doc), "--json")
        assert code == 3
        assert out == ""
        assert "within 50 iterations" in err


class TestSimulateCommand:
    def test_writes_files_and_summary(self, write_config, tmp_path, capsys):
        path = write_config(case_study_doc())
        out_csv = tmp_path / "rows.csv"
        out_json = tmp_path / "summary.json"
        code, out, _ = run(capsys, "simulate", "--config", path,
                           "--out", str(out_csv), "--summary", str(out_json), "--json")
        assert code == 0
        stdout_doc = json.loads(out)
        file_doc = json.loads(out_json.read_text())
        assert stdout_doc == file_doc
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 200 * 100
        assert stdout_doc["seed"] == 42

    def test_byte_identical_across_runs_and_threads(self, write_config, tmp_path, capsys):
        path = write_config(case_study_doc())
        outputs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            target = tmp_path / name
            code, _, _ = run(capsys, "simulate", "--config", path,
                             "--out", str(target), "--threads", threads)
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unbounded_upper_bounds_stay_inf(self, write_config, tmp_path, capsys):
        # C = diag(1, 0) leaves both upper bounds unbounded: the CSV keeps
        # inf textually, the strict JSON reports it as null
        doc = case_study_doc(simulation={"horizon_T": 3, "trials": 2, "seed": 42})
        doc["system"]["C"] = matrix(2, 2, [[1.0, 0.0], [0.0, 0.0]])
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "simulate", "--config", write_config(doc),
                           "--out", str(out_csv), "--json")
        assert code == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 2 * 3
        for row in rows:
            assert row.endswith(",34.041557495364984,inf,9.361038330243323,inf")
        payload = json.loads(out)
        assert payload["bound_prior"][1] is None and payload["bound_post"][1] is None

    def test_json_same_with_and_without_csv(self, write_config, tmp_path, capsys):
        # without --out the summary is streamed and no per-step paths are kept
        path = write_config(case_study_doc(simulation={"horizon_T": 30, "trials": 1100, "seed": 3}))
        code, streamed, _ = run(capsys, "simulate", "--config", path, "--json")
        assert code == 0
        code, kept, _ = run(capsys, "simulate", "--config", path, "--json",
                            "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        assert streamed == kept

    @pytest.mark.parametrize("field", ["horizon_T", "trials"])
    def test_oversized_size_rejected(self, field, write_config, capsys, monkeypatch):
        # no array can be that long: refused while the config is read, before
        # simulate allocates anything
        monkeypatch.setattr("dpkalman.cli.simulate", lambda *a, **k: pytest.fail("simulate ran"))
        doc = case_study_doc()
        doc["simulation"][field] = 10**30
        code, out, err = run(capsys, "simulate", "--config", write_config(doc), "--json")
        assert code == 1
        assert out == ""
        assert f"simulation.{field}" in err

    @pytest.mark.parametrize("keep_paths", [False, True], ids=["summary", "csv"])
    def test_unallocatable_trial_count_rejected(self, keep_paths, write_config, tmp_path, capsys):
        # within sys.maxsize but beyond any array: numpy refuses the first
        # allocation, which becomes a validation error naming the field
        doc = case_study_doc()
        doc["simulation"]["trials"] = 2**62
        argv = ["simulate", "--config", write_config(doc), "--json"]
        if keep_paths:
            argv += ["--out", str(tmp_path / "rows.csv")]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert "trials" in err and "Traceback" not in err
        assert peak < 2**20
        assert not (tmp_path / "rows.csv").exists()

    def test_oversized_seed_taken_mod_2_64(self, write_config, capsys):
        docs = []
        for seed in (5, 5 + 2**64 * 10**11):
            path = write_config(case_study_doc(simulation={"horizon_T": 20, "trials": 10, "seed": seed}))
            code, out, _ = run(capsys, "simulate", "--config", path, "--json")
            assert code == 0
            docs.append(json.loads(out))
        assert docs[1].pop("seed") == 5 + 2**64 * 10**11
        docs[0].pop("seed")
        assert docs[0] == docs[1]

    def test_seed_flag_overrides(self, write_config, tmp_path, capsys):
        path = write_config(case_study_doc())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--config", path, "--out", str(a), "--seed", "1")
        run(capsys, "simulate", "--config", path, "--out", str(b), "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_unwritable_output_exits_one(self, write_config, capsys):
        path = write_config(case_study_doc())
        code, _, err = run(capsys, "simulate", "--config", path,
                           "--out", "/nonexistent-dir/rows.csv")
        assert code == 1
        assert err

    def test_published_sigma_override_accepted(self, write_config, capsys):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = 2.96  # rounded published value, just below the minimum
        path = write_config(doc)
        code, out, _ = run(capsys, "simulate", "--config", path, "--json")
        assert code == 0
        assert json.loads(out)["mean_sq_err_prior"] > 0

    def test_sub_minimal_sigma_rejected_for_simulation(self, write_config, capsys):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = 1.0  # far below the (epsilon, delta) minimum
        path = write_config(doc)
        code, _, err = run(capsys, "simulate", "--config", path)
        assert code == 1
        assert "minimum" in err

    def test_network_config_simulates(self, write_config, capsys):
        doc = {
            "agents": [
                {
                    "id": "a",
                    "system": {
                        "H": matrix(1, 1, [[0.5]]),
                        "C": matrix(1, 1, [[1.0]]),
                        "W": matrix(1, 1, [[1.0]]),
                        "x0_hat": [0.0],
                    },
                    "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0},
                }
            ],
            "simulation": {"horizon_T": 20, "trials": 10, "seed": 5},
        }
        path = write_config(doc)
        code, out, _ = run(capsys, "simulate", "--config", path, "--json")
        assert code == 0
        assert json.loads(out)["trials"] == 10


class TestComposeCommand:
    def test_two_agents(self, write_config, capsys):
        doc = {
            "agents": [
                {
                    "id": "first",
                    "system": {
                        "H": matrix(1, 1, [[1.0]]),
                        "C": matrix(1, 1, [[1.0]]),
                        "W": matrix(1, 1, [[1.0]]),
                        "x0_hat": [0.0],
                    },
                    "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0},
                },
                {
                    "id": "second",
                    "system": {
                        "H": matrix(1, 1, [[0.5]]),
                        "C": matrix(1, 1, [[1.0]]),
                        "W": matrix(1, 1, [[1.0]]),
                        "x0_hat": [0.0],
                    },
                    "privacy": {"epsilon": 0.5, "delta": 0.01, "adjacency_B": 1.0},
                },
            ]
        }
        path = write_config(doc)
        code, out, err = run(capsys, "compose", "--config", path, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["agents"][0]["state_offset"] == [0, 1]
        assert payload["agents"][1]["state_offset"] == [1, 2]
        # diagonal composed C gives network-level bound reports too
        window = payload["bounds"]["apriori_trace"]
        assert window["lower"] <= payload["riccati"]["trace_prior"] <= window["upper"]

    def test_empty_agent_list_exits_one(self, write_config, capsys):
        path = write_config({"agents": []})
        code, _, err = run(capsys, "compose", "--config", path)
        assert code == 1

    def test_bad_agent_named_in_error(self, write_config, capsys):
        doc = {
            "agents": [
                {
                    "id": "fragile",
                    "system": {
                        "H": matrix(1, 1, [[1.0]]),
                        "C": matrix(1, 1, [[1.0]]),
                        "W": matrix(1, 1, [[-1.0]]),
                        "x0_hat": [0.0],
                    },
                    "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0},
                }
            ]
        }
        path = write_config(doc)
        code, _, err = run(capsys, "compose", "--config", path)
        assert code == 1
        assert "fragile" in err


class TestExitTaxonomy:
    @pytest.mark.parametrize(
        "mutate,command,expected",
        [
            (lambda d: d.pop("privacy"), "bounds", 1),
            (lambda d: d.pop("system"), "dare", 1),
            (lambda d: d["system"].update(extra=1), "dare", 1),
            (lambda d: d.update(unknown_section={}), "dare", 1),
            (lambda d: d["system"]["H"].update(rows=3), "dare", 1),
            (lambda d: d["simulation"].update(trials=0), "simulate", 1),
            (lambda d: d["privacy"].update(epsilon=-1.0), "bounds", 1),
            (lambda d: d["privacy"].update(delta=0.7), "bounds", 1),
            (lambda d: d["calibration"].update(B_l=34.0, B_u=46.0), "calibrate", 2),
            (lambda d: d["privacy"].update(sigma=0.0), "dare", 3),
            (lambda d: d["privacy"].update(sigma=-3.0), "dare", 1),
            (lambda d: None, "dare", 0),
        ],
    )
    def test_error_injection(self, mutate, command, expected, write_config, capsys):
        doc = case_study_doc()
        mutate(doc)
        path = write_config(doc)
        code, _, _ = run(capsys, command, "--config", path)
        assert code == expected

    def test_usage_error_is_validation(self, capsys):
        assert main(["calibrate"]) == 1  # missing --config
        assert main(["unknown-command", "--config", "x"]) == 1
        capsys.readouterr()

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(capsys, "dare", "--config", "/no/such/file.json")
        assert code == 1
        assert "config" in err


class TestNonFiniteNumbers:
    SETTERS = {
        "calibration.B_u": lambda d, v: d["calibration"].update(B_u=v),
        "privacy.epsilon": lambda d, v: d["privacy"].update(epsilon=v),
        "system.W.entries[0][0]": lambda d, v: d["system"]["W"]["entries"][0].__setitem__(0, v),
    }

    # json.dumps writes NaN, Infinity and -Infinity for these floats; the
    # integer is a finite JSON number too large for a float
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["NaN", "Infinity", "-Infinity", "int-overflow"])
    @pytest.mark.parametrize("field", sorted(SETTERS))
    @pytest.mark.parametrize("command", ["calibrate", "dare", "bounds"])
    def test_rejected_as_config_error(self, command, field, value, write_config, capsys):
        doc = case_study_doc()
        self.SETTERS[field](doc, value)
        code, out, err = run(capsys, command, "--config", write_config(doc), "--json")
        assert code == 1
        assert out == ""
        assert field in err


def strict_json(text):
    # stdlib json.loads tolerates Infinity/NaN; the CLI contract does not
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token!r} in output")

    return json.loads(text, parse_constant=reject)


class TestDegenerateChannel:
    # a zero output channel that stays observable through the state coupling
    def degenerate_doc(self):
        doc = case_study_doc()
        doc["system"]["C"] = matrix(2, 2, [[1.0, 0.0], [0.0, 0.0]])
        return doc

    def test_calibrate_reports_null_floor(self, write_config, capsys):
        doc = self.degenerate_doc()
        path = write_config(doc)
        code, out, _ = run(capsys, "calibrate", "--config", path, "--json")
        assert code == 2
        payload = strict_json(out)
        assert payload["feasible"] is False
        assert payload["eps_min"] is None  # no finite epsilon bounds the error from above
        assert payload["eps_max"] > 0

    def test_bounds_report_null_uppers(self, write_config, capsys):
        path = write_config(self.degenerate_doc())
        code, out, _ = run(capsys, "bounds", "--config", path, "--json")
        assert code == 0
        payload = strict_json(out)
        assert payload["apriori_trace"]["upper"] is None
        assert payload["aposteriori_logdet"]["upper"] is None

    def test_simulate_summary_stays_strict_json(self, write_config, tmp_path, capsys):
        doc = self.degenerate_doc()
        doc["simulation"]["trials"] = 5
        path = write_config(doc)
        summary = tmp_path / "s.json"
        code, out, _ = run(capsys, "simulate", "--config", path, "--json", "--summary", str(summary))
        assert code == 0
        payload = strict_json(out)
        assert payload["bound_prior"][1] is None
        strict_json(summary.read_text())


class TestExtremeRadius:
    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    @pytest.mark.parametrize("command", ["calibrate", "bounds"])
    def test_result_not_traceback(self, command, radius, write_config, capsys):
        # 1e-200 divided by zero and 1e200 overflowed a square; an epsilon
        # floor past float range reads null and makes the target infeasible
        doc = case_study_doc()
        doc["privacy"]["adjacency_B"] = radius
        code, out, _ = run(capsys, command, "--config", write_config(doc), "--json")
        payload = strict_json(out)
        if command == "calibrate" and radius > 1.0:
            assert code == 2 and payload["eps_min"] is None
        else:
            assert code == 0

    def test_stdout_json_rejects_non_finite(self):
        # a non-finite number the JSON rule let through fails loudly
        with mock.patch.object(dpkalman.cli, "to_json", lambda doc: doc):
            with pytest.raises(ValueError):
                dpkalman.cli._dumps({"x": math.nan})


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


class TestMalformedConfigs:
    # a bundled config with one field replaced by a malformed or extreme
    # value, at tiny simulation sizes: every command exits 0-3 with no
    # traceback and prints nothing or one strict JSON document
    FIELDS = [
        ("case_study.json", ("privacy", "adjacency_B")),
        ("case_study.json", ("privacy", "epsilon")),
        ("case_study.json", ("privacy", "delta")),
        ("case_study.json", ("privacy", "sigma")),
        ("case_study.json", ("calibration", "B_l")),
        ("case_study.json", ("calibration", "B_u")),
        ("case_study.json", ("calibration", "kind")),
        ("case_study.json", ("system", "W", "entries", 0, 0)),
        ("case_study.json", ("system", "C", "entries", 1, 1)),
        ("case_study.json", ("system", "H", "entries", 0, 1)),
        ("case_study.json", ("simulation", "horizon_T")),
        ("case_study.json", ("simulation", "seed")),
        ("calibration_infeasible.json", ("calibration", "B_u")),
        ("network_two_agents.json", ("agents", 0, "privacy", "adjacency_B")),
        ("network_two_agents.json", ("agents", 1, "system", "W", "entries", 0, 0)),
        ("network_two_agents.json", ("agents", 1, "id")),
    ]
    VALUES = st.one_of(
        extreme_magnitude(), extreme_magnitude().map(lambda v: -v),
        st.sampled_from([0, 2, -1, True, None, "x", "aposteriori", [], [1.0, 2.0], {}, 10**400,
                         math.nan, math.inf]),
    )

    @given(field=st.sampled_from(FIELDS), value=VALUES,
           command=st.sampled_from(["calibrate", "bounds", "dare", "simulate", "compose"]))
    # values whose squares pass float range, each of which once printed an
    # overflow warning, which the test configuration makes an error: in the
    # Riccati norms, the a-priori bounds' tr(H^T H) and ||H||^2, and the
    # simulated standard error
    @example(field=FIELDS[7], value=1e155, command="dare")
    @example(field=FIELDS[9], value=1e155, command="bounds")
    @example(field=FIELDS[9], value=1e200, command="calibrate")
    @example(field=FIELDS[7], value=1e160, command="simulate")
    @settings(max_examples=120, deadline=None)
    def test_exit_code_and_strict_output(self, field, value, command):
        name, path = field
        doc = json.loads((CONFIGS / name).read_text())
        if "simulation" in doc:
            doc["simulation"].update(horizon_T=3, trials=2)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            # a lowered cap keeps slow Riccati solves short: NoConvergenceError, exit 3
            with mock.patch.object(dpkalman.linalg, "DARE_MAX_ITERATIONS", 500), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", config, "--json"])
        assert 0 <= code <= 3
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())


class TestLargePlant:
    def test_bounds_stay_finite_and_strict_json(self, write_config, capsys):
        # det W = 100**160 overflows a float: the a-priori log-det lower
        # bound read Infinity, and so does the det_w intermediate
        n = 160
        diag = lambda v: matrix(n, n, np.diag(np.full(n, v)).tolist())
        doc = case_study_doc()
        doc["system"] = {"H": diag(0.5), "C": diag(1.0), "W": diag(100.0), "x0_hat": [0.0] * n}
        code, out, _ = run(capsys, "bounds", "--config", write_config(doc), "--json")
        assert code == 0
        report = strict_json(out)["apriori_logdet"]
        assert report["lower"] == pytest.approx(n * math.log(100.0), rel=1e-3)
        assert report["intermediates"]["det_w"] is None


class TestQuietStderr:
    def test_large_plant_bounds_warn_nothing(self, write_config):
        # det W = 100**160 is past float range: det_w reads null, and numpy's
        # overflow warning must not reach stderr
        n = 160
        diag = lambda v: matrix(n, n, np.diag(np.full(n, v)).tolist())
        doc = case_study_doc()
        doc["system"] = {"H": diag(0.5), "C": diag(1.0), "W": diag(100.0), "x0_hat": [0.0] * n}
        proc = run_process("bounds", "--config", write_config(doc), "--json")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert strict_json(proc.stdout)["apriori_logdet"]["intermediates"]["det_w"] is None


class TestUndecodableConfig:
    @pytest.mark.parametrize("content", [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{\x00}\x00"],
                             ids=["nested-100000-deep", "utf16-bom"])
    def test_config_error_exits_one(self, content, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(path)
        proc = run_process("bounds", "--config", str(path), "--json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestJsonPurity:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("calibrate", []),
            ("bounds", []),
            ("dare", []),
            ("simulate", []),
        ],
    )
    def test_stdout_is_single_document(self, command, extra, write_config, capsys):
        path = write_config(case_study_doc())
        code, out, _ = run(capsys, command, "--config", path, "--json", *extra)
        assert code == 0
        strict_json(out)  # raises if stdout holds anything but one strict document


class TestClosedStdout:
    # A reader that stops early (`dpkalman bounds --json | head -1`) is not a
    # failure of the command: it keeps its exit status and writes no error.
    # That holds for --help too, which argparse prints itself.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args,calibration,expected_code,expected_err",
        [
            (["bounds", "--config", "CONFIG", "--json"], None, 0, ""),
            (["calibrate", "--config", "CONFIG", "--json"], {"kind": "aposteriori", "B_l": 1.8, "B_u": 50.0}, 2,
             "calibration target is infeasible under the sufficient conditions\n"),
            (["--help"], None, 0, ""),
            (["simulate", "--help"], None, 0, ""),
        ],
        ids=["bounds", "calibrate-infeasible", "help", "simulate-help"],
    )
    def test_exit_status_kept(self, unbuffered, args, calibration, expected_code,
                              expected_err, write_config):
        doc = case_study_doc(calibration=calibration) if calibration else case_study_doc()
        path = write_config(doc)
        args = [path if arg == "CONFIG" else arg for arg in args]
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dpkalman.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == expected_err
        assert proc.returncode == expected_code


class TestConfigRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        parsed = loads_config(json.dumps(case_study_doc()))
        np.testing.assert_array_equal(parsed.system.H, [[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(parsed.system.C, np.eye(2))
        np.testing.assert_array_equal(parsed.system.W, 10.0 * np.eye(2))
        np.testing.assert_array_equal(parsed.system.x0_hat, [0.0, 0.0])
        assert parsed.privacy == PrivacySpec(epsilon=LN3, delta=0.001, adjacency_B=1.0)
        assert parsed.simulation == SimulationSpec(horizon_T=100, trials=200, seed=42)
        assert parsed.calibration == CalibrationSpec(kind="apriori", B_l=21.0, B_u=2000.0)
        assert parsed.agents is None

    def test_agents_round_trip(self):
        doc = {
            "agents": [
                {
                    "id": "a",
                    "system": {
                        "H": matrix(1, 1, [[0.5]]),
                        "C": matrix(1, 1, [[1.0]]),
                        "W": matrix(1, 1, [[1.0]]),
                        "x0_hat": [0.25],
                    },
                    "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0, "sigma": [4.0]},
                }
            ]
        }
        parsed = loads_config(json.dumps(doc))
        (agent,) = parsed.agents
        assert agent.id == "a"
        np.testing.assert_array_equal(agent.system.H, [[0.5]])
        np.testing.assert_array_equal(agent.system.C, [[1.0]])
        np.testing.assert_array_equal(agent.system.W, [[1.0]])
        np.testing.assert_array_equal(agent.system.x0_hat, [0.25])
        assert agent.privacy == PrivacySpec(epsilon=1.0, delta=0.01, adjacency_B=1.0, sigma=(4.0,))
        assert isinstance(agent.privacy.sigma, tuple)
        assert parsed.system is None and parsed.privacy is None

    def test_sigma_scalar_survives(self):
        doc = case_study_doc()
        doc["privacy"]["sigma"] = 2.96
        sigma = loads_config(json.dumps(doc)).privacy.sigma
        assert isinstance(sigma, float) and sigma == 2.96

    def test_mutually_exclusive_sections(self):
        doc = case_study_doc()
        doc["agents"] = []
        with pytest.raises(Exception):
            loads_config(json.dumps(doc))


def agent_doc(agent_id, C=((1.0,),), **privacy):
    # one agent with H = 0.5 I, W = I and the given output map
    n = len(C[0])
    return {
        "id": agent_id,
        "system": {
            "H": matrix(n, n, (0.5 * np.eye(n)).tolist()),
            "C": matrix(len(C), n, [list(row) for row in C]),
            "W": matrix(n, n, np.eye(n).tolist()),
            "x0_hat": [0.0] * n,
        },
        "privacy": {"epsilon": 1.0, "delta": 0.01, "adjacency_B": 1.0, **privacy},
    }


class TestConfigBoundaries:
    def test_largest_float_parses(self):
        doc = case_study_doc()
        doc["privacy"]["epsilon"] = sys.float_info.max
        doc["calibration"]["B_l"] = -sys.float_info.max
        parsed = loads_config(json.dumps(doc))
        assert parsed.privacy.epsilon == sys.float_info.max
        assert parsed.calibration.B_l == -sys.float_info.max

    def test_largest_size_parses(self):
        # sizes lie in [1, sys.maxsize]
        doc = case_study_doc(simulation={"horizon_T": sys.maxsize, "trials": sys.maxsize, "seed": 1})
        assert loads_config(json.dumps(doc)).simulation == SimulationSpec(sys.maxsize, sys.maxsize, 1)

    def test_top_level_privacy_beside_agents_rejected(self):
        doc = {"agents": [agent_doc("a")], "privacy": case_study_doc()["privacy"]}
        with pytest.raises(ConfigError, match="with 'agents', privacy is per agent"):
            loads_config(json.dumps(doc))

    def test_rejected_agent_privacy_names_the_agent(self, write_config, capsys):
        path = write_config({"agents": [agent_doc("loud"), agent_doc("quiet", sigma=0.001)]})
        code, out, err = run(capsys, "compose", "--config", path, "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error: agent 'quiet': noise scale below the (1.0, 0.01) minimum")

    def test_compose_without_network_bounds_for_a_non_diagonal_map(self, write_config, capsys):
        # a two-state agent whose output map mixes its states: the network has
        # no bound window, and the rest of the report stands
        path = write_config({"agents": [agent_doc("a"), agent_doc("mixed", C=((1.0, 1.0), (0.0, 1.0)))]})
        code, out, _ = run(capsys, "compose", "--config", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert "bounds" not in payload
        assert payload["n"] == 3 and [a["id"] for a in payload["agents"]] == ["a", "mixed"]

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_compose_says_why_it_has_no_network_bounds(self, write_config, capsys, as_json):
        # the missing bounds are named on stderr, with the reason; stdout and
        # the exit code are those of the report without them
        path = write_config({"agents": [agent_doc("a"), agent_doc("mixed", C=((1.0, 1.0), (0.0, 1.0)))]})
        code, out, err = run(capsys, "compose", "--config", path, *(["--json"] if as_json else []))
        assert code == 0
        assert err.splitlines() == [
            "note: no network-level bounds: C must be diagonal: max off-diagonal magnitude 1.000e+00 "
            "exceeds 1e-12 * max |C_ii|"]
        if as_json:
            assert "bounds" not in json.loads(out)


class TestRepeatedKeys:
    # strict JSON: a key repeated within one object is rejected, not read as
    # its last value, at any depth
    CASE_STUDY = json.dumps(case_study_doc())

    @pytest.mark.parametrize("key,text", [
        ("simulation", CASE_STUDY[:-1] + ', "simulation": {"horizon_T": 5, "trials": 2, "seed": 1}}'),
        ("seed", CASE_STUDY.replace('"seed": 42', '"seed": 1, "seed": 7')),
        ("rows", CASE_STUDY.replace('"rows": 2', '"rows": 2, "rows": 2', 1)),
    ], ids=["section", "section-field", "matrix-field"])
    def test_rejected_naming_the_key(self, key, text, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"'{key}' repeated"):
            loads_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        code, out, err = run(capsys, "simulate", "--config", str(path), "--json")
        assert (code, out) == (1, "")
        assert f"'{key}' repeated" in err


def _steady_state_plant(name: str) -> dict:
    # a system section: the case study, the slow scalar plant, or a seeded
    # stable plant with dense H, C (2 x 4) and W
    if name == "case_study":
        return case_study_doc()["system"]
    if name == "slow_scalar":
        return {"H": matrix(1, 1, [[0.999]]), "C": matrix(1, 1, [[1.0]]), "W": matrix(1, 1, [[0.01]]),
                "x0_hat": [0.0]}
    rng = np.random.default_rng(4)
    H = rng.normal(size=(4, 4))
    body = rng.normal(size=(4, 4))
    arrays = {"H": 0.9 * H / np.max(np.abs(np.linalg.eigvals(H))), "C": rng.normal(size=(2, 4)),
              "W": body @ body.T / 4 + np.eye(4)}
    return {**{key: matrix(*a.shape, a.tolist()) for key, a in arrays.items()}, "x0_hat": [0.0] * 4}


class TestOneSteadyStatePath:
    # verify_calibration and `dare` take the steady state at the noise
    # scales from solve_filter: their traces equal those of solve_dare on
    # V = diag(sigma^2) bit for bit
    @pytest.mark.parametrize("plant", ["case_study", "slow_scalar", "dense"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.1])
    def test_traces_equal_solve_dare(self, plant, epsilon, write_config, capsys):
        doc = {"system": _steady_state_plant(plant),
               "privacy": {"epsilon": epsilon, "delta": 1e-3, "adjacency_B": 1.0}}
        system = loads_config(json.dumps(doc)).system
        sigma, _ = noise_scales(system, epsilon, 1e-3, 1.0)
        expected = np.trace(solve_dare(system, np.diag(sigma**2)).sigma)
        target = CalibrationTarget(kind="apriori", B_l=1.0, B_u=2.0, delta=1e-3, adjacency_B=1.0)
        report = verify_calibration(system, target, epsilon)
        assert np.array_equal(np.full(system.q, report.sigma), sigma)
        assert report.achieved_trace == expected
        code, out, _ = run(capsys, "dare", "--config", write_config(doc), "--json")
        assert code == 0
        assert json.loads(out)["trace_prior"] == expected


def config_documents():
    """Strategy for whole config documents, malformed at any depth.

    Numbers include NaN, +-inf and integers past float range; matrices come
    with entries that fit their declared shape, ragged, with shapes that are
    not sizes, or as junk; each section and the document itself may be
    junk, and the bundled case study's sections mix in so that some
    documents parse.
    """
    numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                        st.sampled_from([0, -1, 2**63, 10**400, -10**400, True, False]))
    junk = st.recursive(st.one_of(st.none(), numbers, st.text(max_size=4)),
                        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                st.dictionaries(st.text(max_size=4), inner, max_size=3)),
                        max_leaves=6)
    anything = st.one_of(numbers, junk)
    case = case_study_doc()

    def shaped(row):
        return st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda rc: st.fixed_dictionaries({"rows": st.just(rc[0]), "cols": st.just(rc[1]),
                                              "entries": st.lists(row(rc[1]), min_size=rc[0], max_size=rc[0])}))

    matrix = st.one_of(
        shaped(lambda cols: st.lists(numbers, min_size=cols, max_size=cols)),
        shaped(lambda cols: st.one_of(st.lists(anything, max_size=3), anything)),  # ragged or junk rows
        st.fixed_dictionaries({"rows": anything, "cols": anything, "entries": anything}),
        junk, st.sampled_from([case["system"]["H"], case["system"]["W"]]))
    vector = st.one_of(st.lists(anything, max_size=3), junk, st.just([0.0, 0.0]))

    def mostly(common, rare):
        # one draw in four from rare
        return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)

    def section(fields, name, optional=None):
        return mostly(st.one_of(st.fixed_dictionaries(fields, optional=optional), st.just(case[name])), junk)

    system = section({"H": matrix, "C": matrix, "W": matrix, "x0_hat": vector}, "system")
    privacy = section({"epsilon": anything, "delta": anything, "adjacency_B": anything}, "privacy",
                      optional={"sigma": st.one_of(anything, vector)})
    simulation = section({"horizon_T": anything, "trials": anything, "seed": anything}, "simulation")
    calibration = section({"kind": st.one_of(st.sampled_from(["apriori", "aposteriori", "x"]), junk),
                           "B_l": anything, "B_u": anything}, "calibration")
    agent = mostly(st.fixed_dictionaries({"id": st.one_of(st.text(max_size=3), junk), "system": system,
                                          "privacy": privacy}), junk)
    document = st.one_of(
        st.fixed_dictionaries({}, optional={"system": system, "privacy": privacy, "simulation": simulation,
                                            "calibration": calibration}),
        st.fixed_dictionaries({"agents": st.one_of(st.lists(agent, max_size=2), junk)},
                              optional={"simulation": simulation, "calibration": calibration}))
    # unknown top-level keys come with the junk
    return mostly(document, junk)


class TestLoadsConfigProperty:
    # every document parses or raises a DPKalmanError, never another exception
    @given(doc=config_documents())
    @example(doc=case_study_doc())
    @settings(max_examples=400, deadline=None)
    def test_parses_or_raises_a_library_error(self, doc):
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads
        # reads back before the number rule rejects them
        try:
            loads_config(json.dumps(doc))
        except dpkalman.DPKalmanError:
            pass

    @given(text=st.one_of(st.text(max_size=40),
                          st.builds(lambda doc, cut: json.dumps(doc)[:cut], config_documents(), st.integers(0, 40))))
    @settings(max_examples=200, deadline=None)
    def test_any_text_parses_or_raises_a_config_error(self, text):
        try:
            loads_config(text)
        except ConfigError:
            pass
