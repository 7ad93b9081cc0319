import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_equivalent_flip_names_a_site():
    # a skip-list entry that matches no flip has gone stale
    flips = {(path.name, link) for path in (mutants.ROOT / mutants.PACKAGE).glob("*.py")
             for _, link, _ in mutants.mutants(path)}
    assert set(mutants.EQUIVALENT) <= flips


def test_each_link_of_a_chain_flips_alone(tmp_path):
    path = tmp_path / "chained.py"
    path.write_text("def inside(x):\n    return 0 < x <= 1\n")
    flips = list(mutants.mutants(path))
    assert [(line, link) for line, link, _ in flips] == [(2, "0 <= x"), (2, "x < 1")]
    assert [ast.unparse(ast.parse(source).body[0].body[0].value) for _, _, source in flips] == [
        "0 <= x <= 1", "0 < x < 1"]


def test_each_min_and_max_call_swaps_alone(tmp_path):
    # a name call, a call nested in it and an attribute call: each mutant
    # swaps one of them and leaves the others as they are
    path = tmp_path / "clipped.py"
    path.write_text("def clip(x, hi):\n    return max(0, min(x, hi)) + np.max(x) < 1\n")
    flips = list(mutants.mutants(path))
    assert [(line, text) for line, text, _ in flips] == [
        (2, "max(0, min(x, hi)) + np.max(x) <= 1"), (2, "min(0, min(x, hi))"), (2, "max(x, hi)"),
        (2, "np.min(x)")]
    assert [ast.unparse(ast.parse(source).body[0].body[0].value) for _, _, source in flips] == [
        "max(0, min(x, hi)) + np.max(x) <= 1", "min(0, min(x, hi)) + np.max(x) < 1",
        "max(0, max(x, hi)) + np.max(x) < 1", "max(0, min(x, hi)) + np.min(x) < 1"]


def test_each_numeric_constant_nudges_alone(tmp_path):
    # a module-level int or float literal is doubled and halved, an int by
    # floor division; a nudge that keeps the value, a bool, a string and a
    # constant inside a function are not mutants
    path = tmp_path / "constants.py"
    path.write_text("TOL = 1e-9\nCAP: int = 5\nZERO = 0\nONE = 1\nON = True\nNAME = 'x'\n\n"
                    "def f():\n    LOCAL = 3\n    return LOCAL\n")
    nudges = list(mutants.mutants(path))
    assert [(line, text) for line, text, _ in nudges] == [
        (1, "TOL = 2e-09"), (1, "TOL = 5e-10"), (2, "CAP: int = 10"), (2, "CAP: int = 2"),
        (4, "ONE = 2"), (4, "ONE = 0")]
    values = [[stmt.value.value for stmt in ast.parse(source).body[:4]] for _, _, source in nudges]
    assert values == [[2e-9, 5, 0, 1], [5e-10, 5, 0, 1], [1e-9, 10, 0, 1], [1e-9, 2, 0, 1],
                      [1e-9, 5, 0, 2], [1e-9, 5, 0, 0]]
    assert all(type(v[1]) is int for v in values)



def test_each_raise_drops_alone(tmp_path):
    # a raise in a function body, in an else branch and a bare re-raise in
    # a handler: each mutant replaces one of them by pass and keeps the others
    path = tmp_path / "guards.py"
    path.write_text("def check(x):\n    if x < 0:\n        raise ValueError('negative')\n"
                    "    else:\n        raise KeyError(x)\n\n\n"
                    "def again():\n    try:\n        check(1)\n    except KeyError:\n        raise\n")
    drops = [(line, text) for line, text, _ in mutants.mutants(path) if text.startswith("pass")]
    assert drops == [(3, "pass  # raise ValueError('negative')"), (5, "pass  # raise KeyError(x)"),
                     (12, "pass  # raise")]
    sources = [source for _, text, source in mutants.mutants(path) if text.startswith("pass")]
    assert [source.count("raise") for source in sources] == [2, 2, 2]
    assert "if x < 0:\n        pass\n    else:\n        raise KeyError(x)" in sources[0]
    assert "except KeyError:\n        pass" in sources[2]
    assert path.read_text().count("raise") == 3

def fake_checkout(root, test_body):
    # a one-module package with one test, laid out as the project is
    (root / mutants.PACKAGE).mkdir(parents=True)
    (root / mutants.PACKAGE / "inside.py").write_text("def inside(x):\n    return x < 1\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_inside.py").write_text(f"from dpkalman.inside import inside\n\n\n"
                                                   f"def test_inside():\n    {test_body}\n")


def test_a_failing_suite_stops_the_run_before_any_mutant(tmp_path, monkeypatch, capsys):
    # with every mutant "killed" by a suite that fails anyway, the run
    # would report 0 survivors
    fake_checkout(tmp_path, "assert inside(5)")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    assert mutants.main(["inside"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the unmutated suite fails" in err


def test_mutants_time_out_at_a_multiple_of_the_suite(tmp_path, monkeypatch, capsys):
    # the unmutated run has no timeout; each mutant's is TIMEOUT_FACTOR
    # times that run's duration
    fake_checkout(tmp_path, "assert inside(0)")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    clock = iter([100.0, 103.0])
    monkeypatch.setattr(mutants, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    timeouts = []
    run = mutants.subprocess.run
    monkeypatch.setattr(mutants.subprocess, "run", lambda *a, **kw: timeouts.append(kw["timeout"]) or run(*a, **kw))
    assert mutants.main(["inside"]) == 1  # x <= 1 passes the one test
    assert timeouts == [None, 3.0 * mutants.TIMEOUT_FACTOR]
    assert capsys.readouterr().out.endswith("1 survivor(s)\n  inside.py:2  x <= 1\n")
