import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import dpkalman
import dpkalman.cli  # binds dpkalman.cli, as the benchmark's workloads do

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_exported_name_resolves():
    assert [name for name in dpkalman.__all__ if not hasattr(dpkalman, name)] == []
    assert len(set(dpkalman.__all__)) == len(dpkalman.__all__)


def test_every_public_import_is_exported():
    public = {
        name for name, value in vars(dpkalman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dpkalman.__all__)) == []


def test_import_leaves_thread_pool_out():
    # concurrent.futures (and the logging it imports) loads only when a
    # simulation runs on more than one span
    src = str(Path(dpkalman.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dpkalman; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_names_resolve():
    # the benchmark calls dk.<name> on the package and wraps TARGETS by
    # getattr; a name cut from either breaks bench/run.py, so check both here
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        used |= set(re.findall(r"\bdk\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert "solve_dare" in used
    assert sorted(name for name in used if not hasattr(dpkalman, name)) == []

    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS")
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert targets and missing == []
