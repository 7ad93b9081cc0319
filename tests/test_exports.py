import os
import subprocess
import sys
import types
from pathlib import Path

import dpkalman


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
