"""Run every CLI command on the bundled configs in two checkouts and compare.

    python3 scripts/compare_outputs.py --parent DIR --change DIR

Each case is one of the five commands on one config of the change checkout's
``scripts/configs/``; every command runs on every config there.
Each side runs it twice, in a fresh interpreter each time, as
``python -m dpkalman.cli <command> --config <config>``, once with ``--json``
and once without, so both the JSON document and the human-readable printer
are compared; it runs with ``PYTHONPATH=<side>/src``, from a temporary
directory of its own; ``simulate`` also writes ``--out`` and ``--summary``
files there. A case is identical when both sides give the same exit code,
stdout bytes, stderr bytes (with the temporary directory written as
``<tmp>``) and output file bytes in both runs; a difference in the run
without ``--json`` is named with the suffix " without --json". Error exits
compare the same way: on ``adjacency_zero.json`` every command exits 1, so
the exit code and the ``error:`` line on stderr are what is compared.

Prints one line per case and exits 1 if any case differs. Neither checkout is
edited.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("calibrate", "bounds", "simulate", "dare", "compose")
FILES = ("out.csv", "summary.json")


def run_case(root: Path, command: str, config: Path) -> dict:
    """One command on one config with ``root``'s package, with and without ``--json``.

    Returns each run's exit code and bytes, those of the run without
    ``--json`` under keys ending in " without --json".
    """
    outputs = {}
    for flags, suffix in ((["--json"], ""), ([], " without --json")):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "-m", "dpkalman.cli", command, "--config", str(config), *flags]
            if command == "simulate":
                argv += ["--out", os.path.join(tmp, FILES[0]), "--summary", os.path.join(tmp, FILES[1])]
            env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=600)
            run = {"exit code": proc.returncode, "stdout": proc.stdout,
                   "stderr": proc.stderr.replace(tmp.encode(), b"<tmp>")}
            for name in FILES:
                path = Path(tmp, name)
                run[name] = path.read_bytes() if path.exists() else None
        outputs.update((key + suffix, value) for key, value in run.items())
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    args = parser.parse_args(argv)

    configs = sorted((args.change.resolve() / "scripts" / "configs").glob("*.json"))
    differing = 0
    for config in configs:
        for command in COMMANDS:
            parent = run_case(args.parent, command, config)
            change = run_case(args.change, command, config)
            diffs = [key for key in parent if parent[key] != change[key]]
            differing += bool(diffs)
            verdict = f"differ in {', '.join(diffs)}" if diffs else "identical"
            print(f"{command} {config.name}: {verdict} (exit {change['exit code']})", flush=True)
    print(f"{differing} of {len(configs) * len(COMMANDS)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
