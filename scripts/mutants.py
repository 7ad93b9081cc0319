"""Mutate one site of the package at a time and list the mutants no test catches.

    python3 scripts/mutants.py [MODULE ...]

Four kinds of mutation run on the named modules of ``src/dpkalman`` (file
stems such as ``linalg``; default: every module), one site at a time: each
``<``, ``<=``, ``>`` and ``>=`` is flipped to its neighbour, ``<`` with ``<=``
and ``>`` with ``>=``; each call of ``min`` or ``max``, as a name
(``min(a, b)``) or an attribute (``np.max(x)``, ``x.min()``), is swapped for
the other; each module-level constant assigned an int or float literal
(``CHUNK_STEPS = 8``, ``DARE_RESIDUAL_TOL = 1e-10``) is doubled and, apart,
halved, an int by floor division so that it stays an int; a nudge that leaves
the value as it was is not a mutant; and each ``raise`` statement is replaced
by ``pass``, shown as ``pass  # raise ...``, so that the code after a guard
runs on the input the guard refused. Each mutant runs
``python -m pytest -x -q tests`` in a copy of the checkout in a temporary
directory, strictly one process at a time; the checkout itself is not edited.
The unmutated suite runs there first: if it fails, no mutant can be told
apart, and the run stops with exit 2 before any mutant. A mutant that no test
fails survives; one whose tests run ``TIMEOUT_FACTOR`` times as long as the
unmutated suite did is taken as killed (a loop that no longer ends). The
mutants in ``EQUIVALENT`` are not run: each changes nothing that an input can
reach, for the reason given beside it.

Prints one line per mutant as ``file:line  mutated expression  killed|SURVIVED``
and then the survivors; exits 1 if any mutant survives. A whole-package run
of the comparison flips alone took about 13 minutes on a 2-vCPU x86_64 VM, so
it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "dpkalman")
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SWAP = {"min": "max", "max": "min"}
NUDGE = 2
# a mutant whose tests run this many times as long as the unmutated suite's
# is taken as killed (a loop that no longer ends)
TIMEOUT_FACTOR = 5

# (file, expression after the mutation): why no reachable input tells it
# apart; an entry covers every site of the file whose mutant reads the same
EQUIVALENT = {
    ("linalg.py", "w[0] <= -W.shape[0] * np.finfo(float).eps * abs(w[-1])"):
        "a tolerance edge: an eigenvalue exactly at -n eps |w_max| has measure zero",
    ("linalg.py", "w[0] <= SINGULARITY_RTOL * w[-1]"):
        "a tolerance edge: a condition number of exactly 1e12 has measure zero",
    ("linalg.py", "last_step / sigma_norm <= DARE_CHANGE_TOL"):
        "a tolerance edge: a relative change of exactly 1e-12 has measure zero",
    ("linalg.py", "residual < DARE_RESIDUAL_TOL"):
        "a tolerance edge: a residual of exactly 1e-10 has measure zero",
    ("linalg.py", "scaled < DARE_RESIDUAL_TOL"):
        "a tolerance edge: a scaled residual of exactly 1e-10 has measure zero",
    ("bounds.py", "lhs <= rhs"):
        "a tolerance edge: ||H||^2 exactly 1 + eta / s1 has measure zero",
    ("simulation.py", "a > 0.0001"):
        "repr and orjson both write 0.0001",
    ("filtering.py", "d <= nw - 1"):
        "one more doubling round works on an empty slice of the window ends",
    ("simulation.py", "8 * trials * T * (system.n + system.q) >= sys.maxsize"):
        "a count of bytes is a multiple of 8 and sys.maxsize is odd: the two are never equal",
    ("simulation.py", "CHUNK_STEPS = 16"):
        "the chunk length is bit-neutral: any chunk gives the bits of a step at a time",
    ("simulation.py", "CHUNK_STEPS = 4"):
        "the chunk length is bit-neutral: any chunk gives the bits of a step at a time",
}


def _min_max_field(func: ast.expr) -> str | None:
    """The field of a call's ``func`` that names ``min`` or ``max``, if one does."""
    if isinstance(func, ast.Name) and func.id in SWAP:
        return "id"
    if isinstance(func, ast.Attribute) and func.attr in SWAP:
        return "attr"
    return None


def _numeric_constant(node: ast.stmt) -> bool:
    """Whether a module-level statement assigns an int or float literal (not a bool)."""
    return (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
            and type(node.value.value) in (int, float))


def _raises(tree: ast.AST) -> dict:
    """Each ``raise`` statement of ``tree``, mapped to the statement list that holds it and its index there."""
    return {stmt: (body, i) for node in ast.walk(tree) for field in ("body", "orelse", "finalbody")
            if isinstance(body := getattr(node, field, None), list)
            for i, stmt in enumerate(body) if isinstance(stmt, ast.Raise)}


def mutants(path: Path):
    """Yield (line, mutated expression, mutated module source) for each mutant of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    raises = _raises(tree)
    sites = sorted([*(node for node in ast.walk(tree)
                      if isinstance(node, ast.Compare)
                      or isinstance(node, ast.Call) and _min_max_field(node.func)),
                    *filter(_numeric_constant, tree.body), *raises],
                   key=lambda node: (node.lineno, node.col_offset))
    for node in sites:
        if isinstance(node, ast.Raise):
            body, i = raises[node]
            body[i] = ast.Pass()
            yield node.lineno, f"pass  # {ast.unparse(node)}", ast.unparse(tree)
            body[i] = node
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value.value
            for nudged in (value * NUDGE, value // NUDGE if isinstance(value, int) else value / NUDGE):
                if nudged != value:
                    node.value.value = nudged
                    yield node.lineno, ast.unparse(node), ast.unparse(tree)
            node.value.value = value
            continue
        if isinstance(node, ast.Call):
            field = _min_max_field(node.func)
            name = getattr(node.func, field)
            setattr(node.func, field, SWAP[name])
            yield node.lineno, ast.unparse(node), ast.unparse(tree)
            setattr(node.func, field, name)
            continue
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                node.ops[i] = FLIP[type(op)]()
                # a chained comparison is shown as the one link that flipped
                link = ast.Compare(node.comparators[i - 1] if i else node.left, [node.ops[i]],
                                   [node.comparators[i]])
                yield node.lineno, ast.unparse(link), ast.unparse(tree)
                node.ops[i] = op


def passes(copy: Path, timeout: float | None = None) -> bool:
    """Whether ``tests`` pass in ``copy``; ``TimeoutExpired`` after ``timeout`` seconds."""
    # no bytecode: two mutants of one size written within a second would
    # otherwise share a cached .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=timeout)
    return proc.returncode == 0


def survives(copy: Path, target: Path, source: str, timeout: float) -> bool:
    """Whether ``tests`` pass in ``copy`` within ``timeout`` seconds with ``target`` holding ``source``."""
    original = target.read_text(encoding="utf-8")
    target.write_text(source, encoding="utf-8")
    try:
        return passes(copy, timeout)
    except subprocess.TimeoutExpired:
        return False
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("modules", nargs="*", help="module file stems to mutate (default: all)")
    args = parser.parse_args(argv)
    files = [ROOT / PACKAGE / f"{name}.py" for name in args.modules] or sorted((ROOT / PACKAGE).glob("*.py"))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        start = time.monotonic()
        if not passes(copy):
            print("the unmutated suite fails in the copy, so no mutant can be told apart", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        for path in files:
            for line, text, source in mutants(path):
                if (path.name, text) in EQUIVALENT:
                    continue
                site = f"{path.name}:{line}  {text}"
                alive = survives(copy, copy / PACKAGE / path.name, source, timeout)
                print(f"{site}  {'SURVIVED' if alive else 'killed'}", flush=True)
                if alive:
                    survivors.append(site)
    print(f"{len(survivors)} survivor(s)" + "".join(f"\n  {site}" for site in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
