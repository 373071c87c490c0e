"""Audit-deletion sweep over ``counterexample.py``: is every audit load-bearing?

Each ``if`` test in the functions that decide and audit certificates
(``AUDITED`` below) is replaced by ``False``, so that its check never
fires, and ``verify_certificate``'s returned verdict by ``True``, so that
it accepts whatever reaches it; one mutant at a time, in a temporary copy
of the tree.  For each mutant the sweep runs

    python -m pytest tests/test_counterexample.py -x -q

and prints whether a test failed (the mutant is killed) or every test
passed (it survived).  It exits 1 if any mutant survived.

Run from the repository root:

    python tools/audit_mutants.py

It needs nothing beyond the test suite's own dependencies, and it is not
part of the test suite: one sweep takes a few minutes.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("src/orlicz_lab/counterexample.py")
AUDITED = ("_certificate_from_z", "_decide", "membership",
           "verify_certificate", "rho_c", "limit_certificate")
TESTS = ["tests/test_counterexample.py", "-x", "-q", "-p", "no:cacheprovider"]


def mutants(source: str):
    """``(function, condition, replacement)`` for each audit, in source
    order."""
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in AUDITED):
            continue
        found = [(inner.test, "False") for inner in ast.walk(node)
                 if isinstance(inner, ast.If)]
        last = node.body[-1]
        if node.name == "verify_certificate" and isinstance(last, ast.Return):
            found.append((last.value, "True"))
        for expr, replacement in sorted(found, key=lambda f: f[0].lineno):
            yield node.name, expr, replacement


def mutate(source: str, expr: ast.expr, replacement: str) -> str:
    """``source`` with the text of ``expr`` replaced by ``replacement``;
    the lines it spans collapse into one."""
    lines = source.splitlines(keepends=True)
    first, last = expr.lineno - 1, expr.end_lineno - 1
    head = lines[first][:expr.col_offset]
    tail = lines[last][expr.end_col_offset:]
    return "".join(lines[:first] + [head + replacement + tail] + lines[last + 1:])


def run(tree: Path) -> bool:
    """True when the tests pass on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", *TESTS], cwd=tree,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    source = (ROOT / MODULE).read_text()
    found = list(mutants(source))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if not run(tree):
            print("the unmutated tests fail; no sweep", file=sys.stderr)
            return 2
        print(f"{'function':<20} {'line':>5}  {'verdict':<8}  condition")
        for name, expr, replacement in found:
            (tree / MODULE).write_text(mutate(source, expr, replacement))
            killed = not run(tree)
            survivors += not killed
            condition = " ".join(ast.get_source_segment(source, expr).split())
            print(f"{name:<20} {expr.lineno:>5}  "
                  f"{'killed' if killed else 'SURVIVED':<8}  "
                  f"{condition} -> {replacement}", flush=True)
        (tree / MODULE).write_text(source)
    print(f"{len(found) - survivors} of {len(found)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
