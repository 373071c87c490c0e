"""Mutation sweep over the checks that decide: is every one load-bearing?

Each target below names a module, the functions whose ``if`` tests are
mutated, which of those tests, what they are replaced by, and the test
file that must kill each mutant:

* ``counterexample.py``'s audits.  Each ``if`` test in the functions
  that decide and audit certificates is replaced by ``False``, so that
  its check never fires, and ``verify_certificate``'s returned verdict
  by ``True``, so that it accepts whatever reaches it; the killer is
  ``tests/test_counterexample.py``.
* ``norms.py``'s rounding-error filter.  Each early exit that reads the
  rounding bound (``_sum_error``, or ``err`` made from it) is forced to
  ``True``: ``_exceeds`` then decides every comparison from the
  pairwise sum, and ``orlicz_norm`` passes every Amemiya check without
  its correctly rounded sum; the killer is ``tests/test_norms.py``.
* ``orlicz_functions.py``'s witness scan.  Each ``if`` test in
  ``delta2_witnesses`` (the count and cap checks, and the test that
  every requested ``n`` has a witness) is replaced by ``False``; the
  killer is ``tests/test_orlicz_functions.py``.

One mutant at a time, in a temporary copy of the tree, the sweep runs

    python -m pytest <killer> -x -q

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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Target(NamedTuple):
    module: Path
    functions: tuple
    replacement: str  # what each selected ``if`` test becomes
    tests: str  # the test file that must kill every mutant
    reads: frozenset = frozenset()  # only ``if`` tests naming one of these
    verdict: str = ""  # the function whose returned verdict becomes True


TARGETS = (
    Target(Path("src/orlicz_lab/counterexample.py"),
           ("_certificate_from_z", "_decide", "membership",
            "verify_certificate", "rho_c", "limit_certificate"),
           "False", "tests/test_counterexample.py",
           verdict="verify_certificate"),
    Target(Path("src/orlicz_lab/norms.py"), ("_exceeds", "orlicz_norm"),
           "True", "tests/test_norms.py",
           reads=frozenset({"_sum_error", "err"})),
    Target(Path("src/orlicz_lab/orlicz_functions.py"), ("delta2_witnesses",),
           "False", "tests/test_orlicz_functions.py"),
)


def _names(expr: ast.expr) -> set:
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def mutants(source: str, target: Target):
    """``(function, condition, replacement)`` for each mutant of
    ``target``, in source order."""
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name in target.functions):
            continue
        found = [(inner.test, target.replacement) for inner in ast.walk(node)
                 if isinstance(inner, ast.If)
                 and (not target.reads or _names(inner.test) & target.reads)]
        last = node.body[-1]
        if node.name == target.verdict and isinstance(last, ast.Return):
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


def run(tree: Path, tests: str) -> bool:
    """True when the tests in ``tests`` pass on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", tests, "-x", "-q",
                           "-p", "no:cacheprovider"], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    total = survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        print(f"{'module':<19} {'function':<20} {'line':>5}  {'verdict':<8}  "
              "condition")
        for target in TARGETS:
            source = (ROOT / target.module).read_text()
            if not run(tree, target.tests):
                print(f"{target.tests} fails unmutated; no sweep",
                      file=sys.stderr)
                return 2
            for name, expr, replacement in mutants(source, target):
                (tree / target.module).write_text(
                    mutate(source, expr, replacement))
                killed = not run(tree, target.tests)
                total += 1
                survivors += not killed
                condition = " ".join(
                    ast.get_source_segment(source, expr).split())
                print(f"{target.module.name:<19} {name:<20} "
                      f"{expr.lineno:>5}  "
                      f"{'killed' if killed else 'SURVIVED':<8}  "
                      f"{condition} -> {replacement}", flush=True)
            (tree / target.module).write_text(source)
    print(f"{total - survivors} of {total} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
