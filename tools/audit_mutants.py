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
* ``orlicz_functions.py``'s witness scan and kernel boundary.  Each
  ``if`` test in ``delta2_witnesses`` (the count and cap checks, and
  the test that every requested ``n`` has a witness), in
  ``OrliczFunction.__call__`` (the domain cap) and
  ``OrliczFunction.rderiv_inverse_left`` (a NaN slope, and a result
  that is not finite), and in ``PowerFunction._eval`` (the rescaled
  form past the overflow of ``t**p``) is replaced by ``False``; the
  killer is ``tests/test_orlicz_functions.py``.
* The piecewise-linear knapsack's head.  The test that ends the
  widening of the sorted head (the costs pass 1, or every pair is in
  it) is replaced by ``True``, so that the first head is taken as if
  it held the whole fill; the killer is ``tests/test_norms.py``.

Six more mutants edit a piece of source text (``EDITS``):

* ``_fsum``'s acceptance test loses the bound on the low parts'
  rounding, or compares with half ``math.ulp(c)`` instead of half the
  gap below ``c``, which is half as wide at a power of two; the killer
  is ``tests/test_norms.py``.
* ``norms._probe`` takes every sum for finite, so that terms that are
  not finite leave it as they are; and ``norms._terms`` never looks for
  the atom whose term is not finite.  The killer is
  ``tests/test_norms.py``.
* ``split_with_budget`` decides each tail from its running sum alone,
  without the rounding filter's fallback to the correctly rounded sum,
  or starts each level's tail at the first atom on the level
  (``side="left"``), not past the last; the killer is
  ``tests/test_closure_lab.py``.

A target names a module-level function by its name and a method by
``Class.method``.

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
    Target(Path("src/orlicz_lab/orlicz_functions.py"),
           ("delta2_witnesses", "OrliczFunction.__call__",
            "OrliczFunction.rderiv_inverse_left", "PowerFunction._eval"),
           "False", "tests/test_orlicz_functions.py"),
    Target(Path("src/orlicz_lab/orlicz_functions.py"),
           ("PiecewiseLinearFunction.orlicz_definitional",), "True",
           "tests/test_norms.py", reads=frozenset({"spent"})),
)


class Edit(NamedTuple):
    module: Path
    function: str
    old: str  # text found once in the function's source
    new: str
    tests: str


EDITS = (
    Edit(Path("src/orlicz_lab/orlicz_functions.py"), "_fsum",
         "abs(e) + _sum_error(n, n * 2.0 ** -53 * sigma)", "abs(e)",
         "tests/test_norms.py"),
    Edit(Path("src/orlicz_lab/orlicz_functions.py"), "_fsum",
         "0.5 * abs(c - math.nextafter(c, 0.0))", "0.5 * math.ulp(c)",
         "tests/test_norms.py"),
    Edit(Path("src/orlicz_lab/norms.py"), "_probe", "if math.isfinite(s):",
         "if True:", "tests/test_norms.py"),
    Edit(Path("src/orlicz_lab/norms.py"), "_terms", "if bad.size:",
         "if False:", "tests/test_norms.py"),
    Edit(Path("src/orlicz_lab/closure_lab.py"), "split_with_budget",
         "_exceeds(terms[start:], float(tails[start]), budget)",
         "float(tails[start]) > budget", "tests/test_closure_lab.py"),
    Edit(Path("src/orlicz_lab/closure_lab.py"), "split_with_budget",
         'side="right"', 'side="left"', "tests/test_closure_lab.py"),
)


def _names(expr: ast.expr) -> set:
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def functions(tree: ast.Module):
    """``(name, node)`` of each module-level function and of each method
    of a module-level class, the method named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{method.name}", method)
                        for method in node.body
                        if isinstance(method, ast.FunctionDef))


def mutants(source: str, target: Target):
    """``(function, condition, replacement)`` for each mutant of
    ``target``, in source order."""
    for name, node in functions(ast.parse(source)):
        if name not in target.functions:
            continue
        found = [(inner.test, target.replacement) for inner in ast.walk(node)
                 if isinstance(inner, ast.If)
                 and (not target.reads or _names(inner.test) & target.reads)]
        last = node.body[-1]
        if name == target.verdict and isinstance(last, ast.Return):
            found.append((last.value, "True"))
        for expr, replacement in sorted(found, key=lambda f: f[0].lineno):
            yield name, expr, replacement


def mutate(source: str, expr: ast.expr, replacement: str) -> str:
    """``source`` with the text of ``expr`` replaced by ``replacement``;
    the lines it spans collapse into one."""
    lines = source.splitlines(keepends=True)
    first, last = expr.lineno - 1, expr.end_lineno - 1
    head = lines[first][:expr.col_offset]
    tail = lines[last][expr.end_col_offset:]
    return "".join(lines[:first] + [head + replacement + tail] + lines[last + 1:])


def edited(source: str, edit: Edit) -> tuple[str, int]:
    """``source`` with ``edit`` made, and the line it is made on."""
    node = dict(functions(ast.parse(source)))[edit.function]
    lines = source.splitlines(keepends=True)
    head = "".join(lines[:node.lineno - 1])
    body = "".join(lines[node.lineno - 1:node.end_lineno])
    if body.count(edit.old) != 1:
        raise ValueError(f"{edit.old!r} is not once in {edit.function}")
    line = node.lineno + body[:body.index(edit.old)].count("\n")
    return (head + body.replace(edit.old, edit.new)
            + "".join(lines[node.end_lineno:])), line


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
        print(f"{'module':<19} {'function':<44} {'line':>5}  {'verdict':<8}  "
              "condition")
        for tests in sorted({t.tests for t in TARGETS + EDITS}):
            if not run(tree, tests):
                print(f"{tests} fails unmutated; no sweep", file=sys.stderr)
                return 2

        def sweep(module, name, line, mutated, tests, change):
            nonlocal total, survivors
            (tree / module).write_text(mutated)
            killed = not run(tree, tests)
            (tree / module).write_text((ROOT / module).read_text())
            total += 1
            survivors += not killed
            print(f"{module.name:<19} {name:<44} {line:>5}  "
                  f"{'killed' if killed else 'SURVIVED':<8}  {change}",
                  flush=True)

        for target in TARGETS:
            source = (ROOT / target.module).read_text()
            for name, expr, replacement in mutants(source, target):
                condition = " ".join(
                    ast.get_source_segment(source, expr).split())
                sweep(target.module, name, expr.lineno,
                      mutate(source, expr, replacement), target.tests,
                      f"{condition} -> {replacement}")
        for edit in EDITS:
            mutated, line = edited((ROOT / edit.module).read_text(), edit)
            sweep(edit.module, edit.function, line, mutated, edit.tests,
                  f"{edit.old} -> {edit.new}")
    print(f"{total - survivors} of {total} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
