"""Seeded Luxemburg and Orlicz norms and budget splits, with every float
written by ``float.hex``, and the fixture that pins them.

The norms run under every ``CATALOG`` function and its conjugate, on
seeded variables of 1, 2, 7, 200, 239, 240, 600 and 1000 atoms at
scales 1e-5, 1 and 1e5; the splits are ``split_with_budget``'s level
and tail modular ``E[1_{|X|>k} phi(|X|)]`` for budgets 2^-1 to 2^-3,
under every ``CATALOG`` function, on the scale-1 variables.  Three
groups reach the piecewise-linear knapsack and the split harder: the
Orlicz norm under the piecewise-linear functions (the sparse pair and
the conjugate of ``t``, whose knapsack fills every pair) on 3000 and
6000 atoms; both norms under the sparse pair on atoms of few distinct
magnitudes, so that knapsack ratios tie; and splits of variables whose
magnitudes repeat.  Two more groups take Newton's probes off the
finite path: under ``t`` capped at 1.5 the Luxemburg bracket's doubling
leaves the domain, so that phi raises, and under exp an atom of
probability 1e-300 makes the doubling overflow ``e^t``.  A call that
raises is recorded by its error type and message.  The first fixture
was written by the library before the norm kernels moved to a
rounding-error filter, its first extension by the library before the
knapsack sorted only the pairs it fills, and its second by the library
before the probes decided finiteness from their sums; running

    PYTHONPATH=src python tests/norm_replay.py

rewrites it from the library on the path.
"""

import json
import pathlib

import numpy as np

from orlicz_lab.closure_lab import split_with_budget
from orlicz_lab.errors import OrliczLabError
from orlicz_lab.finite_model import FiniteSpace
from orlicz_lab.norms import luxemburg_norm, modular, orlicz_norm
from orlicz_lab.orlicz_functions import (CATALOG, PiecewiseLinearFunction,
                                         PowerFunction, conjugate)

FIXTURE = pathlib.Path(__file__).with_name("norm_replay.json")
ATOMS = (1, 2, 7, 200, 239, 240, 600, 1000)
SCALES = (1e-5, 1.0, 1e5)
BUDGETS = (0.5, 0.25, 0.125)
KNAPSACK_ATOMS = (3000, 6000)
TIED_ATOMS = (250, 600, 3000)


def functions():
    """``(name, phi)`` for every ``CATALOG`` function and its conjugate."""
    for name, phi in CATALOG.items():
        yield name, phi
        yield name + "*", conjugate(phi)


def piecewise_linear():
    """``(name, phi)`` for the sparse pair and the conjugate of ``t``."""
    sparse = CATALOG["sparse"]
    yield "sparse", sparse
    yield "sparse*", conjugate(sparse)
    yield "linear*", conjugate(PowerFunction(1.0))


def off_the_finite_path():
    """``(name, X, phi)`` whose Luxemburg probes meet phi raising past its
    domain cap, or a term that overflows to inf."""
    capped = PiecewiseLinearFunction([], [1.0], domain_cap=1.5)
    for n in (1, 7, 600):
        X = variable(n, 1.0, 6)
        yield f"capped {n}", X.space.rv(np.abs(X.x) + 1.0), capped
        space = FiniteSpace((1e-300,) + tuple(np.full(n, 1.0 / n)))
        yield f"rare {n}", space.rv(np.append(1.0, 1e-3 * X.x)), CATALOG["exp"]


def variable(n: int, scale: float, seed: int, digits: int | None = None):
    """Seeded atoms; with ``digits``, rounded to that many decimals, so
    that magnitudes repeat."""
    rng = np.random.default_rng([2028, n, seed])
    space = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
    x = scale * rng.standard_normal(n)
    return space.rv(x if digits is None else np.round(x, digits))


def outcome(call, *args):
    """``call(*args)``'s float.hex, or the error it raised."""
    try:
        return call(*args).hex()
    except OrliczLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def split(X, phi, budget):
    try:
        k, Z, _ = split_with_budget(X, phi, budget)
    except OrliczLabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [k.hex(), modular(Z, phi, 1.0).hex()]


def replay() -> dict:
    out = {}
    for n in ATOMS:
        for scale in SCALES:
            X, Y = variable(n, scale, 0), variable(n, scale, 1)
            for name, phi in functions():
                out[f"{n} {scale!r} {name}"] = [
                    outcome(luxemburg_norm, X, phi),
                    outcome(orlicz_norm, Y, phi)]
        X = variable(n, 1.0, 2)
        for name, phi in CATALOG.items():
            out[f"split {n} {name}"] = [split(X, phi, b) for b in BUDGETS]
    for n in KNAPSACK_ATOMS:
        Y = variable(n, 1.0, 3)
        for name, phi in piecewise_linear():
            out[f"knapsack {n} {name}"] = outcome(orlicz_norm, Y, phi)
    for n in TIED_ATOMS:
        for digits in (0, 1):
            X, Y = variable(n, 1.0, 4, digits), variable(n, 1.0, 5, digits)
            for name, phi in piecewise_linear():
                out[f"tied {n} {digits} {name}"] = [
                    outcome(luxemburg_norm, X, phi),
                    outcome(orlicz_norm, Y, phi)]
            for name, phi in CATALOG.items():
                out[f"split tied {n} {digits} {name}"] = [
                    split(X, phi, b) for b in BUDGETS]
    for name, X, phi in off_the_finite_path():
        out[f"edge {name}"] = [outcome(luxemburg_norm, X, phi),
                               outcome(orlicz_norm, X, phi)]
    return out


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(replay(), indent=0, sort_keys=True) + "\n")
