"""Finite probability spaces, random variables, pairings and CSV I/O."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericFailure, SpaceMismatch
from .orlicz_functions import _sum_in_order

__all__ = [
    "FiniteSpace",
    "RandomVariable",
    "uniform_space",
    "expectation",
    "pairing",
    "nearest_point",
    "read_positions_csv",
    "write_positions_csv",
]


@dataclass(frozen=True)
class FiniteSpace:
    """Finite probability model: positive atom probabilities summing to 1.

    ``p`` is one read-only float64 array, built once and shared by every
    read; the tuple ``probabilities`` holds the same floats and is what
    equality and hashing compare."""

    probabilities: tuple
    labels: tuple = None
    _p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise InputError("need a nonempty probability vector")
        if not np.all(np.isfinite(p)):
            raise InputError("atom probabilities must be finite")
        if np.any(p <= 0):
            raise InputError("atom probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InputError(f"probabilities sum to {p.sum()!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "probabilities", tuple(p.tolist()))
        labels = self.labels
        if labels is None:
            labels = _default_labels(len(p))
        elif len(labels) != len(p):
            raise InputError("label count must match atom count")
        object.__setattr__(self, "labels", tuple(labels))

    def __reduce__(self):
        # rebuilt through __post_init__, so copies keep ``p`` read-only
        return FiniteSpace, (self.probabilities, self.labels)

    @property
    def n_atoms(self) -> int:
        return len(self.probabilities)

    @property
    def p(self) -> np.ndarray:
        return self._p

    def rv(self, values) -> "RandomVariable":
        return RandomVariable(self, values)

    def constant(self, c: float) -> "RandomVariable":
        return self.rv(np.full(self.n_atoms, float(c)))


#: ``("0", "1", ..., str(n - 1))``, made once per atom count
_default_labels = functools.lru_cache(64)(lambda n: tuple(map(str, range(n))))


def uniform_space(n: int) -> FiniteSpace:
    if n < 1:
        raise InputError(f"uniform_space needs at least one atom, not {n!r}")
    return FiniteSpace(tuple([1.0 / n] * n))


@dataclass(frozen=True)
class RandomVariable:
    """Atomwise-valued position on a finite space.

    ``x`` is one read-only float64 array, built once and shared by every
    read; the tuple ``values`` holds the same floats and is what equality
    and hashing compare."""

    space: FiniteSpace
    values: tuple
    _x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.array(self.values, dtype=float)
        if x.ndim != 1 or len(x) != self.space.n_atoms:
            raise InputError("value list length must equal atom count")
        x.flags.writeable = False
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "values", tuple(x.tolist()))

    def __reduce__(self):
        return RandomVariable, (self.space, self.values)

    @property
    def x(self) -> np.ndarray:
        return self._x

    @functools.cached_property
    def sorted_abs(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``(|x|, p, max|x|)`` sorted by ``(|x_i|, p_i)``, made once;
        NumericFailure names the first atom that is not finite."""
        bad = np.flatnonzero(~np.isfinite(self.x))
        if bad.size:
            raise NumericFailure(f"value {self.values[bad[0]]!r} on atom "
                                 f"{self.space.labels[bad[0]]} is not finite")
        x_abs, p = np.abs(self.x), self.space.p
        order = np.lexsort((p, x_abs))
        x_abs, p = x_abs[order], p[order]
        x_abs.flags.writeable = p.flags.writeable = False
        return x_abs, p, float(x_abs[-1])

    def __add__(self, other):
        if isinstance(other, RandomVariable):
            _same_space(self, other)
            return self.space.rv(self.x + other.x)
        return self.space.rv(self.x + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RandomVariable):
            _same_space(self, other)
            return self.space.rv(self.x - other.x)
        return self.space.rv(self.x - float(other))

    def __mul__(self, c):
        return self.space.rv(self.x * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self.space.rv(-self.x)

    def abs(self) -> "RandomVariable":
        return self.space.rv(np.abs(self.x))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.x)))


def _same_space(X: RandomVariable, Y: RandomVariable):
    if X.space is not Y.space and X.space != Y.space:
        raise SpaceMismatch("random variables live on different spaces")


def expectation(X: RandomVariable) -> float:
    """Sum p_i x_i in fixed atom order (bitwise reproducible)."""
    return _sum_in_order(p * x for p, x in zip(X.space.probabilities, X.values))


def pairing(X: RandomVariable, Y: RandomVariable) -> float:
    """Bilinear pairing E[XY], summed in fixed atom order."""
    _same_space(X, Y)
    return _sum_in_order(p * x * y for p, x, y
                         in zip(X.space.probabilities, X.values, Y.values))


def nearest_point(points, p):
    """Nearest point to 0 of the convex hull of ``points`` (rows of atom
    values) in the ``E[UV]`` geometry of the probabilities ``p``.

    Wolfe's algorithm (Math. Prog. 11, 1976) on the points ``sqrt(p) P_k``:
    add the point of least ``E[x P_j]`` while that is below ``E[x^2]``,
    then move to the affine minimiser of the chosen points, dropping one at
    the simplex's edge while a weight would turn negative.  In floats it
    also stops when ``x`` is within rounding of 0, when ``E[x^2]`` stalls,
    or after ``10 (k + n)`` cycles for k points on n atoms.

    Returns ``(w, x, margin)``: ``x = w @ points``, and ``margin`` is
    ``min_k E[x P_k]`` less its rounding floor ``4 (n + 2) eps |x|
    max_k |P_k|`` (``|U| = E[U^2]^(1/2)``), so ``E[xy] >=
    margin`` on the hull.  A positive margin certifies that ``x``
    separates 0 from the hull, at distance at least ``margin / |x|``;
    otherwise ``w`` combines the points to a norm at most rounding.
    """
    P = np.asarray(points, dtype=float)
    p = np.asarray(p, dtype=float)
    k, n = P.shape
    Q = P * np.sqrt(p)
    sq = np.sum(Q * Q, axis=1)
    top = float(np.max(sq))
    rounding = 4.0 * (n + 2) * np.finfo(float).eps
    w = np.zeros(k)
    w[np.argmin(sq)] = 1.0
    if top > 0.0:
        Q = Q / math.sqrt(top)
        xx = float(sq.min() / top)
        for _ in range(10 * (k + n)):
            S = np.flatnonzero(w).tolist()
            g = Q @ (w @ Q)
            j = int(np.argmin(g))
            if g[j] >= xx or j in S or xx <= rounding ** 2:
                break
            trial, S = w.copy(), S + [j]
            while True:
                # affine minimiser: x = Q_0 + sum_s z_s (Q_s - Q_0)
                z = np.linalg.lstsq((Q[S[1:]] - Q[S[0]]).T, -Q[S[0]],
                                    rcond=None)[0]
                v = np.concatenate(([1.0 - z.sum()], z))
                if np.all(v >= 0.0):
                    break
                ws = trial[S]
                step = np.full(len(S), np.inf)
                step[v < 0.0] = ws[v < 0.0] / (ws[v < 0.0] - v[v < 0.0])
                i = int(np.argmin(step))
                ws = np.maximum(ws + step[i] * (v - ws), 0.0)
                ws[i] = 0.0
                trial[S] = ws
                S = [s for s, c in zip(S, ws) if c > 0.0]
            trial[S] = v
            y = trial @ Q
            if not y @ y < xx:
                break
            w, xx = trial, float(y @ y)
    x = w @ P
    floor = rounding * math.sqrt(float(p @ (x * x)) * top)
    return w, x, float(np.min(P @ (p * x))) - floor


def read_positions_csv(path) -> RandomVariable:
    """Positions CSV with header ``atom,probability,value``.

    Probabilities are validated to sum to 1 within 1e-9, then
    renormalized exactly for the space constructor; values must be finite.
    """
    labels, probs, values = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [
            "atom", "probability", "value",
        ]:
            raise InputError(f"{path}: expected header 'atom,probability,value'")
        for row in reader:
            labels.append(row["atom"])
            try:
                probs.append(float(row["probability"]))
                values.append(float(row["value"]))
            except (TypeError, ValueError):
                raise InputError(f"{path}: non-numeric row {row!r}") from None
            if not math.isfinite(values[-1]):
                raise InputError(f"{path}: non-finite value in row {row!r}")
    if not labels:
        raise InputError(f"{path}: no data rows")
    total = _sum_in_order(probs)
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"{path}: probabilities sum to {total!r}, not 1")
    probs = [p / total for p in probs]
    space = FiniteSpace(tuple(probs), tuple(labels))
    return space.rv(values)


def write_positions_csv(path, X: RandomVariable):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atom", "probability", "value"])
        for label, p, v in zip(X.space.labels, X.space.probabilities, X.values):
            writer.writerow([label, repr(p), repr(v)])
