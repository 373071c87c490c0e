"""Independent checks for the benchmark's outputs.

Every check recomputes the expected value from a closed form or from the
stored block heights and probabilities, with its own arithmetic.  Nothing
here imports ``orlicz_lab``, so a fault in the library cannot make its
own output look right.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SQRT3 = math.sqrt(3.0)
#: Probability of the ``W_0`` block: all of the middle third of [0, 1].
W0_PROBABILITY = 2.0 / 3.0 - 1.0 / 3.0
#: ``rho_c``'s default tolerance: bisection stops at ``tol * max(1, |m|)``.
RHO_TOL = 1e-6
#: ``luxemburg_norm`` stops its bisection at this relative width.
LUX_WIDTH = 1e-10


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(value: float, expected: float, rel: float, what: str,
                  floor: float = 0.0) -> None:
    """``|value - expected| <= rel * max(|expected|, floor)``."""
    scale = max(abs(expected), floor)
    require(abs(value - expected) <= rel * scale,
            f"{what}: got {value!r}, expected {expected!r} (rel {rel:g})")


# -- Orlicz functions, written out from their definitions -------------------

def power_phi(p: float):
    return lambda t: np.asarray(t, dtype=float) ** p


def exp_phi(t):
    return np.expm1(np.asarray(t, dtype=float))


def entropy_phi(t):
    t = np.asarray(t, dtype=float)
    return (1.0 + t) * np.log1p(t) - t


def sparse_phi(bursts: int = 12, ratio: float = 2.0):
    """Piecewise-linear phi with kinks ``ratio**(k*k)`` and slope
    multiplied by ``ratio**k`` at kink ``k`` (slope 1 at the origin)."""
    kinks = np.array([ratio ** (k * k) for k in range(1, bursts + 1)])
    slopes = np.cumprod([1.0] + [ratio ** k for k in range(1, bursts + 1)])
    edges = np.concatenate(([0.0], kinks))
    values = np.concatenate(([0.0], np.cumsum(slopes[:-1] * np.diff(edges))))

    def phi(t):
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(edges, t, side="right") - 1
        return values[k] + slopes[k] * (t - edges[k])

    return phi


#: The library's ``CATALOG`` keys, each with its function.
CATALOG_PHI = {
    "power2": power_phi(2.0),
    "power3": power_phi(3.0),
    "exp": exp_phi,
    "entropy": entropy_phi,
    "sparse": sparse_phi(),
}
POWER_EXPONENT = {"power2": 2.0, "power3": 3.0}


def modular(x, p, phi, lam: float) -> float:
    return math.fsum(np.asarray(p) * phi(np.abs(np.asarray(x)) / lam))


def lp_norm(x, p, r: float) -> float:
    return math.fsum(np.asarray(p) * np.abs(np.asarray(x)) ** r) ** (1.0 / r)


# -- norms ------------------------------------------------------------------

def check_luxemburg(x, p, name: str, value: float) -> None:
    """Closed form under ``t^p``; elsewhere the modular crosses 1 inside
    ten bisection widths of the returned value."""
    if name in POWER_EXPONENT:
        require_close(value, lp_norm(x, p, POWER_EXPONENT[name]), 1e-9,
                      f"luxemburg[{name}]")
        return
    phi = CATALOG_PHI[name]
    w = 10 * LUX_WIDTH
    require(modular(x, p, phi, value * (1 - w)) > 1.0,
            f"luxemburg[{name}] {value!r}: modular below 1 just under it")
    require(modular(x, p, phi, value * (1 + w)) <= 1.0,
            f"luxemburg[{name}] {value!r}: modular above 1 just over it")


def check_orlicz_power(y, p, name: str, value: float) -> None:
    """The Orlicz norm under ``t^p`` is the ``L^q`` norm, ``q = p/(p-1)``."""
    e = POWER_EXPONENT[name]
    require_close(value, lp_norm(y, p, e / (e - 1.0)), 1e-6, f"orlicz[{name}]")


def check_holder(x, y, p, lux_x: float, orlicz_y: float, what: str) -> None:
    lhs = math.fsum(np.asarray(p) * np.abs(np.asarray(x) * np.asarray(y)))
    require(lhs <= lux_x * orlicz_y * (1 + 1e-9),
            f"{what}: E|XY| = {lhs!r} exceeds {lux_x!r} * {orlicz_y!r}")


# -- closure steps ----------------------------------------------------------

def split_level(x, p, phi, budget: float) -> float:
    """Smallest level in ``{0} u {|x_i|}`` whose modular tail fits the budget."""
    a = np.abs(np.asarray(x))
    terms = np.asarray(p) * phi(a)
    for level in np.unique(np.concatenate(([0.0], a))):
        if math.fsum(terms[a > level]) <= budget:
            return float(level)
    raise CheckFailed("no split level")  # the largest level has tail 0


def check_split(x, p, phi, budget: float, k: float, z) -> None:
    require(k == split_level(x, p, phi, budget), f"split level {k!r}")
    x = np.asarray(x)
    require(np.array_equal(np.asarray(z), np.where(np.abs(x) > k, x, 0.0)),
            "split remainder is not X above the level")


def check_dominator(z_list, p, phi, values, sup_modular: float) -> None:
    sup = np.max([np.abs(np.asarray(z)) for z in z_list], axis=0)
    require(np.array_equal(np.asarray(values), sup), "dominator is not sup |Z_n|")
    expected = modular(sup, p, phi, 1.0)
    require_close(sup_modular, expected, 1e-12, "sup modular", floor=1e-300)
    require(expected <= sum(2.0 ** -n for n in range(1, len(z_list) + 1)),
            "sup modular exceeds sum 2^-n")


def simplex_qp_l2(cands, p) -> float:
    """``min ||sum_i w_i W_i||_2`` over the simplex, by solving the KKT
    system on every support and keeping the feasible solutions."""
    a = np.asarray(cands, dtype=float)
    gram = (a * np.asarray(p)) @ a.T
    best = math.inf
    k = len(a)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            g = gram[np.ix_(support, support)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * g
            kkt[:size, size] = kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                w = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9:
                best = min(best, float(w @ g @ w))
    return math.sqrt(max(best, 0.0))  # rounding can leave -0 at a zero minimum


def check_mazur_l2(cands, p, weights, value: float) -> float:
    """Weights on the simplex, the value recomputed from them under
    ``t^2``, and never below the exact minimum.  Returns the relative
    excess over that minimum, which the descent does not bound."""
    w = np.asarray(weights, dtype=float)
    require(np.all(w >= -1e-12) and abs(math.fsum(w) - 1.0) <= 1e-9,
            f"mazur weights {w!r} off the simplex")
    combo = w @ np.asarray(cands, dtype=float)
    require_close(value, lp_norm(combo, p, 2.0), 1e-9, "mazur value",
                  floor=1e-300)
    qp = simplex_qp_l2(cands, p)
    require(value >= qp * (1 - 1e-9), f"mazur value {value!r} below the minimum {qp!r}")
    return value / qp - 1.0 if qp > 0 else 0.0


# -- risk measures and conjugation ------------------------------------------

def avar(x, p, alpha: float) -> float:
    """Sorted-tail AVaR (Acerbi & Tasche, 2002): the mean of the worst
    ``alpha`` share of the loss ``-X``."""
    loss = -np.asarray(x, dtype=float)
    order = np.argsort(-loss, kind="stable")
    total, mass = 0.0, 0.0
    for i in order:
        take = min(p[i], alpha - mass)
        if take <= 0.0:
            break
        total += take * loss[i]
        mass += take
    return total / alpha


def in_avar_set(d, p, alpha: float, tol: float = 1e-9) -> bool:
    """``0 <= D <= 1/alpha`` and ``E[D] = 1``, by a direct bound check."""
    d = np.asarray(d, dtype=float)
    return bool(np.all(d >= -tol) and np.all(d <= 1.0 / alpha + tol)
                and abs(math.fsum(np.asarray(p) * d) - 1.0) <= tol)


def check_avar(x, p, alpha: float, value: float, what: str = "avar") -> None:
    require_close(value, avar(x, p, alpha), 1e-9, what, floor=1.0)


def check_conjugate(d, p, alpha: float, value: float) -> None:
    """``rho*(-D)`` is 0 on the AVaR set and +inf off it."""
    expected = 0.0 if in_avar_set(d, p, alpha) else math.inf
    require(value == expected, f"conjugate {value!r}, expected {expected!r}")


# -- the counterexample instance -------------------------------------------

def diagonal_keys(I: int, J: int):
    """Third-region double indices in the instance's diagonal order."""
    return [(d - j, j) for d in range(2, I + J + 1)
            for j in range(max(1, d - I), min(J, d - 1) + 1)]


def block_table(first, third, keys, w0_probability: float):
    """Symbol -> (atom, height, probability) from stored blocks.

    ``first`` and ``third`` are lists of ``(height, probability)`` for
    ``X_n`` and ``Z_key``; each dual height is fixed by the unit pairing
    ``E[X_n Y_n] = E[W_0 Z_0] = E[W_key Z_key] = 1``.
    """
    table = {}
    for n, (t, q) in enumerate(first, start=1):
        table[("X", n)] = (("A", n), t, q)
        table[("Y", n)] = (("A", n), 1.0 / (t * q), q)
    table[("W0",)] = (("B",), SQRT3, w0_probability)
    table[("Z0",)] = (("B",), 1.0 / (w0_probability * SQRT3), w0_probability)
    for key, (t, q) in zip(keys, third):
        table[("Z", *key)] = (("C", *key), t, q)
        table[("W", *key)] = (("C", *key), 1.0 / (t * q), q)
    return table


def _expand(coeffs: dict, table: dict) -> dict:
    """Atom -> (value, probability), with ``("Xtail", r)`` spread over the
    stored ``X_n``, ``n >= r``."""
    out = {}
    for sym, c in coeffs.items():
        if sym == ("one",):
            continue
        syms = [s for s in table if s[0] == "X" and s[1] >= sym[1]] \
            if sym[0] == "Xtail" else [sym]
        for s in syms:
            atom, h, q = table[s]
            v, _ = out.get(atom, (0.0, q))
            out[atom] = (v + c * h, q)
    return out


def pairing_enclosure(position: dict, dual: dict, table: dict):
    """``E[P D]`` for a position without a constant part, enclosed
    against the symbolic tail ``sum_{n > N} X_n`` of its ``Xtail`` terms.

    The tail meets only D's constant, and ``E[X_n] = t_n p_n =
    (t_n / phi(t_n)) 2^-n`` with ``t / phi(t)`` nonincreasing, so the
    tail's mean is at most ``t_N p_N``.
    """
    require(("one",) not in position, "position has a constant part")
    p_atoms = _expand(position, table)
    d_atoms = _expand(dual, table)
    c_dual = dual.get(("one",), 0.0)
    base = math.fsum(q * v * (d_atoms.get(atom, (0.0, q))[0] + c_dual)
                     for atom, (v, q) in p_atoms.items())
    n_last = max(s[1] for s in table if s[0] == "X")
    _, t_last, q_last = table[("X", n_last)]
    tail = sum(c for s, c in position.items() if s[0] == "Xtail")
    spread = tail * c_dual * t_last * q_last
    return (base, base + spread) if spread >= 0 else (base + spread, base)


def check_rho(value: float, expected: float, what: str) -> None:
    require_close(value, expected, RHO_TOL, what, floor=1.0)


def check_gap_report(report: dict, targets, table: dict, eps: float) -> None:
    """The headline claims of a ``gap_exhibit`` report, recomputed."""
    check_rho(report["rho_minus_w0"], SQRT3, "rho_c(-W0)")
    cert = report["infeasibility_certificate"]
    require(cert is not None and cert["__objective__"] < 0.0,
            "Farkas certificate for -W0 lacks a negative objective")
    (approx,) = report["approximants"]
    s, r = approx["s"], approx["r"]
    require(approx["rho"] <= RHO_TOL, f"approximant rho {approx['rho']!r} > tol")
    gap = {("Xtail", r): 2.0 ** s, ("W", s, r): 2.0 ** -s}  # X_sr + W_0
    require(len(approx["pairings"]) == len(targets), "pairing rows != targets")
    for row, target in zip(approx["pairings"], targets):
        lo, hi = pairing_enclosure(gap, target, table)
        bound = max(abs(lo), abs(hi))
        require(bound < eps, f"target {row['target']}: bound {bound!r} >= eps")
        require_close(row["bound"], bound, 1e-9, f"target {row['target']} bound",
                      floor=1e-300)


def check_membership(member: bool, m: float, c: float, t: float) -> None:
    """``-c X_n + m`` is a member exactly when ``m >= c t_n``."""
    require(member == (m >= c * t),
            f"membership of -{c!r} X + {m!r} (threshold {c * t!r}) is {member}")
