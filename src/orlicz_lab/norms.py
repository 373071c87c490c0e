"""Luxemburg and Orlicz norms, modulars, and the Hoelder pairing bound."""

from __future__ import annotations

import math

import numpy as np

from .errors import CrossCheckFailure, NumericFailure
from .finite_model import RandomVariable, pairing
from .orlicz_functions import (OrliczFunction, conjugate, double_until,
                               newton_from_right)

__all__ = [
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "holder_check",
    "phi_inverse",
]

def _expect(p: np.ndarray, vals: np.ndarray) -> float:
    """``sum_i p_i v_i`` as one correctly rounded sum, so the value does not
    depend on the order of the atoms."""
    return math.fsum((p * vals).tolist())


def _finite_abs(X: RandomVariable) -> np.ndarray:
    """``|X|``; NumericFailure names the first atom that is not finite."""
    bad = np.flatnonzero(~np.isfinite(X.x))
    if bad.size:
        raise NumericFailure(f"value {X.values[bad[0]]!r} on atom "
                             f"{X.space.labels[bad[0]]} is not finite")
    return np.abs(X.x)


def _modular(x: np.ndarray, p: np.ndarray, phi: OrliczFunction,
             lam: float) -> float:
    """E[phi(|x|/lam)]; NumericFailure names the first atom whose term is
    not finite."""
    try:
        vals = np.asarray(phi(np.abs(x) / lam), dtype=float)
    except NumericFailure as exc:
        raise NumericFailure(f"modular evaluation failed: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericFailure(
            f"modular overflow at atom {int(bad[0])} (value {float(x[bad[0]])!r})"
        )
    return _expect(p, vals)


def _modular_raw(x_abs: np.ndarray, p: np.ndarray, phi: OrliczFunction,
                 lam: float) -> float:
    """E[phi(|X|/lam)] with overflow / beyond-domain reported as +inf."""
    try:
        return _modular(x_abs, p, phi, lam)
    except NumericFailure:
        return math.inf


def modular(X: RandomVariable, phi: OrliczFunction, lam: float) -> float:
    """E[phi(|X| / lam)] for lam > 0."""
    if lam <= 0:
        raise NumericFailure("modular requires lam > 0")
    return _modular(X.x, X.space.p, phi, lam)


def luxemburg_norm(X: RandomVariable, phi: OrliczFunction) -> float:
    """``inf{lam > 0 : E[phi(|X|/lam)] <= 1}``.

    In closed form when phi provides one: under ``coef * t**p`` the norm
    is ``m * (coef * E[(|X|/m)**p])**(1/p)`` with ``m = max|x_i|``.  Under
    a domain cap it is ``m / cap`` when the modular there is at most 1.
    Otherwise by Newton's method from the right in ``v = m / lam`` on the
    convex ``E[phi(v |X| / m)]``, along ``phi.rderiv``, started by
    doubling from ``v = 1`` (``newton_from_right``).  The value returned
    is the lower end ``lam`` of a certified bracket: the modular is above
    1 at ``lam`` and at most 1 at ``lam * (1 + 1e-10)``.  An atom that is
    not finite raises NumericFailure.
    """
    x_abs = _finite_abs(X)
    if not np.any(x_abs > 0):
        return 0.0
    p = X.space.p
    exact = phi.luxemburg_closed_form(x_abs, p)
    if exact is not None:
        return exact
    m = float(np.max(x_abs))
    cap = phi.domain_cap
    if cap is not None and _modular_raw(x_abs, p, phi, m / cap) <= 1.0:
        return m / cap  # below m / cap the largest atom leaves the domain
    x_unit = x_abs / m

    def excess(v: float) -> float:
        return _modular_raw(x_abs, p, phi, m / v) - 1.0

    def slope(v: float) -> float:
        with np.errstate(invalid="ignore"):
            return _expect(p, x_unit * phi.rderiv(x_unit * v))

    lo, hi = double_until(lambda v: excess(v) > 0.0, 1.0,
                          "luxemburg_norm: bracket not found")
    lo, hi = newton_from_right(excess, slope, lo, hi, 1e-10)
    if not math.isfinite(m / lo):
        raise NumericFailure("luxemburg_norm: norm beyond the double range")
    return m / hi


def phi_inverse(phi: OrliczFunction, v: float) -> float:
    """Solve ``phi(t) = v`` for ``v >= 0`` (exact for piecewise-linear)."""
    if v < 0:
        raise NumericFailure("phi_inverse requires v >= 0")
    if v == 0.0:
        return 0.0
    return phi.inverse(v)


def orlicz_norm(Y: RandomVariable, phi: OrliczFunction) -> float:
    """Definitional Orlicz norm ``sup{|E[XY]| : ||X||_phi <= 1}``: the
    Orlicz norm of Y in ``L^psi``, where ``psi = conjugate(phi)``.

    The supremum is ``phi.orlicz_definitional``: the optimal X inverts
    the right-derivative of phi at a multiplier ``mu`` fixed by the
    unit-modular constraint, which power, exp, entropy and
    piecewise-linear phi solve for exactly (in closed form, by one
    sorted pass, by Newton's method and by one fractional-knapsack pass)
    and other phi by bisection.  The check is the Amemiya value
    ``(1 + E[psi(k|Y|)]) / k`` at its minimiser ``k = mu``, one
    evaluation (the limit ``E|Y| psi'(inf)`` when ``mu = inf``): the two
    differ there by ``(1 - E[phi(X)]) / mu`` plus Young's defect, and
    must agree within 1e-6 relative.  The atoms are first sorted by
    ``(|y_i|, p_i)``, so the value does not depend on their order, and
    both run on ``|Y| / max|y_i|``, so it does not depend on the scale
    of Y.  An atom that is not finite raises NumericFailure.
    """
    y_abs = _finite_abs(Y)
    if not np.any(y_abs > 0):
        return 0.0
    psi = conjugate(phi)
    order = np.lexsort((Y.space.p, y_abs))
    m = float(np.max(y_abs))
    y_abs, p = y_abs[order] / m, Y.space.p[order]
    definitional, mu = phi.orlicz_definitional(y_abs, p)
    mu = float(mu)
    if mu == math.inf:
        amemiya = _expect(p, y_abs) * psi.rderiv(math.inf)
    else:
        amemiya = (1.0 + _modular_raw(mu * y_abs, p, psi, 1.0)) / mu
    if not math.isclose(definitional, amemiya, rel_tol=1e-6, abs_tol=1e-306):
        raise CrossCheckFailure(
            f"orlicz_norm: definitional {m * definitional!r} vs Amemiya "
            f"{m * amemiya!r} disagree beyond 1e-6 relative "
            f"(conjugate-pair inconsistency?)"
        )
    return m * definitional


def holder_check(X: RandomVariable, Y: RandomVariable, phi: OrliczFunction):
    """``E[|XY|] <= ||X||_phi * ||Y||_psi``, with X's Luxemburg norm in
    ``L^phi`` and Y's Orlicz norm in ``L^psi``, ``psi = conjugate(phi)``
    (``orlicz_norm(Y, phi)``); returns (lhs, rhs, holds)."""
    lhs = pairing(X.abs(), Y.abs())
    rhs = luxemburg_norm(X, phi) * orlicz_norm(Y, phi)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9) + 1e-300
