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
    1 at ``lam`` and at most 1 at ``lam * (1 + 1e-10)``.
    """
    x_abs = np.abs(X.x)
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


def orlicz_norm(Y: RandomVariable, phi: OrliczFunction,
                psi: OrliczFunction | None = None) -> float:
    """Definitional Orlicz norm ``sup{|E[XY]| : ||X||_phi <= 1}``.

    The supremum is ``phi.orlicz_definitional``: the optimal X inverts
    the right-derivative of phi at a common multiplier fixed by the
    unit-modular constraint, which power, exp, entropy and
    piecewise-linear phi solve for exactly (in closed form, by one
    sorted pass, by Newton's method and by one fractional-knapsack pass)
    and other phi by bisection.  An independent Amemiya value
    ``inf_k (1 + E[psi(k|Y|)]) / k`` is computed (``_orlicz_amemiya``: in
    closed form for a power psi, else by golden-section search) and the
    two must agree within 1e-6 relative; the definitional value is
    returned.  The atoms are first sorted by ``(|y_i|, p_i)``, so the
    value does not depend on their order, and both solves run on
    ``|Y| / max|y_i|``, so the value does not depend on the scale of Y.
    """
    y_abs = np.abs(Y.x)
    if not np.any(y_abs > 0):
        return 0.0
    if psi is None:
        psi = conjugate(phi)
    order = np.lexsort((Y.space.p, y_abs))
    m = float(np.max(y_abs))
    y_abs, p = y_abs[order] / m, Y.space.p[order]
    definitional = phi.orlicz_definitional(y_abs, p)
    amemiya = _orlicz_amemiya(y_abs, p, psi)
    scale = max(abs(definitional), abs(amemiya), 1e-300)
    if abs(definitional - amemiya) > 1e-6 * scale:
        raise CrossCheckFailure(
            f"orlicz_norm: definitional {m * definitional!r} vs Amemiya "
            f"{m * amemiya!r} disagree beyond 1e-6 relative "
            f"(conjugate-pair inconsistency?)"
        )
    return m * definitional


def _orlicz_amemiya(y_abs: np.ndarray, p: np.ndarray,
                    psi: OrliczFunction) -> float:
    """``inf_k (1 + E[psi(k|Y|)]) / k``, in closed form when psi provides
    one, else by one golden-section search over ``log10 k`` in [-18, 18],
    down to width 1e-12.  In ``u = 1/k`` the objective is
    ``u + u E[psi(|Y|/u)]``, a line plus the perspective of a convex
    function, so it is unimodal in ``log k``.  It is +inf only at large
    ``k`` (past psi's domain cap, or on overflow), so a tie of two +inf
    probes moves the right end."""
    exact = psi.amemiya_closed_form(y_abs, p)
    if exact is not None:
        return exact

    def objective(log_k: float) -> float:
        k = 10.0 ** log_k
        m = _modular_raw(k * y_abs, p, psi, 1.0)
        return (1.0 + m) / k if math.isfinite(m) else math.inf

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -18.0, 18.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a >= 1e-12:
        if fc < fd or fc == math.inf:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return min(fc, fd)


def holder_check(X: RandomVariable, Y: RandomVariable, phi: OrliczFunction,
                 psi: OrliczFunction | None = None):
    """``E[|XY|] <= ||X||_phi * ||Y||_psi(Orlicz)``; returns (lhs, rhs, holds)."""
    lhs = pairing(X.abs(), Y.abs())
    rhs = luxemburg_norm(X, phi) * orlicz_norm(Y, phi, psi)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9) + 1e-300
