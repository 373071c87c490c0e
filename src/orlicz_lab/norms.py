"""Luxemburg and Orlicz norms, modulars, and the Hoelder pairing bound."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CrossCheckFailure, NumericFailure
from .finite_model import RandomVariable, pairing
from .orlicz_functions import (OrliczFunction, _fsum, _sum_error, conjugate,
                               double_until, newton_from_right)

__all__ = [
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "holder_check",
    "phi_inverse",
]

def _exceeds(terms: np.ndarray, s: float, level: float) -> bool:
    """``math.fsum(terms) > level`` for ``terms >= 0`` summed in some
    order to ``s``: from ``s`` outside the bound on ``s + level`` (which
    covers the half ulp at ``level``), else, and for ``s`` not finite,
    by the correctly rounded sum (``_fsum``)."""
    if abs(s - level) > _sum_error(len(terms), s + level):
        return s > level
    return _fsum(terms) > level


def _terms(x: np.ndarray, p: np.ndarray, phi: OrliczFunction,
           lam: float) -> np.ndarray:
    """``p_i phi(|x_i|/lam)``, whose correctly rounded sum is finite.
    Their pairwise sum decides: below 2^1023 the correctly rounded sum
    cannot overflow; otherwise NumericFailure names the first atom whose
    term is not finite, or says that the correctly rounded sum
    overflows."""
    try:
        vals = phi(np.abs(x) / lam)
    except NumericFailure as exc:
        raise NumericFailure(f"modular evaluation failed: {exc}") from exc
    terms = p * vals
    with np.errstate(over="ignore"):
        s = float(terms.sum())
    if s < 2.0 ** 1023:
        return terms
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericFailure(
            f"modular overflow at atom {int(bad[0])} (value {float(x[bad[0]])!r})"
        )
    try:
        math.fsum(terms.tolist())
    except OverflowError:
        raise NumericFailure("modular: the sum of the terms overflows "
                             "the double range") from None
    return terms


def _probe(t: np.ndarray, p: np.ndarray,
           phi: OrliczFunction) -> tuple[np.ndarray, float]:
    """``(p_i phi(t_i), their pairwise sum)`` for magnitudes ``t``; one
    +inf term and +inf when phi raises NumericFailure or the sum is not
    finite.  No kernel gives -inf, and inf and NaN carry into the sum,
    so a finite sum has every term finite."""
    try:
        terms = p * phi(t)
    except NumericFailure:
        return np.array([math.inf]), math.inf
    with np.errstate(over="ignore"):
        s = float(terms.sum())
    if math.isfinite(s):
        return terms, s
    return np.array([math.inf]), math.inf


def modular(X: RandomVariable, phi: OrliczFunction, lam: float) -> float:
    """E[phi(|X| / lam)] for lam > 0, as one correctly rounded sum
    (``_fsum``), so the value does not depend on the order of the atoms."""
    if not lam > 0:
        raise NumericFailure(f"modular requires lam > 0, got {lam!r}")
    return _fsum(_terms(X.x, X.space.p, phi, lam))


def luxemburg_norm(X: RandomVariable, phi: OrliczFunction) -> float:
    """``inf{lam > 0 : E[phi(|X|/lam)] <= 1}``.

    In closed form when phi provides one: under ``coef * t**p`` the norm
    is ``m * (coef * E[(|X|/m)**p])**(1/p)`` with ``m = max|x_i|``.  Under
    a domain cap it is ``m / cap`` when the modular there is at most 1.
    Otherwise by Newton's method from the right in ``v = m / lam`` on the
    convex ``E[phi(v |X| / m)]``, along ``phi.rderiv``, started by
    doubling from ``v = 1`` (``newton_from_right``), over the atoms
    sorted by ``(|x_i|, p_i)`` (``X.sorted_abs``).  Each point's terms
    are made once, in one pass with their pairwise sum, which is +inf
    where phi overflows or leaves its domain (``_probe``): those sums
    steer, and the cap and the two ends of the closed bracket are
    decided as one correctly rounded sum (``_fsum``, as ``modular``
    sums) decides them, an end found on the wrong side moving out by
    half the tolerance; that sum is made only inside Higham's a priori
    bound (2002, section 4.2) on the pairwise sum (``_exceeds``).  The
    value returned is the lower end ``lam`` of that bracket, whatever
    the order of the atoms: the modular is above 1 at ``lam`` and at
    most 1 at ``lam * (1 + 1e-10)``.  An atom that is not finite raises
    NumericFailure.
    """
    x_abs, p, m = X.sorted_abs
    if m == 0.0:
        return 0.0
    exact = phi.luxemburg_closed_form(x_abs, p)
    if exact is not None:
        return exact
    x_unit = x_abs / m

    @functools.cache
    def at(v: float) -> tuple[np.ndarray, float]:
        return _probe(x_abs / (m / v), p, phi)

    def excess(v: float) -> float:
        return at(v)[1] - 1.0

    def above(v: float) -> bool:
        return _exceeds(*at(v), 1.0)

    def slope(v: float) -> float:
        # x_unit * v <= 1e300 and phi' is finite at 0, so each term is
        # 0 * finite or positive * (finite or inf): never NaN
        return float((p * (x_unit * phi.rderiv(x_unit * v))).sum())

    cap = phi.domain_cap
    if cap is not None and not above(cap):
        return m / cap  # below m / cap the largest atom leaves the domain
    lo, hi = double_until(lambda v: excess(v) > 0.0, 1.0,
                          "luxemburg_norm: bracket not found")
    lo, hi = newton_from_right(excess, slope, lo, hi, 1e-10, above)
    if not math.isfinite(m / lo):
        raise NumericFailure("luxemburg_norm: norm beyond the double range")
    return m / hi


def phi_inverse(phi: OrliczFunction, v: float) -> float:
    """Solve ``phi(t) = v`` for finite ``v >= 0``: in closed form for
    power and exp, on its segment for piecewise-linear phi, otherwise
    within 1e-12 relative (``phi.inverse``)."""
    if not 0 <= v < math.inf:
        raise NumericFailure(f"phi_inverse requires finite v >= 0, got {v!r}")
    if v == 0.0:
        return 0.0
    return phi.inverse(v)


def orlicz_norm(Y: RandomVariable, phi: OrliczFunction) -> float:
    """Definitional Orlicz norm ``sup{|E[XY]| : ||X||_phi <= 1}``: the
    Orlicz norm of Y in ``L^psi``, where ``psi = conjugate(phi)``.

    The supremum is ``phi.orlicz_definitional``: the optimal X inverts
    the right-derivative of phi at a multiplier ``mu`` fixed by the
    unit-modular constraint, which power, exp and piecewise-linear phi
    solve for exactly (in closed form, by one sorted pass and by one
    fractional-knapsack pass) and the smooth rest by Newton's method
    from the right.  The check is the Amemiya value
    ``(1 + E[psi(k|Y|)]) / k`` at its minimiser ``k = mu``, one
    evaluation (the limit ``E|Y| psi'(inf)`` when ``mu = inf``): the two
    differ there by ``(1 - E[phi(X)]) / mu`` plus Young's defect, and
    must agree within 1e-6 relative: on the correctly rounded sum
    (``_fsum``) of ``E[psi(mu|Y|)]``, unless the whole interval that
    Higham's bound (2002, section 4.2; ``_sum_error``) puts around its
    pairwise sum passes; the terms and that sum are made in one pass
    (``_probe``).  The atoms are first sorted by ``(|y_i|, p_i)``, so
    the value does not depend on their order, and both run on
    ``|Y| / max|y_i|``, so it does not depend on the scale of Y.  An
    atom that is not finite raises NumericFailure.
    """
    y_abs, p, m = Y.sorted_abs
    if m == 0.0:
        return 0.0
    psi = conjugate(phi)
    y_abs = y_abs / m
    definitional, mu = phi.orlicz_definitional(y_abs, p)
    mu = float(mu)
    if mu == math.inf:
        amemiya = _fsum(p * y_abs) * psi.rderiv(math.inf)
    else:
        terms, s = _probe(mu * y_abs, p, psi)
        # a hair of 2^-40 covers 1 + s and / mu
        err = _sum_error(len(terms), s) + 2.0 ** -40 * (1.0 + s)
        if all(math.isclose(definitional, (1.0 + end) / mu, rel_tol=1e-6,
                            abs_tol=1e-306) for end in (s - err, s + err)):
            return m * definitional
        amemiya = (1.0 + _fsum(terms)) / mu
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
