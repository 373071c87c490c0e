"""Bisection references for the Orlicz-function solvers and risk measures.

``definitional_by_bisection`` finds the definitional Orlicz value by
bisecting on the multiplier, and ``_NumericConjugate`` is the conjugate
of any phi by bisecting on its right derivative.  Both only assume that
phi is convex and increasing, so they check the library's exact forms
and Newton loops without sharing their steps.  ``acceptance_measure``
is the risk measure of an acceptance set, by bisection on its
membership predicate: a generic reference for the scenario measures'
exact values, and a measure with no dual representation on record.
"""

import math

import numpy as np

from orlicz_lab.errors import NumericFailure, OrliczLabError
from orlicz_lab.finite_model import RandomVariable
from orlicz_lab.orlicz_functions import OrliczFunction, double_until
from orlicz_lab.risk_measures import RiskMeasure

#: Width at which a slope inverse stops: absolute plus relative.
ABS_TOL = 1e-12
REL_TOL = 1e-10


class BracketInvalid(OrliczLabError):
    """A bisection bracket does not satisfy the required endpoint conditions."""


def bisect(holds, lo: float, hi: float, narrow) -> tuple[float, float]:
    """Bracket ``(lo, hi)`` of the monotone predicate ``holds``, false at
    ``lo`` and true at ``hi``, halved until ``narrow(lo, hi)`` is true
    (at most 2100 times, enough to reach adjacent doubles): the midpoint
    replaces ``hi`` where ``holds``, else ``lo``."""
    for _ in range(2100):
        if narrow(lo, hi):
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bracket_and_bisect(holds, narrow, failure):
    """``(lo, hi)`` with the monotone predicate ``holds`` false at ``lo``
    and true at ``hi``: ``hi`` doubled from 1 (``lo`` the point before
    it, 0 at first), then the bracket halved until ``narrow(lo, hi)``.
    NumericFailure with the message ``failure`` once ``hi`` passes
    1e300."""
    lo, hi = 0.0, 1.0
    while not holds(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            raise NumericFailure(failure)
    return bisect(holds, lo, hi, narrow)


def definitional_by_bisection(phi, y_abs, p):
    """``(value, mu)`` as ``phi.orlicz_definitional(y_abs, p)`` gives it:
    the multiplier by doubling from 1 and bisection to width 1e-14, then
    the residual budget handed along flat segments, an atom past phi's
    largest slope having unbounded room.  It raises on a linear last
    piece and when the modular stays below 1 at a domain cap."""
    active = y_abs > 0

    def over(mu):
        # the modular at the multiplier mu passes 1
        try:
            x = phi.rderiv_inverse_left(mu * y_abs)
        except NumericFailure:
            return True
        vals = np.asarray(phi(x), dtype=float)
        return (bool(np.any(~np.isfinite(vals)))
                or float(np.sum(p * vals)) > 1.0)

    lo, hi = bracket_and_bisect(over, lambda lo, hi: hi - lo <= 1e-14 * hi,
                                "orlicz_norm: multiplier bracket not found")
    mu = lo if lo > 0 else hi * 0.5
    if mu == 0.0:
        raise NumericFailure(f"{phi.name}: orlicz_norm multiplier is 0")
    x = phi.rderiv_inverse_left(mu * y_abs)
    budget = 1.0 - float(np.sum(p * np.asarray(phi(x), dtype=float)))
    if budget > 1e-15:
        def left_end(s):
            try:
                return phi.rderiv_inverse_left(s)
            except NumericFailure:
                return math.inf

        x_hi = np.array([left_end(s) for s in (hi * y_abs).tolist()])
        jump = active & (x_hi > x * (1 + 1e-9) + 1e-300)
        for i in np.where(jump)[0]:
            slope = float(phi.rderiv(x[i]))
            if slope <= 0:
                continue
            d = min(x_hi[i] - x[i], budget / (p[i] * slope))
            x[i] += d
            budget -= p[i] * slope * d
            if budget <= 1e-15:
                break
    return math.fsum((p * (x * y_abs)).tolist()), mu


class _NumericConjugate(OrliczFunction):
    """Conjugate of phi evaluated by monotone root-finding on rderiv."""

    orlicz_definitional = definitional_by_bisection

    def __init__(self, phi: OrliczFunction):
        self.phi = phi
        self.name = phi.name + "*"

    def _eval(self, s):
        t = self.phi.rderiv_inverse_left(s)
        return np.maximum(0.0, t * s - self.phi(t))

    def _rderiv(self, s):
        # the maximizer t(s) is the right-derivative of the conjugate
        return self.phi._rderiv_inverse_left(s)

    def _rderiv_inverse_left(self, s):
        # bisection with bracket doubling, entry by entry
        def left_end(s):
            if s <= self.rderiv(0.0):
                return 0.0
            return bracket_and_bisect(
                lambda t: self.rderiv(t) >= s,
                lambda lo, hi: hi - lo <= ABS_TOL + REL_TOL * hi,
                f"{self.name}: slope {s:g} beyond representable range")[1]

        return np.array([left_end(x) for x in s.ravel().tolist()],
                        dtype=float).reshape(s.shape)

    @property
    def analytic_conjugate(self):
        return _NumericConjugate(self)


def acceptance_eval(member, X: RandomVariable, bracket, tol: float = 1e-8) -> float:
    """``inf{m : X + m*1 in C}`` by bisection on a monotone membership
    predicate; ``bracket = (m_lo, m_hi)`` must satisfy
    ``member(X + m_hi) and not member(X + m_lo)``."""
    m_lo, m_hi = float(bracket[0]), float(bracket[1])
    if m_lo >= m_hi:
        raise BracketInvalid("need m_lo < m_hi")
    if not member(X + m_hi):
        raise BracketInvalid(f"X + {m_hi}*1 is not in C (upper bracket invalid)")
    if member(X + m_lo):
        raise BracketInvalid(f"X + {m_lo}*1 is in C (lower bracket invalid)")
    m_lo, m_hi = bisect(lambda m: member(X + m), m_lo, m_hi,
                        lambda lo, hi: hi - lo <= tol * max(1.0, abs(hi)))
    return 0.5 * (m_lo + m_hi)


def acceptance_measure(member, name: str = "acceptance") -> RiskMeasure:
    """Risk measure from an acceptance set, with automatic bracket
    widening by doubling from ``(-1, 1)``: the upper end is the first of
    ``1, 2, 4, ...`` with ``X + m*1`` in C, the lower the first of
    ``-1, -2, -4, ...`` with it outside.  NumericFailure when either
    passes 1e300 (``X + m*1`` never enters C, or is always in it)."""

    def evaluate(X: RandomVariable) -> float:
        _, hi = double_until(lambda h: member(X + h), 1.0,
                             "no upper bracket: X + m*1 never enters C")
        _, lo = double_until(lambda l: not member(X - l), 1.0,
                             "no lower bracket: X + m*1 always in C")
        return acceptance_eval(member, X, (-lo, hi))

    return RiskMeasure(evaluate, name)
