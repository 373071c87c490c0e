"""Orlicz functions, conjugates and Delta_2-failure witnesses.

An Orlicz function here is a convex increasing function ``phi`` on
``[0, inf)`` with ``phi(0) = 0``, ``phi(t) > 0`` for ``t > 0`` and
superlinear growth.  The catalog spans the four Delta_2 combinations:

* ``power``   -- ``t**p``            (Delta_2 yes, conjugate yes)
* ``exp``     -- ``e**t - 1``        (Delta_2 no,  conjugate yes)
* ``entropy`` -- ``(1+t)log(1+t)-t`` (Delta_2 yes, conjugate no)
* ``sparse``  -- piecewise-linear pair failing Delta_2 on both sides
                 within its schedule's range (see ``build_sparse_pair``)
"""

from __future__ import annotations

import bisect as _bisect
import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvalidSchedule, NumericFailure, WitnessNotFound

__all__ = [
    "OrliczFunction",
    "PowerFunction",
    "ExpFunction",
    "ExpConjugateFunction",
    "EntropyFunction",
    "EntropyConjugateFunction",
    "PiecewiseLinearFunction",
    "PiecewiseSlopeSchedule",
    "sparse_schedule",
    "build_sparse_pair",
    "conjugate",
    "conjugate_value",
    "delta2_witnesses",
    "young_check",
    "parse_phi_spec",
    "phi_spec_string",
    "CATALOG",
]

_BRACKET_CAP = 1e300
#: Most doublings (or safeguarded Newton steps) one bracket search makes.
_MAX_DOUBLINGS = 1100
#: Fewest terms for which ``_fsum`` splits before it calls ``math.fsum``.
_FSUM_SPLIT = 240


def _sum_error(n: int, s: float) -> float:
    """Bound on ``|s - math.fsum(terms)|`` for ``n`` terms >= 0 summed to
    ``s`` in any order: ``(n - 1) u s`` to first order, u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 4.2),
    doubled for rounding, plus the smallest normal float for underflow."""
    return 2.0 * (n + 1) * 2.0 ** -53 * s + 2.0 ** -1022


def _fsum(a: np.ndarray) -> float:
    """``math.fsum(a.tolist())``, the correctly rounded sum of a float array.

    From ``_FSUM_SPLIT`` terms on, ``a`` splits without error at ``sigma =
    2^e > 2 n max|a|`` (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 30,
    2008) into high parts, which sum exactly, and low parts within
    ``u sigma``, whose pairwise sum errs by at most ``_sum_error(n, n u
    sigma)``.  The float sum ``c`` of the two is returned when its TwoSum
    residual and that bound stay below half the gap from ``c`` towards
    zero, its smaller gap, so that ``c`` is the float nearest the exact
    sum; otherwise, and for tiny, huge or non-finite terms, ``fsum`` sums."""
    n = a.size
    if n >= _FSUM_SPLIT:
        m = float(np.abs(a).max())
        if 2.0 ** -900 < m < 2.0 ** 900:
            sigma = math.ldexp(1.0, math.frexp(2 * n * m)[1])
            high = (a + sigma) - sigma
            t, r = float(high.sum()), float((a - high).sum())
            c = t + r
            z = c - t
            e = (t - (c - z)) + (r - z)
            if (abs(e) + _sum_error(n, n * 2.0 ** -53 * sigma)
                    < 0.5 * abs(c - math.nextafter(c, 0.0))):
                return c
    return math.fsum(a.tolist())


def double_until(holds, x: float, failure: str) -> tuple[float, float]:
    """``(before, at)``: ``at`` is the first of ``x, 2x, 4x, ...`` at which
    the monotone predicate ``holds`` is true, ``before`` the point tried
    just before it (0.0 when ``at`` is ``x``).  Raises NumericFailure
    with the message ``failure`` once the point passes 1e300."""
    before = 0.0
    for _ in range(_MAX_DOUBLINGS):
        if holds(x):
            return before, x
        before, x = x, 2.0 * x
        if x > _BRACKET_CAP:
            break
    raise NumericFailure(failure)


def newton_from_right(excess, slope, lo: float, hi: float, rtol: float,
                      certify=None) -> tuple[float, float]:
    """Root bracket ``(lo, hi)`` of a convex nondecreasing ``excess``, with
    ``excess(lo) <= 0 < excess(hi)`` and ``hi - lo <= rtol * lo``, from a
    first bracket of the same kind.

    Newton steps along the right derivative ``slope`` from ``hi`` never
    pass the root of a convex function, so each one moves ``hi``.  A step
    that leaves the bracket, or starts from a value or slope that is not
    finite, is replaced by the midpoint.  A step shorter than a quarter
    of the tolerance is replaced by a probe just left of ``hi``, and so
    is a step shorter than half an ulp of ``hi``, whose Newton point
    rounds onto ``hi`` itself (``c == hi``); a Newton point that lands on
    the root in rounding is followed by a probe just right of it.  A
    probe on the expected side closes the bracket; otherwise the search
    goes on from the narrower bracket.

    ``excess`` and ``slope`` only steer.  Given ``certify``, the excess
    the bracket is certified by or its sign (``excess`` estimating it),
    the closed bracket's ``hi`` and then its ``lo`` are decided again: an
    end on the wrong side becomes the other end, the new end half the
    tolerance beyond it, until ``certify`` agrees."""
    f_hi = excess(hi)
    landed = False
    for _ in range(_MAX_DOUBLINGS):
        if hi - lo <= rtol * lo:
            break
        newton = False
        if landed:
            c = lo * (1.0 + 0.5 * rtol)
        else:
            d = slope(hi) if math.isfinite(f_hi) else math.nan
            c = hi - f_hi / d if 0.0 < d < math.inf else math.nan
            if not lo < c <= hi:
                c = 0.5 * (lo + hi)
            elif hi - c <= 0.25 * rtol * hi:
                c = hi * (1.0 - 0.5 * rtol)
            else:
                newton = True
        f_c = excess(c)
        if f_c > 0.0:
            hi, f_hi = c, f_c
            landed = False
        else:
            lo = c
            landed = newton
    else:
        raise NumericFailure("newton_from_right: bracket did not close")
    if certify is not None:
        while certify(hi) <= 0.0:
            lo, hi = hi, hi * (1.0 + 0.5 * rtol)
        while certify(lo) > 0.0:
            lo, hi = lo * (1.0 - 0.5 * rtol), lo
    return lo, hi


def _run_kernel(kernel, t):
    """``kernel`` on ``t`` as a float array, overflowing to inf without a
    warning; a float for a scalar ``t``."""
    with np.errstate(over="ignore"):
        out = kernel(np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


class OrliczFunction:
    """Base class.  Subclasses provide the kernels ``_eval`` (phi),
    ``_rderiv`` (its right derivative) and ``_rderiv_inverse_left``, and
    those that keep the base multiplier loop ``_rderiv2`` (phi''); the
    public methods run each kernel through :func:`_run_kernel`."""

    name = "orlicz"
    #: the ``parse_phi_spec`` text that rebuilds this function; ``None``
    #: when there is none
    spec: str | None = None
    #: kinks, where the Delta_2 scan looks besides its geometric grid
    breakpoints = ()
    #: upper end of the domain; ``None`` means all of [0, inf)
    domain_cap: float | None = None

    def _beyond_cap(self, t) -> bool:
        """Whether some entry of ``t`` passes the domain cap by more than
        a relative 1e-12."""
        return (self.domain_cap is not None
                and bool(np.any(t > self.domain_cap * (1 + 1e-12))))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self._beyond_cap(t):
            raise NumericFailure(
                f"{self.name}: evaluation beyond domain cap {self.domain_cap:g}"
            )
        return _run_kernel(self._eval, t)

    def rderiv(self, t):
        return _run_kernel(self._rderiv, t)

    @property
    def analytic_conjugate(self) -> "OrliczFunction | None":
        return None

    def luxemburg_closed_form(self, x_abs: np.ndarray, p: np.ndarray) -> float | None:
        """Luxemburg norm of atoms ``x_abs >= 0`` (not all zero) with
        probabilities ``p`` in closed form, or None when there is none."""
        return None

    def orlicz_definitional(self, y_abs: np.ndarray,
                            p: np.ndarray) -> tuple[float, float]:
        """``(value, mu)``: ``value = sup{E[X y] : E[self(X)] <= 1, X >= 0}``
        for atoms ``y_abs >= 0`` (not all zero, sorted ascending) with
        probabilities ``p``, and ``mu`` its Lagrange multiplier (``inf``
        when no constraint binds but the domain cap).

        The optimal X is ``x = rderiv_inverse_left(mu * y_abs)`` at the
        multiplier ``mu`` where the modular ``E[self(x)]`` reaches 1.  It
        is convex in ``mu``, with slope ``E[mu y**2 / phi''(x)]``, so
        Newton's method runs from the right to width 1e-14, from the
        bracket that doubling from ``mu0 = sqrt(2 / E[y**2])`` finds
        (under entropy and exp* the modular is at least
        ``mu**2 E[y**2] / 2``, so at least 1 there).
        Each ``mu``'s x is made once; the excess is one correctly
        rounded sum (``_fsum``), and the slope, which only picks the
        Newton point, a pairwise one.  Power, exp and piecewise-linear phi
        solve for ``mu`` exactly instead, each summing its value as one
        correctly rounded sum too."""
        @functools.cache
        def at(mu: float) -> tuple[np.ndarray | None, float]:
            try:
                x = self.rderiv_inverse_left(mu * y_abs)
            except NumericFailure:  # a slope beyond the double range
                return None, math.inf
            return x, _fsum(p * self(x)) - 1.0

        def excess(mu: float) -> float:
            return at(mu)[1]

        y2 = y_abs ** 2

        def slope(mu: float) -> float:
            return float((p * mu * y2
                          / _run_kernel(self._rderiv2, at(mu)[0])).sum())

        mu0 = math.sqrt(2.0 / _fsum(p * y2))
        lo, hi = double_until(lambda mu: excess(mu) > 0.0, mu0,
                              "orlicz_norm: multiplier bracket not found")
        mu, _ = newton_from_right(excess, slope, lo, hi, 1e-14)
        return _fsum(p * (at(mu)[0] * y_abs)), mu

    def rderiv_inverse_left(self, s):
        """Left endpoint of ``{t : rderiv(t) = s}`` (0 when rderiv(0) >= s),
        entrywise; a scalar ``s`` gives a float.  Raises NumericFailure
        when some entry of ``s`` is NaN or some entry of the result is not
        finite (a slope beyond the representable range)."""
        if np.isnan(s).any():
            raise NumericFailure(f"{self.name}: slope is NaN")
        out = _run_kernel(self._rderiv_inverse_left, s)
        if not np.isfinite(out).all():
            raise NumericFailure(f"{self.name}: slope beyond representable range")
        return out

    def inverse(self, v: float) -> float:
        """Solve ``self(t) = v`` for ``v > 0``: Newton's method from the
        right on the convex increasing ``self(t) - v`` along ``rderiv``,
        from the bracket that doubling from 1 finds, to relative width
        1e-12.  Returns the bracket's upper end, where ``self`` exceeds
        ``v``."""
        excess = functools.cache(lambda t: float(self(t)) - v)
        lo, hi = double_until(lambda t: excess(t) > 0.0, 1.0,
                              "phi_inverse: bracket not found")
        return newton_from_right(excess, self.rderiv, lo, hi, 1e-12)[1]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PowerFunction(OrliczFunction):
    """``coef * t**p`` with ``p >= 1``; superlinear only for ``p > 1``."""

    def __init__(self, p: float, coef: float = 1.0):
        if not 1 <= p < math.inf:
            raise InputError(f"power exponent must be finite and >= 1, got {p}")
        if not 0 < coef < math.inf:
            raise InputError("power coefficient must be positive and finite")
        self.p = float(p)
        self.coef = float(coef)
        self.name = f"power(p={p:g})" if coef == 1.0 else f"power(p={p:g},c={coef:g})"
        if coef == 1.0:  # %g where it round-trips p, else the lossless repr
            short = f"{self.p:g}"
            self.spec = f"power:p={short if float(short) == self.p else repr(self.p)}"

    def _eval(self, t):
        out = self.coef * t ** self.p
        if self.coef < 1.0 and np.isinf(out).any():
            # t**p overflowed before coef scaled it back into range: take
            # it at t / 2**k and fold 2**(k p) >= 1/coef into coef, so that
            # for integer p phi(2t) / phi(t) stays exactly 2**p there.  Where
            # 2**(k p) overflows, its power 2**j goes in by ldexp, exactly;
            # elsewhere j = 0 keeps each value's bits
            k = math.ceil(-math.log2(self.coef) / self.p)
            j = max(0, math.floor(k * self.p) - 1023)
            fold = math.ldexp(self.coef, j) * np.exp2(k * self.p - j)
            scaled = fold * (t * np.exp2(-k)) ** self.p
            out = np.where(np.isinf(out), scaled, out)
        return out

    def _rderiv(self, t):
        return self.coef * self.p * t ** (self.p - 1.0)

    def luxemburg_closed_form(self, x_abs, p):
        # coef * E[(|X|/lam)**p] = 1, scaled by m = max|x| so that no
        # power overflows
        m = float(np.max(x_abs))
        mean = _fsum(p * (x_abs / m) ** self.p)
        return m * (self.coef * mean) ** (1.0 / self.p)

    def orlicz_definitional(self, y_abs, p):
        # the optimal X is proportional to y**(q - 1), q = p/(p - 1), and
        # coef E[X**p] = 1 fixes it, giving coef**(-1/p) E[y**q]**(1 - 1/p);
        # scaled by m = max y so that no power overflows; the multiplier
        # is c p (c E[y**q])**(-1/q).  Under p = 1 the whole budget goes
        # to the largest atom, at the multiplier c / m.
        m = float(np.max(y_abs))
        c = self.coef
        if self.p == 1.0:
            return m / c, c / m
        q = self.p / (self.p - 1.0)
        mean = _fsum(p * (y_abs / m) ** q)
        return (m * c ** (-1.0 / self.p) * mean ** (1.0 - 1.0 / self.p),
                c * self.p * (c * mean) ** (-1.0 / q) / m)

    @property
    def analytic_conjugate(self):
        p, c = self.p, self.coef
        if p == 1.0:
            # 0 up to the slope c, +inf beyond
            return PiecewiseLinearFunction([], [0.0], domain_cap=c,
                                           name=self.name + "*")
        q = p / (p - 1.0)
        cq = (p - 1.0) * c * (c * p) ** (-q)
        return PowerFunction(q, cq)

    def inverse(self, v):
        return (v / self.coef) ** (1.0 / self.p)

    def _rderiv_inverse_left(self, s):
        if self.p == 1.0:
            if np.any(s > self.coef):
                raise NumericFailure("linear function: slope range exhausted")
            return np.zeros_like(s)
        return (np.maximum(s, 0.0) / (self.coef * self.p)) ** (1.0 / (self.p - 1.0))


class ExpFunction(OrliczFunction):
    """``e**t - 1``; fails Delta_2, conjugate satisfies it."""

    name = spec = "exp"

    def _eval(self, t):
        return np.expm1(t)

    def _rderiv(self, t):
        return np.exp(t)

    def orlicz_definitional(self, y_abs, p):
        # the modular at multiplier mu is E[(mu y - 1)+], linear between
        # the kinks 1/y_i: with the atoms from k on active it reaches 1 at
        # mu_k = (1 + P_k) / S_k, P and S the tail sums of p and p y.  The
        # multiplier is mu_k for the largest k whose atom k - 1 stays
        # inactive there.
        tail_p = np.cumsum(p[::-1])[::-1]
        tail_py = np.cumsum((p * y_abs)[::-1])[::-1]
        mu = (1.0 + tail_p) / tail_py
        below = np.concatenate(([0.0], y_abs[:-1]))
        k = np.flatnonzero(mu * below <= 1.0)[-1]
        x = self.rderiv_inverse_left(mu[k] * y_abs)
        return _fsum(p * (x * y_abs)), mu[k]

    @property
    def analytic_conjugate(self):
        return ExpConjugateFunction()

    def inverse(self, v):
        return math.log1p(v)

    def _rderiv_inverse_left(self, s):
        return np.log(np.maximum(s, 1.0))


class ExpConjugateFunction(OrliczFunction):
    """``s log s - s + 1`` for ``s >= 1``, zero below; conjugate of exp."""

    name = "exp*"

    def _eval(self, s):
        s = np.maximum(s, 1.0)
        return s * np.log(s) - s + 1.0

    def _rderiv(self, s):
        return np.log(np.maximum(s, 1.0))

    def _rderiv2(self, s):
        # 1/s for s >= 1; below, where phi'' is 0, the multiplier loop
        # meets only s = 0 (an atom at 0, whose slope term is 0 either
        # way), and 1 keeps that term from 0/0
        return 1.0 / np.maximum(s, 1.0)

    @property
    def analytic_conjugate(self):
        return ExpFunction()

    def _rderiv_inverse_left(self, s):
        return np.where(s > 0, np.exp(s), 0.0)


class EntropyFunction(OrliczFunction):
    """``(1+t)log(1+t) - t``; satisfies Delta_2, conjugate fails it."""

    name = spec = "entropy"

    def _eval(self, t):
        return (1.0 + t) * np.log1p(t) - t

    def _rderiv(self, t):
        return np.log1p(t)

    def _rderiv2(self, t):
        return 1.0 / (1.0 + t)

    @property
    def analytic_conjugate(self):
        return EntropyConjugateFunction()

    def _rderiv_inverse_left(self, s):
        return np.expm1(np.maximum(s, 0.0))  # +0.0 at s = -0.0 too


class EntropyConjugateFunction(OrliczFunction):
    """``e**s - s - 1``; conjugate of the entropy function."""

    name = "entropy*"

    def _eval(self, s):
        return np.expm1(s) - s

    def _rderiv(self, s):
        return np.expm1(s)

    def _rderiv2(self, s):
        return np.exp(s)

    @property
    def analytic_conjugate(self):
        return EntropyFunction()

    def _rderiv_inverse_left(self, s):
        return np.log1p(np.maximum(s, 0.0))


class PiecewiseLinearFunction(OrliczFunction):
    """Convex piecewise-linear function.

    ``breakpoints`` are the strictly increasing positive kinks
    ``b_1 < ... < b_K`` and ``slopes`` the K+1 nondecreasing segment
    slopes (slope ``slopes[k]`` on ``[b_k, b_{k+1})`` with ``b_0 = 0``).
    ``domain_cap`` marks a function that is ``+inf`` beyond the cap
    (this occurs for conjugates of functions with a maximal slope).
    """

    def __init__(self, breakpoints, slopes, domain_cap=None,
                 name="piecewise-linear"):
        b = np.asarray(breakpoints, dtype=float)
        m = np.asarray(slopes, dtype=float)
        if b.ndim != 1 or m.ndim != 1 or len(m) != len(b) + 1:
            raise InvalidSchedule("need len(slopes) == len(breakpoints) + 1")
        if len(b) and (np.any(b <= 0) or np.any(np.diff(b) <= 0)):
            raise InvalidSchedule("breakpoints must be strictly increasing and positive")
        if np.any(m < 0) or np.any(np.diff(m) < 0):
            raise InvalidSchedule("slopes must be nonnegative and nondecreasing")
        self.breakpoints = b
        self.slopes = m
        self.domain_cap = None if domain_cap is None else float(domain_cap)
        self.name = name
        # segment left ends b_0 = 0, b_1, ..., b_K and the knot values
        # phi(b_k), accumulated left to right
        self._edges = np.concatenate(([0.0], b))
        widths = np.diff(self._edges)
        self._knots = np.concatenate(([0.0], np.cumsum(m[:-1] * widths)))
        # the segment ends, closed by the cap (+inf without one)
        self._ends = np.append(
            self._edges, math.inf if domain_cap is None else self.domain_cap)
        self._conjugate = None

    def _segment(self, t):
        k = np.searchsorted(self._edges, t, side="right") - 1
        # searchsorted(..., "right") - 1 never exceeds the last edge
        return np.maximum(k, 0)

    def _eval(self, t):
        k = self._segment(t)
        return self._knots[k] + self.slopes[k] * (t - self._edges[k])

    def _rderiv(self, t):
        return self.slopes[self._segment(t)]

    @property
    def analytic_conjugate(self):
        if self._conjugate is None:
            self._conjugate = _pl_conjugate(self)
        return self._conjugate

    def _rderiv_inverse_left(self, s):
        if self.domain_cap is None and np.any(s > self.slopes[-1]):
            raise NumericFailure(
                f"{self.name}: slope beyond maximal slope {self.slopes[-1]:g}"
            )
        return self._ends[np.searchsorted(self.slopes, s, side="left")]

    def orlicz_definitional(self, y_abs, p):
        # a fractional knapsack over (atom, segment) pairs: a unit of
        # segment k on atom i costs p_i m_k of the modular and earns
        # p_i y_i, so the pairs fill in order of m_k / y_i (on each atom
        # in segment order) until the modular reaches 1; mu is the ratio
        # of the pair filled in part (inf when all fill up to the cap).
        # The stable order of the pairs at or below the w-th smallest ratio
        # is the head of the order of all pairs: only a head is sorted, w
        # growing fourfold from 256 while the head's costs stay within 1
        y, q = y_abs[y_abs > 0], p[y_abs > 0]
        n_seg = len(self.slopes)
        ratio = (self.slopes / y[:, None]).ravel()
        unit = self.slopes * np.diff(self._ends)
        w = 256
        while True:
            head = (np.flatnonzero(ratio <= np.partition(ratio, w - 1)[w - 1])
                    if w < ratio.size else np.arange(ratio.size))
            order = head[np.argsort(ratio[head], kind="stable")]
            spent = np.cumsum(q[order // n_seg] * unit[order % n_seg])
            if spent[-1] > 1.0 or order.size == ratio.size:
                break
            w *= 4
        filled = int(np.searchsorted(spent, 1.0, side="right"))
        x = self._ends[np.bincount(order[:filled] // n_seg, minlength=len(y))]
        mu = math.inf
        if filled < len(order):
            i, k = divmod(int(order[filled]), n_seg)
            rest = 1.0 - _fsum(q * self(x))
            x[i] += max(rest, 0.0) / (q[i] * self.slopes[k])
            mu = self.slopes[k] / y[i]
        return _fsum(q * (x * y)), mu

    def inverse(self, v):
        # exact on the segment whose knot values bracket v
        k = int(np.searchsorted(self._knots, v, side="right")) - 1
        if self.slopes[k] == 0.0:
            # flat zero head: inverse is the end of the flat part
            return float(self._ends[k + 1])
        t = float(self._edges[k] + (v - self._knots[k]) / self.slopes[k])
        if self._beyond_cap(t):
            raise NumericFailure("phi_inverse: value beyond domain cap")
        return t


def _pl_conjugate(f: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    """Exact conjugate of a convex piecewise-linear function.

    Breakpoints and slopes swap roles: the conjugate has breakpoints at
    the slopes of ``f`` and slopes at the breakpoints of ``f``.  A
    function without a domain cap has a maximal slope, so its conjugate
    acquires a cap there; conversely a cap turns into a final slope.
    """
    b = list(f.breakpoints)
    m = list(f.slopes)
    g_bps = m[:-1]
    g_slopes = [0.0] + b
    if f.domain_cap is not None:
        g_bps = g_bps + [m[-1]]
        g_slopes = g_slopes + [f.domain_cap]
        g_cap = None
    else:
        g_cap = m[-1]
    # drop a degenerate zero-slope head (occurs when f had slope 0 at 0)
    while g_bps and g_bps[0] == 0.0:
        g_bps.pop(0)
        g_slopes.pop(0)
    return PiecewiseLinearFunction(g_bps, g_slopes, domain_cap=g_cap,
                                   name=f.name + "*")


@dataclass(frozen=True)
class PiecewiseSlopeSchedule:
    """Breakpoints and segment slopes for a sparse piecewise-linear pair.

    ``slopes[0]`` is the slope on ``[0, breakpoints[0])``.  Strictly
    increasing positive slopes force phi(t) > 0 for t > 0, and the slope
    bursts recorded in the schedule produce Delta_2-failure witnesses
    for phi (while the long multiplicative stretches between bursts
    produce witnesses for the conjugate).
    """

    breakpoints: tuple = field(default_factory=tuple)
    slopes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        b = self.breakpoints
        m = self.slopes
        if len(m) != len(b) + 1:
            raise InvalidSchedule("need len(slopes) == len(breakpoints) + 1")
        if not m or m[0] <= 0:
            raise InvalidSchedule("first slope must be positive")
        if any(x2 <= x1 for x1, x2 in zip(m, m[1:])):
            raise InvalidSchedule("slopes must be strictly increasing")
        if any(t <= 0 for t in b) or any(t2 <= t1 for t1, t2 in zip(b, b[1:])):
            raise InvalidSchedule("breakpoints must be strictly increasing and positive")


def sparse_schedule(bursts: int = 12, ratio: float = 2.0) -> PiecewiseSlopeSchedule:
    """Default sparse schedule: breakpoints ``ratio**(k*k)``, slope burst
    ``ratio**k`` at burst ``k``.

    The breakpoint ratios grow without bound (stretches) and the slope
    ratio at burst ``k`` is at least ``2**k`` for ``ratio >= 2``.
    """
    if bursts < 1:
        raise InvalidSchedule("need at least one burst")
    if not 2.0 <= ratio < math.inf:  # a finite ratio overflows by k = 32
        raise InvalidSchedule("burst ratio must be finite and >= 2")
    overflow = "schedule overflows double precision; reduce bursts"
    try:
        breakpoints = [ratio ** (k * k) for k in range(1, bursts + 1)]
        slopes = [1.0]
        for k in range(1, bursts + 1):
            slopes.append(slopes[-1] * ratio ** k)
    except OverflowError:
        raise InvalidSchedule(overflow) from None
    if not math.isfinite(breakpoints[-1] * slopes[-1]):
        raise InvalidSchedule(overflow)
    return PiecewiseSlopeSchedule(tuple(breakpoints), tuple(slopes))


def build_sparse_pair(schedule: PiecewiseSlopeSchedule) -> PiecewiseLinearFunction:
    """Piecewise-linear phi whose conjugate is exact piecewise-linear;
    both fail Delta_2 up to the schedule's range (bursts for phi,
    stretches for the conjugate), which is where witnesses are found.

    Past its last kink phi is linear, so it satisfies Delta_2 at
    infinity: for the default schedule ``phi(2t)/phi(t) = 2`` at
    ``t = 2^200``.  Only the conjugate fails Delta_2 at infinity,
    through its domain cap (phi's last slope, ``2^78`` by default), so
    each finite instance built on the pair is a truncation shadow of
    the construction.  The pair has a spec only when ``schedule`` is the
    one :func:`sparse_schedule` builds from its burst count and ratio.
    """
    phi = PiecewiseLinearFunction(schedule.breakpoints, schedule.slopes,
                                  name="sparse")
    b = schedule.breakpoints
    with contextlib.suppress(IndexError, InvalidSchedule):
        if schedule == sparse_schedule(len(b), b[0]):
            # repr keeps the ratio lossless
            phi.spec = f"sparse:bursts={len(b)},ratio={float(b[0])!r}"
    return phi


def conjugate(phi: OrliczFunction) -> OrliczFunction:
    """Conjugate of phi as a function object, in closed form; InputError
    names a class that has none."""
    conj = phi.analytic_conjugate
    if conj is None:
        raise InputError(f"{type(phi).__name__} ({phi.name}) has no "
                         f"analytic conjugate")
    return conj


def conjugate_value(phi: OrliczFunction, s: float) -> float:
    """``sup_{t >= 0} (t*s - phi(t))``, from phi's closed-form conjugate:
    ``math.inf`` strictly past its domain cap.  InputError names a class
    without a closed-form conjugate."""
    if s < 0:
        raise InputError("conjugate argument must be nonnegative")
    conj = conjugate(phi)
    if s == 0.0:
        return 0.0
    if conj.domain_cap is not None and s > conj.domain_cap:
        return math.inf
    return float(conj(s))


def delta2_witnesses(phi: OrliczFunction, count: int, t_cap: float = 1e50):
    """Witnesses ``(n, t_n)`` with ``phi(2 t_n) > 2**n * phi(t_n)`` and
    ``phi(t_n) >= 3``, for ``n = 1..count``, found by geometric scanning.

    ``t_n`` is the first point of :func:`_scan_grid` that satisfies both
    inequalities.  The scan stops at the first point where ``phi(t)`` or
    ``phi(2t)`` raises NumericFailure or ``phi(t)`` is not finite.  phi is
    evaluated on the whole grid at once.  ``2**n * phi(t)`` is exact until
    it overflows, so each point's level, the largest ``n`` it witnesses,
    comes from the exponents and mantissas of ``phi(t)`` and ``phi(2t)``,
    and one running maximum of the levels gives every ``t_n``.
    The lower bound ``phi(t_n) >= 3`` keeps downstream block
    probabilities ``1 / (2**n * phi(t_n))`` summable below 1/3.
    Raises :class:`WitnessNotFound` when some ``n`` has no witness below
    the cap -- a semi-decision, since Delta_2 quantifies over all large t.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if not 0 < t_cap < math.inf:
        raise InputError("t_cap must be positive and finite")
    grid = _scan_grid(phi, t_cap)
    a, b = _evaluable_prefix(phi, grid)
    finite = np.isfinite(a)
    stop = len(a) if finite.all() else int(np.argmin(finite))
    a, b = a[:stop], b[:stop]
    (ma, ea), (mb, eb) = np.frexp(a), np.frexp(b)
    # 2**n a = m_a 2**(e_a + n) exactly, and finite while e_a + n <= 1024;
    # a finite b exceeds it while e_a + n < e_b, or = e_b with m_b > m_a
    level = np.where(np.isinf(b), 1024 - ea, eb - ea - (mb <= ma))
    level = np.where((a >= 3.0) & (b > a), level, -1)
    top = int(level.max(initial=0))
    if count > top:
        raise WitnessNotFound(
            f"{phi.name}: no Delta_2-failure witness for n={top + 1} below cap "
            f"{t_cap:g} (function plausibly satisfies Delta_2 up to the cap)"
        )
    first = np.searchsorted(np.maximum.accumulate(level), np.arange(1, count + 1))
    return list(zip(range(1, count + 1), grid[first].tolist()))


def _evaluable_prefix(phi: OrliczFunction, grid):
    """``(phi(grid[:k]), phi(2 grid[:k]))`` for the longest prefix on which
    neither call raises NumericFailure.

    Failure is monotone in t (a domain cap, or a slope beyond the
    representable range), so the prefix length is found by bisection;
    when nothing fails this is one pair of calls.
    """
    def evaluate(k):
        try:
            return phi(grid[:k]), phi(2.0 * grid[:k])
        except NumericFailure:
            return None

    full = evaluate(len(grid))
    if full is not None:
        return full
    # the first k whose prefix of length k + 1 raises
    k = _bisect.bisect_left(range(len(grid)), True,
                            key=lambda k: evaluate(k + 1) is None)
    return evaluate(k)


@functools.cache
def _geometric_table() -> np.ndarray:
    """``t = 1e-2, t *= 2**0.25, ...`` while ``t`` is finite; read-only."""
    pts = [1e-2]
    while math.isfinite(pts[-1]):
        pts.append(pts[-1] * 2.0 ** 0.25)
    table = np.array(pts[:-1])
    table.flags.writeable = False
    return table


def _scan_grid(phi: OrliczFunction, t_cap: float) -> np.ndarray:
    """The geometric table and phi's breakpoints, sorted, up to ``t_cap``,
    half phi's domain cap and half the largest double (``2t`` is finite)."""
    hi = min(t_cap, np.finfo(float).max / 2.0)
    if phi.domain_cap is not None:
        hi = min(hi, phi.domain_cap / 2.0)
    table = _geometric_table()
    kinks = np.asarray(phi.breakpoints, dtype=float)
    return np.sort(np.concatenate(
        (table[:np.searchsorted(table, hi, side="right")], kinks[kinks <= hi])))


def young_check(phi: OrliczFunction, t: float, s: float):
    """Young's inequality ``t*s <= phi(t) + conj(s)``; returns
    ``(lhs, rhs, holds)`` with a small relative slack."""
    if t < 0 or s < 0:
        raise InputError("young_check requires nonnegative arguments")
    lhs = t * s
    rhs = float(phi(t)) + conjugate_value(phi, s)
    return lhs, rhs, lhs <= rhs + 1e-9 * (1.0 + rhs)


def _split_spec(text: str, grammar: dict, kind: str) -> tuple[str, dict]:
    """``(head, params)`` of ``head[:key=value,...]``, the head in lower
    case; ``grammar`` maps each head to its keys and each key to the type
    of its value.  InputError on another head, on a piece without ``=``,
    on a key the head does not take and on a value its type rejects."""
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    if head not in grammar:
        raise InputError(f"unknown {kind} spec {text!r}")
    params = {}
    for piece in rest.split(",") if rest else ():
        key, eq, value = (part.strip() for part in piece.partition("="))
        if not eq:
            raise InputError(f"malformed parameter {piece!r} in {text!r}")
        if key not in grammar[head]:
            raise InputError(f"unknown parameter {key!r} in {text!r}")
        try:
            params[key] = grammar[head][key](value)
        except ValueError as exc:
            raise InputError(f"bad numeric value in {text!r}: {exc}") from None
    return head, params


_PHI_GRAMMAR = {"power": {"p": float}, "exp": {}, "entropy": {},
                "sparse": {"bursts": int, "ratio": float}}


def parse_phi_spec(text: str) -> OrliczFunction:
    """Parse the function mini-language.

    ``power:p=<real>`` | ``exp`` | ``entropy`` |
    ``sparse:bursts=<int>,ratio=<real>`` (both sparse keys optional).
    """
    head, params = _split_spec(text, _PHI_GRAMMAR, "function")
    if head == "power":
        if "p" not in params:
            raise InputError(f"missing parameter 'p' in {text.strip()!r}")
        return PowerFunction(params["p"])
    if head == "sparse":
        return build_sparse_pair(sparse_schedule(**params))
    return ExpFunction() if head == "exp" else EntropyFunction()


def phi_spec_string(phi: OrliczFunction) -> str:
    """The spec text that rebuilds ``phi`` (see :func:`parse_phi_spec`)."""
    if phi.spec is None:
        raise InputError(f"{phi.name} has no spec-string form (a sparse pair "
                         f"has one only when built on sparse_schedule(bursts, "
                         f"ratio))")
    return phi.spec


#: The five catalog entries used throughout the tests.
CATALOG = {
    "power2": PowerFunction(2.0),
    "power3": PowerFunction(3.0),
    "exp": ExpFunction(),
    "entropy": EntropyFunction(),
    "sparse": build_sparse_pair(sparse_schedule()),
}
