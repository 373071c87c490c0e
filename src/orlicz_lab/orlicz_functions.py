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
    "CATALOG",
]

# Tolerances for the monotone root-finding used by numeric conjugation.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_BRACKET_CAP = 1e300


class OrliczFunction:
    """Base class.  Subclasses provide ``_eval`` and ``_rderiv``.

    ``delta2`` / ``conjugate_delta2`` are analytic flags (``None`` when
    unknown); Delta_2 classification by scanning is only a semi-decision,
    see :func:`delta2_witnesses`.
    """

    name = "orlicz"
    delta2: bool | None = None
    conjugate_delta2: bool | None = None
    #: upper end of the domain; ``None`` means all of [0, inf)
    domain_cap: float | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.domain_cap is not None and np.any(t > self.domain_cap * (1 + 1e-12)):
            raise NumericFailure(
                f"{self.name}: evaluation beyond domain cap {self.domain_cap:g}"
            )
        with np.errstate(over="ignore"):
            out = self._eval(t)
        if out.ndim == 0:
            return float(out)
        return out

    def rderiv(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = self._rderiv(t)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def analytic_conjugate(self) -> "OrliczFunction | None":
        return None

    def luxemburg_closed_form(self, x_abs: np.ndarray, p: np.ndarray) -> float | None:
        """Luxemburg norm of atoms ``x_abs >= 0`` (not all zero) with
        probabilities ``p`` in closed form, or None when there is none."""
        return None

    def amemiya_closed_form(self, y_abs: np.ndarray, p: np.ndarray) -> float | None:
        """Amemiya value ``inf_k (1 + E[self(k * y_abs)]) / k`` of atoms
        ``y_abs >= 0`` (not all zero) with probabilities ``p`` in closed
        form, or None when there is none."""
        return None

    def rderiv_inverse_left(self, s):
        """Left endpoint of ``{t : rderiv(t) = s}`` (0 when rderiv(0) >= s),
        entrywise; a scalar ``s`` gives a float.  Raises NumericFailure
        when some slope is beyond the representable range."""
        out = self._rderiv_inverse_left(np.asarray(s, dtype=float))
        if out.ndim == 0:
            return float(out)
        return out

    def _rderiv_inverse_left(self, s):
        # monotone bisection with bracket doubling, entry by entry
        def left_end(s: float) -> float:
            if s <= self.rderiv(0.0):
                return 0.0
            lo, hi = 0.0, 1.0
            n = 0
            while self.rderiv(hi) < s:
                lo, hi = hi, hi * 2.0
                n += 1
                if hi > _BRACKET_CAP or n > 1100:
                    raise NumericFailure(
                        f"{self.name}: slope {s:g} beyond representable range"
                    )
            while hi - lo > _ABS_TOL + _REL_TOL * hi:
                mid = 0.5 * (lo + hi)
                if self.rderiv(mid) < s:
                    lo = mid
                else:
                    hi = mid
            return hi

        return _elementwise(left_end, s)

    def inverse(self, v: float) -> float:
        """Solve ``self(t) = v`` for ``v > 0``: bracket by doubling, then
        bisect to width 1e-12 absolute plus relative."""
        lo, hi = 0.0, 1.0
        for _ in range(1100):
            try:
                if float(self(hi)) >= v:
                    break
            except NumericFailure:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise NumericFailure("phi_inverse: bracket not found")
        while hi - lo > 1e-12 + 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            try:
                fm = float(self(mid))
            except NumericFailure:
                fm = math.inf
            if fm >= v:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PowerFunction(OrliczFunction):
    """``coef * t**p`` with ``p >= 1``; superlinear only for ``p > 1``."""

    delta2 = True
    conjugate_delta2 = True

    def __init__(self, p: float, coef: float = 1.0):
        if p < 1:
            raise InputError(f"power exponent must be >= 1, got {p}")
        if coef <= 0:
            raise InputError("power coefficient must be positive")
        self.p = float(p)
        self.coef = float(coef)
        self.name = f"power(p={p:g})" if coef == 1.0 else f"power(p={p:g},c={coef:g})"

    def _eval(self, t):
        return self.coef * t ** self.p

    def _rderiv(self, t):
        return self.coef * self.p * t ** (self.p - 1.0)

    def luxemburg_closed_form(self, x_abs, p):
        # coef * E[(|X|/lam)**p] = 1, scaled by m = max|x| so that no
        # power overflows
        m = float(np.max(x_abs))
        mean = math.fsum((p * (x_abs / m) ** self.p).tolist())
        return m * (self.coef * mean) ** (1.0 / self.p)

    def amemiya_closed_form(self, y_abs, p):
        # (1 + A k**q) / k with A = coef * E|Y|**q is least where
        # k**q = 1 / (A (q - 1)), at q/(q - 1) * (A (q - 1))**(1/q); scaled
        # by m = max|y| so that no power overflows
        q = self.p
        if q == 1.0:
            return None  # the infimum is approached only as k -> inf
        m = float(np.max(y_abs))
        mean = math.fsum((p * (y_abs / m) ** q).tolist())
        return m * q / (q - 1.0) * (self.coef * (q - 1.0) * mean) ** (1.0 / q)

    @property
    def analytic_conjugate(self):
        p, c = self.p, self.coef
        if p == 1.0:
            return None  # conjugate jumps to +inf; handled numerically
        q = p / (p - 1.0)
        cq = (p - 1.0) * c * (c * p) ** (-q)
        return PowerFunction(q, cq)

    def _rderiv_inverse_left(self, s):
        if self.p == 1.0:
            if np.any(s > self.coef):
                raise NumericFailure("linear function: slope range exhausted")
            return np.zeros_like(s)
        return (np.maximum(s, 0.0) / (self.coef * self.p)) ** (1.0 / (self.p - 1.0))


class ExpFunction(OrliczFunction):
    """``e**t - 1``; fails Delta_2, conjugate satisfies it."""

    name = "exp"
    delta2 = False
    conjugate_delta2 = True

    def _eval(self, t):
        return np.expm1(t)

    def _rderiv(self, t):
        return np.exp(t)

    @property
    def analytic_conjugate(self):
        return ExpConjugateFunction()

    def _rderiv_inverse_left(self, s):
        return np.log(np.maximum(s, 1.0))


class ExpConjugateFunction(OrliczFunction):
    """``s log s - s + 1`` for ``s >= 1``, zero below; conjugate of exp."""

    name = "exp*"
    delta2 = True
    conjugate_delta2 = False

    def _eval(self, s):
        s = np.maximum(s, 1.0)
        return s * np.log(s) - s + 1.0

    def _rderiv(self, s):
        return np.log(np.maximum(s, 1.0))

    @property
    def analytic_conjugate(self):
        return ExpFunction()

    def _rderiv_inverse_left(self, s):
        with np.errstate(over="ignore"):
            out = np.where(s > 0, np.exp(s), 0.0)
        if np.any(~np.isfinite(out)):
            raise NumericFailure(f"{self.name}: slope beyond representable range")
        return out


class EntropyFunction(OrliczFunction):
    """``(1+t)log(1+t) - t``; satisfies Delta_2, conjugate fails it."""

    name = "entropy"
    delta2 = True
    conjugate_delta2 = False

    def _eval(self, t):
        return (1.0 + t) * np.log1p(t) - t

    def _rderiv(self, t):
        return np.log1p(t)

    @property
    def analytic_conjugate(self):
        return EntropyConjugateFunction()

    def _rderiv_inverse_left(self, s):
        with np.errstate(over="ignore"):
            out = np.where(s > 0, np.expm1(np.maximum(s, 0.0)), 0.0)
        if np.any(~np.isfinite(out)):
            raise NumericFailure(f"{self.name}: slope beyond representable range")
        return out


class EntropyConjugateFunction(OrliczFunction):
    """``e**s - s - 1``; conjugate of the entropy function."""

    name = "entropy*"
    delta2 = False
    conjugate_delta2 = True

    def _eval(self, s):
        return np.expm1(s) - s

    def _rderiv(self, s):
        return np.expm1(s)

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

    def __init__(self, breakpoints, slopes, domain_cap=None, name="piecewise-linear",
                 delta2=None, conjugate_delta2=None):
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
        self.delta2 = delta2
        self.conjugate_delta2 = conjugate_delta2
        # segment left ends b_0 = 0, b_1, ..., b_K and the knot values
        # phi(b_k), accumulated left to right
        self._edges = np.concatenate(([0.0], b))
        widths = np.diff(self._edges)
        self._knots = np.concatenate(([0.0], np.cumsum(m[:-1] * widths)))
        # left end of the segment where the slope first reaches s, indexed
        # by searchsorted(slopes, s, "left"); past the last slope it is
        # the cap (or the last kink)
        top = self.domain_cap if self.domain_cap is not None else self._edges[-1]
        self._slope_edges = np.concatenate((self._edges, [top]))
        self._conjugate = None

    def _segment(self, t):
        k = np.searchsorted(self._edges, t, side="right") - 1
        return np.clip(k, 0, len(self._edges) - 1)

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
        return self._slope_edges[np.searchsorted(self.slopes, s, side="left")]

    def inverse(self, v):
        # exact on the segment whose knot values bracket v
        k = int(np.searchsorted(self._knots, v, side="right")) - 1
        if self.slopes[k] == 0.0:
            # flat zero head: inverse is the right edge of the flat part
            return float(self._edges[k + 1]) if k + 1 < len(self._edges) else math.inf
        t = float(self._edges[k] + (v - self._knots[k]) / self.slopes[k])
        if self.domain_cap is not None and t > self.domain_cap * (1 + 1e-12):
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
    out = PiecewiseLinearFunction(
        g_bps, g_slopes, domain_cap=g_cap, name=f.name + "*",
        delta2=f.conjugate_delta2, conjugate_delta2=f.delta2,
    )
    return out


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
    if ratio < 2.0:
        raise InvalidSchedule("burst ratio must be >= 2")
    breakpoints = [ratio ** (k * k) for k in range(1, bursts + 1)]
    slopes = [1.0]
    for k in range(1, bursts + 1):
        slopes.append(slopes[-1] * ratio ** k)
    if not math.isfinite(breakpoints[-1]) or not math.isfinite(
        breakpoints[-1] * slopes[-1]
    ):
        raise InvalidSchedule("schedule overflows double precision; reduce bursts")
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
    the construction.  The ``delta2`` flags record the failures within
    the range.
    """
    return PiecewiseLinearFunction(
        schedule.breakpoints, schedule.slopes, name="sparse",
        delta2=False, conjugate_delta2=False,
    )


class _NumericConjugate(OrliczFunction):
    """Conjugate of phi evaluated by monotone root-finding on rderiv."""

    def __init__(self, phi: OrliczFunction):
        self.phi = phi
        self.name = phi.name + "*"
        self.delta2 = phi.conjugate_delta2
        self.conjugate_delta2 = phi.delta2

    def _eval(self, s):
        return _elementwise(lambda x: conjugate_value(self.phi, x), s)

    def _rderiv(self, s):
        # the maximizer t(s) is the right-derivative of the conjugate
        return self.phi._rderiv_inverse_left(s)


def _elementwise(f, s):
    """``f`` applied to each entry of ``s``; the result has the shape of
    ``s`` (0-d, length 1 and empty inputs included)."""
    s = np.asarray(s, dtype=float)
    return np.array([f(float(x)) for x in s.ravel()], dtype=float).reshape(s.shape)


def conjugate(phi: OrliczFunction) -> OrliczFunction:
    """Conjugate of phi as a function object (closed form when known)."""
    conj = phi.analytic_conjugate
    return conj if conj is not None else _NumericConjugate(phi)


def conjugate_value(phi: OrliczFunction, s: float) -> float:
    """``sup_{t >= 0} (t*s - phi(t))``.

    Closed forms are used when available; otherwise the maximizer is
    located by monotone root-finding on ``rderiv(t) = s``.
    """
    if s < 0:
        raise InputError("conjugate argument must be nonnegative")
    if s == 0.0:
        return 0.0
    conj = phi.analytic_conjugate
    if conj is not None:
        return float(conj(s))
    t = phi.rderiv_inverse_left(s)  # raises NumericFailure on bracket failure
    return max(0.0, t * s - float(phi(t)))


def delta2_witnesses(phi: OrliczFunction, count: int, t_cap: float = 1e50):
    """Witnesses ``(n, t_n)`` with ``phi(2 t_n) > 2**n * phi(t_n)`` and
    ``phi(t_n) >= 3``, for ``n = 1..count``, found by geometric scanning.

    ``t_n`` is the first point of :func:`_scan_grid` that satisfies both
    inequalities.  The scan stops at the first point where ``phi(t)`` or
    ``phi(2t)`` raises NumericFailure or ``phi(t)`` is not finite.  phi is
    evaluated on the whole grid at once, so every ``n`` shares one pass.
    The lower bound ``phi(t_n) >= 3`` keeps downstream block
    probabilities ``1 / (2**n * phi(t_n))`` summable below 1/3.
    Raises :class:`WitnessNotFound` when some ``n`` has no witness below
    the cap -- a semi-decision, since Delta_2 quantifies over all large t.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if t_cap <= 0:
        raise InputError("t_cap must be positive")
    grid = np.array(_scan_grid(phi, t_cap), dtype=float)
    a, b = _evaluable_prefix(phi, grid)
    finite = np.isfinite(a)
    stop = len(a) if finite.all() else int(np.argmin(finite))
    a, b = a[:stop], b[:stop]
    out = []
    with np.errstate(over="ignore"):  # 2**n * a overflows for fast growth
        for n in range(1, count + 1):
            hits = np.flatnonzero((a >= 3.0) & (b > 2.0 ** n * a))
            if hits.size == 0:
                raise WitnessNotFound(
                    f"{phi.name}: no Delta_2-failure witness for n={n} below cap "
                    f"{t_cap:g} (function plausibly satisfies Delta_2 up to the cap)"
                )
            out.append((n, float(grid[hits[0]])))
    return out


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
    # invariant: the prefix of length lo evaluates, that of length hi raises
    lo, hi = 0, len(grid)
    best = evaluate(0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = evaluate(mid)
        if got is None:
            hi = mid
        else:
            lo, best = mid, got
    return best


def _scan_grid(phi: OrliczFunction, t_cap: float):
    hi = t_cap
    if phi.domain_cap is not None:
        hi = min(hi, phi.domain_cap / 2.0)
    pts = []
    t = 1e-2
    factor = 2.0 ** 0.25
    while t <= hi:
        pts.append(t)
        t *= factor
    if isinstance(phi, PiecewiseLinearFunction):
        pts.extend(b for b in phi.breakpoints if b <= hi)
    return sorted(pts)


def young_check(phi: OrliczFunction, t: float, s: float):
    """Young's inequality ``t*s <= phi(t) + conj(s)``; returns
    ``(lhs, rhs, holds)`` with a small relative slack."""
    if t < 0 or s < 0:
        raise InputError("young_check requires nonnegative arguments")
    lhs = t * s
    rhs = float(phi(t)) + conjugate_value(phi, s)
    return lhs, rhs, lhs <= rhs + 1e-9 * (1.0 + rhs)


def parse_phi_spec(text: str) -> OrliczFunction:
    """Parse the function mini-language.

    ``power:p=<real>`` | ``exp`` | ``entropy`` |
    ``sparse:bursts=<int>,ratio=<real>`` (both sparse keys optional).
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    params = {}
    if rest:
        for piece in rest.split(","):
            k, eq, v = piece.partition("=")
            if not eq:
                raise InputError(f"malformed parameter {piece!r} in {text!r}")
            params[k.strip()] = v.strip()
    try:
        if head == "power":
            return PowerFunction(float(params.pop("p")))
        if head == "exp":
            _reject_extras(params, text)
            return ExpFunction()
        if head == "entropy":
            _reject_extras(params, text)
            return EntropyFunction()
        if head == "sparse":
            bursts = int(params.pop("bursts", 12))
            ratio = float(params.pop("ratio", 2.0))
            _reject_extras(params, text)
            return build_sparse_pair(sparse_schedule(bursts, ratio))
    except KeyError as exc:
        raise InputError(f"missing parameter {exc} in {text!r}") from None
    except ValueError as exc:
        raise InputError(f"bad numeric value in {text!r}: {exc}") from None
    raise InputError(f"unknown function spec {text!r}")


def _reject_extras(params, text):
    if params:
        raise InputError(f"unknown parameters {sorted(params)} in {text!r}")


def phi_spec_string(phi: OrliczFunction) -> str:
    """Round-trip representation for catalog functions."""
    if isinstance(phi, PowerFunction) and phi.coef == 1.0:
        return f"power:p={phi.p:g}"
    if isinstance(phi, ExpFunction):
        return "exp"
    if isinstance(phi, EntropyFunction):
        return "entropy"
    if isinstance(phi, PiecewiseLinearFunction) and phi.name == "sparse":
        # burst count from the number of breakpoints, ratio from the
        # first one (ratio**1); repr keeps the float lossless
        return f"sparse:bursts={len(phi.breakpoints)},ratio={float(phi.breakpoints[0])!r}"
    raise InputError(f"{phi.name} has no spec-string form")


#: The four catalog entries used throughout the tests.
CATALOG = {
    "power2": PowerFunction(2.0),
    "power3": PowerFunction(3.0),
    "exp": ExpFunction(),
    "entropy": EntropyFunction(),
    "sparse": build_sparse_pair(sparse_schedule()),
}
