"""Whole-array references for the norm kernels.

``knapsack_by_full_sort`` is the piecewise-linear fractional knapsack
with every (atom, segment) pair stably sorted by its ratio, and
``split_by_masked_bisection`` the budget split that masks and re-sums
the tail at each bisection probe, over levels from ``np.unique``.  The
library sorts only the head of the pairs that the knapsack fills, and
takes every level and tail of the split from one sort.
``terms_by_finiteness_scan`` and ``probe_by_finiteness_scan`` make a
modular's terms with a scan for terms that are not finite before any
sum; the library decides that from the sum it takes.
``entropy_slope_inverse_by_where`` sets the entropy's slope inverse to
+0.0 at every ``s <= 0`` by ``np.where``, which the library leaves to
``np.maximum``.  Each must give these results bit for bit.
"""

import bisect
import math

import numpy as np

from orlicz_lab.errors import NumericFailure
from orlicz_lab.norms import _exceeds


def terms_by_finiteness_scan(x, p, phi, lam):
    """``p_i phi(|x_i|/lam)``; NumericFailure names the first atom whose
    term is not finite."""
    try:
        vals = np.asarray(phi(np.abs(x) / lam), dtype=float)
    except NumericFailure as exc:
        raise NumericFailure(f"modular evaluation failed: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericFailure(
            f"modular overflow at atom {int(bad[0])} (value {float(x[bad[0]])!r})"
        )
    return p * vals


def probe_by_finiteness_scan(x_abs, p, phi, lam):
    """``(terms, their pairwise sum)`` of ``terms_by_finiteness_scan``,
    with overflow or a point beyond the domain as one +inf term."""
    try:
        terms = terms_by_finiteness_scan(x_abs, p, phi, lam)
    except NumericFailure:
        terms = np.array([math.inf])
    with np.errstate(over="ignore"):
        return terms, float(terms.sum())


def knapsack_by_full_sort(phi, y_abs, p):
    """``phi.orlicz_definitional(y_abs, p)`` for piecewise-linear ``phi``:
    the pairs fill in the stable order of ``m_k / y_i`` until their
    costs, summed one after another, pass 1."""
    y, q = y_abs[y_abs > 0], p[y_abs > 0]
    n_seg = len(phi.slopes)
    cost = q[:, None] * (phi.slopes * np.diff(phi._ends))
    order = np.argsort((phi.slopes / y[:, None]).ravel(), kind="stable")
    filled = int(np.searchsorted(np.cumsum(cost.ravel()[order]), 1.0,
                                 side="right"))
    x = phi._ends[np.bincount(order[:filled] // n_seg, minlength=len(y))]
    mu = math.inf
    if filled < len(order):
        i, k = divmod(int(order[filled]), n_seg)
        rest = 1.0 - math.fsum((q * phi(x)).tolist())
        x[i] += max(rest, 0.0) / (q[i] * phi.slopes[k])
        mu = phi.slopes[k] / y[i]
    return math.fsum((q * (x * y)).tolist()), mu


def split_by_masked_bisection(X, phi, budget):
    """``split_with_budget(X, phi, budget)``'s level: bisection over the
    levels 0 and ``|x_i|``, each probe masking the terms above its level
    and deciding their pairwise sum against the budget through the
    rounding filter."""
    terms = terms_by_finiteness_scan(X.x, X.space.p, phi, 1.0)
    x_abs = np.abs(X.x)
    levels = np.unique(np.concatenate(([0.0], x_abs)))

    def within(i):
        tail = terms[x_abs > levels[i]]
        return not _exceeds(tail, float(np.sum(tail)), budget)

    fits = bisect.bisect_left(range(len(levels) - 1), True, key=within)
    return float(levels[fits])


def entropy_slope_inverse_by_where(s):
    """``EntropyFunction._rderiv_inverse_left`` with the entries ``s <= 0``
    set to +0.0 by ``np.where``."""
    return np.where(s > 0, np.expm1(np.maximum(s, 0.0)), 0.0)
