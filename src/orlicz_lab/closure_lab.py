"""Executable truncation / Mazur / domination steps behind order closure.

The three steps split a position at a modular-budgeted level, take the
convex combination of small-norm remainders nearest to zero, and assemble an
order dominator ``sup_n |Z_n| + sum_n |W_n|`` whose modular and Markov
tail bounds are certified term by term.  A fourth routine checks the
capped-sup almost-sure extraction estimate ``E[sup_{m>=n}(|X_m - X| ^ 1)]
<= 2^(1-n)``.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import (BoundViolation, HypothesisViolation, InputError,
                     NumericFailure)
from .finite_model import RandomVariable, expectation, nearest_point
from .norms import _exceeds, _terms, luxemburg_norm, modular, phi_inverse
from .orlicz_functions import OrliczFunction

__all__ = [
    "split_with_budget",
    "mazur_min_norm",
    "order_dominator",
    "as_extraction",
]

_MARKOV_EPS = (1e-2, 1e-1, 1.0)


def split_with_budget(X: RandomVariable, phi: OrliczFunction, budget: float):
    """Smallest order-statistic level ``k`` with
    ``E[1_{|X|>k} phi(|X|)] <= budget``; returns ``(k, Z, W)`` with
    ``Z = X 1_{|X|>k}`` and ``W = X 1_{|X|<=k}``.

    The modular tail is a right-continuous step function of ``k``, so
    the distinct values of ``|X|`` (plus 0) hold the answer.  Each tail
    is compared with the budget as one correctly rounded sum over a
    subset of nonnegative terms compares, so it is nonincreasing in the
    level, and bisection over those levels finds the same smallest level
    as a linear scan.  The terms are sorted by ``|x_i|`` once: the
    levels are the distinct sorted values, each level's tail starts
    where one ``np.searchsorted`` puts it, and one reversed running sum
    gives every tail; the correctly rounded tail is summed only inside
    Higham's a priori bound (2002, section 4.2) on that running sum
    (``norms._exceeds``).
    """
    if not budget > 0:
        raise InputError(f"budget must be positive, got {budget!r}")
    x_abs = np.abs(X.x)
    order = np.argsort(x_abs)
    x_sorted = x_abs[order]
    terms = _terms(X.x, X.space.p, phi, 1.0)[order]
    tails = np.cumsum(terms[::-1])[::-1]
    # the distinct levels, 0 in front (the -1 marks it as new)
    padded = np.concatenate(([-1.0, 0.0], x_sorted))
    levels = padded[1:][padded[1:] != padded[:-1]]
    starts = np.searchsorted(x_sorted, levels, side="right")

    def within(i: int) -> bool:
        start = starts[i]
        return not _exceeds(terms[start:], float(tails[start]), budget)

    # the largest level has tail 0, which fits the budget, so the search
    # leaves it out and ends there when no other level fits
    fits = bisect.bisect_left(range(len(levels) - 1), True, key=within)
    k = float(levels[fits])
    above = x_abs > k
    Z = X.space.rv(np.where(above, X.x, 0.0))
    W = X.space.rv(np.where(above, 0.0, X.x))
    return k, Z, W


def mazur_min_norm(candidates, phi: OrliczFunction, target: float):
    """Convex combination ``X = sum_i c_i W_i`` of least ``E[X^2]``
    (``finite_model.nearest_point``) and ``value = ||X||_phi``.

    Under ``c t^2`` the norm is ``(c E[X^2])^(1/2)``, so ``value`` is the
    exact minimum over the simplex; under other phi it bounds it above.
    ``hull_certificate``: the margin does not separate 0 from the hull,
    and X has norm at most rounding.  ``lower_bound``: the margin's
    distance bound ``d`` over ``phi^-1(1/min p)``, below every
    combination's norm, since ``p_i phi(|x_i| / ||X||_phi) <= 1`` gives
    ``E[X^2]^(1/2) <= max|x_i| <= ||X||_phi phi^-1(1/min p)``.
    ``found``: ``value <= target``; not-found is a legitimate outcome.
    """
    if not candidates:
        raise InputError("need at least one candidate")
    space = candidates[0].space
    p = space.p
    w, x, margin = nearest_point([W.x for W in candidates], p)
    value = luxemburg_norm(space.rv(x), phi)
    lower = 0.0
    if margin > 0.0:
        try:
            reach = phi_inverse(phi, 1.0 / float(np.min(p)))
        except NumericFailure:  # phi stays below 1/min p up to its cap
            reach = phi.domain_cap
        reach += 1e-12 * (1.0 + reach)  # past phi.inverse's 1e-12 error
        lower = margin / math.sqrt(float(p @ (x * x))) / reach
    return {"found": value <= target, "weights": tuple(float(c) for c in w),
            "value": value, "hull_certificate": not margin > 0.0,
            "lower_bound": lower}


def order_dominator(Z_list, W_list, phi: OrliczFunction):
    """``X_tilde = sup_n |Z_n| + sum_n |W_n|`` with certified bounds.

    Verifies ``modular(Z_n) <= 2^-n`` and ``||W_n||_phi <= 2^-n`` on
    input (BoundViolation with the offending index otherwise), the
    sup-modular bound ``E[phi(sup_n |Z_n|)] <= sum_n 2^-n <= 1``, and
    emits the Markov tail table ``P(|Z_n| > eps) <= 2^-n / phi(eps)``.
    """
    if not Z_list and not W_list:
        raise InputError("need at least one input sequence")
    space = (Z_list or W_list)[0].space
    for n, Z in enumerate(Z_list, start=1):
        m = modular(Z, phi, 1.0)
        if m > 2.0 ** (-n) + 1e-12:
            raise BoundViolation(
                f"modular(Z_{n}) = {m!r} exceeds 2^-{n}", index=n)
    for n, W in enumerate(W_list, start=1):
        nm = luxemburg_norm(W, phi)
        if nm > 2.0 ** (-n) + 1e-9:
            raise BoundViolation(
                f"||W_{n}|| = {nm!r} exceeds 2^-{n}", index=n)
    if Z_list:
        sup_z = space.rv(np.max([np.abs(Z.x) for Z in Z_list], axis=0))
    else:
        sup_z = space.constant(0.0)
    sum_w = space.constant(0.0)
    for W in W_list:
        sum_w = sum_w + W.abs()
    x_tilde = sup_z + sum_w
    sup_modular = modular(sup_z, phi, 1.0)
    geo = sum(2.0 ** (-n) for n in range(1, len(Z_list) + 1))
    if sup_modular > geo + 1e-12:
        # sup of finitely many nonnegatives: phi(sup) = sup phi <= sum phi
        raise BoundViolation(
            f"E[phi(sup|Z_n|)] = {sup_modular!r} exceeds {geo!r}")
    markov = []
    for eps in _MARKOV_EPS:
        phi_eps = float(phi(eps))
        for n, Z in enumerate(Z_list, start=1):
            prob = float(np.sum(space.p[np.abs(Z.x) > eps]))
            bound = (2.0 ** (-n)) / phi_eps if phi_eps > 0 else math.inf
            if prob > bound + 1e-12:
                raise BoundViolation(
                    f"Markov row eps={eps}, n={n}: {prob!r} > {bound!r}",
                    index=n)
            markov.append({"eps": eps, "n": n, "prob": prob, "bound": bound})
    checks = {
        "sup_modular": sup_modular,
        "sup_modular_bound": geo,
        "markov_table": markov,
    }
    return x_tilde, checks


def as_extraction(sequence, X: RandomVariable):
    """Capped-sup almost-sure extraction bounds.

    Requires ``E[|X_n - X|] <= 2^-n`` on input (HypothesisViolation
    otherwise) and verifies ``E[sup_{m>=n}(|X_m - X| ^ 1)] <= 2^(1-n)``
    for every n, plus atomwise convergence of the final element.
    """
    if not sequence:
        raise InputError("empty sequence")
    diffs = []
    for n, Xn in enumerate(sequence, start=1):
        d = (Xn - X).abs()
        e = expectation(d)
        if e > 2.0 ** (-n) + 1e-12:
            raise HypothesisViolation(
                f"E[|X_{n} - X|] = {e!r} exceeds 2^-{n}")
        diffs.append(d)
    rows = []
    capped = [np.minimum(d.x, 1.0) for d in diffs]
    for n in range(1, len(sequence) + 1):
        sup_tail = X.space.rv(np.max(capped[n - 1:], axis=0))
        e = expectation(sup_tail)
        bound = 2.0 ** (1 - n)
        if e > bound + 1e-12:
            raise HypothesisViolation(
                f"E[sup capped tail from {n}] = {e!r} exceeds {bound!r}")
        rows.append({"n": n, "capped_sup_expectation": e, "bound": bound})
    final_err = float(np.max(np.abs(sequence[-1].x - X.x)))
    return {
        "rows": rows,
        "final_error": final_err,
        "converges_as": final_err <= 2.0 ** (-len(sequence)) + 1e-12,
    }
