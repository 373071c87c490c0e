"""Fenchel-Moreau conjugation, biconjugation, scenario extraction.

The conjugate ``rho*(Y) = sup_X (E[XY] - rho(X))`` is computed two ways:
exactly in *polyhedral* mode when rho is a scenario maximum (it is 0
when -Y lies in the scenario set Q and +infinity otherwise: a bounds
check decides this for a capped set such as AVaR's, the nearest point of
the convex hull for a density list), and empirically in *box* mode by
supergradient ascent over ``[-M, M]^atoms`` with one automatic box
doubling to flag boundary-limited suprema.  Every +infinity carries a
growth direction, verified against the support function of Q before it
is returned.  Reports always state which surrogate was used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InputError
from .finite_model import RandomVariable, nearest_point, pairing
from .risk_measures import RiskMeasure, ScenarioSet

__all__ = [
    "ConjugateValue",
    "conjugate_rho",
    "biconjugate",
    "extract_scenarios",
    "duality_report",
    "report_to_json",
]

_DEFAULT_BOX = 1.0e3


@dataclass(frozen=True)
class ConjugateValue:
    """Extended-real conjugate value with provenance.

    ``value`` is finite or ``math.inf``; ``flag`` is one of "" (exact),
    "possibly-infinite" (box-mode maximizer touched the doubled box),
    and ``certificate`` carries the polyhedral growth direction (atom
    values along which the objective increases without bound) when the
    value is +infinity.
    """

    value: float
    mode: str  # "polyhedral" | "box"
    flag: str = ""
    certificate: tuple = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value) and self.flag != "possibly-infinite"


def _hull_direction(Q: ScenarioSet, target: np.ndarray):
    """None when ``target`` lies in the convex hull of the densities ``Y_k``.

    Otherwise the nearest point ``x`` of the hull of ``Y_k - target``
    (``finite_model.nearest_point``), whose certified margin
    ``min_k E[x (Y_k - target)] > 0`` makes it the direction along which
    ``E[xY] - rho(x)`` grows without bound for ``Y = -target``.
    """
    _, x, margin = nearest_point([Y.x - target for Y in Q.densities],
                                 Q.space.p)
    return tuple(float(v) for v in x) if margin > 0.0 else None


def _verified_growth(Q: ScenarioSet, Y: RandomVariable, direction) -> tuple:
    """``direction`` when ``E[xY] > sigma_Q(-x)`` along it, so that
    ``E[txY] - rho(tx)`` grows without bound in t; else CertificateError."""
    x = Y.space.rv(direction)
    slope = pairing(x, Y) - Q.support(-x)
    if not slope > 0.0:
        raise CertificateError(
            f"growth direction does not verify: slope {slope!r} <= 0"
        )
    return direction


def conjugate_rho(rho: RiskMeasure, Y: RandomVariable, mode: str = "auto",
                  box_radius: float = _DEFAULT_BOX) -> ConjugateValue:
    """``rho*(Y) = sup_X (E[XY] - rho(X))``.

    ``mode``: "polyhedral" (requires a scenario-maximum rho; exact),
    "box" (supergradient ascent over the box), or "auto" (polyhedral
    when available).  In polyhedral mode the value is 0 when -Y lies in
    the scenario set Q, decided by its bounds for a capped set and by the
    nearest point of the convex hull for a density list, and +infinity
    otherwise, with a growth direction that is checked against
    ``sigma_Q`` before it is returned (CertificateError when it does not
    verify).
    """
    if mode not in ("auto", "polyhedral", "box"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "polyhedral" if rho.scenarios is not None else "box"
    if mode == "polyhedral":
        Q = rho.scenarios
        if Q is None:
            raise InputError("polyhedral mode requires a finite scenario maximum")
        if Q.cap is None:
            direction = _hull_direction(Q, -Y.x)
        else:
            direction = Q.violated_bound(-Y.x)
        if direction is None:
            return ConjugateValue(0.0, "polyhedral")
        return ConjugateValue(math.inf, "polyhedral",
                              certificate=_verified_growth(Q, Y, direction))
    if box_radius <= 0:
        raise InputError("box radius must be positive")
    v1, on_edge1 = _box_sup(rho, Y, box_radius)
    v2, on_edge2 = _box_sup(rho, Y, 2.0 * box_radius)
    if on_edge2 or v2 > v1 + 1e-6 * (1.0 + abs(v1)):
        return ConjugateValue(v2, "box", flag="possibly-infinite")
    return ConjugateValue(v2, "box")


def _box_sup(rho: RiskMeasure, Y: RandomVariable, M: float):
    """Maximize the concave map ``X -> E[XY] - rho(X)`` over [-M, M]^n
    (bounded concave maximization: L-BFGS-B on the negated objective,
    supergradients from ``rho.gradient`` when supplied)."""
    from scipy.optimize import minimize

    space = Y.space
    p = space.p
    n = space.n_atoms
    y = Y.x

    def neg_objective(x: np.ndarray) -> float:
        v = pairing(space.rv(x), Y) - rho(space.rv(x))
        return -v if math.isfinite(v) else math.inf

    jac = None
    if rho.gradient is not None:
        def jac(x: np.ndarray) -> np.ndarray:
            g_rho = np.asarray(rho.gradient(space.rv(x)), dtype=float)
            return -(p * y - g_rho)

    best_v, best_x = -math.inf, np.zeros(n)
    for start in (np.zeros(n), np.full(n, 0.5 * M), np.full(n, -0.5 * M)):
        res = minimize(neg_objective, start, jac=jac, method="L-BFGS-B",
                       bounds=[(-M, M)] * n,
                       options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 500})
        if -res.fun > best_v:
            best_v, best_x = -float(res.fun), np.asarray(res.x)
    on_edge = bool(np.any(np.abs(best_x) > M * (1.0 - 1e-9)))
    return best_v, on_edge


def biconjugate(rho: RiskMeasure, X: RandomVariable, probes,
                mode: str = "auto") -> float:
    """``max over probes Y of E[XY] - rho*(Y)``, skipping infinite probes."""
    if not probes:
        raise InputError("probe list must be nonempty")
    best = -math.inf
    any_finite = False
    for Y in probes:
        cv = conjugate_rho(rho, Y, mode=mode)
        if not cv.finite:
            continue
        any_finite = True
        best = max(best, pairing(X, Y) - cv.value)
    if not any_finite:
        raise InputError("all probes have infinite conjugate value")
    return best


def extract_scenarios(rho: RiskMeasure, candidates, mode: str = "auto",
                      tol: float = 1e-9):
    """Filter candidate densities to ``{Y : rho*(-Y) = 0}``.

    Survivors are checked to be nonnegative with unit expectation (the
    two facts the zero conjugate value forces); returns
    ``(ScenarioSet-or-None, report dict)`` — extraction may legitimately
    come back empty.
    """
    from .finite_model import expectation

    candidates = list(candidates)
    survivors, rejected = [], []
    for Y in candidates:
        cv = conjugate_rho(rho, -Y, mode=mode)
        if cv.finite and abs(cv.value) <= 1e-8:
            if np.any(Y.x < -tol):
                raise InputError(
                    "zero conjugate value with a negative coordinate: "
                    "rho is not monotone on this space"
                )
            if abs(expectation(Y) - 1.0) > tol:
                raise InputError(
                    "zero conjugate value without unit expectation: "
                    "rho is not cash additive on this space"
                )
            survivors.append(Y)
        else:
            rejected.append(Y)
    report = {"n_candidates": len(candidates),
              "n_survivors": len(survivors), "n_rejected": len(rejected)}
    if not survivors:
        return None, report
    return ScenarioSet(tuple(survivors)), report


def duality_report(rho: RiskMeasure, positions, probes, candidates=None,
                   mode: str = "auto", tol: float = 1e-8):
    """Per-position conjugation audit: rho, rho** over the probes, gap
    flags, and the extracted scenario list."""
    rows = []
    gap = False
    for X in positions:
        rho_x = rho(X)
        rho_xx = biconjugate(rho, X, probes, mode=mode)
        g = abs(rho_xx - rho_x) > tol * (1.0 + abs(rho_x))
        if rho_xx > rho_x + 1e-10 * (1.0 + abs(rho_x)):
            raise InputError(
                "weak duality violated: biconjugate exceeds rho "
                f"({rho_xx!r} > {rho_x!r})"
            )
        gap = gap or g
        rows.append({"rho": rho_x, "biconjugate": rho_xx, "gap": bool(g)})
    star = []
    for Y in probes:
        cv = conjugate_rho(rho, Y, mode=mode)
        star.append({"value": cv.value if math.isfinite(cv.value) else "inf",
                     "mode": cv.mode, "flag": cv.flag})
    extracted = []
    if candidates is not None:
        Q, _ = extract_scenarios(rho, candidates, mode=mode)
        if Q is not None:
            extracted = [list(Y.values) for Y in Q.densities]
    return {
        "probes": [list(Y.values) for Y in probes],
        "rho_star": star,
        "biconjugate": rows,
        "gap": bool(gap),
        "extracted_scenarios": extracted,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)
