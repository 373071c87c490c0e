"""Fenchel-Moreau conjugation, biconjugation, scenario extraction.

A measure with a dual representation ``rho(X) = max_{Q in D}
(E[-XQ] - alpha(Q))`` carries its domain D and penalty alpha
(``RiskMeasure.dual``), and the conjugate
``rho*(Y) = sup_X (E[XY] - rho(X))`` is read off it exactly: alpha(-Y)
when -Y lies in D, +infinity otherwise.  Membership is a bounds check
for a capped set (AVaR's, or the density simplex of the entropic
measure) and the nearest point of the convex hull for a density list.
alpha is 0 for a scenario maximum ("polyhedral") and theta times the
relative entropy for the entropic measure ("penalty").  Every +infinity
carries a growth direction, verified against the support function of D
before it is returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InputError
from .finite_model import RandomVariable, pairing
from .risk_measures import RiskMeasure, ScenarioSet

__all__ = [
    "ConjugateValue",
    "conjugate_rho",
    "biconjugate",
    "extract_scenarios",
    "duality_report",
    "report_to_json",
]


@dataclass(frozen=True)
class ConjugateValue:
    """Extended-real conjugate value with provenance.

    ``value`` is finite or ``math.inf``; ``mode`` names the
    representation it was read from ("polyhedral": a scenario maximum,
    0 on its set; "penalty": a closed-form penalty on the density
    simplex); ``certificate`` carries the verified growth direction
    (atom values along which the objective increases without bound)
    when the value is +infinity.
    """

    value: float
    mode: str  # "polyhedral" | "penalty"
    certificate: tuple = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _verified_growth(D: ScenarioSet, Y: RandomVariable, direction) -> tuple:
    """``direction`` when ``E[xY] > sigma_D(-x)`` along it, so that
    ``E[txY] - rho(tx) >= t (E[xY] - sigma_D(-x)) - rho(0)`` grows without
    bound in t (alpha is at least ``-rho(0)`` on D); else
    CertificateError."""
    x = Y.space.rv(direction)
    slope = pairing(x, Y) - D.support(-x)
    if not slope > 0.0:
        raise CertificateError(
            f"growth direction does not verify: slope {slope!r} <= 0"
        )
    return direction


def conjugate_rho(rho: RiskMeasure, Y: RandomVariable) -> ConjugateValue:
    """``rho*(Y) = sup_X (E[XY] - rho(X))``, exactly, from the dual
    representation ``(D, alpha)`` the measure carries: alpha(-Y) when -Y
    lies in D and +infinity otherwise, with a growth direction that is
    checked against ``sigma_D`` before it is returned (CertificateError
    when it does not verify).  InputError for a measure with no dual
    representation on record."""
    D, penalty = rho.dual(Y.space)
    mode = "polyhedral" if penalty is None else "penalty"
    direction = D.violated_bound(-Y.x)
    if direction is not None:
        return ConjugateValue(math.inf, mode, _verified_growth(D, Y, direction))
    return ConjugateValue(0.0 if penalty is None else penalty(-Y), mode)


def biconjugate(rho: RiskMeasure, X: RandomVariable, probes) -> float:
    """``max over probes Y of E[XY] - rho*(Y)``, skipping infinite probes."""
    if not probes:
        raise InputError("probe list must be nonempty")
    best = -math.inf
    any_finite = False
    for Y in probes:
        cv = conjugate_rho(rho, Y)
        if not cv.finite:
            continue
        any_finite = True
        best = max(best, pairing(X, Y) - cv.value)
    if not any_finite:
        raise InputError("all probes have infinite conjugate value")
    return best


def extract_scenarios(rho: RiskMeasure, candidates, tol: float = 1e-9):
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
        cv = conjugate_rho(rho, -Y)
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
                   tol: float = 1e-8):
    """Per-position conjugation audit: rho, rho** over the probes, gap
    flags, and the extracted scenario list."""
    rows = []
    gap = False
    for X in positions:
        rho_x = rho(X)
        rho_xx = biconjugate(rho, X, probes)
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
        cv = conjugate_rho(rho, Y)
        # the empty ``flag`` stays in the schema until a versioned change
        star.append({"value": cv.value if math.isfinite(cv.value) else "inf",
                     "mode": cv.mode, "flag": ""})
    extracted = []
    if candidates is not None:
        Q, _ = extract_scenarios(rho, candidates)
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
