"""Coherent and convex risk measures on finite spaces.

A scenario set is a finite list of nonnegative unit-expectation
densities, or the capped polytope ``{0 <= Y <= cap, E[Y] = 1}`` of the
average value at risk, kept by its bounds: its support function is one
sort, and membership is a bounds check.  Its vertices are enumerated
only when asked for (up to 12 atoms).  Scenario maxima are exact, and
no convex solver enters the core.  A measure carries its dual
representation, when it has one on record, for exact conjugation
(``RiskMeasure.dual``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyScenarioSet, InputError
from .finite_model import (FiniteSpace, RandomVariable, expectation,
                           nearest_point, pairing)
from .orlicz_functions import _split_spec

__all__ = [
    "ScenarioSet",
    "CappedScenarioSet",
    "RiskMeasure",
    "scenario_eval",
    "scenario_measure",
    "axiom_suite",
    "fatou_harness",
    "avar_scenarios",
    "worstcase_scenarios",
    "entropic_measure",
    "parse_measure_spec",
    "scenarios_to_json",
    "scenarios_from_json",
]

_MAX_VERTEX_ATOMS = 12
#: A density coordinate below ``-_BOUND_TOL`` is negative (above
#: ``cap + _BOUND_TOL``, over the cap); ``|E[Y] - 1| > _MASS_TOL`` is off
#: unit expectation.
_BOUND_TOL = 1e-12
_MASS_TOL = 1e-10
#: ``axiom_suite``'s slack, and the scalars and cash shifts it tries
_AXIOM_TOL = 1e-9
_SCALARS = (0.5, 2.0)
_SHIFTS = (-1.0, 0.5, 2.0)
#: ``fatou_harness``'s slack
_FATOU_TOL = 1e-8


class ScenarioSet:
    """Finite set Q of nonnegative densities with unit expectation."""

    def __init__(self, densities):
        densities = tuple(densities)
        if not densities:
            raise EmptyScenarioSet("a scenario set needs at least one density")
        for Y in densities:
            if np.any(Y.x < -_BOUND_TOL):
                raise InputError("scenario densities must be nonnegative")
            if abs(expectation(Y) - 1.0) > _MASS_TOL:
                raise InputError(
                    f"scenario density has expectation {expectation(Y)!r}, not 1"
                )
        self.densities = densities
        self.space = densities[0].space

    def __len__(self):
        return len(self.densities)

    def support(self, X: RandomVariable) -> float:
        """``sigma_Q(X) = max_{Y in Q} E[XY]`` over the density list."""
        return max(pairing(X, Y) for Y in self.densities)

    def violated_bound(self, t: np.ndarray):
        """None when ``t`` lies in the convex hull of the densities ``Y_k``;
        else a growth direction ``x`` of the conjugate at ``-t``: the
        nearest point of the hull of ``Y_k - t``
        (``finite_model.nearest_point``), whose certified margin
        ``min_k E[x (Y_k - t)] > 0`` gives ``E[-x t] > sigma_Q(-x)``."""
        _, x, margin = nearest_point([Y.x - t for Y in self.densities],
                                     self.space.p)
        return tuple(float(v) for v in x) if margin > 0.0 else None


class CappedScenarioSet(ScenarioSet):
    """``Q = {Y : 0 <= Y <= cap, E[Y] = 1}`` (``cap >= 1``), kept by its
    bounds.  ``densities`` enumerates the vertices on first use (up to
    12 atoms) and keeps them."""

    def __init__(self, space: FiniteSpace, cap: float):
        self.space = space
        self.cap = cap

    @functools.cached_property
    def densities(self) -> tuple:
        """The vertices: for each subset S of atoms at the cap (in
        ``itertools.combinations`` order), the point of mass 1, or one
        candidate per atom outside S taking the rest of the mass, all
        built as one array.  The candidates are deduplicated once, on
        their values rounded to 12 decimals, keeping the first of each."""
        space, cap = self.space, self.cap
        n = space.n_atoms
        if n > _MAX_VERTEX_ATOMS:
            raise InputError(
                f"vertex enumeration limited to {_MAX_VERTEX_ATOMS} atoms, got {n}"
            )
        p = space.p
        probs = p.tolist()
        blocks = []
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                mass = cap * sum(probs[i] for i in S)
                if mass > 1.0 + 1e-12:
                    continue
                vec = np.zeros(n)
                vec[list(S)] = cap
                if abs(mass - 1.0) <= 1e-12:
                    blocks.append(vec[None])
                    continue
                free = np.array([j for j in range(n) if j not in S], dtype=int)
                yj = (1.0 - mass) / p[free]
                keep = yj <= cap + 1e-12
                block = np.tile(vec, (int(keep.sum()), 1))
                block[np.arange(len(block)), free[keep]] = np.minimum(yj[keep], cap)
                blocks.append(block)
        rows = np.concatenate(blocks)
        _, first = np.unique(np.round(rows, 12), axis=0, return_index=True)
        return ScenarioSet(space.rv(row) for row in rows[np.sort(first)]).densities

    def support(self, X: RandomVariable) -> float:
        """``sigma_Q(X) = max_{Y in Q} E[XY]``: in a stable sort of X from
        the largest value down, each atom takes its mass ``p_i * cap``
        until the total reaches 1; the terms are summed with ``fsum``."""
        order = np.argsort(-X.x, kind="stable")
        room = self.space.p[order] * self.cap
        before = np.cumsum(room) - room
        take = np.clip(1.0 - before, 0.0, room)
        return math.fsum((take * X.x[order]).tolist())

    def violated_bound(self, t: np.ndarray):
        """None when ``t`` lies in Q, up to the tolerances ``ScenarioSet``
        checks a density with (1e-12 on each bound, 1e-10 on the mean);
        else a growth direction ``x`` of the conjugate at ``-t``, read
        off the first violated bound: ``-1`` for
        ``E[t] > 1``, ``+1`` for ``E[t] < 1``, ``-e_j`` for the first atom
        above the cap, ``+e_j`` for the first negative atom.  Along each,
        ``E[-x t] > sigma_Q(-x)``."""
        n = len(t)
        mean = expectation(self.space.rv(t))
        if abs(mean - 1.0) > _MASS_TOL:
            return (-1.0 if mean > 1.0 else 1.0,) * n
        for atoms, sign in ((t > self.cap + _BOUND_TOL, -1.0),
                            (t < -_BOUND_TOL, 1.0)):
            if np.any(atoms):
                x = np.zeros(n)
                x[int(np.argmax(atoms))] = sign
                return tuple(x.tolist())
        return None


@dataclass(frozen=True)
class RiskMeasure:
    """Extended-real functional, with its dual representation when known.

    ``evaluator`` maps RandomVariable -> float (``math.inf`` allowed);
    the measure is taken to be proper (finite at 0), which is not checked.

    The dual representation ``rho(X) = max_{Q in D} (E[-XQ] - alpha(Q))``,
    when the measure has one on record, is carried by one of two fields:
    ``scenarios`` for a scenario maximum (D is that set and alpha is 0),
    or ``penalty``, alpha as a map of the density Q, on the density
    simplex D.
    """

    evaluator: object
    name: str = "rho"
    scenarios: ScenarioSet = None
    penalty: object = None  # density RandomVariable -> alpha, on the simplex

    def __call__(self, X: RandomVariable) -> float:
        return float(self.evaluator(X))

    def dual(self, space: FiniteSpace):
        """``(D, penalty)`` on ``space``: the scenario set and None
        (alpha = 0) for a scenario maximum, else the density simplex
        ``{Y >= 0, E[Y] = 1}`` and ``penalty``.  The simplex is kept as a
        capped set whose cap ``1/min p`` never binds (``Y >= 0`` and
        ``E[Y] = 1`` give ``p_i Y_i <= 1``), so its membership is the
        bounds check and its support the maximum.  InputError when the
        measure carries neither."""
        if self.scenarios is not None:
            return self.scenarios, None
        if self.penalty is None:
            raise InputError(f"{self.name} has no dual representation on record")
        return CappedScenarioSet(space, 1.0 / float(np.min(space.p))), self.penalty


def scenario_eval(Q: ScenarioSet, X: RandomVariable) -> float:
    """``max_{Y in Q} E[-XY] = sigma_Q(-X)``: the maximum over the density
    list, or one sort for a capped set."""
    return Q.support(-X)


def scenario_measure(Q: ScenarioSet, name: str = "scenario") -> RiskMeasure:
    return RiskMeasure(lambda X: scenario_eval(Q, X), name, scenarios=Q)


def axiom_suite(rho, samples):
    """Check the four coherence axioms on all sample pairs, the scalars
    0.5 and 2 and the cash shifts -1, 0.5 and 2, at a slack of 1e-9.

    Returns a report dict with a pass flag and the witnessing inputs of
    every violation.
    """
    if len(samples) < 2:
        raise InputError("need at least two samples")
    violations = {"subadditive": [], "monotone": [], "cash_additive": [],
                  "positively_homogeneous": []}
    values = {i: rho(X) for i, X in enumerate(samples)}
    for (i, X1), (j, X2) in itertools.combinations(enumerate(samples), 2):
        r1, r2 = values[i], values[j]
        rsum = rho(X1 + X2)
        if rsum > r1 + r2 + _AXIOM_TOL * (1.0 + abs(r1) + abs(r2)):
            violations["subadditive"].append((i, j, rsum, r1 + r2))
        if np.all(X1.x >= X2.x) and r1 > r2 + _AXIOM_TOL * (1.0 + abs(r2)):
            violations["monotone"].append((i, j, r1, r2))
        if np.all(X2.x >= X1.x) and r2 > r1 + _AXIOM_TOL * (1.0 + abs(r1)):
            violations["monotone"].append((j, i, r2, r1))
    for i, X in enumerate(samples):
        r = values[i]
        if not math.isfinite(r):
            continue
        for m in _SHIFTS:
            shifted = rho(X + m)
            if abs(shifted - (r - m)) > _AXIOM_TOL * (1.0 + abs(r) + abs(m)):
                violations["cash_additive"].append((i, m, shifted, r - m))
        for lam in _SCALARS:
            scaled = rho(X * lam)
            if abs(scaled - lam * r) > _AXIOM_TOL * (1.0 + abs(lam * r)):
                violations["positively_homogeneous"].append((i, lam, scaled, lam * r))
    report = {k: {"passed": not v, "violations": v} for k, v in violations.items()}
    report["passed"] = all(not v for v in violations.values())
    return report


def fatou_harness(rho, family, X: RandomVariable):
    """Check ``rho(X) <= liminf_n rho(X_n)`` along the supplied prefix.

    The prefix must share X's space (else SpaceMismatch) and approach X
    atomwise (on a finite space every sequence is order bounded).  The
    liminf surrogate is the infimum over the tail half of the prefix.
    The harness can only refute the property, never prove it; the report
    says "no violation found".
    """
    errors = [(Xn - X).max_abs() for Xn in family]
    # a finite prefix cannot certify convergence; require the error to
    # shrink along the prefix (final at most half the initial, or exact)
    if len(errors) < 2 or not (errors[-1] <= 0.5 * errors[0] + _FATOU_TOL):
        raise InputError("family does not approach the stated limit")
    vals = [rho(Xn) for Xn in family]
    half = len(vals) // 2
    liminf = min(vals[half:])
    rho_x = rho(X)
    # each prefix element may still be `errors[i]` away from the limit in
    # sup norm; cash additivity + monotonicity make rho 1-Lipschitz there,
    # so that slack is added before declaring a violation
    holds = rho_x <= (min(v + e for v, e in zip(vals[half:], errors[half:]))
                      + _FATOU_TOL)
    return {
        "rho_limit": rho_x,
        "liminf": liminf,
        "margin": liminf - rho_x,
        "holds": holds,
        "verdict": "no violation found" if holds else "violated",
        "values": vals,
    }


def avar_scenarios(space: FiniteSpace, alpha: float) -> CappedScenarioSet:
    """``{Y : 0 <= Y <= 1/alpha, E[Y] = 1}``, the scenario set of AVaR at
    level ``alpha``, kept by its bounds: AVaR is its support function at
    ``-X``, the mean of the worst ``alpha`` share of the loss (Acerbi &
    Tasche 2002), found by one sort.  The vertices are enumerated only
    when ``densities`` is read, which is limited to 12 atoms."""
    if not 0 < alpha <= 1:
        raise InputError("alpha must be in (0, 1]")
    return CappedScenarioSet(space, 1.0 / alpha)


def worstcase_scenarios(space: FiniteSpace) -> ScenarioSet:
    """Vertices of the full density simplex: one point mass per atom."""
    vertices = []
    for i, pi in enumerate(space.probabilities):
        vec = np.zeros(space.n_atoms)
        vec[i] = 1.0 / pi
        vertices.append(space.rv(vec))
    return ScenarioSet(tuple(vertices))


def entropic_measure(theta: float = 1.0) -> RiskMeasure:
    """``theta * log E[exp(-X / theta)]``; convex and cash additive but
    not positively homogeneous.  Its penalty is theta times the relative
    entropy, ``alpha(Q) = theta * E[Q log Q]`` on the density simplex
    (the Donsker-Varadhan formula; Föllmer & Schied, *Stochastic
    Finance*, ch. 4), summed with ``fsum`` over the atoms where ``Q > 0``
    (``0 log 0 = 0``)."""
    if not 0 < theta < math.inf:
        raise InputError("theta must be positive and finite")

    def evaluate(X: RandomVariable) -> float:
        z = -X.x / theta
        zmax = float(np.max(z))
        return theta * (zmax + math.log(float(np.sum(X.space.p * np.exp(z - zmax)))))

    def penalty(Q: RandomVariable) -> float:
        q = Q.x
        on = q > 0.0
        return theta * math.fsum((Q.space.p[on] * q[on] * np.log(q[on])).tolist())

    return RiskMeasure(evaluate, f"entropic(theta={theta:g})", penalty=penalty)


_MEASURE_GRAMMAR = {"avar": {"alpha": float}, "worstcase": {},
                    "entropic": {"theta": float}}


def parse_measure_spec(text: str, space: FiniteSpace) -> RiskMeasure:
    """``avar:alpha=<a>`` | ``worstcase`` | ``entropic:theta=<t>`` |
    ``scenario:<json file>``, the last with its path kept raw."""
    head, _, path = text.strip().partition(":")
    if head.lower() == "scenario":
        with open(path) as fh:
            Q = scenarios_from_json(fh.read(), space)
        return scenario_measure(Q, name=f"scenario:{path}")
    head, params = _split_spec(text, _MEASURE_GRAMMAR, "measure")
    if head == "avar":
        if "alpha" not in params:
            raise InputError(f"avar needs alpha=<real>, got {text.strip()!r}")
        return scenario_measure(avar_scenarios(space, params["alpha"]),
                                name=text.strip())
    if head == "worstcase":
        return scenario_measure(worstcase_scenarios(space), name="worstcase")
    return entropic_measure(**params)


def scenarios_to_json(Q: ScenarioSet) -> str:
    return json.dumps({"densities": [list(Y.values) for Y in Q.densities]},
                      sort_keys=True)


def scenarios_from_json(text: str, space: FiniteSpace) -> ScenarioSet:
    try:
        payload = json.loads(text)
        rows = payload["densities"]
        return ScenarioSet(tuple(space.rv(row) for row in rows))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed scenario JSON: {exc}") from None
