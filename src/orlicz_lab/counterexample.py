"""The order-closed cone C with a duality gap, at finite truncation.

Construction: three disjoint regions of [0, 1].  On the first, blocks
``X_n`` from Delta_2-failure witnesses of Phi with duals ``Y_n``; on the
second, a single pair ``W_0 = Z_0 = sqrt(3) * 1`` with unit pairing; on
the third, blocks ``Z_m`` from witnesses of the conjugate Psi with duals
``W_m``.  The positive operator ``T X = (E[X Y_n])_n (+) E[X Z_0] (+)
(E[X Z_m])_m`` maps a position to a sequence triple, and C is the set of
positions whose image admits a certificate ``(lambda, y)``.  The
substitution ``z = lambda * y`` linearizes the certificate constraints,
so membership is a pure LP feasibility problem with auditable Farkas
certificates on the infeasible side.

Two constraint variants are supported: "L" (double-indexed third-region
blocks, ``v(i,j) >= z(i,j)`` and prefix-sum u-constraints) and "H"
(single-indexed third-region blocks, ``v(j) >= sum_i 4^i z(i,j)`` and
tail-sum u-constraints via the summing basis).

The induced coherent risk measure ``rho_c(X) = inf{m : X + m*1 in C}``
satisfies the Fatou property by the order-closedness of C, yet
``rho_c(-W_0) > 0`` while members ``X_sr`` with ``rho_c(X_sr) <= 0``
approximate ``-W_0`` against any finite list of dual targets - the
finite-scale shadow of the failure of the dual representation.  Since
``T(X + m*1) = T X + m T 1`` is affine in ``m``, ``rho_c`` is one LP in
``(lambda, z, m)``: its optimum is a membership certificate at ``m*``,
its duals a Farkas certificate for every ``m < m*``, and an infeasible
LP means ``rho_c = +inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .block_sequences import REGIONS, Block, BlockSequence, build_disjoint_sequence, \
    blocks_from_json, blocks_to_json, series_modular
from .errors import CertificateError, InputError, NotAMember, \
    NumericFailure, TruncationTooSmall
from .finite_model import FiniteSpace, RandomVariable, pairing
from .orlicz_functions import OrliczFunction, conjugate, parse_phi_spec, \
    phi_spec_string

__all__ = [
    "CounterexampleInstance",
    "TImage",
    "MembershipCertificate",
    "Combo",
    "build_instance",
    "diagonal_pairs",
    "t_operator",
    "summing",
    "membership",
    "verify_certificate",
    "weak_approx_select",
    "rho_c",
    "limit_certificate",
    "gap_exhibit",
    "certificate_to_json",
    "certificate_from_json",
    "instance_to_json",
    "instance_from_json",
]

_SQRT3 = math.sqrt(3.0)
_FEAS_TOL = 1e-9
#: HiGHS options for the membership and rho_c LPs: at the default
#: primal feasibility tolerance 1e-7 an optimum may violate rows by
#: about 4e-8, so images that far below zero would pass as members and
#: the rho_c primal check at tol = 1e-8 would reject its own optimum
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10}


def diagonal_pairs(I: int, J: int):
    """The (i, j) grid enumerated by diagonals: (1,1), (1,2), (2,1), ...

    Any bijection works for assigning witnesses to double indices; the
    diagonal one keeps small indices small.
    """
    out = []
    for d in range(2, I + J + 1):
        for j in range(max(1, d - I), min(J, d - 1) + 1):
            out.append((d - j, j))
    return out


@dataclass(frozen=True)
class TImage:
    """``u (+) a (+) v`` with an analytic tail value for ``u``.

    ``u`` has one entry per first-region block; ``u_tail`` is a sound
    lower bound for ``inf_{n > N} u(n)`` (``+inf`` when unknown, e.g.
    for raw discretized positions).  ``v`` is keyed by ``(i, j)`` in
    variant L and by ``(j,)`` in variant H.
    """

    u: tuple
    a: float
    v: tuple  # sorted tuple of (key, value)
    variant: str
    u_tail: float = math.inf

    def v_dict(self) -> dict:
        return dict(self.v)


@dataclass(frozen=True)
class MembershipCertificate:
    """``(lambda, y)`` with ``y >= 0`` double-indexed and, when
    ``lam > 0``, ``sum_i 2^i ||y_i||_1 = 1``."""

    lam: float
    y: tuple  # sorted tuple of ((i, j), value)
    variant: str = "L"

    def y_dict(self) -> dict:
        return dict(self.y)

    @property
    def row_weighted_sum(self) -> float:
        """``sum_i 2^i ||y_i||_1`` (equals 1 for positive lambda)."""
        return sum((2.0 ** i) * val for (i, _), val in self.y)

    @property
    def finiteness_value(self) -> float:
        """``sum_i 4^i ||y_i||_1`` (automatic at finite truncation)."""
        return sum((4.0 ** i) * val for (i, _), val in self.y)


class CounterexampleInstance:
    """Immutable truncated instance; see the module docstring."""

    def __init__(self, phi: OrliczFunction, I: int, J: int, N: int,
                 variant: str = "L", t_cap: float = 1e50):
        if variant not in ("L", "H"):
            raise InputError(f"unknown variant {variant!r}")
        if min(I, J, N) < 1:
            raise InputError("truncation parameters must be >= 1")
        self.phi = phi
        self.psi = conjugate(phi)
        self.I, self.J, self.N = I, J, N
        self.variant = variant
        self.x_seq, self.y_seq = build_disjoint_sequence(phi, N, "omega1",
                                                         t_cap=t_cap)
        lo2, hi2 = REGIONS["omega2"]
        w0 = Block(1, _SQRT3, hi2 - lo2, lo2, hi2)
        self.w0_seq = BlockSequence("omega2", (w0,), generator="constant")
        self.z0_seq = self.w0_seq  # Z_0 equals W_0 by construction
        n_third = I * J if variant == "L" else J
        self.z_seq, self.w_seq = build_disjoint_sequence(self.psi, n_third,
                                                         "omega3", t_cap=t_cap)
        if variant == "L":
            self.third_keys = diagonal_pairs(I, J)
        else:
            self.third_keys = [(j,) for j in range(1, J + 1)]
        self._build_space()
        self._check_invariants()

    def _build_space(self):
        probs, labels = [], []
        self._atom_of = {}
        self._height_of = {}
        for b in self.x_seq.blocks:
            self._atom_of[("X", b.index)] = len(probs)
            self._height_of[("X", b.index)] = b.height
            probs.append(b.probability)
            labels.append(f"A{b.index}")
        self._atom_of[("W0",)] = len(probs)
        self._height_of[("W0",)] = _SQRT3
        p2 = self.w0_seq.blocks[0].probability
        probs.append(p2)
        labels.append("B0")
        for key, b in zip(self.third_keys, self.z_seq.blocks):
            self._atom_of[("Z", *key)] = len(probs)
            self._height_of[("Z", *key)] = b.height
            probs.append(b.probability)
            labels.append("C" + "_".join(map(str, key)))
        rest = 1.0 - sum(probs)
        probs.append(rest)
        labels.append("rest")
        self.space = FiniteSpace(tuple(probs), tuple(labels))
        # dual heights on the same atoms
        for b in self.y_seq.blocks:
            self._height_of[("Y", b.index)] = b.height
        # reciprocal height makes the pairing with W_0 exactly 1 in floats
        self._height_of[("Z0",)] = 1.0 / (p2 * _SQRT3)
        for key, b in zip(self.third_keys, self.w_seq.blocks):
            self._height_of[("W", *key)] = b.height
        self._dual_cache = {}

    def _check_invariants(self):
        for sym_p, sym_d in [(("X", b.index), ("Y", b.index))
                             for b in self.x_seq.blocks] + \
                [(("W0",), ("Z0",))] + \
                [(("W", *k), ("Z", *k)) for k in self.third_keys]:
            pr = pairing(self.symbol_rv(sym_p), self.symbol_rv(sym_d))
            if abs(pr - 1.0) > 1e-9:
                raise InputError(f"pairing({sym_p},{sym_d}) = {pr!r}, not 1")
        for seq, fn in ((self.x_seq, self.phi), (self.z_seq, self.psi)):
            val, tail = series_modular(seq, fn, 1.0)
            if val + tail > 1.0 + 1e-12:
                raise InputError("series modular exceeds 1")

    def symbol_rv(self, symbol) -> RandomVariable:
        """Indicator block (or constant 1) as a discretized position."""
        if symbol in self._dual_cache:
            return self._dual_cache[symbol]
        if symbol == ("one",):
            rv = self.space.constant(1.0)
        else:
            base = symbol[0]
            atom_key = ("X", symbol[1]) if base in ("X", "Y") else \
                (("W0",) if base in ("W0", "Z0") else ("Z", *symbol[1:]))
            vec = np.zeros(self.space.n_atoms)
            vec[self._atom_of[atom_key]] = self._height_of[symbol]
            rv = self.space.rv(vec)
        self._dual_cache[symbol] = rv
        return rv

    def combo(self, coeffs=None) -> "Combo":
        return Combo(self, coeffs or {})

    @property
    def t_last(self) -> float:
        return self.x_seq.blocks[-1].height

    @property
    def constant_tail_bound(self) -> float:
        """Certified bound on ``sum_{n>N} E[X_n]``: the summands are
        ``t_n / (2^n phi(t_n))`` with ``t/phi(t)`` nonincreasing."""
        t = self.t_last
        return (t / float(self.phi(t))) * 2.0 ** (-self.N)


class Combo:
    """Finite linear combination of instance blocks, the constant, and
    the symbolic first-region tails ``("Xtail", r) = sum_{n>=r} X_n``."""

    def __init__(self, instance: CounterexampleInstance, coeffs: dict):
        self.instance = instance
        self.coeffs = {k: float(v) for k, v in coeffs.items() if v != 0.0}
        for k in self.coeffs:
            if k != ("one",) and k[0] not in ("X", "Y", "W0", "Z0", "W", "Z",
                                              "Xtail"):
                raise InputError(f"unknown symbol {k!r}")

    # -- arithmetic ----------------------------------------------------
    def _merge(self, other, sign: float) -> "Combo":
        out = dict(self.coeffs)
        if isinstance(other, Combo):
            if other.instance is not self.instance:
                raise InputError("combos belong to different instances")
            for k, v in other.coeffs.items():
                out[k] = out.get(k, 0.0) + sign * v
        else:
            out[("one",)] = out.get(("one",), 0.0) + sign * float(other)
        return Combo(self.instance, out)

    def __add__(self, other):
        return self._merge(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, -1.0)

    def __mul__(self, c):
        return Combo(self.instance, {k: v * float(c) for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- views ---------------------------------------------------------
    @property
    def constant_part(self) -> float:
        return self.coeffs.get(("one",), 0.0)

    @property
    def tail_coefficient(self) -> float:
        return sum(v for k, v in self.coeffs.items() if k[0] == "Xtail")

    @property
    def x(self) -> np.ndarray:
        ins = self.instance
        vec = np.full(ins.space.n_atoms, self.constant_part)
        for k, c in self.coeffs.items():
            if k == ("one",):
                continue
            if k[0] == "Xtail":
                r = k[1]
                for b in ins.x_seq.blocks:
                    if b.index >= r:
                        vec[ins._atom_of[("X", b.index)]] += c * b.height
            else:
                base = k[0]
                atom_key = ("X", k[1]) if base in ("X", "Y") else \
                    (("W0",) if base in ("W0", "Z0") else ("Z", *k[1:]))
                vec[ins._atom_of[atom_key]] += c * ins._height_of[k]
        return vec

    def as_rv(self) -> RandomVariable:
        return self.instance.space.rv(self.x)

    def abs(self) -> "Combo":
        """Atomwise absolute value, expressed back over block symbols.

        Exact because distinct blocks have disjoint supports; each atom
        is re-expressed through its canonical dual symbol.
        """
        if self.tail_coefficient:
            raise InputError("abs of a symbolic-tail combo is not supported")
        ins = self.instance
        vec = np.abs(self.x)
        c1 = abs(self.constant_part)
        out = {("one",): c1}
        canonical = [("Y", b.index) for b in ins.y_seq.blocks] + [("Z0",)] + \
            [("Z", *k) for k in ins.third_keys]
        for sym in canonical:
            base = sym[0]
            atom_key = ("X", sym[1]) if base == "Y" else \
                (("W0",) if base == "Z0" else sym)
            h = ins._height_of[sym]
            delta = vec[ins._atom_of[atom_key]] - c1
            if delta != 0.0:
                out[sym] = delta / h
        return Combo(ins, out)


def _pairing_interval(P: Combo, D: Combo):
    """Exact pairing when no symbolic tail is present; otherwise a
    certified enclosure (the tail meets only D's constant part)."""
    base = pairing(P.as_rv(), D.as_rv())
    spread = P.tail_coefficient * D.constant_part * P.instance.constant_tail_bound
    lo, hi = (base, base + spread) if spread >= 0 else (base + spread, base)
    return lo, hi


def build_instance(phi: OrliczFunction, I: int, J: int, N: int,
                   variant: str = "L", t_cap: float = 1e50) -> CounterexampleInstance:
    """Build and invariant-check a truncated instance.

    Requires Delta_2-failure witnesses for both phi (count N) and its
    conjugate (count I*J for variant L, J for variant H);
    WitnessNotFound propagates when phi fails the both-fail hypothesis.
    """
    return CounterexampleInstance(phi, I, J, N, variant=variant, t_cap=t_cap)


def t_operator(instance: CounterexampleInstance, X) -> TImage:
    """``T X = (E[X Y_n])_n (+) E[X Z_0] (+) (E[X Z_key])_key``."""
    ins = instance
    if isinstance(X, Combo):
        if X.instance is not ins:
            raise InputError("combo belongs to a different instance")
        rv = X.as_rv()
        c1 = X.constant_part
        tail = X.tail_coefficient
        # inf over n > N of (tail + c1 / t_n): the block part is exact,
        # the constant part vanishes from above and is bounded below
        u_tail = tail + (c1 / ins.t_last if c1 < 0 else 0.0)
    elif isinstance(X, RandomVariable):
        if X.space != ins.space:
            raise InputError("position lives on a different discretization")
        rv = X
        u_tail = math.inf
    else:
        raise InputError(f"unsupported input {type(X).__name__}")
    u = tuple(pairing(rv, ins.symbol_rv(("Y", b.index)))
              for b in ins.x_seq.blocks)
    a = pairing(rv, ins.symbol_rv(("Z0",)))
    v = tuple(sorted((key, pairing(rv, ins.symbol_rv(("Z", *key))))
                     for key in ins.third_keys))
    return TImage(u=u, a=a, v=v, variant=ins.variant, u_tail=u_tail)


def summing(row, N: int | None = None):
    """Prefix sums, optionally truncated/extended to length N."""
    out, acc = [], 0.0
    for x in row:
        acc += float(x)
        out.append(acc)
    if N is not None:
        out = (out + [acc] * (N - len(out)))[:N]
    return tuple(out)


def _lp_rows(instance: CounterexampleInstance, image: TImage):
    """Constraint rows over variables ``(lambda, z_k)``; returns
    (labels, A_ub, b_ub, A_eq)."""
    ins = instance
    if len(image.u) != ins.N or image.variant != ins.variant:
        raise InputError("image dimensions do not match the truncation")
    pairs = diagonal_pairs(ins.I, ins.J)
    col = {p: 1 + k for k, p in enumerate(pairs)}
    nvar = 1 + len(pairs)
    eq = np.zeros(nvar)
    eq[0] = 1.0
    for (i, j), c in col.items():
        eq[c] = -(2.0 ** i)
    labels, A, b = [], [], []

    def add(label, coef, rhs):
        labels.append(label)
        A.append(coef)
        b.append(rhs)

    row = np.zeros(nvar)
    row[0] = -1.0
    add("a >= -lambda", row, image.a)
    vd = image.v_dict()
    if ins.variant == "L":
        for (i, j) in pairs:
            row = np.zeros(nvar)
            row[col[(i, j)]] = 1.0
            add(f"v({i},{j}) >= z({i},{j})", row, vd[(i, j)])
        for n in range(1, ins.N + 1):
            row = np.zeros(nvar)
            for (i, j) in pairs:
                if j <= n:
                    row[col[(i, j)]] = 4.0 ** i
            add(f"u({n}) >= sum 4^i prefix z", row, image.u[n - 1])
        if math.isfinite(image.u_tail):
            row = np.zeros(nvar)
            for (i, j) in pairs:
                row[col[(i, j)]] = 4.0 ** i
            add("u(tail) >= sum 4^i prefix z", row, image.u_tail)
    else:
        for j in range(1, ins.J + 1):
            row = np.zeros(nvar)
            for i in range(1, ins.I + 1):
                row[col[(i, j)]] = 4.0 ** i
            add(f"v({j}) >= sum_i 4^i z(i,{j})", row, vd[(j,)])
        for n in range(1, ins.N + 1):
            row = np.zeros(nvar)
            for (i, j) in pairs:
                if j >= n:
                    row[col[(i, j)]] = 1.0
            add(f"u({n}) >= sum tail z", row, image.u[n - 1])
        if math.isfinite(image.u_tail):
            row = np.zeros(nvar)
            for (i, j) in pairs:
                if j >= ins.N + 1:
                    row[col[(i, j)]] = 1.0
            add("u(tail) >= sum tail z", row, image.u_tail)
    return labels, np.array(A), np.array(b), eq, pairs, col


def _certificate_from_z(instance: CounterexampleInstance, z, pairs,
                        tol: float) -> MembershipCertificate:
    """``(lambda, y)`` from an LP's z block (ordered like ``pairs``).

    HiGHS returns z entries down to about -1e-7, so z is clipped first;
    lambda is re-derived from z (lambda = sum 2^i z), since dividing by
    the solver's raw lambda amplifies noise when the optimum is near 0.
    """
    z = np.maximum(np.asarray(z, dtype=float), 0.0)
    lam = float(sum((2.0 ** i) * z[k] for k, (i, _) in enumerate(pairs)))
    if lam <= max(tol, 1e-7):
        return MembershipCertificate(0.0, (((1, 1), 0.5),), instance.variant)
    y = tuple(sorted((pair, float(z[k]) / lam) for k, pair in enumerate(pairs)
                     if z[k] / lam > tol))
    cert = MembershipCertificate(lam, y, instance.variant)
    if abs(cert.row_weighted_sum - 1.0) > 1e-6:
        raise CertificateError(
            f"row-weighted sum {cert.row_weighted_sum!r} != 1")
    return cert


def membership(instance: CounterexampleInstance, image: TImage,
               tol: float = _FEAS_TOL) -> MembershipCertificate:
    """Decide ``image in T(C)`` by LP feasibility in ``(lambda, z)``.

    Returns a certificate with ``y = z / lambda`` (or the canonical
    ``lambda = 0`` certificate ``y(1,1) = 1/2`` when the image is
    componentwise nonnegative); raises NotAMember carrying a Farkas
    certificate (row multipliers proving emptiness) otherwise.
    """
    labels, A, b, eq, pairs, _ = _lp_rows(instance, image)
    nvar = A.shape[1]
    c = np.zeros(nvar)
    c[0] = -1.0  # maximize lambda
    res = linprog(c, A_ub=A, b_ub=b, A_eq=eq.reshape(1, -1), b_eq=[0.0],
                  bounds=[(0, None)] * nvar, method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status == 0:
        return _certificate_from_z(instance, res.x[1:], pairs, tol)
    # Farkas alternative: mu >= 0, A^T mu + nu * eq >= 0, mu . b < 0
    nrow = A.shape[0]
    fc = np.concatenate([b, [0.0, 0.0]])
    f_Aub = np.hstack([-A.T, -eq.reshape(-1, 1), eq.reshape(-1, 1)])
    f_Aub = np.vstack([f_Aub, np.concatenate([np.ones(nrow), [0.0, 0.0]])])
    f_bub = np.concatenate([np.zeros(nvar), [1.0]])
    far = linprog(fc, A_ub=f_Aub, b_ub=f_bub,
                  bounds=[(0, None)] * nrow + [(0, None), (0, None)],
                  method="highs")
    certificate = None
    if far.status == 0 and far.fun < -tol:
        mu = far.x[:nrow]
        certificate = {labels[r]: float(mu[r]) for r in range(nrow)
                       if mu[r] > tol}
        certificate["__objective__"] = float(far.fun)
    raise NotAMember("image admits no certificate (not a member of C)",
                     certificate=certificate)


def verify_certificate(instance: CounterexampleInstance, image: TImage,
                       cert: MembershipCertificate, tol: float = 1e-7) -> bool:
    """Re-check all certificate constraints against the image."""
    ins = instance
    lam = cert.lam
    y = cert.y_dict()
    if lam < -tol or any(val < -tol for val in y.values()):
        return False
    if lam > tol and abs(cert.row_weighted_sum - 1.0) > 1e-6:
        return False
    if image.a < -lam - tol:
        return False
    scale = 1.0 + lam
    vd = image.v_dict()
    if ins.variant == "L":
        for (i, j), val in y.items():
            if vd.get((i, j), 0.0) < lam * val - tol * scale:
                return False
        for n in range(1, ins.N + 1):
            rhs = lam * sum((4.0 ** i) * val for (i, j), val in y.items()
                            if j <= n)
            if image.u[n - 1] < rhs - tol * scale:
                return False
        if math.isfinite(image.u_tail):
            rhs = lam * sum((4.0 ** i) * val for (i, j), val in y.items())
            if image.u_tail < rhs - tol * scale:
                return False
    else:
        for j in range(1, ins.J + 1):
            rhs = lam * sum((4.0 ** i) * val for (i, jj), val in y.items()
                            if jj == j)
            if vd.get((j,), 0.0) < rhs - tol * scale:
                return False
        for n in range(1, ins.N + 1):
            rhs = lam * sum(val for (i, j), val in y.items() if j >= n)
            if image.u[n - 1] < rhs - tol * scale:
                return False
    return True


def weak_approx_select(instance: CounterexampleInstance, targets, eps: float):
    """Choose ``(s, r)`` and the member ``X_sr`` that is eps-close to
    ``-W_0`` against every supplied dual target.

    ``V = (1/eps) sum_t |V_t|``; ``s`` is the smallest index with
    ``max_key E[W_key V] < 2^(s-1)`` and ``r`` the smallest with the
    first-region tail pairing below ``2^-(s+1)`` (closed form plus the
    certified constant-part tail bound).  Returns
    ``(s, r, X_sr, report)`` where the report carries the verified
    inner products and the membership certificate.
    """
    ins = instance
    if eps <= 0:
        raise InputError("eps must be positive")
    if ins.variant != "L":
        raise InputError("the selector is defined for variant L")
    if not targets:
        raise InputError("need at least one target")
    V = Combo(ins, {})
    for t in targets:
        V = V + t.abs()
    V = V * (1.0 / eps)
    w_pairings = {key: pairing(ins.symbol_rv(("W", *key)), V.as_rv())
                  for key in ins.third_keys}
    w_max = max(w_pairings.values())
    s = None
    for cand in range(1, ins.I + 1):
        if w_max < 2.0 ** (cand - 1):
            s = cand
            break
    if s is None:
        raise TruncationTooSmall(
            f"no s <= {ins.I} with max E[W_ij V] = {w_max!r} < 2^(s-1)"
        )
    c1 = V.constant_part
    block_pair = [pairing(ins.symbol_rv(("X", b.index)), V.as_rv())
                  for b in ins.x_seq.blocks]
    tail_bound = c1 * ins.constant_tail_bound
    r = None
    for cand in range(1, min(ins.J, ins.N) + 1):
        tail = sum(block_pair[cand - 1:]) + tail_bound
        if tail < 2.0 ** (-(s + 1)):
            r = cand
            break
    if r is None:
        raise TruncationTooSmall(
            f"no r <= {min(ins.J, ins.N)} with tail pairing below 2^-(s+1)"
        )
    X_sr = Combo(ins, {("Xtail", r): 2.0 ** s, ("W0",): -1.0,
                       ("W", s, r): 2.0 ** (-s)})
    cert = membership(ins, t_operator(ins, X_sr))
    table = []
    for t_idx, t in enumerate(targets):
        lo, hi = _pairing_interval(X_sr + Combo(ins, {("W0",): 1.0}), t)
        bound = max(abs(lo), abs(hi))
        if bound >= eps:
            raise TruncationTooSmall(
                f"target {t_idx}: |pairing| bound {bound!r} >= eps"
            )
        table.append({"target": t_idx, "lo": lo, "hi": hi, "bound": bound})
    return s, r, X_sr, {"s": s, "r": r, "pairings": table,
                        "certificate": cert}


def rho_c(instance: CounterexampleInstance, X: Combo,
          tol: float = 1e-6) -> float:
    """``inf{m : X + m*1 in C}`` as one LP over ``(lambda, z, m)``.

    ``T(X + m*1) = T X0 + (c1 + m) T 1`` (``X0`` the non-constant part
    of X, ``c1`` its constant), so the membership rows become
    ``A (lambda, z) - m b1 <= b0 + c1 b1`` with ``m`` free; the tail row
    ``u_tail(m) = tail + min(0, (c1 + m)/t_N)`` splits into two.  Both
    certificates are checked before ``m*`` is returned, else
    CertificateError:

    * primal: ``(lambda, z)`` verifies for ``X + m*`` at ``tol``;
    * dual: ``mu >= 0``, ``mu . b1 = 1``, ``A^T mu + nu eq >= 0`` and
      ``-mu . (b0 + c1 b1) = m*``, a Farkas certificate (objective
      ``m - m*``) that ``X + m`` is not in C for every ``m < m*``.

    An infeasible LP (e.g. a negative ``Xtail`` coefficient) gives +inf.
    """
    ins = instance
    c1 = X.constant_part
    _, A, b0, eq, pairs, _ = _lp_rows(ins, t_operator(ins, X - c1))
    b1 = _lp_rows(ins, t_operator(ins, Combo(ins, {("one",): 1.0})))[2]
    # the last row is the tail row, where T 1 contributes 0; its twin
    # carries the constant part's (c1 + m)/t_N
    A = np.vstack([A, A[-1]])
    b0 = np.append(b0, b0[-1])
    b1 = np.append(b1, 1.0 / ins.t_last)
    rhs = b0 + c1 * b1
    nvar = A.shape[1]
    cost = np.zeros(nvar + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([A, -b1.reshape(-1, 1)]), b_ub=rhs,
                  A_eq=np.append(eq, 0.0).reshape(1, -1), b_eq=[0.0],
                  bounds=[(0, None)] * nvar + [(None, None)], method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise NumericFailure(f"rho_c LP failed: {res.message}")
    m = float(res.x[-1]) + 0.0  # no -0.0 in reports
    cert = _certificate_from_z(ins, res.x[1:nvar], pairs, _FEAS_TOL)
    if not verify_certificate(ins, t_operator(ins, X + m), cert, tol=tol):
        raise CertificateError(f"primal certificate fails at m* = {m!r}")
    mu = -res.ineqlin.marginals
    nu = -float(res.eqlin.marginals[0])
    scale = tol * (1.0 + float(np.sum(np.abs(mu))))
    if (np.any(mu < -tol) or abs(float(mu @ b1) - 1.0) > scale
            or np.any(A.T @ mu + nu * eq < -scale * np.abs(A).max())
            or -float(mu @ rhs) < m - scale * (1.0 + abs(m))):
        raise CertificateError(f"Farkas certificate fails below m* = {m!r}")
    return m


def limit_certificate(instance: CounterexampleInstance, members, limit: Combo,
                      tol: float = 1e-6) -> MembershipCertificate:
    """Certificate for the limit of certified members, following the
    order-closedness proof at finite truncation.

    ``members`` is a list of ``(U_p, cert_p)``; the routine verifies
    each certificate, checks the uniform bound
    ``M >= lambda_p * sum_i 4^i ||y_pi||_1``, checks that ``U_p``
    approaches ``limit`` atomwise, takes the (finite-dimensional) limit
    of ``(lambda_p, y_p)`` along the tail, and verifies the result
    against the limit's image.
    """
    if len(members) < 2:
        raise InputError("need at least two certified members")
    errors = []
    for p, (U_p, cert_p) in enumerate(members):
        if not verify_certificate(instance, t_operator(instance, U_p), cert_p):
            raise CertificateError(f"certificate {p} does not verify")
        errors.append(float(np.max(np.abs(U_p.x - limit.x))))
    if not errors[-1] <= 0.5 * errors[0] + tol:
        raise InputError("members do not approach the stated limit")
    bound = max(c.lam * c.finiteness_value for _, c in members)
    lams = [c.lam for _, c in members]
    half = len(members) // 2
    lam = lams[-1]
    # a geometrically decaying lambda tail converges to the zero-lambda
    # certificate even though no finite element reaches it
    vanishing = lam <= tol or lam <= 0.5 * lams[half] + tol
    if vanishing:
        settle = max(lams[half:])
    else:
        settle = max(abs(l - lam) for l in lams[half:])
        for _, c in members[half:]:
            ref = members[-1][1].y_dict()
            for k in set(ref) | set(c.y_dict()):
                settle = max(settle,
                             abs(c.y_dict().get(k, 0.0) - ref.get(k, 0.0)))
        if settle > 1e-3 + 0.5 * abs(lam):
            raise InputError(
                "certificate sequence does not settle along the tail")
    image = t_operator(instance, limit)
    if vanishing:
        cert = MembershipCertificate(0.0, (((1, 1), 0.5),), instance.variant)
    else:
        keys = sorted({k for _, c in members for k, _ in c.y})
        y = tuple((k, members[-1][1].y_dict().get(k, 0.0)) for k in keys
                  if members[-1][1].y_dict().get(k, 0.0) > 0.0)
        cert = MembershipCertificate(lam, y, instance.variant)
    # verify up to the residual convergence error still visible in the
    # finite prefix (the true limit is only reached asymptotically)
    if not verify_certificate(instance, image, cert,
                              tol=max(tol, 4.0 * settle)):
        raise NotAMember("limit certificate fails against the limit image")
    assert bound < math.inf
    return cert


def gap_exhibit(instance: CounterexampleInstance, targets, eps: float,
                tol: float = 1e-6) -> dict:
    """The headline report: ``rho_c(-W_0) > 0`` versus members that are
    eps-indistinguishable from ``-W_0`` under every supplied target."""
    ins = instance
    minus_w0 = Combo(ins, {("W0",): -1.0})
    try:
        membership(ins, t_operator(ins, minus_w0))
        raise InputError("-W_0 unexpectedly in C; instance is degenerate")
    except NotAMember as exc:
        infeasibility = exc.certificate
    rho_w0 = rho_c(ins, minus_w0, tol=tol)
    s, r, X_sr, sel = weak_approx_select(ins, targets, eps)
    rho_sr = rho_c(ins, X_sr, tol=tol)
    return {
        "rho_minus_w0": rho_w0,
        "delta": rho_w0 - tol,
        "infeasibility_certificate": infeasibility,
        "approximants": [{
            "s": s, "r": r, "rho": rho_sr,
            "pairings": sel["pairings"],
            "certificate": json.loads(certificate_to_json(sel["certificate"])),
        }],
        "epsilon": eps,
        "truncation": {"I": ins.I, "J": ins.J, "N": ins.N,
                       "variant": ins.variant},
    }


# -- serialization -----------------------------------------------------

def certificate_to_json(cert: MembershipCertificate) -> str:
    return json.dumps({
        "lambda": cert.lam,
        "y": [{"i": k[0], "j": k[1], "value": v} for k, v in cert.y],
    }, sort_keys=True)


def certificate_from_json(text: str, variant: str = "L") -> MembershipCertificate:
    try:
        payload = json.loads(text)
        y = tuple(sorted(((int(e["i"]), int(e["j"])), float(e["value"]))
                         for e in payload["y"]))
        return MembershipCertificate(float(payload["lambda"]), y, variant)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from None


def instance_to_json(instance: CounterexampleInstance) -> str:
    return json.dumps({
        "phi": phi_spec_string(instance.phi),
        "truncation": {"I": instance.I, "J": instance.J, "N": instance.N},
        "variant": instance.variant,
        "first_region": json.loads(blocks_to_json(instance.x_seq)),
        "third_region": json.loads(blocks_to_json(instance.z_seq)),
    }, sort_keys=True)


def instance_from_json(text: str) -> CounterexampleInstance:
    try:
        payload = json.loads(text)
        phi = parse_phi_spec(payload["phi"])
        t = payload["truncation"]
        instance = build_instance(phi, int(t["I"]), int(t["J"]), int(t["N"]),
                                  variant=payload.get("variant", "L"))
        for key, seq in (("first_region", instance.x_seq),
                         ("third_region", instance.z_seq)):
            stored = [(float(b["t"]), float(b["p"]))
                      for b in payload[key]["blocks"]]
            if stored != [(b.height, b.probability) for b in seq.blocks]:
                raise InputError(f"stored {key} blocks differ from the "
                                 f"blocks rebuilt from {payload['phi']!r}")
        return instance
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from None
