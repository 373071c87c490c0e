"""The order-closed cone C with a duality gap, at finite truncation.

Construction: three disjoint regions of [0, 1].  On the first, blocks
``X_n`` from Delta_2-failure witnesses of Phi with duals ``Y_n``; on the
second, a single pair ``W_0 = Z_0 = sqrt(3) * 1`` with unit pairing; on
the third, blocks ``Z_m`` from witnesses of the conjugate Psi with duals
``W_m``.  The positive operator ``T X = (E[X Y_n])_n (+) E[X Z_0] (+)
(E[X Z_m])_m`` maps a position to a sequence triple, and C is the set of
positions whose image admits a certificate ``(lambda, y)``.  The
substitution ``z = lambda * y`` linearizes the certificate constraints,
so membership is a linear feasibility problem in ``(lambda, z)`` with
auditable Farkas certificates on the infeasible side.

Two constraint variants are supported: "L" (double-indexed third-region
blocks, ``v(i,j) >= z(i,j)`` and prefix-sum u-constraints) and "H"
(single-indexed third-region blocks, ``v(j) >= sum_i 4^i z(i,j)`` and
tail-sum u-constraints via the summing basis).  Both are decided by one
greedy and one cover on a nested chain of rows, with no LP solver.
After ``w = 4^i z``, variant L's rows are a box per pair plus the
chain, a laminar polymatroid on which the greedy maximizes
``lambda = sum 2^-i w`` exactly (Edmonds 1970).  In variant H, group
j's best lambda for a total ``s = sum_i z(i,j)`` is concave and
piecewise linear in s, and the groups share the chain, so lambda is a
separable concave maximization over a laminar polymatroid, where the
greedy by decreasing slope is optimal (Groenevelt, EJOR 1991; Fujishige,
*Submodular Functions and Optimization*, on resource allocation).

The induced coherent risk measure ``rho_c(X) = inf{m : X + m*1 in C}``
satisfies the Fatou property by the order-closedness of C, yet
``rho_c(-W_0) > 0`` while members ``X_sr`` with ``rho_c(X_sr) <= 0``
approximate ``-W_0`` against any finite list of dual targets - the
finite-scale shadow of the failure of the dual representation.  Since
``T(X + m*1) = T X + m T 1`` is affine in ``m``, ``rho_c`` is one
problem in ``(lambda, z, m)`` whose solution carries a membership
certificate at ``m*`` and a Farkas certificate for every ``m < m*``;
``rho_c = +inf`` exactly when the ``Xtail`` coefficient is negative.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .block_sequences import REGIONS, Block, BlockSequence, build_disjoint_sequence, \
    blocks_to_json, series_modular
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
#: the certificate slack of ``rho_c`` and ``limit_certificate``
_CERT_TOL = 1e-6
#: the greedy's only slack: float rounding, 4 ulp relative on a + lambda*
_ROUNDING = 4.0 * np.finfo(float).eps


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
    for raw discretized positions).  ``v`` holds one entry for each of
    the instance's third keys, ``(i, j)`` in variant L and ``(j,)`` in
    variant H, sorted by key.
    """

    u: tuple
    a: float
    v: tuple  # tuple of (key, value), sorted by key
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

    def y_dict(self) -> dict:
        return dict(self.y)

    @property
    def row_weighted_sum(self) -> float:
        """``sum_i 2^i ||y_i||_1`` (equals 1 for positive lambda)."""
        return sum((2.0 ** i) * val for (i, _), val in self.y)


_ZERO_LAMBDA = MembershipCertificate(0.0, (((1, 1), 0.5),))


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
        self.w0_seq = BlockSequence("omega2", (w0,))
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
        """T's rows in atom order, each ``(primal, dual, primal height,
        dual height, p, label)`` for a block and its dual on one atom; the
        space, the row arrays, the symbol tables and the sorted third keys
        ``_v_keys`` (at rows ``_v_rows``, ``_v_rank`` the inverse order)."""
        p2 = self.w0_seq.blocks[0].probability
        rows = [(("X", x.index), ("Y", y.index), x.height, y.height,
                 x.probability, f"A{x.index}")
                for x, y in zip(self.x_seq.blocks, self.y_seq.blocks)]
        # reciprocal height makes the pairing with W_0 exactly 1 in floats
        rows.append((("W0",), ("Z0",), _SQRT3, 1.0 / (p2 * _SQRT3), p2, "B0"))
        rows += [(("W", *key), ("Z", *key), w.height, z.height, z.probability,
                  "C" + "_".join(map(str, key)))
                 for key, z, w in zip(self.third_keys, self.z_seq.blocks,
                                      self.w_seq.blocks)]
        primal, dual, h_primal, h_dual, probs, labels = zip(*rows)
        self.space = FiniteSpace(probs + (1.0 - sum(probs),), labels + ("rest",))
        self._row_pairs = tuple(zip(primal, dual))
        self._row_p = self.space.p[:len(rows)]
        self._row_primal, self._row_dual = np.array(h_primal), np.array(h_dual)
        self._atom_of = {sym: atom for atom, pair in enumerate(self._row_pairs)
                         for sym in pair}
        self._height_of = dict(zip(primal + dual, h_primal + h_dual))
        order = sorted(range(len(self.third_keys)), key=self.third_keys.__getitem__)
        self._v_keys = [self.third_keys[k] for k in order]
        self._v_rows = self.N + 1 + np.array(order)
        self._v_rank = np.argsort(order).tolist()

    def _resolve(self, symbol):
        """``(atoms, heights)`` of a block symbol, ``("Xtail", r)`` being
        the X rows r..N; InputError for any other symbol."""
        if symbol[0] == "Xtail" and len(symbol) == 2:
            # a tail from r > N + 1 leaves u(n) = 0 for N < n < r, so
            # u_tail = tail would overstate inf_{n > N} u(n)
            if symbol[1] not in range(1, self.N + 2):
                raise InputError(f"tail symbol {symbol!r} must start in "
                                 f"1..{self.N + 1}")
            rows = slice(int(symbol[1]) - 1, self.N)
            return rows, self._row_primal[rows]
        if symbol not in self._atom_of:
            raise InputError(f"unknown symbol {symbol!r}")
        return self._atom_of[symbol], self._height_of[symbol]

    def _check_invariants(self):
        units = _pair_rows(self, self._row_primal, self._row_dual).tolist()
        for (sym_p, sym_d), pr in zip(self._row_pairs, units):
            if abs(pr - 1.0) > 1e-9:
                raise InputError(f"pairing({sym_p},{sym_d}) = {pr!r}, not 1")
        for seq, fn in ((self.x_seq, self.phi), (self.z_seq, self.psi)):
            val, tail = series_modular(seq, fn, 1.0)
            if val + tail > 1.0 + 1e-12:
                raise InputError("series modular exceeds 1")

    @property
    def t_last(self) -> float:
        return self.x_seq.blocks[-1].height

    @functools.cached_property
    def constant_tail_bound(self) -> float:
        """Certified bound on ``sum_{n>N} E[X_n]``: the summands are
        ``t_n / (2^n phi(t_n))`` with ``t/phi(t)`` nonincreasing."""
        t = self.t_last
        return (t / float(self.phi(t))) * 2.0 ** (-self.N)


class Combo:
    """Finite linear combination of instance blocks, the constant, and
    the symbolic first-region tails ``("Xtail", r) = sum_{n>=r} X_n``."""

    def __init__(self, instance: CounterexampleInstance, coeffs: dict,
                 _resolved: bool = False):
        self.instance = instance
        self.coeffs = {k: float(v) for k, v in coeffs.items() if v != 0.0}
        if not _resolved:  # arithmetic's keys are its operands'
            for k in self.coeffs:
                if k != ("one",):
                    instance._resolve(k)

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
        return Combo(self.instance, out, _resolved=True)

    def __add__(self, other):
        return self._merge(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, -1.0)

    def __mul__(self, c):
        return Combo(self.instance, {k: v * float(c) for k, v in self.coeffs.items()},
                     _resolved=True)

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
        # like a sum of floats, a term overflows to inf without a warning
        with np.errstate(over="ignore"):
            for k, c in self.coeffs.items():
                if k != ("one",):
                    atoms, heights = ins._resolve(k)
                    vec[atoms] += c * heights
        return vec

    def as_rv(self) -> RandomVariable:
        return self.instance.space.rv(self.x)

    def abs(self) -> "Combo":
        """Atomwise absolute value, expressed back over block symbols.

        Exact because distinct blocks have disjoint supports; each of T's
        row atoms is re-expressed through that row's dual symbol.
        """
        if self.tail_coefficient:
            raise InputError("abs of a symbolic-tail combo is not supported")
        ins = self.instance
        c1 = abs(self.constant_part)
        out = {("one",): c1}
        deltas = np.abs(self.x[:len(ins._row_pairs)]) - c1
        for (_, sym), delta, h in zip(ins._row_pairs, deltas, ins._row_dual):
            if delta != 0.0:
                out[sym] = delta / h
        return Combo(ins, out)


def _pair_rows(instance: CounterexampleInstance, left, right) -> np.ndarray:
    """``(p * left) * right`` on each of T's row atoms: ``pairing``'s one
    nonzero term in its order, ``+ 0.0`` making -0.0 the 0.0 its sum
    returns; like that sum, it overflows to inf without a warning."""
    with np.errstate(over="ignore"):
        return (instance._row_p * left) * right + 0.0


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
    """``T X = (E[X Y_n])_n (+) E[X Z_0] (+) (E[X Z_key])_key``, each
    entry one atom's term; NumericFailure where it or X is not finite.
    Floats out of one array: its atom is named only if a test fails, and
    ``v`` takes the instance's sorted keys at their rows, ``_v_rows``."""
    ins = instance
    if isinstance(X, Combo):
        if X.instance is not ins:
            raise InputError("combo belongs to a different instance")
        c1 = X.constant_part
        tail = X.tail_coefficient
        if not math.isfinite(tail):
            raise NumericFailure(f"Xtail coefficient {tail!r} is not finite")
        # inf over n > N of (tail + c1 / t_n): the block part is exact,
        # the constant part vanishes from above and is bounded below
        u_tail = tail + (c1 / ins.t_last if c1 < 0 else 0.0)
    elif isinstance(X, RandomVariable):
        if X.space != ins.space:
            raise InputError("position lives on a different discretization")
        u_tail = math.inf
    else:
        raise InputError(f"unsupported input {type(X).__name__}")
    x = X.x
    R = len(ins._row_pairs)
    rows = _pair_rows(ins, x[:R], ins._row_dual)
    if not (np.isfinite(x).all() and np.isfinite(rows).all()):
        bad = ~np.isfinite(x) | np.append(~np.isfinite(rows), False)
        label = ins.space.labels[int(np.argmax(bad))]
        raise NumericFailure(f"X or T X is not finite on atom {label}")
    n = ins.N
    return TImage(u=tuple(rows[:n].tolist()), a=float(rows[n]),
                  v=tuple(zip(ins._v_keys, rows[ins._v_rows].tolist())),
                  variant=ins.variant, u_tail=u_tail)


def _rows(instance: CounterexampleInstance, image: TImage):
    """``(b, chain)``: the capacities ``b`` of the rows over ``(lambda, z)``
    and the ``_Chain`` holding them, ``z`` ordered like ``chain.pairs``.

    The rows are the a row ``-lambda <= a``, the own rows (L: the box
    ``z(i,j) <= v(i,j)`` of each pair; H: ``sum_i 4^i z(i,j) <= v(j)``
    for each group j), the chain rows u(1..N) (L: ``sum_{j <= n} 4^i
    z``; H: ``sum_{j >= n} z``), then the tail row when ``u_tail`` is
    finite (L: every pair; H: the pairs with j > N).
    """
    ins = instance
    if len(image.u) != ins.N or image.variant != ins.variant:
        raise InputError("image dimensions do not match the truncation")
    if [k for k, _ in image.v] != ins._v_keys:
        raise InputError("image v keys are not the third keys, sorted")
    tail = [image.u_tail] if math.isfinite(image.u_tail) else []
    b = np.array([image.a] + [image.v[r][1] for r in ins._v_rank]
                 + list(image.u) + tail)
    return b, _chain(ins.I, ins.J, ins.N, ins.variant, len(b))


def _certificate_from_z(z, chain: _Chain) -> MembershipCertificate:
    """``(lambda, y)`` from the greedy's z >= 0 (ordered like
    ``chain.pairs``), with ``lambda = sum 2^i z`` and ``y = z / lambda``."""
    lam = sum((chain.pow2 * z).tolist())
    if lam <= 1e-7:
        return _ZERO_LAMBDA
    y = tuple(sorted((pair, zk / lam) for pair, zk in zip(chain.pairs, z.tolist())
                     if zk / lam > _FEAS_TOL))
    cert = MembershipCertificate(lam, y)
    if abs(cert.row_weighted_sum - 1.0) > 1e-6:
        raise CertificateError(
            f"row-weighted sum {cert.row_weighted_sum!r} != 1")
    return cert


class _Chain(NamedTuple):
    """``_rows``' rows past the first as one chain problem.

    Those rows are the own rows ``b[1:first]`` (L: the box of each pair;
    H: the row of each group j) and then the chain rows ``b[first:]``:
    u(1..N), the tail row when ``u_tail`` is finite and, in rho_c, its
    twin.  Each pair (i, j), ordered like ``pairs``, is an element with
    a weight, a length ``factor * b[own]`` and the range ``span`` of
    chain rows holding it with coefficient 1 in its units:

    * L, in units of ``w = 4^i z``: weight ``2^-i`` and length
      ``4^i v(i,j)``, held by the prefix rows u(n >= j) and the tail.
    * H, in units of ``s = sum_i z(i,j)``: the pieces of group j's value
      ``F_j(s) = max{sum_i 2^i z : sum_i z <= s, sum_i 4^i z <= v(j)}``.
      Element (I, j) is the first piece, slope ``2^I`` over length
      ``v(j)/4^I``, all on level I; element (i, j), i < I, is the piece
      of slope ``(2/3) 2^i`` over length ``3 v(j)/4^(i+1)`` that trades
      level i+1 for level i.  Each weight is ``unit`` = 3 times its
      slope, a whole number, so that the cover's multipliers are exact.
      Group j is held by the suffix rows u(n <= j) and, when j > N, by
      the tail.

    ``order`` is the greedy's: by decreasing weight, ties in descending
    j.  For the cover, row l of ``member`` marks the elements of at
    least the l-th largest weight, ``gap`` is that weight's distance to
    the next one down (to 0 after the last), row 0 of ``out`` marks
    every element and row 1 + c those off chain row c, and ``count``
    is the number of rows of each cover, ``out`` row by ``member`` row
    (``gap`` and ``count`` as Python numbers).  ``labels``, ``A`` and
    ``eq`` are the rows of ``_rows``; ``pow2`` is ``2^i``, ``pair_set``
    the set of pairs and ``A_max`` the largest ``|A|``.
    """

    pairs: tuple
    i: np.ndarray
    j: np.ndarray
    own: np.ndarray
    factor: np.ndarray
    span: tuple
    first: int
    unit: float
    order: tuple
    member: np.ndarray
    gap: tuple
    out: np.ndarray
    count: tuple
    labels: tuple
    A: np.ndarray
    eq: np.ndarray
    pow2: np.ndarray
    pair_set: frozenset
    A_max: float


@functools.lru_cache(maxsize=64)
def _chain(I: int, J: int, N: int, variant: str, n_rows: int) -> _Chain:
    pairs = diagonal_pairs(I, J)
    i, j = np.array(pairs).T
    first = 1 + (len(pairs) if variant == "L" else J)
    last = n_rows - first  # past the last chain row
    if variant == "L":
        weight, factor = 2.0 ** -i, 4.0 ** i
        own, lo, hi = np.arange(1, first), np.minimum(j, N + 1) - 1, last
        own_coef, chain_coef, unit = 1.0, 4.0 ** i, 1.0
        labels = [f"v({p},{q}) >= z({p},{q})" for p, q in pairs]
        sums = "sum 4^i prefix z"
    else:
        weight = np.where(i == I, 3.0 * 2.0 ** i, 2.0 ** (i + 1))
        factor = np.where(i == I, 4.0 ** -i, 3.0 * 4.0 ** -(i + 1))
        own, lo, hi = j, 0, np.where(j <= N, j, last)
        own_coef, chain_coef, unit = 4.0 ** i, 1.0, 3.0
        labels = [f"v({q}) >= sum_i 4^i z(i,{q})" for q in range(1, J + 1)]
        sums = "sum tail z"
    # the tail row and, in rho_c, its twin
    labels = ["a >= -lambda"] + labels + \
        [f"u({n}) >= {sums}" for n in range(1, N + 1)] + \
        [f"u(tail) >= {sums}"] * (last - N)
    span = [(int(p), int(q)) for p, q in np.broadcast(lo, hi)]
    order = sorted(range(len(pairs)), key=lambda k: (-weight[k], -j[k]))
    levels = np.unique(weight)[::-1]
    member = weight >= levels[:, None]
    held = np.array([[p <= c < q for p, q in span] for c in range(last)],
                    dtype=bool).reshape(last, len(pairs))
    out = np.vstack([np.ones(len(pairs), dtype=bool), ~held])
    count = member.astype(int) @ out.T.astype(int) + (np.arange(last + 1) > 0)
    A = np.zeros((n_rows, 1 + len(pairs)))
    A[0, 0] = -1.0
    A[own, 1 + np.arange(len(pairs))] = own_coef
    A[first:, 1:] = held * chain_coef
    eq = np.concatenate(([1.0], -(2.0 ** i)))
    chain = _Chain(tuple(pairs), i, j, own, factor, tuple(span), first, unit,
                   tuple(order), member,
                   tuple((levels - np.append(levels[1:], 0.0)).tolist()),
                   out, tuple(map(tuple, count.tolist())), tuple(labels), A, eq,
                   2.0 ** i, frozenset(pairs), float(np.abs(A).max()))
    for value in chain:  # every caller shares the cached chain
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return chain


def _greedy(chain: _Chain, b) -> np.ndarray:
    """The ``z`` (ordered like ``pairs``) of largest lambda under
    ``_rows``' rows with capacities ``b >= 0`` past the first.

    Elements are filled in ``order``, each up to the least of its length
    and its chain rows' slacks, on lists of floats.  An H group's pieces
    share their rows and fall in slope, so they fill in turn; a piece
    filled to the fraction ``theta`` of its length puts ``z(i,j) =
    (theta(i,j) - theta(i-1,j)) v(j)/4^i`` on level i, which is at least
    0 because a piece starts only once the one before is full.
    """
    length = chain.factor * b[chain.own]
    lengths, slack = length.tolist(), b[chain.first:].tolist()
    fill = [0.0] * len(lengths)
    for k in chain.order:
        lo, hi = chain.span[k]
        w = min([lengths[k]] + slack[lo:hi])
        for r in range(lo, hi):
            slack[r] -= w
        fill[k] = w
    if chain.unit == 1.0:  # L: one piece per pair
        return np.array(fill) / chain.factor
    i, j = chain.i, chain.j
    theta = np.zeros((i.max() + 1, j.max()))
    theta[i, j - 1] = np.divide(fill, length, out=np.zeros_like(fill),
                                where=length > 0.0)
    return (theta[i, j - 1] - theta[i - 1, j - 1]) * (b[chain.own] / 4.0 ** i)


def _lam(z, chain: _Chain) -> float:
    return math.fsum((chain.pow2 * z).tolist())


def _cover(chain: _Chain, b) -> np.ndarray:
    """Row multipliers ``rho`` with ``rho_a = unit`` and ``A^T rho +
    unit eq >= 0`` whose cost ``sum_{r>0} rho_r b_r`` is ``unit``
    times the greedy's ``lambda*`` at capacities ``b >= 0``.

    For each weight level, the elements of at least that weight are
    covered at least cost by one chain row (or none) plus the lengths
    of the elements that row leaves out; that cover's cost is the
    greedy's value on them.  The row gets the level's ``gap``, so each
    element is priced ``P``, the sum over its chain rows, at most its
    weight.  Among covers of equal cost the one with the fewest rows is
    taken, then the earliest row (compared as floats); the costs are
    summed left to right.
    Each own row then gets the least multiplier that covers its columns:
    ``4^i (2^-i - P)``, at least 0, for an L box (the sum of the gaps
    of the levels whose cover leaves the pair out) and ``max(0, max_i
    (3 2^i - P)/4^i)`` for an H group.  Every multiplier is a dyadic
    rational, so the inequality holds exactly in floats.
    """
    first = chain.first
    part = (chain.factor * b[chain.own]) * chain.member
    cost = np.cumsum(part[:, None, :] * chain.out, axis=2)[:, :, -1]
    cost[:, 1:] += b[first:]
    rho = np.zeros(len(b))
    rho[0] = chain.unit
    for gap, c, n in zip(chain.gap, cost.tolist(), chain.count):
        r = min(zip(c, n, range(len(c))))[2]
        if r:
            rho[first + r - 1] += gap
    # the zero of the lambda column floors each own multiplier at 0
    need = -(chain.A.T @ rho + rho[0] * chain.eq)
    own = chain.A[1:first]
    rho[1:first] = np.divide(need, own, out=np.zeros_like(own),
                             where=own > 0.0).max(axis=1)
    return rho


def _decide(chain: _Chain, b):
    """``(z, rho)``: ``rho`` is None for a member (``z`` the greedy's),
    else Farkas multipliers, the most negative row past the first or the
    cover when ``b[0] + lambda*`` is below 0 by more than 4 ulp."""
    if (b[1:] < 0.0).any():
        return None, np.eye(len(b))[1 + int(np.argmin(b[1:]))]
    z = _greedy(chain, b)
    lam = _lam(z, chain)
    if b[0] + lam >= -_ROUNDING * max(abs(b[0]), lam):
        return z, None
    return z, _cover(chain, b)


def membership(instance: CounterexampleInstance,
               image: TImage) -> MembershipCertificate:
    """Decide ``image in T(C)``: is there ``(lambda, z) >= 0`` meeting
    ``_rows``' rows?

    A row past the first with a negative capacity rejects the image.
    Otherwise the greedy (``_greedy``) gives the largest lambda, and the
    image is a member exactly when ``a + lambda* >= 0``, up to 4 ulp of
    float rounding.  Returns the certificate with ``y = z / lambda`` of
    largest lambda (or the ``lambda = 0`` certificate ``y(1,1) = 1/2``
    when that lambda is at most 1e-7).
    Otherwise raises NotAMember carrying a Farkas certificate: row
    multipliers ``mu >= 0`` summing to 1 with ``A^T mu + nu eq >= 0``
    for some ``nu`` and ``mu . b < 0``, keyed by row label, with
    ``mu . b`` as ``"__objective__"``.  It is the negative row or the
    cover (``_cover``), audited before it is raised.
    """
    b, chain = _rows(instance, image)
    z, mu = _decide(chain, b)
    if mu is None:
        return _certificate_from_z(z, chain)
    if not (mu @ b < 0.0 and np.all(chain.A.T @ mu + mu[0] * chain.eq >= 0.0)):
        raise CertificateError("Farkas certificate fails its audit")
    mu = mu / mu.sum()
    certificate = {chain.labels[r]: float(mu[r]) for r in np.flatnonzero(mu)}
    certificate["__objective__"] = float(mu @ b)
    raise NotAMember("image admits no certificate (not a member of C)",
                     certificate=certificate)


def verify_certificate(instance: CounterexampleInstance, image: TImage,
                       cert: MembershipCertificate, tol: float = 1e-7) -> bool:
    """Re-check all certificate constraints against the image: y holds
    only pairs, and ``z = lambda y`` meets every row of ``_rows`` past
    the first up to ``tol (1 + lambda)``, the a row up to ``tol``."""
    lam = cert.lam
    y = cert.y_dict()
    if lam < -tol or any(val < -tol for val in y.values()):
        return False
    if lam > tol and abs(cert.row_weighted_sum - 1.0) > 1e-6:
        return False
    if image.a < -lam - tol:
        return False
    b, chain = _rows(instance, image)
    if not chain.pair_set.issuperset(y):
        return False
    z = lam * np.array([y.get(pair, 0.0) for pair in chain.pairs])
    return bool(np.all(chain.A[1:, 1:] @ z <= b[1:] + tol * (1.0 + lam)))


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
    if not 0 < eps < math.inf:
        raise InputError("eps must be positive and finite")
    if ins.variant != "L":
        raise InputError("the selector is defined for variant L")
    if not targets:
        raise InputError("need at least one target")
    V = Combo(ins, {})
    for t in targets:
        V = V + t.abs()
    V = V * (1.0 / eps)
    # E[X_n V], E[W_0 V] and E[W_key V], in the order of pairing(block, V)
    rows = _pair_rows(ins, ins._row_primal, V.x[:len(ins._row_pairs)]).tolist()
    block_pair = rows[:ins.N]
    w_max = max(rows[ins.N + 1:])
    s = None
    for cand in range(1, ins.I + 1):
        if w_max < 2.0 ** (cand - 1):
            s = cand
            break
    if s is None:
        raise TruncationTooSmall(
            f"no s <= {ins.I} with max E[W_ij V] = {w_max!r} < 2^(s-1)"
        )
    tail_bound = V.constant_part * ins.constant_tail_bound
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


def _rho_newton(chain: _Chain, rhs, b1):
    """``(m*, z, mu, nu)`` for rho_c's rows ``b(m) = rhs + m b1`` (first
    row ``a(m)``, the rest capacities).

    Every row past the first needs ``b(m) >= 0``, a threshold in m; past
    the largest threshold, ``g(m) = a(m) + lambda*(b(m))`` is concave and
    increasing, and ``m*`` is its root.  Newton's method starts at that
    threshold and moves right: the cover multipliers at m give a line
    ``rho . b(m)`` through ``unit * g(m)`` that lies above it, so each
    root of such a line is at most ``m*``, and it stops when g is
    nonnegative (up to rounding) or the line's root does not move.  The
    last line, normalized by ``rho . b1``, is the Farkas certificate
    below ``m*``; if the threshold itself is ``m*``, the threshold row
    is.
    """
    # the one row without T 1, the tail row, holds for all m as tail >= 0
    rows = 1 + np.flatnonzero(b1[1:] > 0.0)
    # a cut that overflows is -inf: that row holds for every m
    with np.errstate(over="ignore"):
        cut = -rhs[rows] / b1[rows]
    r = rows[int(np.argmax(cut))]
    m = float(cut.max())
    mu, nu = np.eye(len(rhs))[r] / b1[r], 0.0
    while True:
        # rows past the threshold can round to just below 0; the greedy
        # and the cover do not read the first row, a(m)
        b = np.maximum(rhs + m * b1, 0.0)
        b[0] = rhs[0] + m * b1[0]
        z, rho = _decide(chain, b)
        if rho is None:
            return m, z, mu, nu
        slope = float(rho @ b1)
        root = -float(rho @ rhs) / slope
        mu, nu = rho / slope, rho[0] / slope
        if root <= m:
            return m, z, mu, nu
        m = root


def rho_c(instance: CounterexampleInstance, X: Combo,
          tol: float = _CERT_TOL) -> float:
    """``inf{m : X + m*1 in C}``, solved over ``(lambda, z, m)``.

    ``T(X + m*1) = T X0 + (c1 + m) T 1`` (``X0`` the non-constant part
    of X, ``c1`` its constant), so the membership rows become
    ``A (lambda, z) - m b1 <= b0 + c1 b1`` with ``m`` free; the tail row
    ``u_tail(m) = tail + min(0, (c1 + m)/t_N)`` splits into two.  The
    value is +inf exactly when the ``Xtail`` coefficient is negative,
    since every other row's ``T 1`` coefficient is positive.  Both
    variants run Newton's method on the greedy (``_rho_newton``), and
    both certificates are checked before ``m*`` is returned, else
    CertificateError:

    * primal: ``(lambda, z)`` verifies for ``X + m*`` at ``tol``;
    * dual: ``mu >= 0``, ``mu . b1 = 1``, ``A^T mu + nu eq >= 0`` and
      ``-mu . (b0 + c1 b1) = m*``, a Farkas certificate (objective
      ``m - m*``) that ``X + m`` is not in C for every ``m < m*``.
    """
    ins = instance
    c1 = X.constant_part
    b0 = _rows(ins, t_operator(ins, X - c1))[0]
    if X.tail_coefficient < 0.0:
        return math.inf
    b1 = _rows(ins, t_operator(ins, Combo(ins, {("one",): 1.0})))[0]
    # the last row is the tail row, where T 1 contributes 0; its twin
    # carries the constant part's (c1 + m)/t_N
    b0 = np.append(b0, b0[-1])
    b1 = np.append(b1, 1.0 / ins.t_last)
    rhs = b0 + c1 * b1
    chain = _chain(ins.I, ins.J, ins.N, ins.variant, len(rhs))
    A, eq = chain.A, chain.eq
    m, z, mu, nu = _rho_newton(chain, rhs, b1)
    m += 0.0  # no -0.0 in reports
    cert = _certificate_from_z(z, chain)
    if not verify_certificate(ins, t_operator(ins, X + m), cert, tol=tol):
        raise CertificateError(f"primal certificate fails at m* = {m!r}")
    scale = tol * (1.0 + float(np.sum(np.abs(mu))))
    if (np.any(mu < -tol) or abs(float(mu @ b1) - 1.0) > scale
            or np.any(A.T @ mu + nu * eq < -scale * chain.A_max)
            or -float(mu @ rhs) < m - scale * (1.0 + abs(m))):
        raise CertificateError(f"Farkas certificate fails below m* = {m!r}")
    return m


def limit_certificate(instance: CounterexampleInstance, members,
                      limit: Combo) -> MembershipCertificate:
    """Certificate for the limit of certified members, following the
    order-closedness proof at finite truncation.

    ``members`` is a list of ``(U_p, cert_p)``; the routine verifies
    each certificate, checks that ``U_p`` approaches ``limit``
    atomwise, takes the (finite-dimensional) limit of
    ``(lambda_p, y_p)`` along the tail, and verifies the result against
    the limit's image.  The proof's uniform bound
    ``M >= lambda_p * sum_i 4^i ||y_pi||_1`` holds automatically at
    finite truncation, where each sum has finitely many finite terms,
    so it is not checked.
    """
    if len(members) < 2:
        raise InputError("need at least two certified members")
    errors = []
    for p, (U_p, cert_p) in enumerate(members):
        if not verify_certificate(instance, t_operator(instance, U_p), cert_p):
            raise CertificateError(f"certificate {p} does not verify")
        errors.append(float(np.max(np.abs(U_p.x - limit.x))))
    if not errors[-1] <= 0.5 * errors[0] + _CERT_TOL:
        raise InputError("members do not approach the stated limit")
    lams = [c.lam for _, c in members]
    half = len(members) // 2
    lam, last = lams[-1], members[-1][1].y_dict()
    # a geometrically decaying lambda tail converges to the zero-lambda
    # certificate even though no finite element reaches it
    vanishing = lam <= _CERT_TOL or lam <= 0.5 * lams[half] + _CERT_TOL
    if vanishing:
        settle = max(lams[half:])
    else:
        settle = max(abs(l - lam) for l in lams[half:])
        for _, c in members[half:]:
            y = c.y_dict()
            for k in set(last) | set(y):
                settle = max(settle, abs(y.get(k, 0.0) - last.get(k, 0.0)))
        if settle > 1e-3 + 0.5 * abs(lam):
            raise InputError(
                "certificate sequence does not settle along the tail")
    image = t_operator(instance, limit)
    cert = _ZERO_LAMBDA if vanishing else MembershipCertificate(
        lam, tuple((k, v) for k, v in sorted(last.items()) if v > 0.0))
    # verify up to the residual convergence error still visible in the
    # finite prefix (the true limit is only reached asymptotically)
    if not verify_certificate(instance, image, cert,
                              tol=max(_CERT_TOL, 4.0 * settle)):
        raise NotAMember("limit certificate fails against the limit image")
    return cert


def gap_exhibit(instance: CounterexampleInstance, targets,
                eps: float) -> dict:
    """The headline report: ``rho_c(-W_0) > 0`` versus members that are
    eps-indistinguishable from ``-W_0`` under every supplied target."""
    ins = instance
    minus_w0 = Combo(ins, {("W0",): -1.0})
    try:
        membership(ins, t_operator(ins, minus_w0))
        raise InputError("-W_0 unexpectedly in C; instance is degenerate")
    except NotAMember as exc:
        infeasibility = exc.certificate
    rho_w0 = rho_c(ins, minus_w0)
    s, r, X_sr, sel = weak_approx_select(ins, targets, eps)
    rho_sr = rho_c(ins, X_sr)
    return {
        "rho_minus_w0": rho_w0,
        "delta": rho_w0 - _CERT_TOL,
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


def certificate_from_json(text: str) -> MembershipCertificate:
    try:
        payload = json.loads(text)
        y = tuple(sorted(((int(e["i"]), int(e["j"])), float(e["value"]))
                         for e in payload["y"]))
        return MembershipCertificate(float(payload["lambda"]), y)
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
        stored = {key: [(float(b["t"]), float(b["p"]))
                        for b in payload[key]["blocks"]]
                  for key in ("first_region", "third_region")}
        # a cap at the tallest stored block leaves the scan's first hits
        t_cap = max([1e50] + [h for blocks in stored.values() for h, _ in blocks])
        instance = build_instance(phi, int(t["I"]), int(t["J"]), int(t["N"]),
                                  variant=payload.get("variant", "L"),
                                  t_cap=t_cap)
        for key, seq in (("first_region", instance.x_seq),
                         ("third_region", instance.z_seq)):
            if stored[key] != [(b.height, b.probability) for b in seq.blocks]:
                raise InputError(f"stored {key} blocks differ from the "
                                 f"blocks rebuilt from {payload['phi']!r}")
        return instance
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed instance JSON: {exc}") from None
