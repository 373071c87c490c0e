"""Symbolic disjoint indicator-block sequences with exact series bounds.

A block is an indicator ``t_n * 1_{A_n}`` on a subinterval ``A_n`` of a
named third of [0, 1].  Probabilities are chosen as
``p_n = 1 / (2**n * phi(t_n))`` from Delta_2-failure witnesses, so the
series modular telescopes to a geometric series and every tail carries
an exact ``2**-N`` bound.  Blocks stay symbolic (height, probability)
pairs; discretization to a finite space is provided for cross-checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .finite_model import FiniteSpace
from .norms import phi_inverse
from .orlicz_functions import OrliczFunction, _sum_in_order, delta2_witnesses

__all__ = [
    "REGIONS",
    "Block",
    "BlockSequence",
    "build_disjoint_sequence",
    "series_modular",
    "block_luxemburg_norm",
    "dual_block_orlicz_norm",
    "discretize",
    "blocks_to_json",
    "blocks_from_json",
]

#: The three disjoint thirds of [0, 1] used by the constructions.
REGIONS = {
    "omega1": (0.0, 1.0 / 3.0),
    "omega2": (1.0 / 3.0, 2.0 / 3.0),
    "omega3": (2.0 / 3.0, 1.0),
}


@dataclass(frozen=True)
class Block:
    index: int
    height: float
    probability: float
    lo: float
    hi: float


@dataclass(frozen=True)
class BlockSequence:
    region: str
    blocks: tuple

    def __post_init__(self):
        lo, hi = REGIONS[self.region]
        prev_hi = lo
        for b in self.blocks:
            if b.lo < prev_hi - 1e-15 or b.hi > hi + 1e-15 or b.hi <= b.lo:
                raise InputError("blocks must be disjoint subintervals of the region")
            # the probability is authoritative; the interval is a disjoint
            # slot of at least that measure (tiny probabilities underflow
            # as endpoint differences)
            if b.probability > (b.hi - b.lo) + 1e-15:
                raise InputError("block probability exceeds its slot length")
            prev_hi = b.hi
        if _sum_in_order(b.probability for b in self.blocks) > (hi - lo) + 1e-12:
            raise InputError("blocks overflow the region mass")

    def __len__(self):
        return len(self.blocks)


def _exact_unit_pair(p: float, t: float):
    """Nudge ``(p, h)`` within a few ulps so that ``(p * t) * h == 1.0``
    exactly in float arithmetic (the evaluation order of ``pairing``).

    ``p`` only has to satisfy inequalities with slack far above one ulp,
    so perturbing it is free; exact unit pairings keep the dual-block
    identities sharp downstream.
    """

    def steps(v):
        yield v
        up = down = v
        for _ in range(3):
            up = math.nextafter(up, math.inf)
            down = math.nextafter(down, 0.0)
            yield from (up, down)

    for p2 in steps(p):
        q = p2 * t
        if q <= 0.0 or not math.isfinite(q):
            continue
        for h in steps(1.0 / q):
            if q * h == 1.0:
                return p2, h
    return p, 1.0 / (p * t)


def build_disjoint_sequence(phi: OrliczFunction, count: int, region: str = "omega1",
                            t_cap: float = 1e50):
    """Primal/dual block pair from Delta_2-failure witnesses of phi.

    ``X_n = t_n * 1_{A_n}`` with ``p_n = 1/(2**n phi(t_n))`` packed
    left to right, and ``Y_n = 1/(t_n p_n) * 1_{A_n}`` so that
    ``E[X_n Y_n] = 1`` exactly.  The witness inequality guarantees
    ``||X_n||_phi in (1/2, 1]``, Orlicz ``||Y_n||_psi < 2`` and
    series modular of the pointwise sum at lam = 1 at most 1.
    """
    if region not in REGIONS:
        raise InputError(f"unknown region {region!r}")
    witnesses = delta2_witnesses(phi, count, t_cap=t_cap)
    phi_t = phi(np.array([t for _, t in witnesses])).tolist()
    lo, hi = REGIONS[region]
    x_blocks, y_blocks = [], []
    cursor = lo
    for (n, t_n), phi_n in zip(witnesses, phi_t):
        p_n = 1.0 / (2.0 ** n * phi_n)
        p_n, h_n = _exact_unit_pair(p_n, t_n)
        slot_hi = cursor + p_n
        if slot_hi <= cursor:  # increment underflows: use a minimal slot
            slot_hi = cursor + 2.0 ** -40
        if slot_hi > hi + 1e-15:
            raise InputError("region overflow: block probabilities exceed region mass")
        x_blocks.append(Block(n, t_n, p_n, cursor, slot_hi))
        y_blocks.append(Block(n, h_n, p_n, cursor, slot_hi))
        cursor = slot_hi
    return (BlockSequence(region, tuple(x_blocks)),
            BlockSequence(region, tuple(y_blocks)))


def series_modular(blocks: BlockSequence, phi: OrliczFunction, lam: float):
    """Truncated series modular with a certified geometric tail bound.

    ``value = sum_{n<=N} p_n phi(t_n / lam)`` over the N blocks, summed
    in order from one phi evaluation on all N heights; for ``lam >= 1``
    the tail beyond N is bounded by ``sum_{n>N} p_n phi(t_n) = 2**-N``
    by monotonicity of phi, so ``value <= true series <= value + 2**-N``.
    """
    if lam < 1.0:
        raise InputError("series tail bound is certified only for lam >= 1")
    if not blocks.blocks:
        return 0.0, 0.0
    phi_t = phi(np.array([b.height for b in blocks.blocks]) / lam).tolist()
    value = _sum_in_order(b.probability * phi_b
                          for b, phi_b in zip(blocks.blocks, phi_t))
    return value, 2.0 ** (-blocks.blocks[-1].index)


def block_luxemburg_norm(block: Block, phi: OrliczFunction) -> float:
    """Closed-form indicator norm ``t / phi^{-1}(1/p)``."""
    return block.height / phi_inverse(phi, 1.0 / block.probability)


def dual_block_orlicz_norm(dual_block: Block, phi: OrliczFunction) -> float:
    """Closed-form Orlicz norm ``c * p * phi^{-1}(1/p)`` of ``c * 1_A``."""
    p = dual_block.probability
    return dual_block.height * p * phi_inverse(phi, 1.0 / p)


def discretize(*sequences: BlockSequence):
    """Finite space with one atom per block interval plus a remainder atom.

    Returns ``(space, indicators)`` where ``indicators[k]`` is the list
    of 0/1 atom vectors for the k-th sequence's blocks (as
    RandomVariables scaled by the block heights).
    """
    prob_of = {}
    for seq in sequences:
        for b in seq.blocks:
            prob_of[(b.lo, b.hi)] = b.probability
    intervals = sorted(prob_of)
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        if a2 < b1 - 1e-15:
            raise InputError("sequences overlap; cannot discretize jointly")
    probs = [prob_of[iv] for iv in intervals]
    rest = 1.0 - _sum_in_order(probs)
    if rest < -1e-12:
        raise InputError("intervals overflow [0, 1]")
    atom_probs = probs + [rest] if rest > 1e-15 else probs
    total = _sum_in_order(atom_probs)
    space = FiniteSpace(tuple(p / total for p in atom_probs))
    lookup = {iv: k for k, iv in enumerate(intervals)}
    out = []
    for seq in sequences:
        rvs = []
        for b in seq.blocks:
            v = np.zeros(space.n_atoms)
            v[lookup[(b.lo, b.hi)]] = b.height
            rvs.append(space.rv(v))
        out.append(rvs)
    return space, out


def blocks_to_json(seq: BlockSequence) -> str:
    payload = {
        "region": seq.region,
        "blocks": [
            {"t": b.height, "p": b.probability, "lo": b.lo, "hi": b.hi}
            for b in seq.blocks
        ],
    }
    return json.dumps(payload, sort_keys=True)


def blocks_from_json(text: str) -> BlockSequence:
    try:
        payload = json.loads(text)
        blocks = tuple(
            Block(i + 1, float(b["t"]), float(b["p"]), float(b["lo"]), float(b["hi"]))
            for i, b in enumerate(payload["blocks"])
        )
        return BlockSequence(payload["region"], blocks)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed block-sequence JSON: {exc}") from None
