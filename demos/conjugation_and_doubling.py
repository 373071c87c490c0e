"""Conjugate Orlicz functions and failure of the doubling condition.

Shows exact Legendre conjugation, Young's inequality, and
the witness machinery for the doubling (Delta_2) condition: exp fails
it, powers satisfy it, and the sparse piecewise-linear pair fails it on
both sides at once -- the hypothesis behind the duality-gap instance.
"""

import math

from orlicz_lab import (
    CATALOG,
    build_sparse_pair,
    conjugate,
    conjugate_value,
    delta2_witnesses,
    sparse_schedule,
    young_check,
)
from orlicz_lab.errors import WitnessNotFound


def main():
    print("=== Conjugation ===\n")
    phi = CATALOG["power2"]
    print("phi(t) = t^2 has conjugate psi(s) = s^2/4:")
    for s in (1.0, 2.0, 3.0):
        print(f"  psi({s}) = {conjugate_value(phi, s):.10f}   "
              f"(s^2/4 = {s * s / 4.0:.10f})")

    print("\nYoung's inequality t*s <= phi(t) + psi(s), random spot checks:")
    for t, s in ((0.7, 1.3), (2.0, 2.0), (4.0, 0.5)):
        lhs, rhs, holds = young_check(CATALOG["exp"], t, s)
        print(f"  t={t}, s={s}: {lhs:9.4f} <= {rhs:9.4f}   holds={holds}")

    print("\n=== Doubling-condition failure witnesses ===\n")
    print("A witness for level n is t with phi(t) >= 3 and "
          "phi(2t) > 2^n phi(t).")
    print("\nexp(t)-1 fails doubling at every level:")
    for n, t in delta2_witnesses(CATALOG["exp"], 5):
        a = math.exp(t) - 1.0
        b = math.exp(2 * t) - 1.0
        print(f"  n={n}: t={t:8.4f}   phi(2t)/phi(t) = {b / a:12.2f} "
              f"> 2^{n} = {2 ** n}")

    print("\nt^2 satisfies doubling (ratio is constant 4), so witnesses")
    print("above level 2 cannot exist:")
    try:
        delta2_witnesses(CATALOG["power2"], 4)
    except WitnessNotFound as exc:
        print(f"  WitnessNotFound: {exc}")

    print("\nThe sparse piecewise-linear function and its *exact* conjugate")
    print("both fail doubling -- witnesses to level 10 on each side:")
    sparse = build_sparse_pair(sparse_schedule(bursts=12, ratio=2.0))
    psi = conjugate(sparse)
    for label, fn in (("phi", sparse), ("psi", psi)):
        ws = delta2_witnesses(fn, 10)
        print(f"  {label}: witnesses at t = "
              + ", ".join(f"{t:.3g}" for _, t in ws))


if __name__ == "__main__":
    main()
