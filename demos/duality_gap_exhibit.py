"""The headline exhibit: a Fatou coherent risk measure with no scenario
representation, certified by linear feasibility at finite truncation.

The cone C collects positions whose image under the positive operator
T X = (E[X Y_n])_n (+) E[X Z_0] (+) (E[X Z_ij])_ij admits a certificate
(lambda, y).  Membership is linear feasibility, decided on this
variant (L) by the exact polymatroid greedy without an LP solver;
exclusion comes with an auditable Farkas certificate.  The induced measure rho_c(X) = inf{m : X + m in C}
is coherent and Fatou, yet:

  *  rho_c(-W_0) = sqrt(3) > 0, with -W_0 excluded from C outright;
  *  for any finite list of dual targets and any eps > 0, a member X_sr
     satisfies |E[(X_sr + W_0) V]| < eps for every target V while
     rho_c(X_sr) <= 0.

No finite set of scenarios can see the difference between -W_0 and the
members X_sr, so no scenario representation can reproduce rho_c.
"""

import math

from orlicz_lab import (
    Combo,
    build_instance,
    build_sparse_pair,
    membership,
    rho_c,
    sparse_schedule,
    t_operator,
    weak_approx_select,
)
from orlicz_lab.errors import NotAMember


def main():
    print("=== Building the truncated instance (I=J=4, N=8) ===\n")
    phi = build_sparse_pair(sparse_schedule(bursts=12, ratio=2.0))
    ins = build_instance(phi, I=4, J=4, N=8, variant="L")
    print("phi and its exact conjugate both fail the doubling condition;")
    print("blocks on three disjoint thirds of [0,1] passed the invariant")
    print("checks (unit pairings, series modulars below 1).\n")

    print("=== -W_0 is not a member ===\n")
    minus_w0 = Combo(ins, {("W0",): -1.0})
    img = t_operator(ins, minus_w0)
    print(f"T(-W_0) = u (+) a (+) v with u = 0, a = {img.a}, v = 0")
    try:
        membership(ins, img)
    except NotAMember as exc:
        print("membership (greedy): infeasible.  Farkas row multipliers:")
        for label, mult in sorted(exc.certificate.items()):
            if label != "__objective__":
                print(f"  {mult:10.4f} x [{label}]")
    r = rho_c(ins, minus_w0)
    print(f"\nrho_c(-W_0) = {r:.10f}   (sqrt(3) = {math.sqrt(3.0):.10f})")

    print("\n=== Members indistinguishable from -W_0 ===\n")
    targets = [
        Combo(ins, {("Z0",): 1.0}),
        Combo(ins, {("Y", 1): 0.5, ("one",): 0.02}),
        Combo(ins, {("Y", 2): 1.0, ("Z", 1, 1): 0.0004}),
    ]
    eps = 1e-2
    s, r_idx, X_sr, sel = weak_approx_select(ins, targets, eps)
    print(f"selector chose s = {s}, r = {r_idx}:")
    print(f"  X_sr = 2^{s} * sum_(n>={r_idx}) X_n - W_0 + 2^-{s} "
          f"* W_({s},{r_idx})")
    cert = sel["certificate"]
    print(f"  membership certificate: lambda = {cert.lam:.6f}, "
          f"y({s},{r_idx}) = {cert.y_dict()[(s, r_idx)]:.6f}")
    print(f"\n|E[(X_sr + W_0) V]| against each target (eps = {eps}):")
    for row in sel["pairings"]:
        print(f"  target {row['target']}: bound {row['bound']:.3e}")
    rho_sr = rho_c(ins, X_sr)
    print(f"\nrho_c(X_sr) = {rho_sr:.2e}  <=  0  while  "
          f"rho_c(-W_0) = {r:.4f} > 0")
    print("\nAny scenario set Q would force rho_c(-W_0) <= "
          "sup_Q E[W_0 Y] ~ rho_c(X_sr) + eps * const -- contradiction.")


if __name__ == "__main__":
    main()
