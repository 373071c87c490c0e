"""Command-line front end.

Subcommands map one-to-one onto library modules and emit deterministic
JSON reports (sorted keys, correctly rounded sums).  Exit codes: 0
success, 2 not-a-member/infeasible (with the certificate in the JSON
error payload on stderr), 3 invalid input or a phi without the
Delta_2-failure witnesses a construction needs (``witness-not-found``),
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import InputError, NotAMember, OrliczLabError, WitnessNotFound
from . import block_sequences as bs
from . import closure_lab as cl
from . import counterexample as cex
from . import duality as du
from . import norms
from . import risk_measures as rm
from .finite_model import read_positions_csv
from .orlicz_functions import (conjugate, conjugate_value, delta2_witnesses,
                               parse_phi_spec, phi_spec_string)

__all__ = ["main", "run"]


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_combo(instance, payload: dict) -> "cex.Combo":
    coeffs = {}
    for key, val in payload.items():
        if key == "const":
            sym = ("one",)
        elif ":" in key:
            base, _, idx = key.partition(":")
            parts = tuple(int(x) for x in idx.split(","))
            sym = (base, *parts)
        else:
            sym = (key,)
        coeffs[sym] = float(val)
    return cex.Combo(instance, coeffs)


def _load_instance(path: str) -> "cex.CounterexampleInstance":
    with open(path) as fh:
        return cex.instance_from_json(fh.read())


# -- subcommand handlers ----------------------------------------------

def _cmd_norm(args) -> int:
    phi = parse_phi_spec(args.phi)
    X = read_positions_csv(args.input)
    if args.which == "luxemburg":
        value = norms.luxemburg_norm(X, phi)
    else:
        value = norms.orlicz_norm(X, phi)
    _emit({"which": args.which, "phi": phi_spec_string(phi), "value": value},
          args.output)
    return 0


def _cmd_conjugate(args) -> int:
    phi = parse_phi_spec(args.phi)
    grid = [float(t) for t in args.grid.split(",")]
    values = [conjugate_value(phi, s) for s in grid]
    _emit({"phi": phi_spec_string(phi), "grid": grid,
           "values": [v if math.isfinite(v) else "inf" for v in values]},
          args.output)
    return 0


def _cmd_delta2(args) -> int:
    phi = parse_phi_spec(args.phi)
    try:
        witnesses = delta2_witnesses(phi, args.count, t_cap=args.t_cap)
        report = {"status": "witnesses-found",
                  "witnesses": [{"n": n, "t": t} for n, t in witnesses]}
    except WitnessNotFound as exc:
        report = {"status": "witness-not-found", "detail": str(exc)}
    _emit({"phi": phi_spec_string(phi), "count": args.count, **report},
          args.output)
    return 0


def _cmd_risk(args) -> int:
    if args.action != "eval":
        raise InputError(f"unknown risk action {args.action!r}")
    X = read_positions_csv(args.input)
    rho = rm.parse_measure_spec(args.measure, X.space)
    _emit({"measure": rho.name, "value": rho(X)}, args.output)
    return 0


def _cmd_dual(args) -> int:
    X = read_positions_csv(args.input)
    rho = rm.parse_measure_spec(args.measure, X.space)
    if rho.scenarios is None:
        raise InputError("dual report requires a scenario-based measure")
    probes = [-Y for Y in rho.scenarios.densities]
    report = du.duality_report(rho, [X], probes,
                               candidates=list(rho.scenarios.densities))
    _emit(report, args.output)
    return 0


def _cmd_blocks(args) -> int:
    phi = parse_phi_spec(args.phi)
    psi = conjugate(phi)
    x_seq, y_seq = bs.build_disjoint_sequence(phi, args.count,
                                              region=args.region)
    value, tail = bs.series_modular(x_seq, phi, 1.0)
    rows = []
    for bx, by in zip(x_seq.blocks, y_seq.blocks):
        rows.append({
            "n": bx.index, "t": bx.height, "p": bx.probability,
            "luxemburg_norm": bs.block_luxemburg_norm(bx, phi),
            "dual_orlicz_norm": bs.dual_block_orlicz_norm(by, phi),
        })
    _emit({"phi": phi_spec_string(phi), "region": args.region,
           "blocks": rows, "series_modular": value,
           "series_tail_bound": tail,
           "sequence": json.loads(bs.blocks_to_json(x_seq))}, args.output)
    return 0


def _cmd_cex(args) -> int:
    if args.action == "build":
        phi = parse_phi_spec(args.phi)
        instance = cex.build_instance(phi, args.I, args.J, args.N,
                                      variant=args.variant)
        _emit(json.loads(cex.instance_to_json(instance)), args.output)
        return 0
    instance = _load_instance(args.instance)
    if args.action == "member":
        with open(args.combo) as fh:
            X = _parse_combo(instance, json.load(fh))
        cert = cex.membership(instance, cex.t_operator(instance, X))
        _emit(json.loads(cex.certificate_to_json(cert)), args.output)
        return 0
    if args.action == "approx":
        with open(args.targets) as fh:
            targets = [_parse_combo(instance, t) for t in json.load(fh)]
        report = cex.gap_exhibit(instance, targets, args.eps)
        _emit(report, args.output)
        return 0
    if args.action == "rho":
        with open(args.combo) as fh:
            X = _parse_combo(instance, json.load(fh))
        value = cex.rho_c(instance, X)
        _emit({"rho_c": value if math.isfinite(value) else "inf"}, args.output)
        return 0
    raise InputError(f"unknown cex action {args.action!r}")


def _cmd_closure(args) -> int:
    phi = parse_phi_spec(args.phi)
    X = read_positions_csv(args.input)
    splits, Z_parts = [], []
    for n in range(1, args.levels + 1):
        k, Z, W = cl.split_with_budget(X, phi, 2.0 ** (-n))
        splits.append({"n": n, "k": k, "budget": 2.0 ** (-n),
                       "tail_modular": norms.modular(Z, phi, 1.0)})
        Z_parts.append(Z)
    mazur = cl.mazur_min_norm([Z for Z in Z_parts] + [-Z for Z in Z_parts],
                              phi, 1e-6)
    x_tilde, checks = cl.order_dominator(Z_parts, [], phi)
    _emit({
        "step1_splits": splits,
        "step2_mazur": {"found": mazur["found"], "value": mazur["value"],
                        "weights": list(mazur["weights"]),
                        "hull_certificate": mazur["hull_certificate"]},
        "step3_dominator": {"values": list(x_tilde.values), **checks},
    }, args.output)
    return 0


# -- argument parsing --------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-lab",
        description="Numerical laboratory for Orlicz-space risk measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="Luxemburg/Orlicz norm of a CSV position")
    p.add_argument("--phi", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--which", choices=["luxemburg", "orlicz"],
                   default="luxemburg")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("conjugate", help="conjugate values on a grid")
    p.add_argument("--phi", required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated evaluation points")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("delta2", help="doubling-failure witness report")
    p.add_argument("--phi", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--t-cap", type=float, default=1e50)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_delta2)

    p = sub.add_parser("risk", help="risk-measure evaluation")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--measure", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("dual", help="conjugation / biconjugation report")
    p.add_argument("--measure", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("blocks", help="block sequence build + invariants")
    p.add_argument("--phi", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--region", default="omega1",
                   choices=sorted(bs.REGIONS))
    p.add_argument("--output")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("cex", help="counterexample workflows")
    p.add_argument("action", choices=["build", "member", "approx", "rho"])
    p.add_argument("--phi", default="sparse:bursts=12,ratio=2")
    p.add_argument("--I", type=int, default=4)
    p.add_argument("--J", type=int, default=4)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--variant", choices=["L", "H"], default="L")
    p.add_argument("--instance", help="instance JSON path")
    p.add_argument("--combo", help="position JSON path")
    p.add_argument("--targets", help="JSON list of dual combinations")
    p.add_argument("--eps", type=float, default=1e-2)
    p.set_defaults(func=_cmd_cex)
    p.add_argument("--output")

    p = sub.add_parser("closure", help="truncation/Mazur/domination pipeline")
    p.add_argument("--phi", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_closure)
    return parser


def _fail(error: str, exc: Exception, code: int, **extra) -> int:
    json.dump({"error": error, "detail": str(exc), **extra}, sys.stderr,
              sort_keys=True)
    sys.stderr.write("\n")
    return code


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("eps", "t_cap"):
            if not 0 < getattr(args, name, 1.0) < math.inf:
                raise InputError(
                    f"--{name.replace('_', '-')} must be positive and finite")
        return args.func(args)
    except NotAMember as exc:
        return _fail("not-a-member", exc, 2, certificate=exc.certificate)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        return _fail("invalid-input", exc, 3)
    except WitnessNotFound as exc:
        # phi cannot carry the construction: a rejected input, reported
        # with the status that `delta2` prints
        return _fail("witness-not-found", exc, 3)
    except OrliczLabError as exc:
        return _fail("numeric-failure", exc, 4)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
