"""Command-line front end.

Subcommands map one-to-one onto library modules and emit deterministic
JSON reports (sorted keys; sums in order or correctly rounded).  Exit codes: 0
success, 2 not-a-member/infeasible (with the certificate in the JSON
error payload on stderr) or a usage error, 3 invalid input or a phi
without the Delta_2-failure witnesses a construction needs
(``witness-not-found``), 4 numeric failure.  A report spells +inf
``"inf"`` and never holds NaN or -inf (that is a numeric failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (InputError, NotAMember, NumericFailure, OrliczLabError,
                     WitnessNotFound)
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


def _strict(value):
    """``value`` with every +inf spelled ``"inf"``; NumericFailure for any
    other float that is not finite, so that a report is strict JSON."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        if value == math.inf:
            return "inf"
        raise NumericFailure(f"a report value is {value!r}")
    return value


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_strict(report), sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_combo(instance, payload: dict) -> "cex.Combo":
    if not isinstance(payload, dict):
        raise InputError(f"a combination is a JSON object, not {payload!r}")
    coeffs = {}
    try:
        for key, val in payload.items():
            if key == "const":
                sym = ("one",)
            elif ":" in key:
                base, _, idx = key.partition(":")
                sym = (base, *(int(x) for x in idx.split(",")))
            else:
                sym = (key,)
            coeffs[sym] = float(val)
            if isinstance(val, bool) or not math.isfinite(coeffs[sym]):
                raise ValueError(f"coefficient {val!r} of {key!r} is not "
                                 f"a finite number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed combination {payload!r}: {exc}") from None
    return cex.Combo(instance, coeffs)


# -- subcommand handlers: each returns the report ``run`` prints ------

def _cmd_norm(args) -> dict:
    phi = parse_phi_spec(args.phi)
    X = read_positions_csv(args.input)
    if args.which == "luxemburg":
        value = norms.luxemburg_norm(X, phi)
    else:
        value = norms.orlicz_norm(X, phi)
    return {"which": args.which, "phi": phi_spec_string(phi), "value": value}


def _cmd_conjugate(args) -> dict:
    phi = parse_phi_spec(args.phi)
    try:
        grid = [float(t) for t in args.grid.split(",")]
    except ValueError as exc:
        raise InputError(f"--grid: {exc}") from None
    if not all(map(math.isfinite, grid)):
        raise InputError(f"--grid points must be finite: {args.grid}")
    return {"phi": phi_spec_string(phi), "grid": grid,
            "values": [conjugate_value(phi, s) for s in grid]}


def _cmd_delta2(args) -> dict:
    phi = parse_phi_spec(args.phi)
    try:
        witnesses = delta2_witnesses(phi, args.count, t_cap=args.t_cap)
        report = {"status": "witnesses-found",
                  "witnesses": [{"n": n, "t": t} for n, t in witnesses]}
    except WitnessNotFound as exc:
        report = {"status": "witness-not-found", "detail": str(exc)}
    return {"phi": phi_spec_string(phi), "count": args.count, **report}


def _cmd_risk_eval(args) -> dict:
    X = read_positions_csv(args.input)
    rho = rm.parse_measure_spec(args.measure, X.space)
    return {"measure": rho.name, "value": rho(X)}


def _cmd_dual(args) -> dict:
    X = read_positions_csv(args.input)
    rho = rm.parse_measure_spec(args.measure, X.space)
    if rho.scenarios is None:
        raise InputError("dual report requires a scenario-based measure")
    probes = [-Y for Y in rho.scenarios.densities]
    return du.duality_report(rho, [X], probes,
                             candidates=list(rho.scenarios.densities))


def _cmd_blocks(args) -> dict:
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
    return {"phi": phi_spec_string(phi), "region": args.region,
            "blocks": rows, "series_modular": value,
            "series_tail_bound": tail,
            "sequence": json.loads(bs.blocks_to_json(x_seq))}


def _cmd_cex_build(args) -> dict:
    phi = parse_phi_spec(args.phi)
    instance = cex.build_instance(phi, args.I, args.J, args.N,
                                  variant=args.variant)
    return json.loads(cex.instance_to_json(instance))


def _cmd_cex_member(args) -> dict:
    instance = cex.instance_from_json(Path(args.instance).read_text())
    X = _parse_combo(instance, json.loads(Path(args.combo).read_text()))
    cert = cex.membership(instance, cex.t_operator(instance, X))
    return json.loads(cex.certificate_to_json(cert))


def _cmd_cex_rho(args) -> dict:
    instance = cex.instance_from_json(Path(args.instance).read_text())
    X = _parse_combo(instance, json.loads(Path(args.combo).read_text()))
    return {"rho_c": cex.rho_c(instance, X)}


def _cmd_cex_approx(args) -> dict:
    instance = cex.instance_from_json(Path(args.instance).read_text())
    targets = [_parse_combo(instance, t)
               for t in json.loads(Path(args.targets).read_text())]
    return cex.gap_exhibit(instance, targets, args.eps)


def _cmd_closure(args) -> dict:
    phi = parse_phi_spec(args.phi)
    if args.levels < 1:
        raise InputError(f"--levels must be at least 1, got {args.levels}")
    if args.levels > 1074:  # past it the budget 2**-n is 0.0
        raise InputError(f"--levels must be at most 1074, got {args.levels}")
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
    return {
        "step1_splits": splits,
        "step2_mazur": {"found": mazur["found"], "value": mazur["value"],
                        "weights": list(mazur["weights"]),
                        "hull_certificate": mazur["hull_certificate"]},
        "step3_dominator": {"values": list(x_tilde.values), **checks},
    }


# -- argument parsing --------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-lab",
        description="Numerical laboratory for Orlicz-space risk measures.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")

    def command(group, name, func, text, *required, parents=(output,)):
        p = group.add_parser(name, help=text, parents=parents)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    p = command(sub, "norm", _cmd_norm,
                "Luxemburg/Orlicz norm of a CSV position", "--phi", "--input")
    p.add_argument("--which", choices=["luxemburg", "orlicz"],
                   default="luxemburg")

    p = command(sub, "conjugate", _cmd_conjugate, "conjugate values on a grid",
                "--phi")
    p.add_argument("--grid", required=True,
                   help="comma-separated evaluation points")

    p = command(sub, "delta2", _cmd_delta2, "doubling-failure witness report",
                "--phi")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--t-cap", type=float, default=1e50)

    actions = sub.add_parser("risk", help="risk-measure evaluation") \
        .add_subparsers(dest="action", required=True)
    command(actions, "eval", _cmd_risk_eval, "a measure at a CSV position",
            "--measure", "--input")
    command(sub, "dual", _cmd_dual, "conjugation / biconjugation report",
            "--measure", "--input")

    p = command(sub, "blocks", _cmd_blocks,
                "block sequence build + invariants", "--phi")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--region", default="omega1",
                   choices=sorted(bs.REGIONS))

    actions = sub.add_parser("cex", help="counterexample workflows") \
        .add_subparsers(dest="action", required=True)
    p = command(actions, "build", _cmd_cex_build, "build an instance")
    p.add_argument("--phi", default="sparse:bursts=12,ratio=2")
    p.add_argument("--I", type=int, default=4)
    p.add_argument("--J", type=int, default=4)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--variant", choices=["L", "H"], default="L")
    instance = argparse.ArgumentParser(add_help=False, parents=[output])
    instance.add_argument("--instance", required=True, help="instance JSON path")
    combo = argparse.ArgumentParser(add_help=False, parents=[instance])
    combo.add_argument("--combo", required=True, help="position JSON path")
    command(actions, "member", _cmd_cex_member,
            "membership certificate of a position", parents=(combo,))
    p = command(actions, "approx", _cmd_cex_approx, "the duality-gap exhibit",
                parents=(instance,))
    p.add_argument("--targets", required=True,
                   help="JSON list of dual combinations")
    p.add_argument("--eps", type=float, default=1e-2)
    command(actions, "rho", _cmd_cex_rho, "rho_c of a position",
            parents=(combo,))

    p = command(sub, "closure", _cmd_closure,
                "truncation/Mazur/domination pipeline", "--phi", "--input")
    p.add_argument("--levels", type=int, default=5)
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
        _emit(args.func(args), args.output)
        return 0
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
