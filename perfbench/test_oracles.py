"""Each check accepts the library's real output and rejects a perturbed one.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as orc  # noqa: E402
import workloads  # noqa: E402


def rejects(check, *args):
    with pytest.raises(orc.CheckFailed):
        check(*args)


# -- oracles on their own ----------------------------------------------------

def test_rho_rejects_the_ratio_bug_value():
    orc.check_rho(3.0 + 1e-7, 3.0, "t1")
    rejects(orc.check_rho, 2.56, 3.0, "t1")
    orc.check_rho(orc.SQRT3, orc.SQRT3, "W0")
    rejects(orc.check_rho, orc.SQRT3 * (1 + 3e-6), orc.SQRT3, "W0")


def test_membership_threshold():
    orc.check_membership(True, 1.1 * 2.0 * 3.0, 2.0, 3.0)
    orc.check_membership(False, 0.9 * 2.0 * 3.0, 2.0, 3.0)
    rejects(orc.check_membership, False, 1.1 * 2.0 * 3.0, 2.0, 3.0)


def test_pairing_enclosure_by_hand():
    table = orc.block_table([(2.0, 0.1), (8.0, 0.01)], [(5.0, 0.02)], [(1, 1)],
                            orc.W0_PROBABILITY)
    position = {("Xtail", 1): 2.0, ("W", 1, 1): 0.5}
    dual = {("Y", 2): 3.0, ("Z", 1, 1): 1.0, ("one",): 0.1}
    # X_1 meets only the constant; X_2 meets 3 Y_2 + 0.1; W_11 meets Z_11 + 0.1
    base = (0.1 * 2 * 2.0 * 0.1
            + 0.01 * 2 * 8.0 * (3.0 / (8.0 * 0.01) + 0.1)
            + 0.02 * 0.5 / (5.0 * 0.02) * (5.0 + 0.1))
    lo, hi = orc.pairing_enclosure(position, dual, table)
    assert lo == pytest.approx(base, rel=1e-14)
    assert hi - lo == pytest.approx(2.0 * 0.1 * 8.0 * 0.01, rel=1e-14)


def test_luxemburg_modular_crossing():
    rng = np.random.default_rng(0)
    p, x = rng.dirichlet(np.ones(50)), rng.standard_normal(50)
    lo, hi = 0.1, 100.0
    while hi - lo > 1e-13 * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if orc.modular(x, p, orc.exp_phi, mid) > 1 else (lo, mid)
    orc.check_luxemburg(x, p, "exp", lo)
    rejects(orc.check_luxemburg, x, p, "exp", lo * (1 + 1e-8))
    rejects(orc.check_luxemburg, x, p, "exp", lo * (1 - 1e-8))
    orc.check_luxemburg(x, p, "power3", orc.lp_norm(x, p, 3.0))
    rejects(orc.check_luxemburg, x, p, "power3", orc.lp_norm(x, p, 3.0) * (1 + 1e-8))


def test_holder():
    p, x, y = np.array([0.5, 0.5]), np.array([1.0, 2.0]), np.array([3.0, 1.0])
    lhs = 0.5 * 3.0 + 0.5 * 2.0
    orc.check_holder(x, y, p, 1.0, lhs, "h")
    rejects(orc.check_holder, x, y, p, 1.0, lhs * 0.99, "h")


def test_mazur_against_the_exact_minimum():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(3))
    cands = rng.uniform(-1.0, 2.0, (2, 3))
    cands[:, 0] = 1.0
    grid = np.linspace(0.0, 1.0, 200001)
    combos = grid[:, None] * cands[0] + (1 - grid[:, None]) * cands[1]
    j = int(np.argmin(combos ** 2 @ p))
    w = (grid[j], 1.0 - grid[j])
    value = orc.lp_norm(w @ cands, p, 2.0)
    assert orc.simplex_qp_l2(cands, p) == pytest.approx(value, rel=1e-9)
    orc.check_mazur_l2(cands, p, w, value)
    rejects(orc.check_mazur_l2, cands, p, (w[0], w[1] + 0.01), value)
    rejects(orc.check_mazur_l2, cands, p, w, value * (1 + 1e-6))
    # weights and value that agree, but beat the true minimum
    rejects(orc.check_mazur_l2, cands * 0.9, p, w, orc.lp_norm(w @ cands * 0.9, p, 2.0) * 0.99)


def test_avar_matches_the_vertex_maximum():
    from scipy.optimize import linprog

    rng = np.random.default_rng(2)
    p, x, alpha = rng.dirichlet(np.ones(7)), rng.standard_normal(7), 0.3
    # max E[-X Y] over 0 <= Y <= 1/alpha, E[Y] = 1
    res = linprog(p * x, A_eq=[p], b_eq=[1.0], bounds=[(0, 1 / alpha)] * 7)
    orc.check_avar(x, p, alpha, -res.fun)
    rejects(orc.check_avar, x, p, alpha, -res.fun + 1e-6)


def test_conjugate_bound_check():
    p, alpha = np.array([0.25, 0.25, 0.5]), 0.5
    inside, over = np.array([1.5, 0.5, 1.0]), np.array([2.5, 0.5, 0.5])
    orc.check_conjugate(inside, p, alpha, 0.0)
    rejects(orc.check_conjugate, inside, p, alpha, math.inf)
    orc.check_conjugate(over, p, alpha, math.inf)
    rejects(orc.check_conjugate, over, p, alpha, 0.0)


def test_split_and_dominator():
    p = np.full(5, 0.2)
    x = np.array([0.1, -2.0, 0.5, 1.0, -0.3])
    phi = orc.power_phi(2.0)
    k = orc.split_level(x, p, phi, 0.9)
    assert k == 1.0  # tails: 0.8 above 1, but 1.0 above 0.5
    z = np.where(np.abs(x) > k, x, 0.0)
    orc.check_split(x, p, phi, 0.9, k, z)
    rejects(orc.check_split, x, p, phi, 0.9, 0.5, z)
    rejects(orc.check_split, x, p, phi, 0.9, k, z * 0.5)
    small = [z * 0.5]
    sup = np.abs(small[0])
    orc.check_dominator(small, p, phi, sup, orc.modular(sup, p, phi, 1.0))
    rejects(orc.check_dominator, small, p, phi, sup * 1.1, orc.modular(sup, p, phi, 1.0))
    rejects(orc.check_dominator, small, p, phi, sup, orc.modular(sup, p, phi, 1.0) * 1.01)


# -- the workloads' checks on real library output ---------------------------

@pytest.fixture(scope="module")
def exhibit_run():
    w = workloads.Exhibit(seed=3, workdir=None)
    targets, scale, factors = w.inputs[0]
    return w._session(targets, scale, factors), targets, scale


def _perturb_report(path, value):
    def apply(out):
        report = copy.deepcopy(out[1])
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
        return (out[0], report) + tuple(out[2:])
    return apply


EXHIBIT_PERTURBATIONS = {
    "rho(-W0)": _perturb_report(["rho_minus_w0"], lambda v: 1.74),
    "farkas objective": _perturb_report(["infeasibility_certificate", "__objective__"],
                                        lambda v: 0.1),
    "approximant rho": _perturb_report(["approximants", 0, "rho"], lambda v: 1e-3),
    "pairing bound": _perturb_report(["approximants", 0, "pairings", 1, "bound"],
                                     lambda v: v * 1.01),
    "rho(-c X2)": lambda out: out[:2] + (out[2] * (1 + 1e-4), out[3]),
    "membership": lambda out: out[:3] + ([(m, not b) for m, b in out[3]],),
}


def test_exhibit_accepts_the_library(exhibit_run):
    out, targets, scale = exhibit_run
    workloads.Exhibit._check(out, targets, scale)
    assert out[1]["approximants"][0]["pairings"]  # the bounds were checked


@pytest.mark.parametrize("what", sorted(EXHIBIT_PERTURBATIONS))
def test_exhibit_rejects(exhibit_run, what):
    out, targets, scale = exhibit_run
    rejects(workloads.Exhibit._check, EXHIBIT_PERTURBATIONS[what](out), targets, scale)


def test_exhibit_rejects_a_bound_at_eps(exhibit_run):
    (ins, report, _, _), targets, _ = exhibit_run
    worst = max(r["bound"] for r in report["approximants"][0]["pairings"])
    rejects(orc.check_gap_report, report, targets, workloads.Exhibit.block_table(ins), worst)


@pytest.fixture(scope="module")
def kernels_run():
    w = workloads.Kernels(seed=3, workdir=None)
    inp = w.inputs[0]
    return w._session(inp), inp


def _scaled_norm(index, name, which, factor):
    def apply(out):
        out = copy.deepcopy(out)
        pair = list(out["norms"][index][name])
        pair[which] *= factor
        out["norms"][index][name] = tuple(pair)
        return out
    return apply


def _set(key, fn):
    def apply(out):
        out = copy.deepcopy(out)
        out[key] = fn(out[key])
        return out
    return apply


KERNEL_PERTURBATIONS = {
    "luxemburg power2": _scaled_norm(0, "power2", 0, 1 + 1e-7),
    "luxemburg exp": _scaled_norm(0, "exp", 0, 1 + 1e-8),
    "luxemburg sparse": _scaled_norm(1, "sparse", 0, 1 - 1e-8),
    "orlicz power3": _scaled_norm(1, "power3", 1, 1 + 1e-5),
    "split level": _set("closure", lambda c: ([(c[0][0][0] * 0.9, c[0][0][1])] + c[0][1:],
                                              c[1], c[2])),
    "dominator": _set("closure", lambda c: (c[0], c[1] * 1.01, c[2])),
    "mazur value": _set("mazur", lambda m: {**m, "value": m["value"] * (1 + 1e-6)}),
    "mazur weights": _set("mazur", lambda m: {**m, "weights": (0.5, 0.6)}),
    "avar": _set("avar", lambda v: v + 1e-6),
    "conjugate": _set("conjugates", lambda c: [math.inf] + c[1:]),
}


def test_kernels_accepts_the_library(kernels_run):
    out, inp = kernels_run
    extras = workloads.Kernels._check(out, inp)
    assert extras["closure_lab.mazur_min_norm.qp_excess"] >= -1e-9


@pytest.mark.parametrize("what", sorted(KERNEL_PERTURBATIONS))
def test_kernels_rejects(kernels_run, what):
    out, inp = kernels_run
    rejects(workloads.Kernels._check, KERNEL_PERTURBATIONS[what](out), inp)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    w = workloads.Cli(seed=3, workdir=tmp_path_factory.mktemp("cli"), in_process=True)
    results = {op.label: (op, op.run()) for op in w.operations(0, 1)}
    return w, results


def _edit_json(code, edit):
    def apply(res):
        payload = json.loads(res.stdout if code == 0 else res.stderr)
        edit(payload)
        text = json.dumps(payload)
        return workloads.CliResult(res.code, text if code == 0 else "",
                                   text if code else "")
    return apply


def _assign(path, value):
    def edit(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value(payload[path[-1]])
    return edit


CLI_PERTURBATIONS = {
    "norm": _edit_json(0, _assign(["value"], lambda v: v * (1 + 1e-5))),
    "delta2": _edit_json(0, _assign(["witnesses", 2, "t"], lambda v: 1.0)),
    "blocks": _edit_json(0, _assign(["blocks", 3, "luxemburg_norm"], lambda v: v * (1 + 1e-9))),
    "risk": _edit_json(0, _assign(["value"], lambda v: v + 1e-6)),
    "dual": _edit_json(0, _assign(["rho_star", 0, "value"], lambda v: "inf")),
    "closure": _edit_json(0, _assign(["step1_splits", 1, "k"], lambda v: v * 0.9)),
    "cex-member-in": _edit_json(0, _assign(["lambda"], lambda v: -1.0)),
    "cex-member-out": _edit_json(2, _assign(["certificate", "__objective__"], lambda v: 0.1)),
    "cex-rho": _edit_json(0, _assign(["rho_c"], lambda v: v * 1.001)),
    "cex-approx": _edit_json(0, _assign(["rho_minus_w0"], lambda v: 1.74)),
}


def test_cli_accepts_the_library_except_the_ratio_fault(cli_run):
    _, results = cli_run
    assert len(results) == 11
    for label, (op, res) in results.items():
        if label == "cex-rho-ratio3":
            assert op.known_fault
            rejects(op.check, res)  # prints 2.56 where the stored t_1 is 3.0
            op.check(workloads.CliResult(0, json.dumps({"rho_c": 3.0}), ""))
        else:
            op.check(res)


@pytest.mark.parametrize("label", sorted(CLI_PERTURBATIONS))
def test_cli_rejects(cli_run, label):
    _, results = cli_run
    op, res = results[label]
    rejects(op.check, CLI_PERTURBATIONS[label](res))


def test_cli_member_exit_codes(cli_run):
    _, results = cli_run
    op, res = results["cex-member-out"]
    rejects(op.check, workloads.CliResult(0, res.stderr, ""))
