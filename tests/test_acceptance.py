"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Every test prints ``criterion NN [PASS|FAIL] <summary>`` through the
capture-disabled channel so the verdict lines always appear in the run
log, then asserts the same condition.
"""

import json
import math
import time

import numpy as np
import pytest

from orlicz_lab.block_sequences import (block_luxemburg_norm,
                                        build_disjoint_sequence,
                                        dual_block_orlicz_norm,
                                        series_modular)
from orlicz_lab.cli import run
from orlicz_lab.closure_lab import (as_extraction, order_dominator,
                                    split_with_budget)
from orlicz_lab.counterexample import (Combo, build_instance, gap_exhibit,
                                       limit_certificate, membership, rho_c,
                                       t_operator, verify_certificate,
                                       weak_approx_select)
from orlicz_lab.duality import conjugate_rho, extract_scenarios
from orlicz_lab.errors import NotAMember, WitnessNotFound
from orlicz_lab.finite_model import FiniteSpace, pairing, uniform_space, \
    write_positions_csv
from orlicz_lab.norms import luxemburg_norm, modular, orlicz_norm, phi_inverse
from orlicz_lab.orlicz_functions import (CATALOG, EntropyFunction, ExpFunction,
                                         PowerFunction, _NumericConjugate,
                                         build_sparse_pair, conjugate,
                                         conjugate_value, delta2_witnesses,
                                         sparse_schedule, young_check)
from orlicz_lab.risk_measures import (ScenarioSet, avar_scenarios, axiom_suite,
                                      entropic_measure, scenario_eval,
                                      scenario_measure, worstcase_scenarios)


def verdict(capsys, num, summary, ok):
    with capsys.disabled():
        print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {summary}",
              flush=True)
    assert ok, f"criterion {num}: {summary}"


@pytest.fixture(scope="module")
def exhibit_instance():
    phi = build_sparse_pair(sparse_schedule(bursts=12))
    return build_instance(phi, I=4, J=4, N=8, variant="L")


def test_criterion_01_luxemburg_closed_forms(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    fns = [PowerFunction(2.0), PowerFunction(3.0), ExpFunction(),
           EntropyFunction()]
    ok = True
    for _ in range(1000):
        phi = fns[int(rng.integers(len(fns)))]
        if rng.random() < 0.5:
            p = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.1, 10.0))
            X = FiniteSpace((p, 1.0 - p)).rv([c, 0.0])
            expect = c / phi_inverse(phi, 1.0 / p)
        else:
            c = float(rng.uniform(0.1, 10.0))
            X = uniform_space(3).constant(c)
            expect = c / phi_inverse(phi, 1.0)
        got = luxemburg_norm(X, phi)
        ok = ok and abs(got - expect) <= 1e-8 * expect
    one = luxemburg_norm(uniform_space(2).constant(1.0), ExpFunction())
    ok = ok and abs(one - 1.0 / math.log(2.0)) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    verdict(capsys, 1,
            f"1000 randomized indicator/constant closed forms at 1e-8 "
            f"({elapsed:.2f}s)", ok)


def test_criterion_02_orlicz_norm_cross_check(capsys):
    rng = np.random.default_rng(102)
    fns = [PowerFunction(2.0), PowerFunction(3.0), ExpFunction(),
           EntropyFunction()]
    ok = True
    # orlicz_norm internally compares the definitional supremum with the
    # Amemiya formula at 1e-6 relative and raises on disagreement
    for _ in range(200):
        n = int(rng.integers(2, 6))
        probs = rng.uniform(0.1, 1.0, n)
        sp = FiniteSpace(tuple(probs / probs.sum()))
        Y = sp.rv(rng.uniform(-2.0, 2.0, n))
        phi = fns[int(rng.integers(len(fns)))]
        try:
            orlicz_norm(Y, phi)
        except Exception:
            ok = False
    for p in (0.1, 0.25, 0.5, 0.75):
        phi = PowerFunction(2.0)
        got = orlicz_norm(FiniteSpace((p, 1.0 - p)).rv([1.0, 0.0]), phi)
        expect = p * phi_inverse(phi, 1.0 / p)
        ok = ok and abs(got - expect) <= 1e-8 * expect
    verdict(capsys, 2,
            "200 definitional/Amemiya cross-checks at 1e-6; indicator "
            "formula at 1e-8", ok)


def test_criterion_03_conjugation(capsys):
    ok = True
    grid = np.linspace(0.0, 5.0, 50)
    for name, phi in CATALOG.items():
        for t in grid:
            for s in grid:
                lhs, rhs, holds = young_check(phi, float(t), float(s))
                ok = ok and holds
    pl = build_sparse_pair(sparse_schedule(bursts=6))
    pl2 = conjugate(conjugate(pl))
    gx = np.linspace(0.0, float(pl.breakpoints[-1]), 400)
    ok = ok and float(np.max(np.abs(np.asarray(pl(gx)) -
                                    np.asarray(pl2(gx))))) <= 1e-9
    for phi in (PowerFunction(2.0), ExpFunction(), EntropyFunction()):
        for t in (0.3, 1.0, 2.5):
            back = conjugate_value(_NumericConjugate(phi), t)
            direct = float(phi(t))
            ok = ok and abs(back - direct) <= 1e-6 * (1.0 + abs(direct))
    verdict(capsys, 3,
            "Young 50x50 per catalog entry at 1e-9; PL biconjugation 1e-9; "
            "smooth numeric biconjugation 1e-6", ok)


def test_criterion_04_delta2_machinery(capsys):
    ok = True
    for n, t in delta2_witnesses(ExpFunction(), 6):
        a = math.exp(t) - 1.0
        b = math.exp(2.0 * t) - 1.0
        ok = ok and a >= 3.0 and b > 2.0 ** n * a
    # the spec's reference point: at t=3, phi(6)=402.43 > 2^4 phi(3)=305.46
    ok = ok and (math.exp(6.0) - 1.0) > 16.0 * (math.exp(3.0) - 1.0)
    for p in (1.5, 2.0, 3.0):
        try:
            delta2_witnesses(PowerFunction(p), 4)
            ok = False
        except WitnessNotFound:
            pass
    phi = build_sparse_pair(sparse_schedule(bursts=12, ratio=2.0))
    psi = conjugate(phi)
    ok = ok and len(delta2_witnesses(phi, 10)) == 10
    ok = ok and len(delta2_witnesses(psi, 10)) == 10
    verdict(capsys, 4,
            "exp witnesses verified directly; power has none; sparse pair "
            "fails doubling on both sides to n=10", ok)


def test_criterion_05_block_invariants(capsys):
    start = time.perf_counter()
    phi = ExpFunction()
    count = 30
    xs, ys = build_disjoint_sequence(phi, count)
    ok = len(xs) == count
    for bx, by in zip(xs.blocks, ys.blocks):
        ok = ok and bx.probability * bx.height * by.height == 1.0  # exact
        lux = block_luxemburg_norm(bx, phi)
        ok = ok and 0.5 < lux <= 1.0 + 1e-12
        ok = ok and dual_block_orlicz_norm(by, phi) < 2.0
    value, tail = series_modular(xs, phi, 1.0)
    N = xs.blocks[-1].index
    ok = ok and (1.0 - 2.0 ** (-N)) - 1e-12 <= value <= 1.0
    ok = ok and value + tail <= 1.0 + 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(capsys, 5,
            f"30 blocks: exact unit pairings, norm windows, series modular "
            f"in [1-2^-N, 1] ({elapsed:.2f}s)", ok)


def test_criterion_06_coherence_and_duality(capsys):
    rng = np.random.default_rng(106)
    ok = True
    sp = uniform_space(4)
    samples = [sp.rv(rng.uniform(-2.0, 2.0, 4)) for _ in range(6)]
    custom = ScenarioSet((sp.rv([2.0, 1.0, 0.5, 0.5]), sp.constant(1.0)))
    for rho in (scenario_measure(avar_scenarios(sp, 0.25)),
                scenario_measure(worstcase_scenarios(sp)),
                scenario_measure(custom)):
        ok = ok and axiom_suite(rho, samples)["passed"]
    ent = axiom_suite(entropic_measure(1.0), samples)
    ok = ok and not ent["positively_homogeneous"]["passed"]
    for _ in range(5):
        n = int(rng.integers(2, 7))
        probs = rng.uniform(0.1, 1.0, n)
        spr = FiniteSpace(tuple(probs / probs.sum()))
        Q = avar_scenarios(spr, float(rng.uniform(0.3, 1.0)))
        rho = scenario_measure(Q)
        Q2, _ = extract_scenarios(rho, list(Q.densities))
        for _ in range(100):
            X = spr.rv(rng.uniform(-3.0, 3.0, n))
            ok = ok and abs(scenario_eval(Q2, X) - rho(X)) <= \
                1e-8 * (1.0 + abs(rho(X)))
        for _ in range(10):
            cv = conjugate_rho(rho, spr.rv(rng.uniform(-3.0, 3.0, n)))
            ok = ok and (cv.value == 0.0 or not cv.finite)
    verdict(capsys, 6,
            "axiom suites at 1e-9 with entropic homogeneity flagged; "
            "extraction reproduces rho at 100 probes; conjugates in "
            "{0, flagged-infinite}", ok)


def test_criterion_07_counterexample_exhibit(capsys, exhibit_instance):
    start = time.perf_counter()
    ins = exhibit_instance
    ok = True
    minus_w0 = Combo(ins, {("W0",): -1.0})
    img = t_operator(ins, minus_w0)
    ok = ok and all(x == 0.0 for x in img.u) and img.a == -1.0 and \
        all(v == 0.0 for _, v in img.v)
    try:
        membership(ins, img)
        ok = False
    except NotAMember as exc:
        ok = ok and exc.certificate is not None
        ok = ok and exc.certificate.get("__objective__", 0.0) < 0.0
    targets = [
        Combo(ins, {("Z0",): 1.0}),
        Combo(ins, {("Y", 1): 0.5, ("one",): 0.02}),
        Combo(ins, {("Y", 2): 1.0, ("Z", 1, 1): 0.0004}),
    ]
    s, r, X_sr, sel = weak_approx_select(ins, targets, 1e-2)
    cert = sel["certificate"]
    ok = ok and abs(cert.lam - 1.0) <= 1e-6
    ok = ok and abs(cert.y_dict()[(s, r)] - 2.0 ** (-s)) <= 1e-6
    ok = ok and all(row["bound"] < 1e-2 for row in sel["pairings"])
    rho = lambda X: rho_c(ins, X, tol=1e-8)
    rho_w0 = rho(minus_w0)
    rho_sr = rho(X_sr)
    delta = rho_w0 - 1e-6
    ok = ok and delta > 0.0 and rho_sr <= 1e-6
    ok = ok and abs(rho(minus_w0 + 0.5) - (rho_w0 - 0.5)) <= 1e-6
    suite = axiom_suite(rho, [minus_w0, X_sr, Combo(ins, {("X", 1): 1.0}),
                              Combo(ins, {("one",): 0.5})])
    ok = ok and suite["passed"]
    report = gap_exhibit(ins, targets, 1e-2)
    ok = ok and report["delta"] > 0.0
    ok = ok and report["infeasibility_certificate"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(capsys, 7,
            f"duality-gap exhibit at I=J=4, N=8: rho(-W0)={rho_w0:.6f} >= "
            f"delta={delta:.6f} > 0 >= rho(X_sr)={rho_sr:.2e} "
            f"({elapsed:.1f}s)", ok)


def test_criterion_08_limit_certificates(capsys, exhibit_instance):
    ins = exhibit_instance
    rng = np.random.default_rng(108)
    ok = True
    for trial in range(20):
        kind = trial % 3
        scale = float(rng.uniform(0.5, 2.0))
        base = Combo(ins, {("Xtail", 3): 2.0 * scale, ("W0",): -scale,
                           ("W", 1, 3): 0.5 * scale})
        if kind == 0:  # constant certified family
            cert = membership(ins, t_operator(ins, base))
            members = [(base, cert)] * int(rng.integers(3, 7))
            limit = base
        elif kind == 1:  # lambda -> 0: members shrink to a nonneg limit
            limit = Combo(ins, {("X", 1): float(rng.uniform(0.0, 1.0))})
            members = []
            for p in range(1, 7):
                U = limit + base * (2.0 ** (-p) * 0.05)
                members.append((U, membership(ins, t_operator(ins, U))))
        else:  # crafted convergent family with positive limit lambda
            limit = base
            members = []
            for p in range(1, 7):
                U = base + 2.0 ** (-p) * float(rng.uniform(0.1, 1.0))
                members.append((U, membership(ins, t_operator(ins, U))))
        out = limit_certificate(ins, members, limit)
        ok = ok and verify_certificate(ins, t_operator(ins, limit), out,
                                       tol=1e-4)
    verdict(capsys, 8,
            "limit certificates recovered for constant, vanishing-lambda "
            "and crafted families (20 randomized trials)", ok)


def test_criterion_09_closure_pipeline(capsys):
    ok = True
    phi = PowerFunction(2.0)
    sp = uniform_space(4)
    rng = np.random.default_rng(109)
    X = sp.rv(rng.uniform(-3.0, 3.0, 4))
    Z_parts = []
    for n in range(1, 5):
        k, Z, W = split_with_budget(X, phi, 2.0 ** (-n))
        ok = ok and modular(Z, phi, 1.0) <= 2.0 ** (-n)
        ok = ok and np.allclose(Z.x + W.x, X.x)
        Z_parts.append(Z)
    x_tilde, checks = order_dominator(Z_parts, [], phi)
    ok = ok and checks["sup_modular"] <= checks["sup_modular_bound"] + 1e-12
    for row in checks["markov_table"]:
        ok = ok and float(phi(row["eps"])) * row["prob"] <= \
            2.0 ** (-row["n"]) + 1e-12
    limit = sp.rv([1.0, -1.0, 0.5, 0.0])
    seq = [limit + 2.0 ** (-n) for n in range(1, 12)]
    report = as_extraction(seq, limit)
    for row in report["rows"]:
        ok = ok and row["capped_sup_expectation"] <= 2.0 ** (1 - row["n"])
    verdict(capsys, 9,
            "split/dominator/Markov and capped-sup tail inequalities hold "
            "exactly on constructed inputs", ok)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    sp = FiniteSpace((0.25, 0.75), ("a", "b"))
    pos = tmp_path / "pos.csv"
    write_positions_csv(pos, sp.rv([2.0, 0.0]))
    ok = True
    jobs = [
        ["norm", "--phi", "power:p=2", "--input", str(pos)],
        ["blocks", "--phi", "exp", "--count", "6"],
        ["closure", "--phi", "power:p=2", "--input", str(pos),
         "--levels", "4"],
        ["cex", "build", "--I", "2", "--J", "2", "--N", "3"],
    ]
    for idx, argv in enumerate(jobs):
        outs = []
        for rep in range(2):
            out = tmp_path / f"job{idx}_{rep}.json"
            ok = ok and run(argv + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    verdict(capsys, 10, "repeated CLI runs are byte-identical", ok)
