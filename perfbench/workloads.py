"""The three workloads.  Each builds its inputs from the seed when it is
constructed (the benchmark's set-up) and then hands out rounds of
operations.  An operation runs the library and returns what it produced;
its check recomputes the expected result with :mod:`oracles`.

* ``exhibit``: one certified-gap session per operation, in memory.
* ``kernels``: one finite-space session per operation (norms, closure
  steps, AVaR and its conjugate), in memory.
* ``cli``: one ``orlicz-lab`` command per operation in a fresh
  interpreter, cycling through a fixed list of eleven commands.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orlicz_lab import cli, closure_lab, counterexample as cex, duality, norms, \
    risk_measures
from orlicz_lab.errors import NotAMember
from orlicz_lab.finite_model import FiniteSpace
from orlicz_lab.orlicz_functions import CATALOG, build_sparse_pair, sparse_schedule

import oracles as orc

EPS = 1e-2


@dataclass
class Operation:
    label: str
    run: object            # () -> output
    check: object          # output -> None, raises orc.CheckFailed
    known_fault: bool = False


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- exhibit -------------------------------------------------------------------

class Exhibit:
    """The README headline's phi (sparse, bursts=12, ratio=2) at
    I = J = 4, N = 8.  A session builds the instance, runs ``gap_exhibit``
    on three targets shaped like the README's, computes ``rho_c`` of
    ``-c X_2`` and decides eight memberships ``-c X_2 + m``."""

    name = "exhibit"
    POOL = 64
    TRACE_POOL = 4

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.phi = build_sparse_pair(sparse_schedule(bursts=12, ratio=2.0))
        self.inputs = [self._draw(np.random.default_rng([seed, k]))
                       for k in range(self.POOL)]

    @staticmethod
    def _draw(rng):
        a, b, c, d, e = rng.uniform(0.8, 1.25, 5)
        targets = [{("Z0",): a},
                   {("Y", 1): 0.5 * b, ("one",): 0.02 * e},
                   {("Y", 2): c, ("Z", 1, 1): 0.0004 * d}]
        # rho_c(-c X_2) = c t_2 lies in (16, 32) for every draw, so each
        # session brackets and bisects the same number of times
        scale = rng.uniform(1.35, 2.6)
        # m / (c t_2), alternating sides, at least 10% off the threshold
        factors = [rng.uniform(1.1, 1.5) if j % 2 else rng.uniform(0.5, 0.9)
                   for j in range(8)]
        return targets, scale, factors

    def operations(self, k: int, pool: int):
        targets, scale, factors = self.inputs[k % pool]
        return [Operation(f"session{k % pool}",
                          lambda: self._session(targets, scale, factors),
                          lambda out: self._check(out, targets, scale))]

    def _session(self, targets, scale, factors):
        ins = cex.build_instance(self.phi, 4, 4, 8)
        report = cex.gap_exhibit(ins, [cex.Combo(ins, t) for t in targets], EPS)
        x = cex.Combo(ins, {("X", 2): -scale})
        rho = cex.rho_c(ins, x)
        t2 = ins.x_seq.blocks[1].height
        decisions = []
        for f in factors:
            m = f * scale * t2
            try:
                cex.membership(ins, cex.t_operator(ins, x + m))
                decisions.append((m, True))
            except NotAMember:
                decisions.append((m, False))
        return ins, report, rho, decisions

    @staticmethod
    def block_table(ins):
        return orc.block_table(
            [(b.height, b.probability) for b in ins.x_seq.blocks],
            [(b.height, b.probability) for b in ins.z_seq.blocks],
            ins.third_keys, ins.w0_seq.blocks[0].probability)

    @staticmethod
    def _check(out, targets, scale):
        ins, report, rho, decisions = out
        orc.check_gap_report(report, targets, Exhibit.block_table(ins), EPS)
        t2 = ins.x_seq.blocks[1].height
        orc.check_rho(rho, scale * t2, "rho_c(-c X_2)")
        for m, member in decisions:
            orc.check_membership(member, m, scale, t2)

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()


# -- kernels -------------------------------------------------------------------

# The descent in mazur_min_norm stops at a multiple of 200 iterations that
# depends on the input (up to 2000, so up to ten times the cost).  A cap of
# 100 makes every session do the same descent work.  An exact replacement
# of the descent would drop the parameter, and then gets called without it.
MAZUR_CAP = ({"iterations": 100}
             if "iterations" in inspect.signature(closure_lab.mazur_min_norm).parameters
             else {})


def _simplex_draw(rng, n):
    return rng.dirichlet(np.full(n, 2.0))


class Kernels:
    """A finite-space session: Luxemburg and Orlicz norms under all five
    ``CATALOG`` functions at 600 and 200 atoms; the closure steps at
    250 atoms (three budget splits, the order dominator) and a Mazur
    descent on two 3-atom candidates that keep 0 outside their hull;
    AVaR on 10 atoms and ``conjugate_rho`` of five densities."""

    name = "kernels"
    POOL = 32
    TRACE_POOL = 2
    NORM_ATOMS = (600, 200)
    CLOSURE_ATOMS = 250
    LEVELS = 3
    AVAR_ATOMS = 10
    ALPHA = 0.4

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.inputs = [self._draw(np.random.default_rng([seed, k]))
                       for k in range(self.POOL)]

    def _draw(self, rng):
        inp = {"norms": [(_simplex_draw(rng, n), 1.5 * rng.standard_normal(n),
                          rng.standard_normal(n)) for n in self.NORM_ATOMS]}
        # equal atoms for the closure steps and AVaR: how many levels a
        # split scans and how many vertices the AVaR set has (210 at
        # alpha = 0.4) set their cost, and both follow the probabilities
        inp["closure"] = (np.full(self.CLOSURE_ATOMS, 1.0 / self.CLOSURE_ATOMS),
                          rng.standard_normal(self.CLOSURE_ATOMS))
        cands = rng.uniform(-1.0, 2.0, (2, 3))
        cands[:, 0] = rng.uniform(0.5, 1.5, 2)  # 0 stays outside the hull
        inp["mazur"] = (_simplex_draw(rng, 3), cands)
        p = np.full(self.AVAR_ATOMS, 1.0 / self.AVAR_ATOMS)
        inp["avar"] = (p, rng.standard_normal(self.AVAR_ATOMS), self.ALPHA,
                       self._densities(rng, p, self.ALPHA))
        return inp

    @staticmethod
    def _densities(rng, p, alpha):
        """Two densities inside ``{0 <= D <= 1/alpha, E[D] = 1}`` and three
        outside it, each at least 10% away from its boundary."""
        n, cap = len(p), 1.0 / alpha
        inside = []
        for _ in range(2):
            u = rng.uniform(0.5, 1.5, n)
            inside.append(0.8 + 0.2 * u / (p @ u))
        over = np.full(n, 1.0)
        j = int(np.argmin(p))
        over[j] = 1.25 * cap
        over[np.arange(n) != j] = (1.0 - p[j] * 1.25 * cap) / (1.0 - p[j])
        negative = np.full(n, 1.0)
        j = int(np.argmax(p))
        negative[j] = -0.25
        negative[np.arange(n) != j] = (1.0 + 0.25 * p[j]) / (1.0 - p[j])
        return inside + [1.15 * inside[0], over, negative]

    def operations(self, k: int, pool: int):
        inp = self.inputs[k % pool]
        return [Operation(f"session{k % pool}", lambda: self._session(inp),
                          lambda out: self._check(out, inp))]

    @staticmethod
    def _session(inp):
        out = {"norms": []}
        for p, x, y in inp["norms"]:
            space = FiniteSpace(tuple(p))
            X, Y = space.rv(x), space.rv(y)
            out["norms"].append({name: (norms.luxemburg_norm(X, phi),
                                        norms.orlicz_norm(Y, phi))
                                 for name, phi in CATALOG.items()})
        p, x = inp["closure"]
        phi = CATALOG["power2"]
        X = FiniteSpace(tuple(p)).rv(x)
        splits = [closure_lab.split_with_budget(X, phi, 2.0 ** -n)
                  for n in range(1, Kernels.LEVELS + 1)]
        dominator, checks = closure_lab.order_dominator(
            [z for _, z, _ in splits], [], phi)
        out["closure"] = ([(k, z.x) for k, z, _ in splits], dominator.x,
                          checks["sup_modular"])
        p, cands = inp["mazur"]
        space = FiniteSpace(tuple(p))
        out["mazur"] = closure_lab.mazur_min_norm(
            [space.rv(c) for c in cands], phi, 1e-6, **MAZUR_CAP)
        p, x, alpha, densities = inp["avar"]
        space = FiniteSpace(tuple(p))
        rho = risk_measures.scenario_measure(risk_measures.avar_scenarios(space, alpha))
        out["avar"] = rho(space.rv(x))
        out["conjugates"] = [duality.conjugate_rho(rho, space.rv(-d)).value
                             for d in densities]
        return out

    @staticmethod
    def _check(out, inp):
        for (p, x, y), values in zip(inp["norms"], out["norms"]):
            for name, (lux, orl) in values.items():
                orc.check_luxemburg(x, p, name, lux)
                if name in orc.POWER_EXPONENT:
                    orc.check_orlicz_power(y, p, name, orl)
                else:
                    orc.check_holder(x, y, p, lux, orl, f"holder[{name}]")
        p, x = inp["closure"]
        phi = orc.CATALOG_PHI["power2"]
        splits, dominator, sup_modular = out["closure"]
        for n, (k, z) in enumerate(splits, start=1):
            orc.check_split(x, p, phi, 2.0 ** -n, k, z)
        orc.check_dominator([z for _, z in splits], p, phi, dominator, sup_modular)
        p, cands = inp["mazur"]
        mazur = out["mazur"]
        excess = orc.check_mazur_l2(cands, p, mazur["weights"], mazur["value"])
        p, x, alpha, densities = inp["avar"]
        orc.check_avar(x, p, alpha, out["avar"])
        for d, value in zip(densities, out["conjugates"]):
            orc.check_conjugate(d, p, alpha, value)
        return {"closure_lab.mazur_min_norm.qp_excess": excess}

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()


# -- cli -----------------------------------------------------------------------

CLI_MAIN = "import sys; from orlicz_lab.cli import main; sys.exit(main())"


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    peak_rss_kb: int = 0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["ORLICZ_LAB_SEED"] = "0"
    return env


def _write_positions(path: Path, p, x):
    """CSV as ``read_positions_csv`` expects; returns the probabilities it
    will hold after its renormalization."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["atom", "probability", "value"])
        for i, (q, v) in enumerate(zip(p, x)):
            writer.writerow([f"a{i}", repr(float(q)), repr(float(v))])
    total = sum(float(q) for q in p)
    return np.array([float(q) / total for q in p])


class Cli:
    """``orlicz-lab`` commands, one per operation, in a fresh interpreter
    each (or in-process through ``cli.run`` when traced)."""

    name = "cli"
    POOL = 1
    TRACE_POOL = 1

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        rng = np.random.default_rng([seed, 0])
        self.dir = Path(workdir)
        self.in_process = in_process
        self.env = child_env(Path(cli.__file__).resolve().parents[1])
        self.peak_rss_kb = 0
        d = self.dir
        for name, spec in (("instance.json", "sparse:bursts=12,ratio=2"),
                           ("instance_ratio3.json", "sparse:bursts=12,ratio=3")):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(["cex", "build", "--phi", spec,
                                "--output", str(d / name)])
            if code != 0:
                raise RuntimeError(f"cex build {spec} exited {code}")
        self.instance = json.loads((d / "instance.json").read_text())
        self.instance3 = json.loads((d / "instance_ratio3.json").read_text())
        t2 = self.instance["first_region"]["blocks"][1]["t"]

        p, y = _simplex_draw(rng, 300), rng.standard_normal(300)
        self.norm_in = (_write_positions(d / "norm.csv", p, y), y)
        # equal atoms and a fixed alpha fix the number of AVaR vertices
        # (120 and 20), which sets the cost of `risk` and `dual`
        x = rng.standard_normal(10)
        self.risk_in = (_write_positions(d / "risk.csv", np.full(10, 0.1), x), x, 0.3)
        x = rng.standard_normal(6)
        self.dual_in = (_write_positions(d / "dual.csv", np.full(6, 1 / 6), x), x, 0.5)
        p, x = _simplex_draw(rng, 40), rng.standard_normal(40)
        self.closure_in = (_write_positions(d / "closure.csv", p, x), x)

        self.scale = rng.uniform(1.35, 2.6)
        self.m_in = rng.uniform(1.1, 1.5) * self.scale * t2
        self.m_out = rng.uniform(0.5, 0.9) * self.scale * t2
        self.rho_scale = rng.uniform(1.35, 2.6)
        a, b, c, e, f = rng.uniform(0.8, 1.25, 5)
        self.targets = [{"Z0": a}, {"Y:1": 0.5 * b, "const": 0.02 * e},
                        {"Y:2": c, "Z:1,1": 0.0004 * f}]
        files = {"member_in.json": {"X:2": -self.scale, "const": self.m_in},
                 "member_out.json": {"X:2": -self.scale, "const": self.m_out},
                 "rho.json": {"X:2": -self.rho_scale},
                 "rho_ratio3.json": {"X:1": -1.0},
                 "targets.json": self.targets}
        for name, payload in files.items():
            (d / name).write_text(json.dumps(payload))

        ins, ins3 = str(d / "instance.json"), str(d / "instance_ratio3.json")
        self.commands = [
            ("norm", ["norm", "--phi", "power:p=3", "--input", str(d / "norm.csv"),
                      "--which", "orlicz"], self._check_norm),
            ("delta2", ["delta2", "--phi", "sparse:bursts=12,ratio=2",
                        "--count", "8"], self._check_delta2),
            ("blocks", ["blocks", "--phi", "exp", "--count", "8"], self._check_blocks),
            ("risk", ["risk", "eval", "--measure", f"avar:alpha={self.risk_in[2]}",
                      "--input", str(d / "risk.csv")], self._check_risk),
            ("dual", ["dual", "--measure", f"avar:alpha={self.dual_in[2]}",
                      "--input", str(d / "dual.csv")], self._check_dual),
            ("closure", ["closure", "--phi", "power:p=2", "--input",
                         str(d / "closure.csv"), "--levels", "3"], self._check_closure),
            ("cex-member-in", ["cex", "member", "--instance", ins, "--combo",
                               str(d / "member_in.json")], self._check_member_in),
            ("cex-member-out", ["cex", "member", "--instance", ins, "--combo",
                                str(d / "member_out.json")], self._check_member_out),
            ("cex-rho", ["cex", "rho", "--instance", ins, "--combo",
                         str(d / "rho.json")], self._check_rho),
            ("cex-approx", ["cex", "approx", "--instance", ins, "--targets",
                            str(d / "targets.json"), "--eps", str(EPS)],
             self._check_approx),
            ("cex-rho-ratio3", ["cex", "rho", "--instance", ins3, "--combo",
                                str(d / "rho_ratio3.json")], self._check_rho_ratio3),
        ]

    # -- running ---------------------------------------------------------------
    def operations(self, k: int, pool: int):
        run = self._in_process if self.in_process else self._spawn
        return [Operation(label, lambda argv=argv: run(argv), check,
                          known_fault=label == "cex-rho-ratio3")
                for label, argv, check in self.commands]

    def _spawn(self, argv) -> CliResult:
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *argv],
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=self.dir)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out_path.read_text(),
                         err_path.read_text(), usage.ru_maxrss)

    @staticmethod
    def _in_process(argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0

    # -- checks ----------------------------------------------------------------
    @staticmethod
    def _report(res: CliResult, code: int = 0):
        orc.require(res.code == code, f"exit code {res.code}, expected {code}: "
                    f"{res.stderr.strip()[:300]}")
        return json.loads(res.stdout if code == 0 else res.stderr)

    def _check_norm(self, res):
        p, y = self.norm_in
        orc.check_orlicz_power(y, p, "power3", self._report(res)["value"])

    def _check_delta2(self, res):
        report = self._report(res)
        orc.require(report["status"] == "witnesses-found", "no witnesses")
        phi = orc.sparse_phi(12, 2.0)
        ns = [w["n"] for w in report["witnesses"]]
        orc.require(ns == list(range(1, 9)), f"witness indices {ns}")
        for w in report["witnesses"]:
            a, b = float(phi(w["t"])), float(phi(2.0 * w["t"]))
            orc.require(a >= 3.0 and b > 2.0 ** w["n"] * a,
                        f"t = {w['t']!r} is no Delta_2 witness for n = {w['n']}")

    def _check_blocks(self, res):
        report = self._report(res)
        rows = report["blocks"]
        orc.require([r["n"] for r in rows] == list(range(1, 9)), "block indices")
        for r in rows:
            t, q, n = r["t"], r["p"], r["n"]
            phi_t = math.expm1(t)
            orc.require(phi_t >= 3.0 and math.expm1(2 * t) > 2.0 ** n * phi_t,
                        f"block {n}: t = {t!r} is no Delta_2 witness")
            orc.require_close(q * 2.0 ** n * phi_t, 1.0, 1e-12, f"block {n} p")
            # indicator norms: t / phi^-1(1/p) and its dual, phi^-1 = log1p
            lux = t / math.log1p(1.0 / q)
            orc.require_close(r["luxemburg_norm"], lux, 1e-12, f"block {n} norm")
            orc.require(0.5 < r["luxemburg_norm"] <= 1.0 + 1e-12,
                        f"block {n} norm outside (1/2, 1]")
            orc.require_close(r["dual_orlicz_norm"], 1.0 / lux, 1e-9,
                              f"block {n} dual norm")
            orc.require(r["dual_orlicz_norm"] < 2.0, f"block {n} dual norm >= 2")
        expected = math.fsum(r["p"] * math.expm1(r["t"]) for r in rows)
        orc.require_close(report["series_modular"], expected, 1e-12, "series modular")
        orc.require(report["series_modular"] <= 1.0, "series modular above 1")
        orc.require(report["series_tail_bound"] == 2.0 ** -8, "series tail bound")

    def _check_risk(self, res):
        p, x, alpha = self.risk_in
        orc.check_avar(x, p, alpha, self._report(res)["value"])

    def _check_dual(self, res):
        p, x, alpha = self.dual_in
        report = self._report(res)
        (row,) = report["biconjugate"]
        orc.check_avar(x, p, alpha, row["rho"])
        orc.check_avar(x, p, alpha, row["biconjugate"], "biconjugate")
        orc.require(not row["gap"] and not report["gap"], "duality gap reported")
        probes = report["probes"]
        orc.require(len(report["rho_star"]) == len(probes) > 0, "conjugate rows")
        for probe, star in zip(probes, report["rho_star"]):
            orc.check_conjugate(-np.asarray(probe), p, alpha, star["value"])
        extracted = report["extracted_scenarios"]
        orc.require(len(extracted) == len(probes), "scenarios lost in extraction")
        for d in extracted:
            orc.require(orc.in_avar_set(d, p, alpha), "extracted density off the set")

    def _check_closure(self, res):
        p, x = self.closure_in
        report = self._report(res)
        phi = orc.power_phi(2.0)
        z_list = []
        for row in report["step1_splits"]:
            k, budget = row["k"], 2.0 ** -row["n"]
            orc.require(k == orc.split_level(x, p, phi, budget), f"split level {k!r}")
            z = np.where(np.abs(x) > k, x, 0.0)
            orc.require_close(row["tail_modular"], orc.modular(z, p, phi, 1.0),
                              1e-12, "tail modular", floor=1e-300)
            orc.require(row["tail_modular"] <= budget, "tail modular over budget")
            z_list.append(z)
        mazur = report["step2_mazur"]
        cands = z_list + [-z for z in z_list]
        orc.check_mazur_l2(cands, p, mazur["weights"], mazur["value"])
        dom = report["step3_dominator"]
        orc.check_dominator(z_list, p, phi, dom["values"], dom["sup_modular"])

    def _check_membership(self, m, member):
        t2 = self.instance["first_region"]["blocks"][1]["t"]
        orc.check_membership(member, m, self.scale, t2)

    def _check_member_in(self, res):
        cert = self._report(res, 0)
        self._check_membership(self.m_in, True)
        lam, y = cert["lambda"], cert["y"]
        orc.require(lam >= 0 and all(e["value"] >= 0 for e in y), "negative certificate")
        if lam > 0:
            orc.require_close(math.fsum(2.0 ** e["i"] * e["value"] for e in y), 1.0,
                              1e-6, "sum 2^i y")

    def _check_member_out(self, res):
        payload = self._report(res, 2)
        self._check_membership(self.m_out, False)
        cert = payload["certificate"]
        orc.require(cert is not None and cert["__objective__"] < 0.0,
                    "non-member without a Farkas certificate")

    def _check_rho(self, res):
        t2 = self.instance["first_region"]["blocks"][1]["t"]
        orc.check_rho(self._report(res)["rho_c"], self.rho_scale * t2, "rho_c(-c X_2)")

    def _check_rho_ratio3(self, res):
        t1 = self.instance3["first_region"]["blocks"][0]["t"]
        orc.check_rho(self._report(res)["rho_c"], t1, "rho_c(-X_1), ratio 3")

    def _check_approx(self, res):
        ins = self.instance
        trunc = ins["truncation"]
        table = orc.block_table(
            [(b["t"], b["p"]) for b in ins["first_region"]["blocks"]],
            [(b["t"], b["p"]) for b in ins["third_region"]["blocks"]],
            orc.diagonal_keys(trunc["I"], trunc["J"]), orc.W0_PROBABILITY)
        targets = [{_symbol(k): v for k, v in t.items()} for t in self.targets]
        orc.check_gap_report(self._report(res), targets, table, EPS)


def _symbol(key: str):
    """Combo JSON key -> block symbol (``"Z:1,1"`` -> ``("Z", 1, 1)``)."""
    if key == "const":
        return ("one",)
    base, _, idx = key.partition(":")
    return (base, *(int(i) for i in idx.split(","))) if idx else (base,)


WORKLOADS = {w.name: w for w in (Exhibit, Kernels, Cli)}
