import ast
import importlib
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import orlicz_lab
from orlicz_lab import cli
from orlicz_lab.cli import _build_parser, run
from orlicz_lab.finite_model import (FiniteSpace, read_positions_csv,
                                     write_positions_csv)


@pytest.fixture
def pos_csv(tmp_path):
    sp = FiniteSpace((0.25, 0.75), ("a", "b"))
    path = tmp_path / "pos.csv"
    write_positions_csv(path, sp.rv([2.0, 0.0]))
    return str(path)


@pytest.fixture
def instance_json(tmp_path):
    path = tmp_path / "instance.json"
    assert run(["cex", "build", "--phi", "sparse:bursts=12,ratio=2",
                "--I", "2", "--J", "3", "--N", "4",
                "--output", str(path)]) == 0
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestNorm:
    def test_luxemburg(self, capsys, pos_csv):
        code, report = run_json(capsys, ["norm", "--phi", "power:p=2",
                                         "--input", pos_csv])
        assert code == 0
        assert report["value"] == pytest.approx(1.0, abs=1e-8)

    def test_orlicz(self, capsys, pos_csv):
        code, report = run_json(capsys, ["norm", "--phi", "power:p=2",
                                         "--input", pos_csv,
                                         "--which", "orlicz"])
        assert code == 0
        assert report["which"] == "orlicz"
        assert report["value"] == pytest.approx(1.0, abs=1e-6)

    def test_missing_file(self, capsys):
        code = run(["norm", "--phi", "exp", "--input", "/nonexistent.csv"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"

    @pytest.mark.parametrize("probability", ["nan", "-0.5"])
    def test_bad_probability_is_invalid_input(self, capsys, tmp_path,
                                              probability):
        # a nan probability passed the sum check and printed "value": NaN
        path = tmp_path / "bad.csv"
        path.write_text(f"atom,probability,value\na,{probability},1.0\n"
                        "b,1.5,2.0\n")
        assert run(["norm", "--phi", "exp", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-input"

    def test_bad_phi(self, capsys, pos_csv):
        assert run(["norm", "--phi", "wat", "--input", pos_csv]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["norm", "--phi", "power:p=2"], ["norm", "--phi", "exp"],
        ["risk", "eval", "--measure", "avar:alpha=0.5"]])
    def test_non_finite_value_is_invalid_input(self, capsys, tmp_path,
                                               value, argv):
        # these printed "value": NaN, which is not JSON, or a traceback
        path = tmp_path / "bad.csv"
        path.write_text(f"atom,probability,value\na,0.5,{value}\nb,0.5,1.0\n")
        assert run(argv + ["--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-input"


class TestConjugate:
    def test_grid(self, capsys):
        code, report = run_json(capsys, ["conjugate", "--phi", "power:p=2",
                                         "--grid", "0.0,2.0"])
        assert code == 0
        assert report["values"][0] == 0.0
        assert report["values"][1] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("phi, grid, values", [
        ("power:p=1", "0.5,1.0,2.5", [0.0, 0.0, "inf"]),
        ("sparse", "1e30", ["inf"]),
    ])
    def test_past_a_cap_prints_inf(self, capsys, phi, grid, values):
        # the conjugate is +inf strictly past its domain cap
        code, report = run_json(capsys, ["conjugate", "--phi", phi,
                                         "--grid", grid])
        assert code == 0
        assert report["values"] == values

    @pytest.mark.parametrize("grid", ["nan", "inf", "1,,2", "0.5,-inf", ""])
    def test_bad_point_is_invalid_input(self, capsys, grid):
        # nan printed "values": [NaN], which is not JSON; an empty piece
        # exited 1 with a ValueError traceback
        assert run(["conjugate", "--phi", "exp", "--grid", grid]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-input"

    @pytest.mark.parametrize("phi", ["power:p=1", "sparse", "exp", "entropy"])
    @pytest.mark.parametrize("grid", ["0,0.5,1,2.5,1e30", "nan", "inf,1"])
    def test_stdout_is_strict_json(self, capsys, phi, grid):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code = run(["conjugate", "--phi", phi, "--grid", grid])
        out = capsys.readouterr().out
        assert code in (0, 3) and bool(out) == (code == 0)
        if out:
            json.loads(out, parse_constant=reject)


class TestDelta2:
    def test_witnesses_found(self, capsys):
        code, report = run_json(capsys, ["delta2", "--phi", "exp",
                                         "--count", "3"])
        assert code == 0
        assert report["status"] == "witnesses-found"
        assert len(report["witnesses"]) == 3

    def test_witness_not_found_is_status_not_error(self, capsys):
        code, report = run_json(capsys, ["delta2", "--phi", "power:p=2",
                                         "--count", "4"])
        assert code == 0
        assert report["status"] == "witness-not-found"

    def test_bad_cap(self, capsys):
        assert run(["delta2", "--phi", "exp", "--count", "3",
                    "--t-cap", "-1"]) == 3

    @pytest.mark.parametrize("t_cap", ["inf", "nan"])
    def test_non_finite_cap_is_rejected_before_the_scan(self, capsys, t_cap,
                                                        monkeypatch):
        # an infinite cap would make the scan endless
        def scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr("orlicz_lab.cli.delta2_witnesses", scan)
        assert run(["delta2", "--phi", "exp", "--count", "3",
                    "--t-cap", t_cap]) == 3


class TestRiskAndDual:
    def test_risk_eval(self, capsys, pos_csv):
        code, report = run_json(capsys, ["risk", "eval",
                                         "--measure", "worstcase",
                                         "--input", pos_csv])
        assert code == 0
        assert report["value"] == pytest.approx(0.0)  # max loss of (2, 0)

    @pytest.mark.parametrize("measure", ["avar:0.5", "avar:alpha=0.5,beta=2",
                                         "worstcase:x=1"])
    def test_malformed_measure_is_invalid_input(self, capsys, pos_csv,
                                                measure):
        assert run(["risk", "eval", "--measure", measure,
                    "--input", pos_csv]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"

    def test_dual_report(self, capsys, pos_csv):
        code, report = run_json(capsys, ["dual", "--measure", "avar:alpha=0.5",
                                         "--input", pos_csv])
        assert code == 0
        assert report["gap"] is False
        assert report["extracted_scenarios"]

    def test_avar_on_300_atoms_matches_the_sorted_tail(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "many.csv"
        write_positions_csv(path, FiniteSpace(tuple(rng.dirichlet(np.ones(300))))
                            .rv(rng.standard_normal(300)))
        code, report = run_json(capsys, ["risk", "eval", "--measure",
                                         "avar:alpha=0.3", "--input", str(path)])
        assert code == 0
        # the mean of the worst 30% of the loss -X, atom by atom
        X = read_positions_csv(path)
        total, mass = 0.0, 0.0
        for i in np.argsort(X.x):
            take = min(X.space.p[i], 0.3 - mass)
            if take <= 0.0:
                break
            total, mass = total - take * X.x[i], mass + take
        assert report["value"] == pytest.approx(total / 0.3, rel=1e-12)

    def test_dual_beyond_the_vertex_limit_is_invalid_input(self, capsys,
                                                           tmp_path):
        path = tmp_path / "thirteen.csv"
        write_positions_csv(path, FiniteSpace((1.0 / 13,) * 13).rv(range(13)))
        assert run(["dual", "--measure", "avar:alpha=0.3",
                    "--input", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert "12 atoms" in err["detail"]

    def test_dual_rejects_entropic(self, capsys, pos_csv):
        assert run(["dual", "--measure", "entropic:theta=1",
                    "--input", pos_csv]) == 3


class TestBlocks:
    def test_report(self, capsys):
        code, report = run_json(capsys, ["blocks", "--phi", "exp",
                                         "--count", "5"])
        assert code == 0
        assert len(report["blocks"]) == 5
        assert report["series_modular"] + report["series_tail_bound"] <= 1 + 1e-12
        for row in report["blocks"]:
            assert 0.5 < row["luxemburg_norm"] <= 1.0 + 1e-9
            assert row["dual_orlicz_norm"] < 2.0 + 1e-9


class TestCex:
    def test_member_success(self, capsys, instance_json, tmp_path):
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps(
            {"Xtail:3": 2.0, "W0": -1.0, "W:1,3": 0.5}))
        code, report = run_json(capsys, ["cex", "member",
                                         "--instance", instance_json,
                                         "--combo", str(combo)])
        assert code == 0
        assert report["lambda"] == pytest.approx(1.0, abs=1e-6)

    def test_member_failure_exit_2_with_certificate(self, capsys,
                                                    instance_json, tmp_path):
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps({"W0": -1.0}))
        code = run(["cex", "member", "--instance", instance_json,
                    "--combo", str(combo)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "not-a-member"
        assert err["certificate"]

    def test_rho(self, capsys, instance_json, tmp_path):
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps({"W0": -1.0}))
        code, report = run_json(capsys, ["cex", "rho",
                                         "--instance", instance_json,
                                         "--combo", str(combo)])
        assert code == 0
        assert report["rho_c"] == pytest.approx(math.sqrt(3.0), abs=1e-4)

    def test_rho_infinite_prints_inf(self, capsys, instance_json, tmp_path):
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps({"Xtail:2": -1}))
        code, report = run_json(capsys, ["cex", "rho",
                                         "--instance", instance_json,
                                         "--combo", str(combo)])
        assert code == 0
        assert report["rho_c"] == "inf"

    @pytest.mark.parametrize("combo", [
        {"X:a": 1}, {"X:": 1}, {"W0": "x"}, {"W0": None}, [{"W0": 1}]])
    @pytest.mark.parametrize("action", ["member", "rho"])
    def test_malformed_combo_is_invalid_input(self, capsys, instance_json,
                                              tmp_path, combo, action):
        # each exited 1 with a ValueError, TypeError or AttributeError
        path = tmp_path / "combo.json"
        path.write_text(json.dumps(combo))
        assert run(["cex", action, "--instance", instance_json,
                    "--combo", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "invalid-input"

    @pytest.mark.parametrize("targets", [[["Z0"]], {"Z0": 1.0}, [{"Y:1,x": 1}]])
    def test_malformed_targets_are_invalid_input(self, capsys, instance_json,
                                                 tmp_path, targets):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        assert run(["cex", "approx", "--instance", instance_json,
                    "--targets", str(path)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"

    @pytest.mark.parametrize("text", [
        '{"W0": "nan"}', '{"W0": "inf"}', '{"W0": NaN}', '{"W0": -Infinity}',
        '{"W0": 1e400}', '{"W0": 1%s}' % ("0" * 400), '{"W0": true}'],
        ids=["nan-text", "inf-text", "NaN", "-Infinity", "1e400", "10**400",
             "true"])
    @pytest.mark.parametrize("action", ["member", "rho", "approx"])
    def test_a_non_finite_or_boolean_coefficient_is_invalid_input(
            self, capsys, instance_json, tmp_path, text, action):
        # a non-finite coefficient reached t_operator (`rho` exited 4), an
        # integer past the double range exited 1 with an OverflowError,
        # and true was taken as 1
        path = tmp_path / "combo.json"
        path.write_text(f"[{text}]" if action == "approx" else text)
        flag = "--targets" if action == "approx" else "--combo"
        assert run(["cex", action, "--instance", instance_json,
                    flag, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-input"
        assert "'W0'" in err["detail"]

    def test_an_overflowing_position_exits_4_at_once(self, instance_json,
                                                     tmp_path):
        # x = 1e308 t_4 is inf on atom A4; rho_c once looped on it for
        # good, so each command runs in a child that a timeout stops
        combo = tmp_path / "combo.json"
        combo.write_text(json.dumps({"X:4": 1e308}))
        src = str(pathlib.Path(orlicz_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for action in ("rho", "member"):
            done = subprocess.run(
                [sys.executable, "-m", "orlicz_lab", "cex", action,
                 "--instance", instance_json, "--combo", str(combo)],
                capture_output=True, text=True, env=env, timeout=60)
            assert done.returncode == 4, action
            err = json.loads(done.stderr)
            assert err["error"] == "numeric-failure"
            assert "on atom A4" in err["detail"]

    def test_approx(self, capsys, tmp_path):
        instance = tmp_path / "big.json"
        assert run(["cex", "build", "--output", str(instance)]) == 0
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([
            {"Z0": 1.0},
            {"Y:1": 0.5, "const": 0.02},
            {"Y:2": 1.0, "Z:1,1": 0.0004},
        ]))
        code, report = run_json(capsys, ["cex", "approx",
                                         "--instance", str(instance),
                                         "--targets", str(targets),
                                         "--eps", "0.01"])
        assert code == 0
        assert report["rho_minus_w0"] > 1.0
        assert report["approximants"][0]["rho"] <= 1e-5

    @pytest.mark.parametrize("phi", ["exp", "power:p=2"])
    def test_build_without_witnesses_is_rejected_input(self, capsys, phi):
        # phi (or its conjugate) satisfies Delta_2, so it cannot carry the
        # construction; `delta2` reports the same status
        code = run(["cex", "build", "--phi", phi, "--I", "2", "--J", "2",
                    "--N", "3"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "witness-not-found"
        assert "Delta_2" in err["detail"]

    def test_bad_eps(self, instance_json, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text("[]")
        assert run(["cex", "approx", "--instance", instance_json,
                    "--targets", str(targets), "--eps", "-1"]) == 3

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps(self, capsys, instance_json, tmp_path, eps):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"Z0": 1.0}]))
        assert run(["cex", "approx", "--instance", instance_json,
                    "--targets", str(targets), "--eps", eps]) == 3

    @pytest.mark.parametrize("argv", [
        ["member"], ["member", "--instance", "i.json"],
        ["rho", "--combo", "c.json"], ["rho", "--instance", "i.json"],
        ["approx", "--instance", "i.json"]])
    def test_a_missing_flag_is_a_usage_error(self, capsys, argv):
        # each action declares the files it reads; a missing one reached
        # open(None) and exited 1 with a TypeError traceback
        with pytest.raises(SystemExit) as exc:
            run(["cex", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: orlicz-lab cex {argv[0]} ")
        assert "the following arguments are required" in err


class TestClosure:
    def test_pipeline(self, capsys, pos_csv):
        code, report = run_json(capsys, ["closure", "--phi", "power:p=2",
                                         "--input", pos_csv,
                                         "--levels", "3"])
        assert code == 0
        assert len(report["step1_splits"]) == 3
        assert report["step2_mazur"]["found"]
        assert report["step3_dominator"]["markov_table"]

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_is_invalid_input(self, capsys, pos_csv, levels):
        # the Mazur step said "need at least one candidate", naming no flag
        assert run(["closure", "--phi", "power:p=2", "--input", pos_csv,
                    "--levels", levels]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert err["detail"] == f"--levels must be at least 1, got {levels}"

    @pytest.mark.parametrize("levels", ["1075", "2000"])
    def test_levels_past_the_least_double_is_invalid_input(self, capsys,
                                                           pos_csv, levels):
        # the budget 2**-n is 0.0 past n = 1074, which split_with_budget
        # rejected as "budget must be positive, got 0.0", naming no flag
        assert run(["closure", "--phi", "power:p=2", "--input", pos_csv,
                    "--levels", levels]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-input"
        assert err["detail"] == f"--levels must be at most 1074, got {levels}"

    def test_1074_levels_run(self, capsys, pos_csv):
        code, report = run_json(capsys, ["closure", "--phi", "power:p=2",
                                         "--input", pos_csv,
                                         "--levels", "1074"])
        assert code == 0
        assert report["step1_splits"][-1]["budget"] == 2.0 ** -1074 > 0.0


class TestParser:
    def test_every_readme_command_parses(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = [line.split()[1:] for line in readme.read_text().splitlines()
                 if line.startswith("orlicz-lab ")]
        assert len(lines) >= 11
        for argv in lines:
            # the command words before the first flag name the handler
            words = argv[:next(k for k, w in enumerate(argv)
                               if w.startswith("--"))]
            handler = getattr(cli, "_cmd_" + "_".join(words))
            assert _build_parser().parse_args(argv).func is handler, argv

    @pytest.mark.parametrize("argv", [
        ["cex", "build", "--I", "2", "--J", "2", "--N", "3"],
        ["delta2", "--phi", "exp", "--count", "3"],
        ["conjugate", "--phi", "exp", "--grid", "0.5,1"]])
    def test_output_writes_what_stdout_prints(self, capsys, tmp_path, argv):
        assert run(argv) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "report.json"
        assert run(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == printed


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, pos_csv):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert run(["closure", "--phi", "power:p=2", "--input", pos_csv,
                        "--levels", "4", "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_cex_build(self, tmp_path):
        out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
        for out in (out1, out2):
            assert run(["cex", "build", "--I", "2", "--J", "2", "--N", "3",
                        "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m orlicz_lab`` prints what ``run`` prints
    assert run(["delta2", "--phi", "sparse", "--count", "3"]) == 0
    expected = capsys.readouterr().out
    src = str(pathlib.Path(orlicz_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "orlicz_lab", "delta2", "--phi", "sparse",
         "--count", "3"], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == expected


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracing.py replaces each (module, name) in TARGETS by a
    # timing wrapper; a name that is gone makes every traced run fail
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(f"orlicz_lab.{module}"),
                              name)]
    assert tracing.TARGETS and missing == []


def test_the_import_prints_the_scipy_optimize_line_the_benchmark_parses():
    # perfbench/run.py's startup_probes reads the cumulative import time
    # of scipy.optimize from this line, and a traced run fails without it
    src = str(pathlib.Path(orlicz_lab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import orlicz_lab"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+scipy\.optimize$",
                     done.stderr, re.M)


#: Every public name of the package before it re-exported each module's
#: ``__all__``; none may go.
EXPORTED_BEFORE = frozenset("""
    Block BlockSequence BoundViolation BracketInvalid CATALOG
    CertificateError Combo ConjugateValue CounterexampleInstance
    CrossCheckFailure EmptyScenarioSet EntropyFunction ExpFunction
    FiniteSpace HypothesisViolation InputError InvalidSchedule
    MembershipCertificate NotAMember NumericFailure OrliczFunction
    OrliczLabError PiecewiseLinearFunction PiecewiseSlopeSchedule
    PowerFunction REGIONS RandomVariable RiskMeasure ScenarioSet
    SpaceMismatch TImage TruncationTooSmall WitnessNotFound acceptance_eval
    acceptance_measure as_extraction avar_scenarios axiom_suite biconjugate
    block_luxemburg_norm blocks_from_json blocks_to_json
    build_disjoint_sequence build_instance build_sparse_pair
    certificate_from_json certificate_to_json conjugate conjugate_rho
    conjugate_value delta2_witnesses diagonal_pairs discretize
    dual_block_orlicz_norm duality_report entropic_measure expectation
    extract_scenarios fatou_harness gap_exhibit holder_check
    instance_from_json instance_to_json limit_certificate luxemburg_norm
    mazur_min_norm membership modular order_convergence_check
    order_dominator orlicz_norm pairing parse_measure_spec parse_phi_spec
    phi_inverse phi_spec_string read_positions_csv rho_c scenario_eval
    scenario_measure scenarios_from_json scenarios_to_json series_modular
    sparse_schedule split_with_budget t_operator uniform_space
    verify_certificate weak_approx_select worstcase_scenarios
    write_positions_csv young_check
""".split())


def test_the_package_exports_each_library_modules_all():
    # the public names are declared once, in each module's __all__; cli
    # and __main__ run the command line and stay out of the namespace
    package = pathlib.Path(orlicz_lab.__file__).resolve().parent
    listed = set()
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", "__main__", "cli"):
            continue
        defined = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {target.id for target in node.targets
                            if isinstance(target, ast.Name)}
        names = getattr(importlib.import_module(f"orlicz_lab.{path.stem}"),
                        "__all__", ())
        # each listed name is defined in the module that lists it
        assert set(names) <= defined, path.name
        listed |= set(names)
    public = {name for name, value in vars(orlicz_lab).items()
              if not name.startswith("_")
              and not isinstance(value, type(orlicz_lab))}
    assert public == listed
    assert EXPORTED_BEFORE <= public


def test_no_library_module_has_an_unused_import():
    # every module but the package's __init__, which re-exports, uses
    # each name it imports
    package = pathlib.Path(orlicz_lab.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [(path.name, node.lineno, name)
                   for name, node in imported.items() if name not in used]
    assert unused == []


def test_no_library_module_imports_inside_a_function():
    # every import is at module level, where the import graph is explicit
    # and a cycle fails at once; a function-local import can hide one
    package = pathlib.Path(orlicz_lab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.lineno) for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def resolve(node, namespace):
    """The object a name or dotted attribute refers to in ``namespace``,
    or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value, namespace), node.attr, None)
    return None


def library_modules():
    """``(path, tree, namespace)`` of each library module but
    ``__main__``, whose import runs the command line."""
    package = pathlib.Path(orlicz_lab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__main__.py":
            continue
        module = ("orlicz_lab" if path.stem == "__init__"
                  else f"orlicz_lab.{path.stem}")
        yield (path, ast.parse(path.read_text()),
               vars(importlib.import_module(module)))


def test_no_library_module_asks_which_orlicz_function_it_holds():
    # per-function facts (spec, kinks, kernels) live on the function
    # classes, so no module calls isinstance on an OrliczFunction subclass
    from orlicz_lab.orlicz_functions import OrliczFunction

    found = []
    for path, tree, namespace in library_modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                cls = resolve(kind, namespace)
                if isinstance(cls, type) and issubclass(cls, OrliczFunction):
                    found.append((path.name, node.lineno, cls.__name__))
    assert found == []


def test_only_acceptance_eval_uses_the_bisection_helper():
    # Orlicz functions and norms solve by exact forms or by Newton's
    # method; only acceptance_eval bisects, on an opaque predicate.  The
    # stdlib bisect module, which searches finite grids, is another
    # object and does not count
    from orlicz_lab.orlicz_functions import bisect

    found = []
    for path, tree, namespace in library_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, fn.name) for node in ast.walk(fn)
                          if resolve(node, namespace) is bisect]
        found += [(path.name, "import") for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and any(alias.name == "bisect" for alias in node.names)
                  and (node.module or "").endswith("orlicz_functions")]
    assert sorted(found) == [("risk_measures.py", "acceptance_eval"),
                             ("risk_measures.py", "import")]
