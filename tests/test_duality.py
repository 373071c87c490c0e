import math

import numpy as np
import pytest

from orlicz_lab.duality import (
    ConjugateValue,
    biconjugate,
    conjugate_rho,
    duality_report,
    extract_scenarios,
    report_to_json,
)
from orlicz_lab.errors import InputError
from orlicz_lab.finite_model import FiniteSpace, pairing, uniform_space
from orlicz_lab.risk_measures import (
    ScenarioSet,
    avar_scenarios,
    entropic_measure,
    scenario_eval,
    scenario_measure,
)


class TestPolyhedralConjugate:
    def test_member_density_gives_zero(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        for Y in Q.densities:
            cv = conjugate_rho(rho, -Y, mode="polyhedral")
            assert cv.value == 0.0
            assert cv.finite

    def test_convex_combination_gives_zero(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        mix = sp.rv(0.5 * Q.densities[0].x + 0.5 * Q.densities[1].x)
        assert conjugate_rho(rho, -mix).value == 0.0

    def test_outside_hull_is_infinite_with_certificate(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)  # densities capped at 2
        rho = scenario_measure(Q)
        spike = sp.rv([4.0, 0.0, 0.0, 0.0])  # cap-violating density
        cv = conjugate_rho(rho, -spike, mode="polyhedral")
        assert cv.value == math.inf
        assert not cv.finite
        # the certificate direction grows the objective without bound
        d = sp.rv(cv.certificate)
        slope = pairing(d, -spike) - scenario_eval(Q, d)
        assert slope > 1e-9

    def test_dichotomy_on_random_probes(self):
        rng = np.random.default_rng(23)
        sp = uniform_space(4)
        rho = scenario_measure(avar_scenarios(sp, 0.25))
        for _ in range(50):
            Y = sp.rv(rng.uniform(-3.0, 3.0, 4))
            cv = conjugate_rho(rho, Y, mode="polyhedral")
            assert cv.value in (0.0, math.inf)

    def test_requires_scenarios(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            conjugate_rho(entropic_measure(), sp.constant(0.0), mode="polyhedral")


class TestBoxConjugate:
    def test_entropic_closed_form(self):
        # for rho(X) = log E[e^-X], rho*(Y) with Y = -Q (Q a density) is
        # the relative entropy E[Q log Q]
        sp = FiniteSpace((0.5, 0.5))
        rho = entropic_measure(1.0)
        q = np.array([1.5, 0.5])
        Y = sp.rv(-q)
        expect = float(np.sum(sp.p * q * np.log(q)))
        cv = conjugate_rho(rho, Y, mode="box")
        assert cv.finite
        assert cv.value == pytest.approx(expect, abs=1e-7)

    def test_infinite_direction_flagged(self):
        sp = uniform_space(2)
        rho = entropic_measure(1.0)
        # Y = 0 is not -density, so the sup is +infinity (take X = c*1)
        cv = conjugate_rho(rho, sp.constant(0.0), mode="box", box_radius=10.0)
        assert cv.flag == "possibly-infinite"
        assert not cv.finite

    def test_box_radius_validation(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            conjugate_rho(entropic_measure(), sp.constant(0.0), mode="box",
                          box_radius=0.0)

    def test_mode_validation(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            conjugate_rho(entropic_measure(), sp.constant(0.0), mode="huge")


class TestBiconjugate:
    def test_polyhedral_recovers_rho(self):
        rng = np.random.default_rng(5)
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        probes = [-Y for Y in Q.densities]
        for _ in range(30):
            X = sp.rv(rng.uniform(-2.0, 2.0, 4))
            assert biconjugate(rho, X, probes) == pytest.approx(rho(X), abs=1e-9)

    def test_entropic_box(self):
        sp = uniform_space(2)
        rho = entropic_measure(1.0)
        X = sp.rv([1.0, -1.0])
        # probe at the exact supergradient of rho at X
        probes = [sp.rv(rho.gradient(X) / sp.p)]
        value = biconjugate(rho, X, probes, mode="box")
        assert value == pytest.approx(rho(X), abs=1e-6)

    def test_needs_probes(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            biconjugate(entropic_measure(), sp.constant(0.0), [])


class TestExtractScenarios:
    def test_recovers_generating_set(self):
        rng = np.random.default_rng(9)
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)  # densities capped at 2
        rho = scenario_measure(Q)
        outsider = sp.rv([4.0, 0.0, 0.0, 0.0])
        Q2, report = extract_scenarios(rho, list(Q.densities) + [outsider])
        assert report["n_survivors"] == len(Q)
        assert report["n_rejected"] == 1
        # extracted set reproduces rho at random probes
        rho2 = scenario_measure(Q2)
        for _ in range(100):
            X = sp.rv(rng.uniform(-3.0, 3.0, 4))
            assert rho2(X) == pytest.approx(rho(X), abs=1e-9)

    def test_generator_input_counts_candidates(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        for candidates in (list(Q.densities), (Y for Y in Q.densities)):
            _, report = extract_scenarios(rho, candidates)
            assert report["n_candidates"] == 6
            assert report["n_survivors"] == 6

    def test_empty_extraction(self):
        sp = uniform_space(2)
        rho = scenario_measure(ScenarioSet((sp.constant(1.0),)))
        outsider = sp.rv([2.0, 0.0])
        Q, report = extract_scenarios(rho, [outsider])
        assert Q is None
        assert report["n_survivors"] == 0


class TestDualityReport:
    def test_report_shape_and_json(self):
        sp = uniform_space(3)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        positions = [sp.rv([1.0, -1.0, 0.0])]
        probes = [-Y for Y in Q.densities]
        report = duality_report(rho, positions, probes,
                                candidates=list(Q.densities))
        assert not report["gap"]
        assert report["biconjugate"][0]["gap"] is False
        assert len(report["extracted_scenarios"]) == len(Q)
        text = report_to_json(report)
        assert text == report_to_json(report)  # deterministic serialization
