import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from orlicz_lab import duality
from orlicz_lab.duality import (
    ConjugateValue,
    biconjugate,
    conjugate_rho,
    duality_report,
    extract_scenarios,
    report_to_json,
)
from orlicz_lab.errors import CertificateError, InputError
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


class TestBoundsDecision:
    """For AVaR's capped set, -Y in Q is decided by the bounds
    ``0 <= t <= cap, E[t] = 1``; a hull LP over the enumerated vertices
    decides the same away from the boundary, and every +inf comes with a
    verified growth direction."""

    @pytest.mark.parametrize("t, direction", [
        ([1.0, 1.0, 1.0, 2.0], (-1.0, -1.0, -1.0, -1.0)),  # E[t] > 1
        ([1.0, 1.0, 1.0, 0.0], (1.0, 1.0, 1.0, 1.0)),      # E[t] < 1
        ([0.5, 3.0, 0.5, 0.0], (0.0, -1.0, 0.0, 0.0)),     # over the cap
        ([1.5, 2.0, 1.0, -0.5], (0.0, 0.0, 0.0, 1.0)),     # negative
    ])
    def test_direction_of_each_violated_bound(self, t, direction):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.4)  # cap 2.5
        cv = conjugate_rho(scenario_measure(Q), -sp.rv(t))
        assert cv.value == math.inf
        assert cv.certificate == direction
        x = sp.rv(direction)
        assert pairing(x, -sp.rv(t)) > Q.support(-x)

    @pytest.mark.parametrize("t, inside", [
        ([1.0 + 5e-11] * 4, True), ([1.0 + 2e-10] * 4, False),
        ([1.0 - 5e-11] * 4, True), ([1.0 - 2e-10] * 4, False),
        ([-5e-13, 1.0, 1.0, 2.0], True), ([-2e-12, 1.0, 1.0, 2.0], False),
    ])
    def test_the_tolerances_of_a_density_list(self, t, inside):
        # -Y is in the capped set exactly when ScenarioSet would take it
        # as a density (it is below the cap here)
        sp = uniform_space(4)
        try:
            ScenarioSet((sp.rv(t),))
        except InputError:
            assert not inside
        else:
            assert inside
        cv = conjugate_rho(scenario_measure(avar_scenarios(sp, 0.4)), -sp.rv(t))
        assert cv.value == (0.0 if inside else math.inf)

    @given(data=st.data())
    def test_matches_a_hull_lp_over_the_vertices(self, data):
        n = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            p = np.full(n, 1.0 / n)
        else:
            w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n,
                                            max_size=n)))
            p = w / w.sum()
        sp = FiniteSpace(tuple(p))
        alpha = data.draw(st.floats(0.1, 1.0))
        Q = avar_scenarios(sp, alpha)
        V = Q.densities
        a, b = (data.draw(st.integers(0, len(V) - 1)) for _ in range(2))
        s, r = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
        t = (1.0 - r) * (s * V[a].x + (1.0 - s) * V[b].x) + r  # in Q
        # a mean-preserving move of atom j, then a shift of the mean
        j = data.draw(st.integers(0, n - 1))
        delta = data.draw(st.just(0.0) | st.floats(-2.0, 2.0))
        eps = data.draw(st.just(0.0) | st.floats(-0.5, 0.5))
        t = t + delta * (np.eye(n)[j] / p[j] - 1.0) + eps
        assume(np.min(np.abs(t)) >= 1e-6 and np.min(np.abs(t - Q.cap)) >= 1e-6)
        assume(eps == 0.0 or abs(float(p @ t) - 1.0) >= 1e-6)
        Y = sp.rv(-t)
        by_bounds = conjugate_rho(scenario_measure(Q), Y).value
        by_hull = conjugate_rho(scenario_measure(ScenarioSet(V)), Y).value
        assert by_bounds == by_hull

    def test_a_perturbed_direction_is_rejected(self, monkeypatch):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        spike = sp.rv([4.0, 0.0, 0.0, 0.0])
        hull = ScenarioSet(Q.densities)
        for S in (Q, hull):
            good = conjugate_rho(scenario_measure(S), -spike).certificate
            for bad in (tuple(-v for v in good), (0.0,) * 4):
                if S is Q:
                    monkeypatch.setattr(Q, "violated_bound", lambda t: bad)
                else:
                    monkeypatch.setattr(duality, "_hull_direction",
                                        lambda Q, t: bad)
                with pytest.raises(CertificateError):
                    conjugate_rho(scenario_measure(S), -spike)
                monkeypatch.undo()


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
