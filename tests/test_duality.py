import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import minimize

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
    acceptance_measure,
    avar_scenarios,
    entropic_measure,
    scenario_eval,
    scenario_measure,
)


def entropic_supergradient(theta):
    """The gradient of ``theta * log E[exp(-X / theta)]`` in the atom
    values: minus the Gibbs weights ``p_i exp(-X_i / theta)``, normalised."""
    def grad(X):
        z = -X.x / theta
        w = X.space.p * np.exp(z - np.max(z))
        return -w / w.sum()
    return grad


def box_sup(rho, grad, Y, M):
    """Reference for the conjugate of a monotone ``rho``: the maximum of
    the concave map ``X -> E[XY] - rho(X)`` over ``[-M, M]^atoms``.  The
    map is nondecreasing in each atom where ``Y >= 0``, so those atoms
    sit at M; L-BFGS-B maximises over the others from three starts, with
    the supergradient ``grad``."""
    space, y = Y.space, Y.x
    free = y < 0.0

    def embed(z):
        x = np.full(space.n_atoms, M)
        x[free] = z
        return space.rv(x)

    def neg_objective(z):
        return rho(embed(z)) - pairing(embed(z), Y)

    def jac(z):
        return (grad(embed(z)) - space.p * y)[free]

    n = int(free.sum())
    best = -math.inf
    for start in (np.zeros(n), np.full(n, 0.5 * M), np.full(n, -0.5 * M)):
        res = minimize(neg_objective, start, jac=jac, method="L-BFGS-B",
                       bounds=[(-M, M)] * n,
                       options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 500})
        best = max(best, -float(res.fun))
    return best


def acceptance_only():
    """A measure with neither scenarios nor a penalty on record."""
    return acceptance_measure(lambda X: float(np.min(X.x)) >= 0.0)


class TestPolyhedralConjugate:
    def test_member_density_gives_zero(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        rho = scenario_measure(Q)
        for Y in Q.densities:
            cv = conjugate_rho(rho, -Y)
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
        cv = conjugate_rho(rho, -spike)
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
            cv = conjugate_rho(rho, Y)
            assert cv.value in (0.0, math.inf)

    def test_requires_scenarios(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            conjugate_rho(acceptance_only(), sp.constant(0.0))


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
                monkeypatch.setattr(S, "violated_bound", lambda t: bad)
                with pytest.raises(CertificateError):
                    conjugate_rho(scenario_measure(S), -spike)
                monkeypatch.undo()


class TestEntropicConjugate:
    """``rho*(-q) = theta * E[q log q]`` on the density simplex and
    ``+inf`` off it, checked against Fenchel-Young, the primal witness
    ``X* = -theta log q`` and the L-BFGS-B reference ``box_sup``."""

    def test_entropic_closed_form(self):
        # for rho(X) = log E[e^-X], rho*(Y) with Y = -Q (Q a density) is
        # the relative entropy E[Q log Q]
        sp = FiniteSpace((0.5, 0.5))
        rho = entropic_measure(1.0)
        q = np.array([1.5, 0.5])
        Y = sp.rv(-q)
        expect = float(np.sum(sp.p * q * np.log(q)))
        cv = conjugate_rho(rho, Y)
        assert cv.finite
        assert cv.value == pytest.approx(expect, abs=1e-15)

    def test_infinite_direction_flagged(self):
        sp = uniform_space(2)
        rho = entropic_measure(1.0)
        # Y = 0 is not -density, so the sup is +infinity (take X = c*1)
        cv = conjugate_rho(rho, sp.constant(0.0))
        assert cv.value == math.inf
        assert not cv.finite
        assert cv.certificate == (1.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda rho, sp: conjugate_rho(rho, sp.constant(0.0)),
        lambda rho, sp: biconjugate(rho, sp.constant(0.0), [sp.constant(-1.0)]),
        lambda rho, sp: extract_scenarios(rho, [sp.constant(1.0)]),
        lambda rho, sp: duality_report(rho, [sp.constant(0.0)],
                                       [sp.constant(-1.0)]),
    ], ids=["conjugate_rho", "biconjugate", "extract_scenarios",
            "duality_report"])
    def test_a_measure_with_no_conjugate_raises(self, call):
        with pytest.raises(InputError, match="no dual representation"):
            call(acceptance_only(), uniform_space(2))

    @staticmethod
    def _draw(data, zero_atoms=True):
        """A space of 2-7 atoms, theta in [0.1, 10] and a density q, with
        atoms at 0 when ``zero_atoms``."""
        n = data.draw(st.integers(2, 7))
        w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n,
                                        max_size=n)))
        sp = FiniteSpace(tuple(w / w.sum()))
        theta = data.draw(st.floats(0.1, 10.0))
        weight = st.floats(0.05, 1.0)
        if zero_atoms:
            weight = st.just(0.0) | weight
        u = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
        assume(u.sum() > 0.0)
        return sp, theta, u / float(sp.p @ u)

    @given(data=st.data())
    def test_fenchel_young(self, data):
        sp, theta, q = self._draw(data)
        rho = entropic_measure(theta)
        X = sp.rv(data.draw(st.lists(st.floats(-20.0, 20.0),
                                     min_size=sp.n_atoms,
                                     max_size=sp.n_atoms)))
        star = conjugate_rho(rho, sp.rv(-q)).value
        gap = pairing(X, sp.rv(-q)) - rho(X)
        assert gap <= star + 1e-12 * (1.0 + abs(gap) + abs(star))

    @given(data=st.data())
    def test_equality_at_the_primal_witness(self, data):
        sp, theta, q = self._draw(data, zero_atoms=False)
        rho = entropic_measure(theta)
        witness = sp.rv(-theta * np.log(q))
        star = conjugate_rho(rho, sp.rv(-q)).value
        at_witness = pairing(witness, sp.rv(-q)) - rho(witness)
        assert at_witness == pytest.approx(star, rel=1e-12, abs=1e-12)

    @given(data=st.data())
    def test_agrees_with_the_reference_sup(self, data):
        sp, theta, q = self._draw(data)
        rho = entropic_measure(theta)
        star = conjugate_rho(rho, sp.rv(-q)).value
        ref = box_sup(rho, entropic_supergradient(theta), sp.rv(-q), 2.0e3)
        assert abs(ref - star) <= 1e-9 * max(1.0, abs(star))

    @given(data=st.data())
    def test_off_the_simplex_is_infinite_with_a_growing_direction(self, data):
        sp, theta, q = self._draw(data)
        rho = entropic_measure(theta)
        n = sp.n_atoms
        # a shift of the mean, or mass moved onto a negative atom
        j = data.draw(st.integers(0, n - 1))
        t = q.copy()
        if data.draw(st.booleans()):
            t *= data.draw(st.floats(0.5, 0.99) | st.floats(1.01, 2.0))
        else:  # mean-preserving, leaving t_j = -s / p_j
            s = data.draw(st.floats(0.01, 1.0))
            d = (q[j] * sp.p[j] + s) / (1.0 - sp.p[j])
            t = t - d * (np.eye(n)[j] / sp.p[j] - 1.0)
        Y = sp.rv(-t)
        cv = conjugate_rho(rho, Y)
        assert cv.value == math.inf
        x = sp.rv(cv.certificate)
        slope = pairing(x, Y) - float(np.max(-x.x))  # rho's recession at x
        assert slope > 0.0
        # the objective grows along it
        values = [pairing(x * s, Y) - rho(x * s) for s in (1e2, 1e3, 1e4)]
        assert values[0] < values[1] < values[2]

    def test_supergradient_matches_finite_differences(self):
        sp = uniform_space(3)
        X = sp.rv([0.5, -1.0, 2.0])
        rho = entropic_measure(0.7)
        g = entropic_supergradient(0.7)(X)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (rho(sp.rv(X.x + e)) - rho(sp.rv(X.x - e))) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


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

    def test_entropic_at_the_supergradient(self):
        sp = uniform_space(2)
        rho = entropic_measure(1.0)
        X = sp.rv([1.0, -1.0])
        # probe at the exact supergradient of rho at X
        probes = [sp.rv(entropic_supergradient(1.0)(X) / sp.p)]
        assert biconjugate(rho, X, probes) == pytest.approx(rho(X), abs=1e-12)

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
