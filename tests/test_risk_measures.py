import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orlicz_lab.duality import conjugate_rho
from orlicz_lab.errors import EmptyScenarioSet, InputError, NumericFailure
from orlicz_lab.finite_model import FiniteSpace, pairing, uniform_space
from orlicz_lab.risk_measures import (
    CappedScenarioSet,
    RiskMeasure,
    ScenarioSet,
    avar_scenarios,
    axiom_suite,
    entropic_measure,
    fatou_harness,
    parse_measure_spec,
    scenario_eval,
    scenario_measure,
    scenarios_from_json,
    scenarios_to_json,
    worstcase_scenarios,
)

from bisection_oracle import BracketInvalid, acceptance_eval, acceptance_measure


def avar_oracle(X, alpha):
    """Independent oracle: AVaR_alpha(X) = max over feasible densities,
    computed by greedy mass stacking on the sorted losses."""
    order = np.argsort(X.x)  # worst (lowest) outcomes first
    cap = 1.0 / alpha
    remaining = 1.0
    total = 0.0
    for i in order:
        w = min(cap * X.space.p[i], remaining)
        total += w * (-X.x[i])
        remaining -= w
        if remaining <= 1e-15:
            break
    return total


class TestScenarioSet:
    def test_requires_densities(self):
        with pytest.raises(EmptyScenarioSet):
            ScenarioSet(())

    def test_requires_nonnegative_unit_expectation(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            ScenarioSet((sp.rv([2.0, -0.5]),))
        with pytest.raises(InputError):
            ScenarioSet((sp.rv([1.0, 0.5]),))

    def test_json_round_trip(self):
        sp = uniform_space(2)
        Q = ScenarioSet((sp.rv([2.0, 0.0]), sp.rv([1.0, 1.0])))
        again = scenarios_from_json(scenarios_to_json(Q), sp)
        assert len(again) == 2
        assert list(again.densities[0].values) == [2.0, 0.0]

    def test_json_malformed(self):
        with pytest.raises(InputError):
            scenarios_from_json("{}", uniform_space(2))


class TestScenarioEval:
    def test_matches_hand_value(self):
        sp = FiniteSpace((0.5, 0.5))
        Q = ScenarioSet((sp.rv([2.0, 0.0]), sp.rv([0.0, 2.0])))
        X = sp.rv([1.0, -3.0])
        # E[-XY] is -1 for the first density and 3 for the second
        assert scenario_eval(Q, X) == 3.0

    def test_measure_wrapper(self):
        sp = uniform_space(3)
        Q = ScenarioSet((sp.constant(1.0),))
        rho = scenario_measure(Q)
        X = sp.rv([1.0, 2.0, 3.0])
        assert rho(X) == pytest.approx(-2.0)
        assert rho.scenarios is Q


def avar_vertices_by_loop(space, alpha):
    """Reference enumeration, one candidate at a time: for each subset S
    at the cap, the vertex with mass exactly 1 or, for each atom j outside
    S in turn, the vertex with j fractional; a candidate is kept when its
    coordinates rounded to 12 decimals are new."""
    n, cap, p = space.n_atoms, 1.0 / alpha, space.p
    seen, vertices = set(), []

    def push(vec):
        key = tuple(round(v, 12) for v in vec)
        if key not in seen:
            seen.add(key)
            vertices.append(vec)

    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            mass = cap * sum(p[i] for i in S)
            if mass > 1.0 + 1e-12:
                continue
            if abs(mass - 1.0) <= 1e-12:
                vec = np.zeros(n)
                vec[list(S)] = cap
                push(vec)
                continue
            for j in range(n):
                if j in S:
                    continue
                yj = (1.0 - mass) / p[j]
                if yj <= cap + 1e-12:
                    vec = np.zeros(n)
                    vec[list(S)] = cap
                    vec[j] = min(yj, cap)
                    push(vec)
    return vertices


def avar_reference_spaces(n):
    """Equal and Dirichlet probabilities on n atoms, each with alpha = 1,
    with alpha = P(S) for S the first ceil(n/2) atoms (the cap fills S to
    mass 1, up to rounding: the exact-mass branch), and a generic alpha."""
    rng = np.random.default_rng([23, n])
    for p in (np.full(n, 1.0 / n), rng.dirichlet(np.full(n, 2.0))):
        sp = FiniteSpace(tuple(p))
        mass = float(sum(sp.p[i] for i in range((n + 1) // 2)))
        assert abs((1.0 / mass) * mass - 1.0) <= 1e-12
        for alpha in (1.0, mass, 0.3):
            yield sp, alpha


class TestAvar:
    def test_vertex_count_uniform_four(self):
        sp = uniform_space(4)
        Q = avar_scenarios(sp, 0.5)
        # cap=2: the six vertices put cap mass on a pair of atoms
        assert len(Q) == 6

    def test_matches_greedy_oracle_random(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            probs = rng.uniform(0.1, 1.0, n)
            sp = FiniteSpace(tuple(probs / probs.sum()))
            alpha = float(rng.uniform(0.15, 1.0))
            X = sp.rv(rng.uniform(-4.0, 4.0, n))
            Q = avar_scenarios(sp, alpha)
            assert scenario_eval(Q, X) == pytest.approx(
                avar_oracle(X, alpha), abs=1e-9)

    @pytest.mark.parametrize("cap", [0.5, 1.0 - 1e-16, math.inf, math.nan])
    def test_a_cap_below_one_or_not_finite_is_rejected(self, cap):
        # a cap below 1 holds no density (E[Y] <= cap < 1), yet the
        # support of uniform_space(4) at [0.5, 0.25, 0.125, 0.0625] was
        # 0.3125; an infinite cap gave NaN
        with pytest.raises(InputError, match="cap must be finite and >= 1"):
            CappedScenarioSet(uniform_space(4), cap)

    def test_the_smallest_cap_is_one(self):
        X = uniform_space(4).rv([0.5, 0.25, 0.125, 0.0625])
        assert CappedScenarioSet(uniform_space(4), 1.0).support(X) \
            == pytest.approx(0.234375, abs=0.0)

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_an_alpha_whose_inverse_overflows_is_rejected(self, alpha):
        # 1/alpha is inf, and the sort took inf - inf: the value was NaN,
        # with a numpy warning
        with pytest.raises(InputError, match="alpha"):
            avar_scenarios(uniform_space(3), alpha)

    def test_alpha_one_is_expected_loss(self):
        sp = uniform_space(3)
        Q = avar_scenarios(sp, 1.0)
        X = sp.rv([1.0, -2.0, 4.0])
        assert scenario_eval(Q, X) == pytest.approx(-1.0)

    def test_alpha_validation(self):
        with pytest.raises(InputError):
            avar_scenarios(uniform_space(2), 0.0)

    def test_atom_limit(self):
        # only the vertex list is limited to 12 atoms: at 13 the set still
        # evaluates and conjugates by its bounds
        sp = uniform_space(13)
        Q = avar_scenarios(sp, 0.5)
        X = sp.rv(np.linspace(-1.0, 1.0, 13))
        assert scenario_eval(Q, X) == pytest.approx(avar_oracle(X, 0.5),
                                                    abs=1e-12)
        rho = scenario_measure(Q)
        assert conjugate_rho(rho, -sp.constant(1.0)).value == 0.0
        assert conjugate_rho(rho, -sp.constant(3.0)).value == math.inf
        with pytest.raises(InputError):
            Q.densities

    @pytest.mark.parametrize("n", range(1, 13))
    def test_vertices_match_the_loop_bit_for_bit(self, n):
        for sp, alpha in avar_reference_spaces(n):
            got = [Y.x for Y in avar_scenarios(sp, alpha).densities]
            ref = avar_vertices_by_loop(sp, alpha)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.tobytes() == r.tobytes()


@functools.lru_cache(maxsize=None)
def avar_reference_sets(n):
    """``avar_reference_spaces(n)`` with each set's vertex matrix."""
    return [(sp, alpha, np.array(avar_vertices_by_loop(sp, alpha)))
            for sp, alpha in avar_reference_spaces(n)]


class TestAvarBySorting:
    """The sort-based AVaR is the maximum over the enumerated vertices."""

    @given(n=st.integers(1, 12), k=st.integers(0, 5), data=st.data())
    def test_equals_the_vertex_maximum(self, n, k, data):
        sp, alpha, vertices = avar_reference_sets(n)[k]
        # values from a short list as well, so that ties are drawn
        value = st.floats(-100.0, 100.0) | st.sampled_from([-1.0, 0.0, 2.5])
        x = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        X = sp.rv(x)
        ref = max(pairing(-X, sp.rv(v)) for v in vertices)
        got = scenario_eval(avar_scenarios(sp, alpha), X)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestWorstcase:
    def test_point_masses(self):
        sp = FiniteSpace((0.25, 0.75))
        Q = worstcase_scenarios(sp)
        assert len(Q) == 2
        X = sp.rv([-5.0, 1.0])
        assert scenario_eval(Q, X) == 5.0  # max loss


class TestEntropic:
    def test_value_and_limits(self):
        sp = uniform_space(2)
        X = sp.rv([1.0, -1.0])
        rho = entropic_measure(1.0)
        expect = math.log(0.5 * (math.e + 1.0 / math.e))
        assert rho(X) == pytest.approx(expect, abs=1e-12)
        # large theta approaches expected loss, small theta the max loss
        assert entropic_measure(1e4)(X) == pytest.approx(0.0, abs=1e-3)
        assert entropic_measure(1e-2)(X) == pytest.approx(1.0, abs=1e-1)

    def test_theta_validation(self):
        with pytest.raises(InputError):
            entropic_measure(0.0)

    @pytest.mark.parametrize("theta, atoms", [
        (1e-320, [1.0, -1.0]), (1e-320, [0.5, 2.0]), (1e-300, [1e308, -1e308])])
    def test_minus_x_over_theta_past_the_range_names_theta(self, theta,
                                                          atoms):
        # the largest -x/theta was +inf (or every one -inf), and
        # z - zmax took inf - inf: the value was NaN, with a numpy warning
        X = uniform_space(2).rv(atoms)
        with pytest.raises(NumericFailure, match="theta=1e-3"):
            entropic_measure(theta)(X)

    def test_a_term_that_underflows_keeps_the_value(self):
        # z - zmax overflows to -inf at the atom 1.7e308 and exp gives 0:
        # the value is the loss at the other atom, without a warning
        X = uniform_space(2).rv([1.7e308, -1.7e308])
        assert entropic_measure(1.0)(X) == 1.7e308 - math.log(2.0)


class TestAcceptance:
    def test_bisection_recovers_scenario_value(self):
        sp = uniform_space(3)
        Q = avar_scenarios(sp, 0.5)
        rho_q = scenario_measure(Q)
        member = lambda X: scenario_eval(Q, X) <= 0.0
        rho_a = acceptance_measure(member)
        for vals in ([1.0, -2.0, 0.5], [3.0, 3.0, 3.0], [-1.0, -1.0, 4.0]):
            X = sp.rv(vals)
            assert rho_a(X) == pytest.approx(rho_q(X), abs=1e-6)

    def test_the_brackets_double_from_one(self):
        # upper trials 1, 2, 4, 8 until X + m*1 enters C, then lower
        # trials -1, ... until it leaves; the bisection checks both ends
        # of (-1, 8) and halves it
        sp = uniform_space(2)
        X = sp.rv([1.0, -5.0])
        shifts = []

        def member(Z):
            shifts.append(float(Z.x[1] - X.x[1]))
            return float(np.min(Z.x)) >= 0.0

        assert acceptance_measure(member)(X) == pytest.approx(5.0, abs=1e-7)
        assert shifts[:8] == [1.0, 2.0, 4.0, 8.0, -1.0, 8.0, -1.0, 3.5]

    @pytest.mark.parametrize("accepts, which", [(False, "upper"),
                                                (True, "lower")])
    def test_no_bracket_past_1e300(self, accepts, which):
        # X + m*1 never enters C (or is always in it): the doubling stops
        # once m passes 1e300
        sp = uniform_space(2)
        trials = []

        def member(Z):
            trials.append(Z)
            return accepts

        with pytest.raises(NumericFailure, match=f"no {which} bracket"):
            acceptance_measure(member)(sp.rv([1.0, -2.0]))
        assert 1e300 / 2.0 < max(abs(Z.x[0]) for Z in trials) <= 1e300

    def test_bracket_validation(self):
        sp = uniform_space(2)
        member = lambda X: float(np.min(X.x)) >= 0.0
        X = sp.rv([1.0, -2.0])
        with pytest.raises(BracketInvalid):
            acceptance_eval(member, X, (5.0, 1.0))
        with pytest.raises(BracketInvalid):
            acceptance_eval(member, X, (0.0, 1.0))  # X + 1 not accepted
        with pytest.raises(BracketInvalid):
            acceptance_eval(member, X, (3.0, 4.0))  # lower bracket accepted

    def test_a_zero_tolerance_stops_at_adjacent_doubles(self):
        # no bracket narrows to width 0; the bisection stops once its
        # ends are adjacent doubles, where it used to loop for ever
        sp = uniform_space(2)
        member = lambda X: float(np.min(X.x)) >= 0.0
        m = acceptance_eval(member, sp.rv([1.0, -2.0]), (0.0, 4.0), tol=0.0)
        assert m == pytest.approx(2.0, rel=1e-15)


class TestAxiomSuite:
    def _samples(self, sp):
        rng = np.random.default_rng(2)
        return [sp.rv(rng.uniform(-2.0, 2.0, sp.n_atoms)) for _ in range(6)]

    def test_coherent_measure_passes(self):
        sp = uniform_space(4)
        rho = scenario_measure(avar_scenarios(sp, 0.25))
        report = axiom_suite(rho, self._samples(sp))
        assert report["passed"]

    def test_entropic_fails_homogeneity(self):
        # convex but not coherent: positive homogeneity must fail while
        # cash additivity and monotonicity survive
        sp = uniform_space(4)
        report = axiom_suite(entropic_measure(1.0), self._samples(sp))
        assert not report["passed"]
        assert not report["positively_homogeneous"]["passed"]
        assert report["cash_additive"]["passed"]
        assert report["monotone"]["passed"]

    def test_violations_carry_witnesses(self):
        sp = uniform_space(2)
        bad = RiskMeasure(lambda X: float(np.sum(X.x)), "bad")
        report = axiom_suite(bad, self._samples(sp))
        assert not report["passed"]
        some = [v for k, v in report.items()
                if isinstance(v, dict) and v["violations"]]
        assert some

    def test_an_infinite_value_is_not_shifted_or_scaled(self):
        # -min X where min X >= -1, +inf below: at [-2, 0] the value is
        # inf, and inf - m or inf * lam says nothing about X + m or lam X
        sp = uniform_space(2)
        rho = RiskMeasure(lambda X: -float(np.min(X.x))
                          if np.min(X.x) >= -1.0 else math.inf, "floor")
        report = axiom_suite(rho, [sp.rv([-2.0, 0.0]), sp.rv([0.5, 1.0])])
        assert report["passed"]

    def test_needs_two_samples(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            axiom_suite(entropic_measure(), [sp.constant(0.0)])


class TestFatouHarness:
    def test_scenario_measure_no_violation(self):
        sp = uniform_space(3)
        rho = scenario_measure(avar_scenarios(sp, 0.5))
        X = sp.rv([1.0, -1.0, 0.5])
        family = [X + 2.0 ** (-n) for n in range(1, 25)]
        report = fatou_harness(rho, family, X)
        assert report["holds"]
        assert report["verdict"] == "no violation found"

    def test_violation_detected(self):
        sp = uniform_space(2)
        X = sp.constant(0.0)
        family = [X + 2.0 ** (-n) for n in range(1, 25)]
        # rho jumps down along the family but is large at the limit
        jumpy = RiskMeasure(
            lambda Z: 5.0 if float(np.max(np.abs(Z.x))) < 1e-6 else 0.0,
            "jumpy")
        report = fatou_harness(jumpy, family, X)
        assert not report["holds"]
        assert report["verdict"] == "violated"

    def test_rejects_non_converging_family(self):
        sp = uniform_space(2)
        X = sp.constant(0.0)
        family = [X + 1.0 for _ in range(10)]
        with pytest.raises(InputError):
            fatou_harness(entropic_measure(), family, X)


class TestParseMeasureSpec:
    def test_specs(self, tmp_path):
        sp = uniform_space(3)
        assert parse_measure_spec("avar:alpha=0.5", sp).name == "avar:alpha=0.5"
        assert parse_measure_spec("worstcase", sp).name == "worstcase"
        assert parse_measure_spec("entropic:theta=2", sp).name.startswith("entropic")
        path = tmp_path / "q.json"
        Q = ScenarioSet((sp.constant(1.0),))
        path.write_text(scenarios_to_json(Q))
        rho = parse_measure_spec(f"scenario:{path}", sp)
        assert rho.scenarios is not None

    def test_bad_specs(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            parse_measure_spec("avar:beta=0.5", sp)
        with pytest.raises(InputError):
            parse_measure_spec("mystery", sp)
        with pytest.raises(InputError, match="avar needs alpha"):
            parse_measure_spec("avar", sp)

    @pytest.mark.parametrize("text", ["avar:0.5", "avar:alpha=0.5,beta=2",
                                      "worstcase:x=1", "entropic:theta=2,x=1",
                                      "entropic:theta=nan", "avar:alpha=0.5,"])
    def test_one_grammar_rejects_stray_pieces(self, text):
        with pytest.raises(InputError):
            parse_measure_spec(text, uniform_space(2))
