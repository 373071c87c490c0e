import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_lab.closure_lab import (as_extraction, mazur_min_norm,
                                    order_dominator, split_with_budget)
from orlicz_lab.errors import (BoundViolation, HypothesisViolation, InputError,
                               NumericFailure)
from orlicz_lab.finite_model import FiniteSpace, uniform_space
from orlicz_lab.norms import luxemburg_norm, modular
from orlicz_lab.orlicz_functions import (CATALOG, ExpFunction,
                                         PiecewiseLinearFunction, PowerFunction)

from kernel_references import split_by_masked_bisection


def tail(X, phi, level):
    """E[1_{|X|>level} phi(|X|)] as one correctly rounded sum."""
    x_abs = np.abs(X.x)
    terms = X.space.p * np.asarray(phi(x_abs), dtype=float)
    return math.fsum(terms[x_abs > level].tolist())


def scan_split_level(X, phi, budget):
    """Reference for split_with_budget: the levels 0 and |x_i| in
    increasing order, the first whose tail fits the budget."""
    for level in sorted({0.0, *(float(v) for v in np.abs(X.x))}):
        if tail(X, phi, level) <= budget:
            return level
    raise AssertionError("the largest level has tail 0")


def tied_draw(rng):
    """Atoms with repeated magnitudes (either sign) and exact zeros."""
    n = int(rng.integers(1, 60))
    sp = FiniteSpace(tuple(rng.dirichlet(np.ones(n))))
    x = np.round(rng.standard_normal(n), 1) * rng.choice([-1.0, 1.0], n)
    x[rng.random(n) < 0.2] = 0.0
    return sp.rv(x)


def simplex_qp(A, p):
    """Least ``E[(w @ A)^2]`` over the simplex by KKT enumeration: the
    affine minimizer of every support that is affinely independent, kept
    when its weights are nonnegative."""
    k = len(A)
    G = (A * p) @ A.T
    best = math.inf
    for mask in range(1, 2 ** k):
        S = [i for i in range(k) if mask >> i & 1]
        m = len(S)
        kkt = np.block([[2.0 * G[np.ix_(S, S)], np.ones((m, 1))],
                        [np.ones((1, m)), np.zeros((1, 1))]])
        try:
            v = np.linalg.solve(kkt, np.eye(m + 1)[-1])[:m]
        except np.linalg.LinAlgError:
            continue
        if np.all(v >= 0.0):
            best = min(best, float(v @ G[np.ix_(S, S)] @ v))
    return best


def separated_draw(rng):
    """2-5 candidates on 3-8 atoms whose first atom is positive, so that 0
    stays outside their hull."""
    n, k = int(rng.integers(3, 9)), int(rng.integers(2, 6))
    sp = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
    A = rng.uniform(-1.0, 2.0, (k, n))
    A[:, 0] = rng.uniform(0.5, 1.5, k)
    return sp, A


class TestSplitWithBudget:
    def test_level_is_minimal(self):
        sp = FiniteSpace((0.25, 0.25, 0.5))
        X = sp.rv([4.0, 2.0, 1.0])
        phi = PowerFunction(2.0)
        # tails: k=0 -> 0.25*16+0.25*4+0.5 = 5.5, k=1 -> 5, k=2 -> 4, k=4 -> 0
        k, Z, W = split_with_budget(X, phi, 4.5)
        assert k == 2.0
        assert list(Z.values) == [4.0, 0.0, 0.0]
        assert list(W.values) == [0.0, 2.0, 1.0]
        # a smaller budget forces a strictly larger level
        k2, _, _ = split_with_budget(X, phi, 3.0)
        assert k2 == 4.0

    def test_pieces_recompose(self):
        rng = np.random.default_rng(4)
        sp = uniform_space(6)
        X = sp.rv(rng.uniform(-3.0, 3.0, 6))
        k, Z, W = split_with_budget(X, PowerFunction(2.0), 0.5)
        assert np.allclose(Z.x + W.x, X.x)
        assert np.all(np.abs(W.x) <= k + 1e-15)
        assert np.all((np.abs(Z.x) > k) | (Z.x == 0.0))
        assert modular(Z, PowerFunction(2.0), 1.0) <= 0.5

    def test_ample_budget_keeps_everything_above_zero_level(self):
        sp = uniform_space(2)
        X = sp.rv([1.0, -1.0])
        k, Z, W = split_with_budget(X, PowerFunction(2.0), 10.0)
        assert k == 0.0
        assert np.allclose(Z.x, X.x)
        assert np.allclose(W.x, 0.0)

    @pytest.mark.parametrize("name", ["power2", "exp", "sparse"])
    def test_same_level_as_linear_scan(self, name):
        phi = CATALOG[name]
        rng = np.random.default_rng(8)
        for _ in range(60):
            X = tied_draw(rng)
            for budget in (1e-4, 1e-2, 0.1, 0.5, 1.0, 4.0):
                k, Z, W = split_with_budget(X, phi, budget)
                assert k == scan_split_level(X, phi, budget)
                assert np.array_equal(Z.x, np.where(np.abs(X.x) > k, X.x, 0.0))
                assert np.array_equal(W.x, np.where(np.abs(X.x) > k, 0.0, X.x))

    @pytest.mark.parametrize("name", ["power2", "exp"])
    def test_budget_equal_to_an_attained_tail(self, name):
        # the tail at a level equal to the budget fits (<=); one ulp less
        # and the split must move past that level
        phi = CATALOG[name]
        rng = np.random.default_rng(9)
        for _ in range(30):
            X = tied_draw(rng)
            for level in np.unique(np.abs(X.x)):
                budget = tail(X, phi, level)
                if budget == 0.0:
                    continue
                k = split_with_budget(X, phi, budget)[0]
                assert k == scan_split_level(X, phi, budget)
                assert k <= level
                below = np.nextafter(budget, 0.0)
                k2 = split_with_budget(X, phi, below)[0]
                assert k2 == scan_split_level(X, phi, below)
                assert k2 > level

    @settings(max_examples=200)
    @given(name=st.sampled_from(sorted(CATALOG)),
           n=st.one_of(st.integers(1, 30), st.integers(200, 1000)),
           digits=st.sampled_from([None, 0, 1]),
           budget=st.sampled_from([1e-4, 1e-2, 0.125, 0.5, 1.0, 4.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_is_the_masked_bisection(self, name, n, digits, budget, seed):
        # rounded atoms repeat their magnitudes, so levels hold ties
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if digits is not None:
            x = np.round(x, digits)
        X = FiniteSpace(tuple(rng.dirichlet(np.ones(n)))).rv(x)
        phi = CATALOG[name]
        k, Z, W = split_with_budget(X, phi, budget)
        assert k == split_by_masked_bisection(X, phi, budget)
        assert np.array_equal(Z.x, np.where(np.abs(X.x) > k, X.x, 0.0))
        assert np.array_equal(W.x, np.where(np.abs(X.x) > k, 0.0, X.x))

    def test_a_running_tail_on_the_budget_is_summed_exactly(self):
        # the tail at level 0 is 1 + 2^-52; summed from the largest atom
        # down it rounds to 1, the budget, which only the correctly rounded
        # tail puts above it: the split moves past level 0
        X = FiniteSpace((0.5, 0.25, 0.25)).rv([2.0, 2.0 ** -51, -2.0 ** -51])
        k, Z, _ = split_with_budget(X, PowerFunction(1.0), 1.0)
        assert k == 2.0 ** -51
        assert list(Z.values) == [2.0, 0.0, 0.0]

    def test_phi_is_evaluated_once(self, monkeypatch):
        phi = PowerFunction(2.0)
        calls = []
        real = phi._eval
        monkeypatch.setattr(phi, "_eval",
                            lambda t: calls.append(t.shape) or real(t))
        X = uniform_space(250).rv(np.random.default_rng(10).standard_normal(250))
        split_with_budget(X, phi, 0.25)
        assert calls == [(250,)]

    @pytest.mark.parametrize("phi, match", [
        (PowerFunction(3.0), r"modular overflow at atom 1 \(value -1e\+200\)"),
        (PiecewiseLinearFunction([], [1.0], domain_cap=3.0),
         "modular evaluation failed: .*beyond domain cap 3"),
    ])
    def test_a_term_that_is_not_finite_is_named(self, phi, match):
        X = uniform_space(3).rv([1.0, -1e200, 2.0])
        with pytest.raises(NumericFailure, match=match):
            split_with_budget(X, phi, 0.5)

    def test_budget_validation(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            split_with_budget(sp.constant(1.0), PowerFunction(2.0), 0.0)

    def test_a_nan_budget_is_invalid_input(self):
        # nan passed the budget <= 0 check and split at the top level
        X = uniform_space(3).rv([1.0, -2.0, 0.5])
        with pytest.raises(InputError, match="budget must be positive"):
            split_with_budget(X, PowerFunction(2.0), math.nan)


class TestMazurMinNorm:
    def test_opposite_pair_reaches_zero(self):
        sp = uniform_space(2)
        W = sp.rv([1.0, -2.0])
        report = mazur_min_norm([W, -W], PowerFunction(2.0), 1e-9)
        assert report["found"]
        assert report["hull_certificate"]
        assert report["value"] <= 1e-9
        w = np.array(report["weights"])
        assert np.allclose(w, [0.5, 0.5])

    def test_spanning_set_reaches_zero(self):
        sp = uniform_space(2)
        cands = [sp.rv([2.0, 0.0]), sp.rv([-1.0, 1.0]), sp.rv([-1.0, -1.0])]
        report = mazur_min_norm(cands, ExpFunction(), 1e-9)
        assert report["found"]
        assert report["hull_certificate"]

    def test_strictly_positive_candidates_cannot_vanish(self):
        sp = uniform_space(2)
        cands = [sp.rv([1.0, 2.0]), sp.rv([2.0, 1.0])]
        report = mazur_min_norm(cands, PowerFunction(2.0), 1e-6)
        assert not report["found"]
        assert not report["hull_certificate"]
        # the reported value is achieved by the reported weights
        w = np.array(report["weights"])
        mix = sp.rv(w @ np.array([c.x for c in cands]))
        assert luxemburg_norm(mix, PowerFunction(2.0)) == pytest.approx(
            report["value"], rel=1e-6)

    def test_descent_improves_on_uniform_mix(self):
        sp = uniform_space(2)
        cands = [sp.rv([3.0, 0.1]), sp.rv([0.1, 0.1])]
        report = mazur_min_norm(cands, PowerFunction(2.0), 0.0)
        uniform_value = luxemburg_norm(
            sp.rv(0.5 * cands[0].x + 0.5 * cands[1].x), PowerFunction(2.0))
        assert report["value"] < uniform_value

    def test_deterministic_given_seed(self):
        sp = uniform_space(3)
        cands = [sp.rv([1.0, 0.5, 2.0]), sp.rv([0.5, 1.5, 0.1])]
        r1 = mazur_min_norm(cands, PowerFunction(2.0), 0.0)
        r2 = mazur_min_norm(cands, PowerFunction(2.0), 0.0)
        assert r1 == r2

    def test_needs_candidates(self):
        with pytest.raises(InputError):
            mazur_min_norm([], PowerFunction(2.0), 0.0)

    def test_power2_value_is_the_exact_minimum(self):
        # under t^2 the norm is the L2(p) norm: Mazur is the simplex QP
        rng = np.random.default_rng(11)
        for _ in range(60):
            sp, A = separated_draw(rng)
            report = mazur_min_norm([sp.rv(a) for a in A], CATALOG["power2"],
                                    0.0)
            exact = math.sqrt(simplex_qp(A, sp.p))
            assert abs(report["value"] - exact) <= 1e-12 * exact
            assert not report["hull_certificate"]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_lower_bound_is_below_every_combination(self, name):
        phi = CATALOG[name]
        rng = np.random.default_rng(12)
        for _ in range(20):
            sp, A = separated_draw(rng)
            report = mazur_min_norm([sp.rv(a) for a in A], phi, 0.0)
            assert 0.0 < report["lower_bound"] <= report["value"]
            for w in rng.dirichlet(np.ones(len(A)), 10):
                assert report["lower_bound"] <= luxemburg_norm(sp.rv(w @ A),
                                                               phi)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_nested_remainders_and_their_negatives_reach_zero(self, name):
        # the closure command's input: the split tails Z_n and -Z_n
        phi = CATALOG[name]
        rng = np.random.default_rng(13)
        sp = FiniteSpace(tuple(rng.dirichlet(np.ones(40))))
        X = sp.rv(rng.standard_normal(40))
        Z = [split_with_budget(X, phi, 2.0 ** -n)[1] for n in range(1, 5)]
        report = mazur_min_norm(Z + [-z for z in Z], phi, 1e-12)
        assert report["hull_certificate"] and report["found"]
        assert report["value"] <= 1e-12
        assert report["lower_bound"] == 0.0


def geometric_z_list(sp, phi, count):
    """Z_n with modular(Z_n) = 2^-n exactly: indicator heights solved
    against phi on the first atom."""
    from orlicz_lab.norms import phi_inverse
    out = []
    for n in range(1, count + 1):
        h = phi_inverse(phi, 2.0 ** (-n) / sp.p[0])
        vec = np.zeros(sp.n_atoms)
        vec[0] = h
        out.append(sp.rv(vec))
    return out


class TestOrderDominator:
    def test_bounds_and_table(self):
        sp = uniform_space(4)
        phi = PowerFunction(2.0)
        Z_list = geometric_z_list(sp, phi, 5)
        W_list = [sp.constant(2.0 ** (-n)) for n in range(1, 4)]
        x_tilde, checks = order_dominator(Z_list, W_list, phi)
        expect = np.max([np.abs(Z.x) for Z in Z_list], axis=0) + \
            sum(2.0 ** (-n) for n in range(1, 4))
        assert np.allclose(x_tilde.x, expect)
        assert checks["sup_modular"] <= checks["sup_modular_bound"] + 1e-12
        for row in checks["markov_table"]:
            assert row["prob"] <= row["bound"] + 1e-12

    def test_modular_bound_enforced(self):
        sp = uniform_space(2)
        phi = PowerFunction(2.0)
        big = sp.rv([2.0, 2.0])  # modular 4 > 2^-1
        with pytest.raises(BoundViolation) as exc:
            order_dominator([big], [], phi)
        assert exc.value.index == 1

    def test_norm_bound_enforced(self):
        sp = uniform_space(2)
        with pytest.raises(BoundViolation):
            order_dominator([], [sp.constant(1.0)], PowerFunction(2.0))

    def test_needs_input(self):
        with pytest.raises(InputError):
            order_dominator([], [], PowerFunction(2.0))


class TestAsExtraction:
    def test_geometric_errors_pass(self):
        sp = uniform_space(3)
        X = sp.rv([1.0, -1.0, 0.5])
        seq = [X + 2.0 ** (-n) for n in range(1, 12)]
        report = as_extraction(seq, X)
        assert report["converges_as"]
        for row in report["rows"]:
            assert row["capped_sup_expectation"] <= row["bound"] + 1e-12
        assert report["final_error"] == pytest.approx(2.0 ** (-11))

    def test_slow_errors_rejected(self):
        sp = uniform_space(2)
        X = sp.constant(0.0)
        seq = [X + 1.0, X + 1.0]  # second term violates E <= 2^-2
        with pytest.raises(HypothesisViolation):
            as_extraction(seq, X)

    def test_empty_sequence(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            as_extraction([], sp.constant(0.0))
