import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from orlicz_lab.errors import InputError, SpaceMismatch
from orlicz_lab.finite_model import (
    FiniteSpace,
    expectation,
    nearest_point,
    order_convergence_check,
    pairing,
    read_positions_csv,
    uniform_space,
    write_positions_csv,
)
from orlicz_lab.orlicz_functions import PowerFunction


class TestFiniteSpace:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InputError):
            FiniteSpace((0.5, 0.4))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(InputError):
            FiniteSpace((1.0, 0.0))

    def test_uniform(self):
        sp = uniform_space(4)
        assert sp.n_atoms == 4
        assert all(abs(p - 0.25) < 1e-15 for p in sp.probabilities)

    def test_indicator_and_constant(self):
        sp = uniform_space(3)
        ind = sp.indicator([0, 2])
        assert list(ind.values) == [1.0, 0.0, 1.0]
        assert list(sp.constant(2.5).values) == [2.5] * 3


class TestRandomVariable:
    def test_arithmetic(self):
        sp = uniform_space(2)
        X = sp.rv([1.0, -2.0])
        Y = sp.rv([0.5, 0.5])
        assert list((X + Y).values) == [1.5, -1.5]
        assert list((X - Y).values) == [0.5, -2.5]
        assert list((X * 2).values) == [2.0, -4.0]
        assert list((-X).values) == [-1.0, 2.0]
        assert list((X + 1.0).values) == [2.0, -1.0]
        assert list(X.abs().values) == [1.0, 2.0]
        assert X.max_abs() == 2.0

    def test_space_mismatch(self):
        X = uniform_space(2).rv([1.0, 2.0])
        Y = uniform_space(2).rv([1.0, 2.0])
        Z = FiniteSpace((0.5, 0.5), ("u", "v")).rv([1.0, 2.0])
        assert list((X + Y).values) == [2.0, 4.0]  # equal spaces interoperate
        with pytest.raises(SpaceMismatch):
            X + Z

    def test_expectation_and_pairing(self):
        sp = FiniteSpace((0.25, 0.75))
        X = sp.rv([4.0, 0.0])
        Y = sp.rv([2.0, 1.0])
        assert expectation(X) == 1.0
        assert pairing(X, Y) == 2.0


@st.composite
def dyadic_hulls(draw):
    """2-8 points with quarter-integer atom values in 1-7 dimensions, and
    probabilities from small integer weights; 30% hold a point and its
    negative, whose hull passes through 0."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(2, 8))
    value = st.integers(-12, 12).map(lambda v: v / 4.0)
    P = np.array([[draw(value) for _ in range(n)] for _ in range(k)])
    if draw(st.integers(0, 9)) < 3:
        P[1] = -P[0]
    weights = np.array([draw(st.integers(1, 4)) for _ in range(n)], float)
    return P, weights / weights.sum()


def in_hull_by_lp(P, p):
    """HiGHS feasibility of ``w @ P = 0, w >= 0, sum w = 1``."""
    k, n = P.shape
    res = linprog(np.zeros(k), A_eq=np.vstack([P.T, np.ones((1, k))]),
                  b_eq=np.concatenate([np.zeros(n), [1.0]]),
                  bounds=[(0, None)] * k, method="highs")
    return res.status == 0


class TestNearestPoint:
    @settings(max_examples=300)
    @given(hull=dyadic_hulls())
    def test_decides_membership_as_the_lp(self, hull):
        P, p = hull
        w, x, margin = nearest_point(P, p)
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        assert np.array_equal(x, w @ P)
        assert (margin <= 0.0) == in_hull_by_lp(P, p)
        if margin > 0.0:
            # x separates: a strictly positive margin on every point
            assert np.all(P @ (p * x) > 0.0)
        else:
            # the member's combination has norm at most rounding
            norm = np.sqrt(p @ (x * x))
            top = np.sqrt(np.max((P * P) @ p))
            assert norm <= 4.0 * (P.shape[1] + 2) * np.finfo(float).eps * top

    def test_the_distance_of_a_separated_point(self):
        # conv{(1, 1), (1, -1)} under uniform p: nearest point (1, 0)
        w, x, margin = nearest_point([[1.0, 1.0], [1.0, -1.0]], [0.5, 0.5])
        assert np.allclose(w, [0.5, 0.5], rtol=0.0, atol=1e-15)
        assert np.allclose(x, [1.0, 0.0], rtol=0.0, atol=1e-15)
        # E[x P_k] = 1/2 on both points, less the rounding floor
        assert 0.5 - 1e-14 < margin < 0.5


class TestOrderConvergence:
    def test_converging_family(self):
        sp = uniform_space(3)
        X = sp.rv([1.0, 2.0, 3.0])
        family = [X + 2.0 ** (-n) for n in range(1, 40)]
        report = order_convergence_check(family, X)
        assert report["converges_as"]
        assert report["order_bounded"]
        assert report["final_error"] < 1e-9

    def test_dominator_norm(self):
        sp = uniform_space(2)
        X = sp.rv([1.0, 1.0])
        report = order_convergence_check([X, X], X, phi=PowerFunction(2.0))
        assert abs(report["dominator_norm"] - 1.0) < 1e-8

    def test_empty_sequence(self):
        sp = uniform_space(2)
        with pytest.raises(InputError):
            order_convergence_check([], sp.constant(0.0))


class TestPositionsCsv:
    def test_round_trip(self, tmp_path):
        sp = FiniteSpace((0.25, 0.75), ("a", "b"))
        X = sp.rv([2.0, -0.5])
        path = tmp_path / "pos.csv"
        write_positions_csv(path, X)
        Y = read_positions_csv(path)
        assert Y.space.labels == ("a", "b")
        assert list(Y.values) == [2.0, -0.5]
        assert list(Y.space.probabilities) == [0.25, 0.75]

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,prob,value\na,1.0,2.0\n")
        with pytest.raises(InputError):
            read_positions_csv(path)

    def test_probability_sum_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,probability,value\na,0.5,1.0\nb,0.4,2.0\n")
        with pytest.raises(InputError):
            read_positions_csv(path)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,probability,value\na,0.5,1.0\nb,0.5,oops\n")
        with pytest.raises(InputError):
            read_positions_csv(path)
