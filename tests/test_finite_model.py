import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from orlicz_lab.errors import InputError, SpaceMismatch
from orlicz_lab.finite_model import (
    FiniteSpace,
    RandomVariable,
    _same_space,
    expectation,
    nearest_point,
    pairing,
    read_positions_csv,
    uniform_space,
    write_positions_csv,
)


class TestFiniteSpace:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InputError):
            FiniteSpace((0.5, 0.4))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(InputError):
            FiniteSpace((1.0, 0.0))

    @pytest.mark.parametrize("probabilities", [
        (0.5, math.nan), (math.nan,), (math.nan, 0.5, 0.5), (0.5, math.inf),
    ])
    def test_probabilities_must_be_finite(self, probabilities):
        # a nan sum passed the ``abs(sum - 1) > 1e-12`` check
        with pytest.raises(InputError, match="finite"):
            FiniteSpace(probabilities)

    @pytest.mark.parametrize("n", [0, -3])
    def test_uniform_needs_an_atom(self, n):
        with pytest.raises(InputError, match="at least one atom"):
            uniform_space(n)

    def test_needs_an_atom(self):
        with pytest.raises(InputError, match="nonempty probability vector"):
            FiniteSpace(())

    def test_needs_a_label_per_atom(self):
        with pytest.raises(InputError, match="label count"):
            FiniteSpace((0.5, 0.5), ("a",))

    def test_uniform(self):
        sp = uniform_space(4)
        assert sp.n_atoms == 4
        assert all(abs(p - 0.25) < 1e-15 for p in sp.probabilities)

    @pytest.mark.parametrize("n", [1, 7, 600])
    def test_default_labels_are_the_atom_numbers(self, n):
        p = tuple(np.full(n, 1.0 / n).tolist())
        named = FiniteSpace(p, tuple(map(str, range(n))))
        assert FiniteSpace(p) == named and hash(FiniteSpace(p)) == hash(named)
        assert FiniteSpace(p).labels == named.labels

    def test_constant(self):
        sp = uniform_space(3)
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


class TestArrays:
    """``.p`` and ``.x`` are one read-only array each, built once; the
    tuples beside them are what equality and hashing compare."""

    def test_every_read_shares_one_read_only_array(self):
        sp = FiniteSpace((0.25, 0.75))
        X = sp.rv([1.0, -2.0])
        assert X.x is X.x and sp.p is sp.p
        for a in (X.x, sp.p):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5.0
        assert X.values == (1.0, -2.0) and sp.probabilities == (0.25, 0.75)

    def test_rv_copies_its_input(self):
        sp = uniform_space(3)
        a = np.array([1.0, 2.0, 3.0])
        X = sp.rv(a)
        a[0] = 99.0
        assert X.values == (1.0, 2.0, 3.0)
        assert X.x.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, math.inf, -math.inf, 5e-324, 1],
        np.array([-0.0, 0.0, np.inf, -np.inf, 5e-324, 1.0]),
        np.array([-0.0, 0.0, np.inf, -np.inf, 1e-45, 1.0], dtype=np.float32),
        (True, 0, 2, 3, 2 ** 60 + 1, 0.1),
    ], ids=["list", "float64", "float32", "ints"])
    def test_values_are_the_per_element_conversion(self, values):
        X = uniform_space(6).rv(values)
        expect = tuple(float(v) for v in np.asarray(values, dtype=float))
        assert all(type(v) is float for v in X.values)
        assert [v.hex() for v in X.values] == [v.hex() for v in expect]
        assert [v.hex() for v in X.x.tolist()] == [v.hex() for v in expect]

    def test_equal_tuples_make_equal_spaces(self):
        p = tuple(np.random.default_rng(4).dirichlet(np.ones(7)).tolist())
        a, b = FiniteSpace(p), FiniteSpace(p)
        assert a is not b and a == b and hash(a) == hash(b)
        X, Y = a.rv(range(7)), b.rv(range(7))
        _same_space(X, Y)
        assert X == Y and hash(X) == hash(Y)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda X: pickle.loads(pickle.dumps(X)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, clone):
        X = FiniteSpace((0.25, 0.75), ("u", "v")).rv([3.0, -0.5])
        Y = clone(X)
        assert Y == X and Y.space.labels == ("u", "v")
        for a in (Y.x, Y.space.p):
            assert not a.flags.writeable

    def test_direct_construction_is_rv(self):
        sp = FiniteSpace((0.25, 0.75))
        X = RandomVariable(sp, (3, -0.5))
        assert X == sp.rv([3.0, -0.5])
        assert np.array_equal(X.x, sp.rv([3.0, -0.5]).x)
        assert not X.x.flags.writeable
        with pytest.raises(InputError):
            RandomVariable(sp, (1.0, 2.0, 3.0))


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

    def test_needs_a_data_row(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("atom,probability,value\n")
        with pytest.raises(InputError, match="no data rows"):
            read_positions_csv(path)

    def test_probability_sum_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,probability,value\na,0.5,1.0\nb,0.4,2.0\n")
        with pytest.raises(InputError):
            read_positions_csv(path)

    def test_nan_probability(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,probability,value\na,nan,1.0\nb,0.5,2.0\n")
        with pytest.raises(InputError):
            read_positions_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"atom,probability,value\na,0.5,{value}\nb,0.5,2.0\n")
        with pytest.raises(InputError, match="non-finite value"):
            read_positions_csv(path)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("atom,probability,value\na,0.5,1.0\nb,0.5,oops\n")
        with pytest.raises(InputError):
            read_positions_csv(path)
