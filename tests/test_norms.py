import copy
import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orlicz_lab import norms
from orlicz_lab.block_sequences import (Block, block_luxemburg_norm,
                                        dual_block_orlicz_norm)
from orlicz_lab.closure_lab import split_with_budget
from orlicz_lab.errors import CrossCheckFailure, NumericFailure
from orlicz_lab.finite_model import FiniteSpace, uniform_space
from orlicz_lab.norms import (holder_check, luxemburg_norm, modular,
                              orlicz_norm, phi_inverse)
from orlicz_lab.orlicz_functions import (CATALOG, EntropyConjugateFunction,
                                         EntropyFunction,
                                         ExpConjugateFunction, ExpFunction,
                                         OrliczFunction,
                                         PiecewiseLinearFunction, PowerFunction,
                                         build_sparse_pair, conjugate,
                                         newton_from_right, sparse_schedule)
from orlicz_lab.orlicz_functions import _FSUM_SPLIT, _fsum

import norm_replay
from bisection_oracle import _NumericConjugate, definitional_by_bisection
from kernel_references import (knapsack_by_full_sort, probe_by_finiteness_scan,
                               terms_by_finiteness_scan)


def two_atom_space(p):
    return FiniteSpace((p, 1.0 - p))


def indicator_rv(p, c):
    return two_atom_space(p).rv([c, 0.0])


class TestModular:
    def test_value(self):
        X = indicator_rv(0.25, 2.0)
        assert modular(X, PowerFunction(2.0), 1.0) == 1.0
        assert modular(X, PowerFunction(2.0), 2.0) == 0.25

    def test_lambda_positive(self):
        with pytest.raises(NumericFailure):
            modular(indicator_rv(0.5, 1.0), PowerFunction(2.0), 0.0)

    def test_a_nan_lambda_is_named(self):
        # nan passed the lam <= 0 check and was reported as an overflow
        X = uniform_space(3).rv([1.0, -2.0, 0.5])
        with pytest.raises(NumericFailure, match="requires lam > 0, got nan"):
            modular(X, ExpFunction(), math.nan)

    def test_overflow_reports_atom(self):
        X = two_atom_space(0.5).rv([1e200, 0.0])
        with pytest.raises(NumericFailure, match="atom 0"):
            modular(X, PowerFunction(3.0), 1.0)

    def test_a_sum_past_the_double_range_is_a_numeric_failure(self):
        # every term is finite, but FiniteSpace allows sum(p) = 1 + 1e-12
        # and the terms sum past the largest double: math.fsum raised a
        # bare OverflowError here, and the split's running sum warned
        X = FiniteSpace((0.5 + 1e-13,) * 2).rv([1.7976931348623157e308] * 2)
        match = "modular: the sum of the terms overflows the double range"
        with pytest.raises(NumericFailure, match=match):
            modular(X, PowerFunction(1.0), 1.0)
        with pytest.raises(NumericFailure, match=match):
            split_with_budget(X, PowerFunction(1.0), 0.5)

    # |x|/lam overflows under t^2, and exp* and entropy give NaN at inf;
    # the typed error comes without numpy's warning, an error here
    @pytest.mark.parametrize("x, phi, lam", [
        ([1.0, math.inf], EntropyFunction(), 1.0),
        ([1.0, math.inf], ExpConjugateFunction(), 1.0),
        ([1.0, 1.7e308], PowerFunction(2.0), 0.5)],
        ids=["entropy at inf", "exp* at inf", "t^2 past the range"])
    def test_an_atom_past_the_range_is_named_without_a_warning(self, x, phi,
                                                                lam):
        with pytest.raises(NumericFailure, match="modular overflow at atom 1"):
            modular(uniform_space(2).rv(x), phi, lam)

    def test_the_split_names_that_atom_without_a_warning(self):
        X = uniform_space(2).rv([1.0, math.inf])
        with pytest.raises(NumericFailure, match="modular overflow at atom 1"):
            split_with_budget(X, EntropyFunction(), 0.5)

    def test_a_sum_just_inside_the_double_range_is_summed(self):
        # the terms sum to the largest double, above 2^1023
        X = uniform_space(2).rv([1.7976931348623157e308] * 2)
        assert modular(X, PowerFunction(1.0), 1.0) == 1.7976931348623157e308


def decimal_phi(phi):
    """phi in decimal arithmetic, from its class and parameters."""
    D = decimal.Decimal
    one = D(1)
    if isinstance(phi, PowerFunction):
        c, q = D(phi.coef), D(phi.p)
        return lambda t: c * t ** q
    if isinstance(phi, ExpFunction):
        return lambda t: t.exp() - one
    if isinstance(phi, EntropyFunction):
        return lambda t: (one + t) * (one + t).ln() - t
    if isinstance(phi, ExpConjugateFunction):
        return lambda s: s * s.ln() - s + one if s > one else D(0)
    if isinstance(phi, EntropyConjugateFunction):
        return lambda s: s.exp() - s - one
    edges = [D(0)] + [D(b) for b in phi.breakpoints] + [D(math.inf)]
    slopes = [D(m) for m in phi.slopes]

    def piecewise_linear(t):
        return sum(m * max(min(t, edges[k + 1]) - edges[k], D(0))
                   for k, m in enumerate(slopes))
    return piecewise_linear


def decimal_root(f, v):
    """The t with ``f(t) = v`` for a continuous increasing ``f`` in the
    current decimal context: a power-of-two bracket, then 90 halvings
    (relative width 2**-90), its upper end."""
    hi = decimal.Decimal(1)
    while f(hi) <= v:
        hi *= 2
    while f(hi / 2) > v:
        hi /= 2
    lo = hi / 2
    for _ in range(90):
        mid = (lo + hi) / 2
        if f(mid) > v:
            hi = mid
        else:
            lo = mid
    return hi


INVERSE_PHI = {**CATALOG,
               **{name + "*": conjugate(phi) for name, phi in CATALOG.items()}}


class TestPhiInverse:
    @pytest.mark.parametrize("name", sorted(INVERSE_PHI))
    def test_relative_error_against_the_decimal_root(self, name):
        # 1e-12 relative at v = 10**k, k from -15 to 15; under entropy,
        # exp* and entropy* from k = -7 on, since below that phi's own
        # float evaluation cancels beyond 1e-12.  The bisection's width
        # 1e-12 absolute made log1p(1e-15) 455 times too large
        phi = INVERSE_PHI[name]
        f = decimal_phi(phi)
        first = -7 if name in ("entropy", "exp*", "entropy*") else -15
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for k in range(first, 16):
                v = 10.0 ** k
                got = decimal.Decimal(phi_inverse(phi, v))
                root = decimal_root(f, decimal.Decimal(v))
                assert abs(got - root) <= decimal.Decimal(1e-12) * root, k

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_inverts(self, name):
        phi = CATALOG[name]
        for v in (0.5, 1.0, 4.0):
            t = phi_inverse(phi, v)
            assert abs(float(phi(t)) - v) < 1e-8 * (1.0 + v)

    def test_zero(self):
        assert phi_inverse(ExpFunction(), 0.0) == 0.0

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("v", [-1.0, math.inf, math.nan])
    def test_a_negative_or_non_finite_value_is_named(self, name, v):
        # inf returned 709.78 under exp, and nan failed to find a bracket
        with pytest.raises(NumericFailure, match=f"requires finite v >= 0, "
                                                 f"got {v!r}"):
            phi_inverse(CATALOG[name], v)


class TestLuxemburgNorm:
    def test_indicator_example(self):
        # spec example: X = 2 * 1_A, P(A) = 1/4, phi = t^2 -> norm 1
        X = indicator_rv(0.25, 2.0)
        assert abs(luxemburg_norm(X, PowerFunction(2.0)) - 1.0) < 1e-8

    def test_constant_exp(self):
        sp = uniform_space(3)
        value = luxemburg_norm(sp.constant(1.0), ExpFunction())
        assert abs(value - 1.0 / math.log(2.0)) < 1e-8

    def test_zero(self):
        sp = uniform_space(3)
        assert luxemburg_norm(sp.constant(0.0), ExpFunction()) == 0.0

    def test_randomized_indicator_closed_form(self):
        rng = np.random.default_rng(11)
        fns = [PowerFunction(2.0), PowerFunction(3.0), ExpFunction(),
               EntropyFunction()]
        for _ in range(250):
            p = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.1, 10.0))
            phi = fns[int(rng.integers(len(fns)))]
            X = indicator_rv(p, c)
            expect = c / phi_inverse(phi, 1.0 / p)
            got = luxemburg_norm(X, phi)
            assert abs(got - expect) < 1e-8 * (1.0 + expect)

    def test_homogeneity(self):
        sp = uniform_space(4)
        X = sp.rv([1.0, -2.0, 0.5, 3.0])
        phi = ExpFunction()
        n1 = luxemburg_norm(X, phi)
        n2 = luxemburg_norm(X * 2.5, phi)
        assert abs(n2 - 2.5 * n1) < 1e-8 * n2


class TestPowerClosedForm:
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("coef", [1.0, 0.3, 7.5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_modular_crosses_one_at_the_norm(self, p, coef, scale):
        # E|X|^p at 1e150 is beyond the double range; the norm is not
        rng = np.random.default_rng(17)
        sp = FiniteSpace(tuple(rng.dirichlet(np.ones(9))))
        X = sp.rv(scale * rng.uniform(-3.0, 3.0, 9))
        phi = PowerFunction(p, coef)
        v = luxemburg_norm(X, phi)
        assert math.isfinite(v) and v > 0.0
        assert modular(X, phi, v * (1.0 - 1e-9)) > 1.0
        assert modular(X, phi, v * (1.0 + 1e-9)) <= 1.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_the_lp_norm(self, p):
        rng = np.random.default_rng(23)
        sp = FiniteSpace(tuple(rng.dirichlet(np.ones(12))))
        x = rng.standard_normal(12)
        expect = (2.0 * math.fsum(sp.p * np.abs(x) ** p)) ** (1.0 / p)
        got = luxemburg_norm(sp.rv(x), PowerFunction(p, 2.0))
        assert got == pytest.approx(expect, rel=1e-14)


# atoms as (weight, value) pairs; values are 0 or at least 1e-3 in
# magnitude, so that scaling by |c| >= 1e-3 stays in the normal range
atoms_st = st.lists(
    st.tuples(st.floats(0.01, 1.0),
              st.builds(lambda sign, mag: sign * mag,
                        st.sampled_from([-1.0, 0.0, 1.0]),
                        st.floats(1e-3, 50.0))),
    min_size=1, max_size=8)


def space_and_values(atoms):
    w = np.array([a[0] for a in atoms])
    return FiniteSpace(tuple(w / w.sum())), np.array([a[1] for a in atoms])


def full_size_draw(n, seed, tied):
    """Dirichlet(2) probabilities and normal values, as the ``kernels``
    benchmark draws them; ``tied`` rounds the values to one decimal, so
    many atoms share a value (and some are 0)."""
    rng = np.random.default_rng([seed, 1])
    sp = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
    x = 1.5 * rng.standard_normal(n)
    return sp, np.round(x, 1) if tied else x


class TestSumProperties:
    """The modular is one correctly rounded sum, so it does not depend on
    the order of the atoms; the norm is positively homogeneous."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @given(atoms=atoms_st, lam=st.floats(0.1, 10.0), data=st.data())
    def test_permuting_atoms_changes_no_bit(self, name, atoms, lam, data):
        phi = CATALOG[name]
        sp, x = space_and_values(atoms)
        perm = np.array(data.draw(st.permutations(range(len(atoms)))))
        sp2 = FiniteSpace(tuple(sp.p[perm]))
        X, X2 = sp.rv(x), sp2.rv(x[perm])
        assert modular(X2, phi, lam) == modular(X, phi, lam)
        assert luxemburg_norm(X2, phi) == luxemburg_norm(X, phi)
        assert orlicz_norm(X2, phi) == orlicz_norm(X, phi)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_permuting_600_tied_atoms_changes_no_bit(self, name):
        # the Luxemburg search steers on pairwise sums, which depend on
        # the order of the atoms; it sorts them first, as the Orlicz norm
        # does
        phi = CATALOG[name]
        for seed in range(4):
            sp, x = full_size_draw(600, seed, tied=True)
            perm = np.random.default_rng([seed, 2]).permutation(600)
            X, X2 = sp.rv(x), FiniteSpace(tuple(sp.p[perm])).rv(x[perm])
            assert luxemburg_norm(X2, phi) == luxemburg_norm(X, phi)
            assert orlicz_norm(X2, phi) == orlicz_norm(X, phi)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @given(atoms=atoms_st, sign=st.sampled_from([-1.0, 1.0]),
           c=st.floats(1e-3, 1e3), scale=st.floats(1e-100, 1e100))
    def test_homogeneity(self, name, atoms, sign, c, scale):
        phi = CATALOG[name]
        sp, x = space_and_values(atoms)
        n1 = luxemburg_norm(sp.rv(x), phi)
        n2 = luxemburg_norm(sp.rv(sign * c * x), phi)
        assert abs(n2 - c * n1) <= 1e-9 * c * n1
        # the Orlicz norm solves on |Y| / max|y_i|, so no scale is too
        # far from 1 for its multiplier or its Amemiya check
        o1 = orlicz_norm(sp.rv(x), phi)
        o2 = orlicz_norm(sp.rv(sign * scale * x), phi)
        assert abs(o2 - scale * o1) <= 1e-9 * scale * o1


def modular_raw(x_abs, p, phi, lam):
    """Reference modular: ``E[phi(|X|/lam)]`` as one correctly rounded
    sum, with overflow / beyond-domain reported as +inf."""
    return math.fsum(probe_by_finiteness_scan(x_abs, p, phi, lam)[0].tolist())


def amemiya_objective(k, y_abs, p, psi):
    """``(1 + E[psi(k|Y|)]) / k``, +inf past psi's domain."""
    m = modular_raw(k * y_abs, p, psi, 1.0)
    return (1.0 + m) / k if math.isfinite(m) else math.inf


def amemiya_scan(ks, y_abs, p, psi):
    """``amemiya_objective`` at each k of ``ks``, from one psi call over
    the k x atoms array and a row-wise ``fsum``: a row with an atom past
    psi's domain cap (with the slack its evaluation allows) is +inf, as
    is a row with a term that is not finite."""
    t = np.asarray(ks)[:, None] * y_abs
    rows = np.ones(len(t), dtype=bool)
    if psi.domain_cap is not None:
        rows = np.all(t <= psi.domain_cap * (1 + 1e-12), axis=1)
    vals = np.full(t.shape, math.inf)
    vals[rows] = psi(t[rows])
    return [(1.0 + math.fsum((p * row).tolist())) / k
            if np.all(np.isfinite(row)) else math.inf
            for k, row in zip(ks, vals)]


AMEMIYA_LOGS = np.linspace(-18.0, 18.0, 181)


def amemiya_by_grid(y_abs, p, psi):
    """Reference Amemiya search: a 181-point scan over ``log10 k`` in
    [-18, 18] (``amemiya_scan``), then golden section between the
    neighbours of the best grid point, stopped at width 1e-12."""
    def objective(k):
        return amemiya_objective(k, y_abs, p, psi)

    logs = AMEMIYA_LOGS
    j = int(np.argmin(amemiya_scan([10.0 ** u for u in logs], y_abs, p, psi)))
    a, b = logs[max(j - 1, 0)], logs[min(j + 1, len(logs) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(10.0 ** c), objective(10.0 ** d)
    while abs(b - a) >= 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(10.0 ** c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(10.0 ** d)
    return min(fc, fd)


# psi(t) = 0.1 (t - 1)+ up to its cap 2: the Amemiya objective
# (1 + E psi(k|Y|)) / k falls all the way to the cap, where it is minimal
CAPPED = PiecewiseLinearFunction([1.0], [0.0, 0.1], domain_cap=2.0)


class TestOrliczNorm:
    def test_indicator_formula(self):
        # ||1_A||(Orlicz, wrt phi) = p * phi^{-1}(1/p)
        phi = PowerFunction(2.0)
        for p in (0.1, 0.25, 0.5):
            Y = indicator_rv(p, 1.0)
            expect = p * phi_inverse(phi, 1.0 / p)
            assert abs(orlicz_norm(Y, phi) - expect) < 1e-8 * expect

    def test_spec_examples(self):
        phi = PowerFunction(2.0)
        Y = indicator_rv(0.25, 2.0)
        # sup E[XY] over ||X||_phi <= 1 with Y = 2*1_A, P(A)=1/4:
        # optimal X = 2*1_A, giving E[XY] = 1
        assert abs(orlicz_norm(Y, phi) - 1.0) < 1e-7

    def test_cross_check_random(self):
        rng = np.random.default_rng(3)
        fns = [PowerFunction(2.0), PowerFunction(3.0), ExpFunction(),
               EntropyFunction()]
        for _ in range(40):
            n = int(rng.integers(2, 6))
            probs = rng.uniform(0.1, 1.0, n)
            sp = FiniteSpace(tuple(probs / probs.sum()))
            Y = sp.rv(rng.uniform(-2.0, 2.0, n))
            phi = fns[int(rng.integers(len(fns)))]
            value = orlicz_norm(Y, phi)  # raises CrossCheckFailure on mismatch
            assert value >= 0.0

    def test_sparse_pair_norm(self):
        phi = build_sparse_pair(sparse_schedule(bursts=6))
        Y = indicator_rv(0.25, 1.0)
        value = orlicz_norm(Y, phi)
        assert value > 0.0


def entropy_by_newton(y_abs, p):
    """Reference entropy definitional value: the multiplier by Newton's
    method from the right of ``mu0 = sqrt(2 / E[y**2])`` to width 1e-14,
    every excess and every slope one correctly rounded sum, made anew at
    each point it is asked for."""
    phi = EntropyFunction()

    def excess(mu):
        try:
            x = phi.rderiv_inverse_left(mu * y_abs)
        except NumericFailure:
            return math.inf
        return math.fsum((p * phi(x)).tolist()) - 1.0

    def slope(mu):
        s = mu * y_abs
        with np.errstate(over="ignore"):
            return math.fsum((p * y_abs * s * np.exp(s)).tolist())

    mu0 = math.sqrt(2.0 / math.fsum((p * y_abs ** 2).tolist()))
    mu, _ = newton_from_right(excess, slope, mu0, 1e-14, "no bracket")
    x = phi.rderiv_inverse_left(mu * y_abs)
    return math.fsum((p * (x * y_abs)).tolist())


# slopes 1 then 2 up to the cap 1.5, where phi is 2: the cheapest second
# segments fill up to the cap before the budget runs out
CAP_BINDS = PiecewiseLinearFunction([1.0], [1.0, 2.0], domain_cap=1.5)
DEFINITIONAL_PHI = {**CATALOG, "power1.5": PowerFunction(1.5, 0.3),
                    "capped": CAP_BINDS, "exp*": ExpConjugateFunction(),
                    "entropy*": EntropyConjugateFunction()}

# (weight, value) atoms: ties and zeros from a small set of values, or
# magnitudes spread from 1e-6 to 1e6
spread_atoms_st = st.lists(
    st.tuples(st.floats(0.01, 1.0),
              st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                        st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))),
    min_size=1, max_size=8)


def sorted_atoms(atoms):
    """``(|y|, p)`` in the order ``orlicz_norm`` hands them on."""
    sp, y = space_and_values(atoms)
    order = np.lexsort((sp.p, np.abs(y)))
    return np.abs(y)[order], sp.p[order]


class TestDefinitionalSolvers:
    """Each class solves for its multiplier directly, and finds the value
    the bisection it replaced finds."""

    @pytest.mark.parametrize("name", sorted(DEFINITIONAL_PHI))
    @given(atoms=spread_atoms_st)
    def test_matches_the_bisection(self, name, atoms):
        phi = DEFINITIONAL_PHI[name]
        y, p = sorted_atoms(atoms)
        assume(np.any(y > 0))
        if phi.domain_cap is not None:
            # the bisection needs the modular to pass 1 below the cap
            assume(math.fsum(p[y > 0]) * phi(phi.domain_cap) > 1.0)
        ref, _ = definitional_by_bisection(phi, y, p)
        got, _ = phi.orlicz_definitional(y, p)
        assert abs(got - ref) <= 1e-12 * ref

    def test_entropy_matches_the_newton_on_correctly_rounded_slopes(self):
        # the slope only picks the Newton point: summed pairwise, it moves
        # no multiplier and no norm
        for n in (600, 200, 7, 2):
            for seed in range(10):
                rng = np.random.default_rng([seed, 3])
                sp = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
                Y = sp.rv(10.0 ** rng.uniform(-3.0, 3.0)
                          * rng.standard_normal(n))
                order = np.lexsort((sp.p, np.abs(Y.x)))
                m = float(np.max(np.abs(Y.x)))
                ref = entropy_by_newton(np.abs(Y.x)[order] / m, sp.p[order])
                assert orlicz_norm(Y, EntropyFunction()) == m * ref

    def test_the_cap_binds(self):
        # atom 3 fills both segments up to the cap (cost .25 + .25),
        # atom 2 its first (cost .5): 0.25*3*1.5 + 0.5*2*1 = 2.125
        # atom 1's first segment is next, at the multiplier 1 / 1
        y, p = np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.5, 0.25])
        value, mu = CAP_BINDS.orlicz_definitional(y, p)
        assert value == pytest.approx(2.125, rel=1e-15)
        assert mu == 1.0
        ref, _ = definitional_by_bisection(CAP_BINDS, y, p)
        assert ref == pytest.approx(2.125, rel=1e-12)

    def test_budget_left_at_the_cap(self):
        # phi(1.5) = 2 on a quarter of the mass: every atom ends at the cap
        # with budget left, so no multiplier binds (mu = inf), and the
        # Amemiya objective tends to E|Y| psi'(inf) = E|Y| cap, the value
        y, p = np.array([0.0, 2.0]), np.array([0.75, 0.25])
        assert CAP_BINDS.orlicz_definitional(y, p) == (0.25 * 2.0 * 1.5,
                                                       math.inf)
        assert conjugate(CAP_BINDS).rderiv(math.inf) == CAP_BINDS.domain_cap
        assert orlicz_norm(FiniteSpace((0.75, 0.25)).rv([0.0, 2.0]),
                           CAP_BINDS) == math.fsum(p * y) * 1.5

    # today's bisection raised CrossCheckFailure on each: where the
    # stationarity inverse raises, it handed the residual budget to the
    # smallest |y| first
    @pytest.mark.parametrize("phi, expect", [
        (PowerFunction(1.0), 3.0),
        (PowerFunction(1.0, 2.0), 1.5),
        (PiecewiseLinearFunction([1.0], [1.0, 2.0]), 2.125),
        (PiecewiseLinearFunction([1.0], [0.0, 2.0]), 3.5),
    ])
    def test_linear_last_pieces(self, phi, expect):
        Y = FiniteSpace((0.25, 0.25, 0.5)).rv([1.0, 3.0, 2.0])
        assert orlicz_norm(Y, phi) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("c", [1.0, 2.0, 0.3])
    def test_norms_under_the_conjugate_of_a_linear_function(self, c):
        # psi is 0 up to c and +inf beyond: ||Y||_psi = max|y| / c and
        # its Orlicz norm is the dual one, c E|Y|
        psi = conjugate(PowerFunction(1.0, c))
        Y = FiniteSpace((0.25, 0.25, 0.5)).rv([1.0, -3.0, 2.0])
        assert luxemburg_norm(Y, psi) == 3.0 / c
        assert orlicz_norm(Y, psi) == pytest.approx(2.0 * c, rel=1e-12)

    @pytest.mark.parametrize("c", [1.0, 2.0, 0.3])
    def test_indicator_closed_forms_under_the_conjugate_of_a_linear_function(
            self, c):
        # psi's generalised inverse is c at every v > 0, the end of its
        # flat head at the cap, so the closed forms agree with the norms
        psi = conjugate(PowerFunction(1.0, c))
        for v in (0.5, 1.0, 4.0):
            assert phi_inverse(psi, v) == c
        block = Block(1, 3.0, 0.25, 0.0, 0.25)
        Y = FiniteSpace((0.25, 0.75)).rv([3.0, 0.0])
        assert block_luxemburg_norm(block, psi) == luxemburg_norm(Y, psi)
        assert dual_block_orlicz_norm(block, psi) == \
            pytest.approx(orlicz_norm(Y, psi), rel=1e-12)

    def test_the_fallback_past_the_largest_slope(self):
        # the numeric conjugate of CAPPED (slope 1 up to 0.1, then 2) keeps
        # the bisection; only the largest atom passes slope 2 at the
        # multiplier, so only it takes the residual budget
        Y = FiniteSpace((0.25, 0.25, 0.5)).rv([1.0, 3.0, 2.0])
        assert orlicz_norm(Y, conjugate(CAPPED)) == pytest.approx(1.5625,
                                                                  rel=1e-12)
        assert orlicz_norm(Y, _NumericConjugate(CAPPED)) == \
            pytest.approx(1.5625, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("c", [1e-300, 1e-100, 1e-30, 1e30, 1e100, 1e300])
    def test_far_from_one(self, name, c):
        # the Amemiya search covered log10 k in [-18, 18] only, and the
        # bisection started at mu = 1: both failed far from |y| ~ 1
        Y = FiniteSpace((0.25, 0.25, 0.5)).rv([1.0, 3.0, 2.0])
        phi = CATALOG[name]
        expect = orlicz_norm(Y, phi)
        assert orlicz_norm(Y * c, phi) == pytest.approx(c * expect, rel=1e-9)


class TestAmemiyaAtTheMultiplier:
    """By Lagrange duality the multiplier ``mu`` of the definitional solve
    minimises the Amemiya objective ``(1 + E[psi(k|Y|)]) / k``, so
    ``orlicz_norm`` checks its value by one evaluation at ``k = mu``."""

    @pytest.mark.parametrize("name", sorted(DEFINITIONAL_PHI))
    @given(atoms=spread_atoms_st)
    def test_mu_is_the_grid_minimiser(self, name, atoms):
        phi = DEFINITIONAL_PHI[name]
        y, p = sorted_atoms(atoms)
        assume(np.any(y > 0))
        y = y / np.max(y)  # as orlicz_norm hands them on
        psi = conjugate(phi)
        _, mu = phi.orlicz_definitional(y, p)
        if mu == math.inf:
            got = math.fsum(p * y) * psi.rderiv(math.inf)
        else:
            got = amemiya_objective(mu, y, p, psi)
        ref = amemiya_by_grid(y, p, psi)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("coef", [0.3, 1.0, 7.5])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @given(atoms=atoms_st)
    def test_the_power_multiplier_at_every_scale(self, q, coef, atoms):
        # mu = c q (c E[(y/m)**r])**(-1/r) / m, r = q/(q - 1), so mu
        # scales as 1/m; at atoms near 1e+-150 the grid's range of k and
        # the unscaled powers give out, and the scaled values stand in
        sp, y = space_and_values(atoms)
        y_abs = np.abs(y)
        assume(np.any(y_abs > 0))
        phi = PowerFunction(q, coef)
        psi = conjugate(phi)
        ref = amemiya_by_grid(y_abs, sp.p, psi)
        for scale in (1e-150, 1.0, 1e150):
            value, mu = phi.orlicz_definitional(scale * y_abs, sp.p)
            assert abs(value - scale * ref) <= 1e-12 * scale * ref
            got = amemiya_objective(mu * scale, y_abs, sp.p, psi)
            assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name", sorted(DEFINITIONAL_PHI) + ["CAPPED"])
    @given(atoms=spread_atoms_st)
    @settings(max_examples=20)
    def test_the_grid_scan_is_the_scalar_loop_bit_for_bit(self, name, atoms):
        psi = CAPPED if name == "CAPPED" else conjugate(DEFINITIONAL_PHI[name])
        y, p = sorted_atoms(atoms)
        ks = [10.0 ** u for u in AMEMIYA_LOGS]
        got = amemiya_scan(ks, y, p, psi)
        want = [amemiya_objective(k, y, p, psi) for k in ks]
        assert [v.hex() for v in got] == [float(v).hex() for v in want]

    def test_the_linear_multiplier(self):
        # under 2 t the budget goes to the largest atom, at slope 2 / 3
        y, p = np.array([1.0, 3.0]), np.array([0.5, 0.5])
        assert PowerFunction(1.0, 2.0).orlicz_definitional(y, p) == (1.5,
                                                                     2 / 3)

    def test_the_minimiser_at_the_cap(self):
        # the objective is 0.9 / k + 0.1 up to psi's cap k = 2, +inf beyond:
        # the knapsack's multiplier is that cap, and the value 0.55
        _, mu = conjugate(CAPPED).orlicz_definitional(np.array([1.0]),
                                                      np.array([1.0]))
        assert mu == 2.0
        Y = FiniteSpace((1.0,)).rv([1.0])
        assert abs(orlicz_norm(Y, conjugate(CAPPED)) - 0.55) <= 5e-12 * 0.55

    def test_a_probe_far_past_the_cap(self):
        # at |y| = 1e6 psi's cap sits at k = 2e-6, far left of k = 1
        Y = FiniteSpace((1.0,)).rv([1e6])
        got = orlicz_norm(Y, conjugate(CAPPED))
        ref = amemiya_by_grid(np.array([1e6]), np.array([1.0]), CAPPED)
        assert abs(got - ref) <= 1e-12 * got

    @pytest.mark.parametrize("phi, psi", [
        (ExpFunction(), EntropyConjugateFunction()),
        (CATALOG["sparse"], conjugate(CATALOG["power2"])),
        (PowerFunction(2.0), PowerFunction(2.0, 0.25 * (1.0 + 1e-4))),
    ], ids=["exp/entropy*", "sparse/power2*", "power2/perturbed"])
    def test_a_mismatched_psi_raises(self, phi, psi):
        # phi, as a subclass whose closed-form conjugate is the wrong psi
        wrong = copy.copy(phi)
        wrong.__class__ = type("Mismatched", (type(phi),),
                               {"analytic_conjugate": property(lambda _: psi)})
        assert conjugate(wrong) is psi
        Y = FiniteSpace((0.25, 0.25, 0.5)).rv([1.0, -3.0, 2.0])
        with pytest.raises(CrossCheckFailure,
                           match="disagree beyond 1e-6 relative") as info:
            orlicz_norm(Y, wrong)
        assert "np.float64" not in str(info.value)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_one_evaluation_of_psi(self, name, monkeypatch):
        rng = np.random.default_rng([7, 0])
        p = rng.dirichlet(np.full(600, 2.0))
        Y = FiniteSpace(tuple(p)).rv(rng.standard_normal(600))
        phi = CATALOG[name]
        psi = conjugate(phi)
        calls = []
        real = psi._eval
        monkeypatch.setattr(psi, "_eval",
                            lambda t: calls.append(t.shape) or real(t))
        monkeypatch.setattr(norms, "conjugate", lambda f: psi)
        orlicz_norm(Y, phi)
        assert calls == [(600,)]

    def test_a_multiplier_of_zero_is_a_typed_failure(self):
        # the conjugate of t is 0 up to 1 and +inf beyond; its numeric
        # conjugate's multiplier bisection collapses to 0
        Y = FiniteSpace((0.5, 0.5)).rv([1.0, 2.0])
        with pytest.raises(NumericFailure, match=r"power\(p=1\)\*"):
            orlicz_norm(Y, _NumericConjugate(PowerFunction(1.0)))


LUXEMBURG_PHI = {**CATALOG,
                 **{name + "*": conjugate(phi) for name, phi in CATALOG.items()},
                 "capped": CAPPED,
                 "numeric power2*": _NumericConjugate(PowerFunction(2.0))}


class TestLuxemburgBracket:
    """Without a closed form the norm is the lower end of a certified
    bracket of relative width 1e-10; a closed form is the root itself."""

    @staticmethod
    def assert_certified(phi, sp, x):
        x_abs = np.abs(x)
        v = luxemburg_norm(sp.rv(x), phi)
        if phi.domain_cap is not None and v == np.max(x_abs) / phi.domain_cap:
            # the cap binds: the norm itself, where the modular is at most 1
            assert modular_raw(x_abs, sp.p, phi, v) <= 1.0
            assert modular_raw(x_abs, sp.p, phi,
                               v * (1.0 - 1e-10)) == math.inf
        elif phi.luxemburg_closed_form(x_abs, sp.p) is None:
            assert modular_raw(x_abs, sp.p, phi, v) > 1.0
        else:
            assert modular_raw(x_abs, sp.p, phi, v * (1.0 - 1e-10)) > 1.0
        assert modular_raw(x_abs, sp.p, phi, v * (1.0 + 1e-10)) <= 1.0

    @pytest.mark.parametrize("name", sorted(LUXEMBURG_PHI))
    @given(atoms=atoms_st)
    def test_certified_bracket(self, name, atoms):
        sp, x = space_and_values(atoms)
        assume(np.any(x != 0))
        self.assert_certified(LUXEMBURG_PHI[name], sp, x)

    @pytest.mark.parametrize("name", sorted(LUXEMBURG_PHI))
    def test_certified_bracket_at_full_size(self, name):
        # the search steers on pairwise sums, which at hundreds of atoms
        # often disagree in sign with the correctly rounded sum near the
        # root; the bracket's ends hold for the correctly rounded one
        for n in (600, 200):
            for seed in range(8):
                sp, x = full_size_draw(n, seed, tied=seed % 2 == 1)
                self.assert_certified(LUXEMBURG_PHI[name], sp, x)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("c", [1e-310, 1e-300, 1e-100, 1e100, 1e300])
    def test_far_from_one(self, name, c):
        # Newton runs in v = max|x_i| / lam, from v = 1, so subnormal and
        # huge atoms bracket as atoms near 1 do
        sp = FiniteSpace((0.25, 0.25, 0.5))
        phi = CATALOG[name]
        expect = luxemburg_norm(sp.rv([1.0, 3.0, 2.0]), phi)
        x_abs = c * np.array([1.0, 3.0, 2.0])
        v = luxemburg_norm(sp.rv(x_abs), phi)
        assert v == pytest.approx(c * expect, rel=1e-9)
        assert modular_raw(x_abs, sp.p, phi, v * (1.0 - 1e-10)) > 1.0
        assert modular_raw(x_abs, sp.p, phi, v * (1.0 + 1e-10)) <= 1.0

    def test_a_binding_cap_is_the_norm_in_one_evaluation(self, monkeypatch):
        # the modular is +inf below max|x| / cap and at most 1 there, so
        # that is the norm; Newton's method from the right cannot step
        # from +inf and used to bisect down to it (38 evaluations)
        rng = np.random.default_rng([7, 0])
        p = rng.dirichlet(np.full(600, 2.0))
        X = FiniteSpace(tuple(p)).rv(1.5 * rng.standard_normal(600))
        calls = []
        real = OrliczFunction.__call__
        monkeypatch.setattr(OrliczFunction, "__call__",
                            lambda self, t: calls.append(1) or real(self, t))
        v = luxemburg_norm(X, CAPPED)
        assert v == X.max_abs() / 2.0 == 2.241185691302481
        assert len(calls) == 1

    def test_a_norm_past_the_double_range_raises(self):
        # the norm is about 1.9e308: the bracket's upper end overflows
        X = FiniteSpace((0.5, 0.5)).rv([1.7e308, 0.85e308])
        with pytest.raises(NumericFailure, match="double range"):
            luxemburg_norm(X, ExpFunction())

    @pytest.mark.parametrize("name", ["entropy", "sparse"])
    def test_a_scale_that_underflows_is_zero_without_a_warning(self, name):
        # max|x| / v is 0.0 from v = 2 on: x_abs / 0.0 warned "divide by
        # zero" (an error under this suite's filter); the norm is 0.0
        X = FiniteSpace((0.5, 0.5)).rv([5e-324, 0.0])
        assert luxemburg_norm(X, CATALOG[name]) == 0.0


def budget_draws():
    """The draws the ``kernels`` benchmark makes: ``(X, Y)`` at 600 and
    200 atoms, 16 seeds each."""
    for n in (600, 200):
        for seed in range(16):
            rng = np.random.default_rng([seed, 0])
            sp = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
            X = sp.rv(1.5 * rng.standard_normal(n))
            yield X, sp.rv(rng.standard_normal(n))


class TestEvaluationBudget:
    """Each norm evaluates phi (and psi) at most 10 times on the draws the
    ``kernels`` benchmark makes (12 for an Orlicz norm under exp* and
    entropy*), and at no point twice; a count, so it
    does not depend on the host.  An entropy Orlicz norm whose first
    bracket started at 0 used to bisect from there, at up to 57
    evaluations, and each Newton search evaluated the end of its first
    bracket twice, at up to 11."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = OrliczFunction.__call__
        monkeypatch.setattr(
            OrliczFunction, "__call__",
            lambda self, t: calls.append(np.asarray(t).tobytes())
            or real(self, t))
        return calls

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_norm],
                             ids=lambda f: f.__name__)
    def test_at_most_10_evaluations(self, name, norm, calls):
        worst = 0
        for X, Y in budget_draws():
            calls.clear()
            norm(X if norm is luxemburg_norm else Y, CATALOG[name])
            worst = max(worst, len(calls))
        assert worst <= 10

    @pytest.mark.parametrize("name", ["exp", "entropy"])
    def test_a_conjugate_multiplier_takes_at_most_12_evaluations(self, name,
                                                                 calls):
        # orlicz_norm under exp* and entropy* solved its multiplier by
        # the base class's bisection, at about 52 evaluations; Newton's
        # method takes at most 12, the Amemiya check's one included
        psi = conjugate(CATALOG[name])
        worst = 0
        for _, Y in budget_draws():
            calls.clear()
            orlicz_norm(Y, psi)
            worst = max(worst, len(calls))
        assert worst <= 12

    @pytest.mark.parametrize("name, norm", [
        ("exp", luxemburg_norm), ("entropy", luxemburg_norm),
        ("sparse", luxemburg_norm), ("entropy", orlicz_norm)],
        ids=lambda v: getattr(v, "__name__", v))
    def test_no_point_is_evaluated_twice(self, name, norm, calls):
        # phi's argument is |x| / lam (exp(mu |y|) - 1 for the entropy
        # multiplier), so a repeated argument is a repeated point
        for X, Y in budget_draws():
            calls.clear()
            norm(X if norm is luxemburg_norm else Y, CATALOG[name])
            assert len(set(calls)) == len(calls)

    def test_a_cap_that_does_not_bind_is_not_evaluated_again(self, calls):
        # 4 (t - 1)+ up to its cap 2: the modular is 2 at v = m / lam = 2,
        # the cap, and the doubling from v = 1 ends there
        phi = PiecewiseLinearFunction([1.0], [0.0, 4.0], domain_cap=2.0)
        luxemburg_norm(FiniteSpace((0.5, 0.5)).rv([1.0, 0.5]), phi)
        assert len(set(calls)) == len(calls)


class TestNonFiniteAtoms:
    """A nan or infinite atom has no norm.  Each norm names the atom in a
    NumericFailure; they returned nan or raised ZeroDivisionError,
    IndexError or a misleading CrossCheckFailure, by phi."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_norm],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_names_the_atom(self, name, norm, value):
        X = FiniteSpace((0.25, 0.25, 0.5), ("a", "b", "c")).rv([1.0, value, 0.0])
        with pytest.raises(NumericFailure, match="on atom b is not finite"):
            norm(X, CATALOG[name])


class TestHolder:
    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        fns = [PowerFunction(2.0), ExpFunction(), EntropyFunction()]
        for _ in range(60):
            n = int(rng.integers(2, 6))
            probs = rng.uniform(0.1, 1.0, n)
            sp = FiniteSpace(tuple(probs / probs.sum()))
            X = sp.rv(rng.uniform(-3.0, 3.0, n))
            Y = sp.rv(rng.uniform(-3.0, 3.0, n))
            phi = fns[int(rng.integers(len(fns)))]
            lhs, rhs, holds = holder_check(X, Y, phi)
            assert holds, (lhs, rhs)


class TestNormReplay:
    def test_norms_and_splits_are_the_fixture_bit_for_bit(self):
        # every Luxemburg and Orlicz norm under the CATALOG functions and
        # their conjugates, and every split level and tail, by float.hex
        expected = json.loads(norm_replay.FIXTURE.read_text())
        assert len(expected) == 340
        got = norm_replay.replay()
        assert got.keys() == expected.keys()
        for key, want in expected.items():
            assert got[key] == want, key

    def test_the_fixture_reaches_every_branch_of_the_probe(self, monkeypatch):
        # each probe's terms are all finite, or phi raises, or some term
        # is inf (no kernel gives -inf, so nothing else makes the sum
        # not finite on these inputs)
        real, seen = norms._probe, set()

        def spy(t, p, phi):
            terms, s = real(t, p, phi)
            try:
                vals = phi(t)
            except NumericFailure:
                seen.add("raises")
            else:
                seen.add("finite" if np.isfinite(vals).all() else "inf")
            return terms, s

        monkeypatch.setattr(norms, "_probe", spy)
        norm_replay.replay()
        assert seen == {"finite", "raises", "inf"}


#: The functions the probe properties draw: the catalog and its
#: conjugates (exp* and entropy give NaN at inf), t, and t capped at 1
#: (the conjugate of t) and at 1.5.
PROBE_FUNCTIONS = (*CATALOG.values(), *map(conjugate, CATALOG.values()),
                   PowerFunction(1.0), conjugate(PowerFunction(1.0)),
                   PiecewiseLinearFunction([], [1.0], domain_cap=1.5))


@st.composite
def probe_draws(draw):
    """``(x, p, phi, lam)``: signed atoms on up to 300 atoms whose
    probabilities sum to 1 or a hair above, under one of
    ``PROBE_FUNCTIONS``, at ``lam`` 1, 0.5 or 3.  Among ordinary values
    they may hold zeros of either sign, ties, values where phi
    overflows, inf (where exp* and entropy give NaN), values just past a
    domain cap, or the largest double on every atom, whose terms under
    t are finite and sum past it."""
    phi = draw(st.sampled_from(PROBE_FUNCTIONS))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.dirichlet(np.ones(n)) * draw(st.sampled_from([1.0, 1.0 + 1e-13]))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2, n)
    some = rng.random(n) < 0.3
    kind = draw(st.sampled_from(["plain", "zeros", "ties", "overflow", "inf",
                                 "past cap", "largest"]))
    if kind == "zeros":
        x[some] = rng.choice([0.0, -0.0], n)[some]
    elif kind == "ties":
        x = np.round(x, 0)
    elif kind == "overflow":
        x[some] = 10.0 ** rng.integers(100, 309, n)[some]
    elif kind == "inf":
        x[rng.integers(n)] = math.inf
    elif kind == "past cap":
        past = 1.0 + 2.0 ** rng.integers(-45, -30, n)
        x[some] = rng.choice([1.0, 1.5]) * past[some]
    elif kind == "largest":
        x[:] = 1.7976931348623157e308
    x *= rng.choice([-1.0, 1.0], n)
    return x, p, phi, draw(st.sampled_from([1.0, 0.5, 3.0]))


class TestProbe:
    """``norms._probe`` and ``norms._terms`` decide from their sum what
    the scan for terms that are not finite decided before it
    (``kernel_references``), bit for bit."""

    # the probe may be given |x| / lam = inf, where exp* and entropy warn
    # as they give NaN, alike on both sides: the norms' callers never
    # give it one (their atoms are finite and their points at most 1e300)
    @settings(max_examples=400)
    @given(probe_draws())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_the_probe_is_the_scan(self, draw):
        x, p, phi, lam = draw
        t = np.abs(x)
        terms, s = norms._probe(t / lam, p, phi)
        want_terms, want_s = probe_by_finiteness_scan(t, p, phi, lam)
        if want_s == math.inf:  # both take the inf path
            assert s == math.inf and [v.hex() for v in terms.tolist()] \
                == [math.inf.hex()]
        else:
            assert s.hex() == want_s.hex()
            assert [v.hex() for v in terms.tolist()] \
                == [v.hex() for v in want_terms.tolist()]

    def test_a_sum_past_the_double_range_takes_the_inf_path(self):
        # finite terms whose pairwise sum overflows, without numpy's
        # overflow warning (an error under this suite's filter)
        t, p = np.full(2, 1.7976931348623157e308), np.full(2, 0.5 + 1e-13)
        terms, s = norms._probe(t, p, PowerFunction(1.0))
        assert s == math.inf and terms.tolist() == [math.inf]

    @settings(max_examples=400)
    @given(probe_draws())
    def test_the_terms_are_the_scan(self, draw):
        # the library's terms come out under the suite's warning filter
        x, p, phi, lam = draw
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = terms_by_finiteness_scan(x, p, phi, lam)
        except NumericFailure as exc:
            with pytest.raises(NumericFailure) as got:
                norms._terms(x, p, phi, lam)
            assert str(got.value) == str(exc)
            return
        try:
            math.fsum(want.tolist())
        except OverflowError:  # the one change: a typed error
            with pytest.raises(NumericFailure,
                               match="sum of the terms overflows"):
                norms._terms(x, p, phi, lam)
            return
        got = norms._terms(x, p, phi, lam)
        assert [v.hex() for v in got.tolist()] \
            == [v.hex() for v in want.tolist()]


def ulps_from(level, k):
    """The float ``k`` steps of one ulp from ``level``."""
    for _ in range(abs(k)):
        level = math.nextafter(level, math.copysign(math.inf, k))
    return level


@st.composite
def near_level(draw):
    """``(terms, level)``: nonnegative terms whose exact sum is within a
    few ulps of ``level = 2^-e``.  The terms split ``level`` into integer
    multiples of ``2^-(e + K)``, each at most 2^53 of them, so that they
    sum to it exactly (up to underflow); jittered terms move by a few
    ulps each, and subnormal terms may ride along."""
    n = draw(st.integers(1, 1000))
    e = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 10, 52, 53]),
                       st.integers(0, 60), st.integers(1000, 1074)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K = 53 + n.bit_length()
    parts = [min(int(v), 2 ** 53)
             for v in rng.dirichlet(np.ones(n)) * 2.0 ** K]
    short = 2 ** K - sum(parts)
    for i in range(n):  # hand out the rest within each part's 2^53
        give = min(short, 2 ** 53 - parts[i])
        parts[i] += give
        short -= give
    terms = [math.ldexp(v, -(e + K)) for v in parts]
    if draw(st.booleans()):
        terms = [ulps_from(t, int(j)) if t > 0.0 else t
                 for t, j in zip(terms, rng.integers(-3, 4, n))]
    if draw(st.booleans()):
        extra = draw(st.sampled_from([5e-324, 2.0 ** -1060, 2.0 ** -1022]))
        terms += [extra] * draw(st.integers(1, 3))
    return np.array(terms), math.ldexp(1.0, -e)


@pytest.fixture
def fsum_calls(monkeypatch):
    """The length of each list that ``math.fsum`` sums."""
    calls = []
    real = math.fsum
    monkeypatch.setattr(math, "fsum",
                        lambda xs: calls.append(len(xs)) or real(xs))
    return calls


class TestRoundingFilter:
    """``norms._exceeds(terms, np.sum(terms), level)`` is exactly
    ``math.fsum(terms) > level``, and calls ``math.fsum`` only where the
    pairwise sum is within the rounding bound of ``level``."""

    @settings(max_examples=400)
    @given(near_level())
    def test_decides_as_fsum_decides(self, case):
        # at level 2^-e and up to 4 ulps either side of it, and at the
        # pairwise and the correctly rounded sum and one ulp either side
        terms, level = case
        s, exact = float(np.sum(terms)), math.fsum(terms.tolist())
        levels = {ulps_from(v, k) for v, ks in ((level, range(-4, 5)),
                                               (s, (-1, 0, 1)),
                                               (exact, (-1, 0, 1)))
                  for k in ks}
        for v in levels:
            assert norms._exceeds(terms, s, v) == (exact > v), v

    @pytest.mark.parametrize("terms, level", [
        ([1.0], 1.0),
        ([1.0], math.nextafter(1.0, 0.0)),
        ([0.5, 0.5], 1.0),
        ([2.0 ** -4] * 8, 0.5),
        ([5e-324] * 3, 1e-323),
        ([5e-324] * 3, 1.5e-323),
        ([1.0, 2.0 ** -53, 2.0 ** -53], 1.0),
        ([0.0, 0.0], 0.0),
    ])
    def test_ties_and_near_ties(self, terms, level):
        terms = np.array(terms)
        assert norms._exceeds(terms, float(np.sum(terms)), level) \
            == (math.fsum(terms.tolist()) > level)

    @pytest.mark.parametrize("terms, level, expect", [
        # the pairwise sum rounds 1 + 2^-52 down to 1: a tie it cannot
        # decide, which the correctly rounded sum puts above 1
        ([1.0, 2.0 ** -53, 2.0 ** -53], 1.0, True),
        ([0.5, 0.5], 1.0, False),
        ([math.inf, 1.0], 1.0, True),
        ([math.inf, 1.0], math.inf, False),
    ])
    def test_a_tie_falls_back_to_fsum(self, terms, level, expect, fsum_calls):
        terms = np.array(terms)
        assert norms._exceeds(terms, float(np.sum(terms)), level) is expect
        assert fsum_calls == [len(terms)]

    @pytest.mark.parametrize("terms, level, expect", [
        ([0.25, 0.25], 1.0, False),
        ([0.75, 0.5], 1.0, True),
        ([1e-3] * 1000, 1.0 + 1e-9, False),
        ([1e-3] * 1000, 1.0 - 1e-9, True),
    ])
    def test_a_clear_case_does_not_call_fsum(self, terms, level, expect,
                                             fsum_calls):
        terms = np.array(terms)
        assert norms._exceeds(terms, float(np.sum(terms)), level) is expect
        assert fsum_calls == []

    def test_a_nan_sum_falls_back_to_fsum(self, fsum_calls):
        assert norms._exceeds(np.array([1.0]), math.nan, 0.5) is True
        assert fsum_calls == [1]


def fsum_outcome(call, a):
    """``call(a)``'s float.hex, or the type of the error it raised."""
    try:
        return call(a).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@st.composite
def sum_terms(draw):
    """A float array on either side of ``_FSUM_SPLIT`` terms: signed
    terms of wide range; two large terms that cancel, so that the sum
    is far below the largest term; nonnegative terms whose exact sum is
    at or a few ulps from a power of two (``near_level``); a term with
    half an ulp of it beside pairs that cancel exactly, a tie that a
    tiny term may break; subnormals, alone or beside normal terms;
    zeros of either sign; and inf, NaN or terms near the overflow,
    which ``_fsum`` leaves to ``math.fsum``."""
    kind = draw(st.sampled_from(["wide", "cancel", "level", "tie",
                                 "subnormal", "zeros", "special"]))
    if kind == "level":
        return draw(near_level())[0]
    n = draw(st.one_of(st.integers(1, 30),
                       st.integers(_FSUM_SPLIT - 2, _FSUM_SPLIT + 2),
                       st.integers(_FSUM_SPLIT, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 2.0 ** int(rng.integers(-60, 60))
    if kind == "wide":
        a = rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
    elif kind == "cancel":
        a = np.concatenate(([scale, -scale], rng.standard_normal(n)
                            * scale * 2.0 ** rng.integers(-60, -20, n)))[:n]
    elif kind == "tie":
        x = float(rng.standard_normal()) * scale
        v = rng.standard_normal(n // 2) * scale
        a = np.concatenate(([x, math.ulp(x) / 2], v, -v))[:n]
        if draw(st.booleans()):
            a[-1] = draw(st.sampled_from([1.0, -1.0])) * math.ulp(x) / 2 ** 20
    elif kind == "subnormal":
        a = rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
        if draw(st.booleans()):
            a[0] = rng.standard_normal()
    elif kind == "zeros":
        a = rng.choice([0.0, -0.0], n)
        if draw(st.booleans()):
            a[0] = rng.standard_normal()
    else:
        a = rng.standard_normal(n) * scale
        a[rng.integers(n)] = draw(st.sampled_from(
            [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 2.0 ** 900]))
    return rng.permutation(a) if draw(st.booleans()) else a


class TestCorrectlyRoundedSum:
    """``_fsum(a)`` is ``math.fsum(a.tolist())`` bit for bit, and from
    ``_FSUM_SPLIT`` terms on it needs ``math.fsum`` only where the
    error-free split cannot tell the correctly rounded sum."""

    @settings(max_examples=600)
    @given(sum_terms())
    def test_equals_math_fsum(self, a):
        assert fsum_outcome(_fsum, a) == \
            fsum_outcome(lambda b: math.fsum(b.tolist()), a)

    def test_a_sum_past_the_tie_below_a_power_of_two(self):
        # the high parts sum to 2^20 - 1 and the low parts to 1 - 2^-34:
        # -2^-90 is lost in them, in any order, so the two sums round to
        # 2^20 at the tie 2^20 - 2^-34, half the gap below 2^20, while
        # the exact sum lies past it; within half math.ulp(2^20) of the
        # split's sum, but not within half the gap below it
        a = np.array([2.0 ** 44, -2.0 ** 44, 2.0 ** 20, 0.75,
                      -0.75 - 2.0 ** -34, -2.0 ** -90] + [0.0] * 234)
        assert _fsum(a) == math.fsum(a.tolist()) \
            == math.nextafter(2.0 ** 20, 0.0)

    def test_a_low_sum_that_rounds_past_a_tie(self):
        # the exact sum is the tie 2^20 - 1/4 + 2^-34, which rounds to
        # the even 2^20 - 1/4; the low parts' pairwise sum rounds
        # -1/2 - 2^-54 to even, so the split's sum lands a hair past the
        # tie, with a residual below half an ulp, but not below it
        # plus the bound on the low parts' rounding
        a = np.array([2.0 ** 44, -2.0 ** 44, 2.0 ** 20,
                      float.fromhex("0x1.0000000100001p-2"),
                      float.fromhex("-0x1.0000000000001p-2"), -0.25]
                     + [0.0] * 234)
        assert _fsum(a) == math.fsum(a.tolist()) == 2.0 ** 20 - 0.25

    def test_a_long_sum_is_split(self, fsum_calls):
        rng = np.random.default_rng([31, 0])
        for n in (_FSUM_SPLIT, 600, 3000):
            terms = rng.dirichlet(np.ones(n)) * rng.random(n)
            _fsum(terms)
        assert fsum_calls == []
        _fsum(terms[:_FSUM_SPLIT - 1])
        assert fsum_calls == [_FSUM_SPLIT - 1]


def knapsack_phi():
    """The piecewise-linear functions whose knapsack is checked: the
    sparse pair, the conjugate of ``t`` (every pair fills, ``mu = inf``)
    and ``CAP_BINDS``."""
    sparse = CATALOG["sparse"]
    return {"sparse": sparse, "sparse*": conjugate(sparse),
            "linear*": conjugate(PowerFunction(1.0)), "capped": CAP_BINDS}


class TestKnapsackHead:
    """The piecewise-linear knapsack sorts only the head of its pairs
    that it fills, and finds the full sort's value and multiplier bit for
    bit."""

    @settings(max_examples=150)
    @given(name=st.sampled_from(sorted(knapsack_phi())),
           n=st.one_of(st.integers(1, 40), st.integers(200, 3000)),
           digits=st.sampled_from([None, 0, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_is_the_full_sort(self, name, n, digits, seed):
        # rounded atoms repeat their magnitudes, so ratios tie
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if digits is not None:
            y = np.round(y / np.max(np.abs(y)) * 4.0, digits)
        assume(np.any(y != 0.0))
        Y = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0)))).rv(y)
        y_abs, p, m = Y.sorted_abs
        phi = knapsack_phi()[name]
        got = phi.orlicz_definitional(y_abs / m, p)
        want = knapsack_by_full_sort(phi, y_abs / m, p)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @pytest.mark.parametrize("n, heads", [(600, [256]),
                                          (3000, [256, 1024])])
    def test_sorts_a_head_widened_fourfold(self, n, heads, monkeypatch):
        # at 600 atoms the fill (about 150 of 7800 pairs) fits the first
        # head; at 3000 (about 780) the second
        sizes = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw:
                            sizes.append(len(a)) or real(a, **kw))
        rng = np.random.default_rng([31, n])
        Y = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0)))).rv(
            rng.standard_normal(n))
        y_abs, p, m = Y.sorted_abs
        CATALOG["sparse"].orlicz_definitional(y_abs / m, p)
        assert sizes == heads

    def test_a_ratio_past_the_double_range_is_inf_without_a_warning(self):
        # the last slope 2**78 over the atom 1e-300 overflowed with
        # "overflow encountered in divide" (an error under this suite's
        # filter); those pairs sort last, and the norm is the large atom's
        Y = FiniteSpace((0.5, 0.5)).rv([1.0, 1e-300])
        assert orlicz_norm(Y, CATALOG["sparse"]) == 1.0


class TestSortedView:
    """Each variable's atoms are sorted by ``(|x_i|, p_i)`` once, into
    read-only arrays that every norm of it reads."""

    def draw(self):
        rng = np.random.default_rng([28, 0])
        p = rng.dirichlet(np.full(200, 2.0))
        x = np.round(rng.standard_normal(200), 1)  # ties in |x|
        return FiniteSpace(tuple(p)).rv(x)

    def test_ten_norms_sort_once(self, monkeypatch):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: calls.append(1) or real(keys))
        X = self.draw()
        for phi in CATALOG.values():
            luxemburg_norm(X, phi)
            orlicz_norm(X, phi)
        assert len(calls) == 1

    def test_the_view_is_read_only(self):
        X = self.draw()
        x_abs, p, m = X.sorted_abs
        assert X.sorted_abs[0] is x_abs
        for a in (x_abs, p):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5.0
        assert m == X.max_abs() and x_abs.tolist() == sorted(x_abs.tolist())

    def test_a_permuted_copy_has_the_same_norms(self):
        X = self.draw()
        perm = np.random.default_rng([28, 1]).permutation(X.space.n_atoms)
        space = FiniteSpace(tuple(X.space.p[perm]),
                            tuple(X.space.labels[i] for i in perm))
        Xp = space.rv(X.x[perm])
        for name, phi in CATALOG.items():
            for f in (phi, conjugate(phi)):
                for norm in (luxemburg_norm, orlicz_norm):
                    assert norm(Xp, f).hex() == norm(X, f).hex(), name
