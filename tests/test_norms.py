import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orlicz_lab import norms
from orlicz_lab.block_sequences import (Block, block_luxemburg_norm,
                                        dual_block_orlicz_norm)
from orlicz_lab.errors import CrossCheckFailure, NumericFailure
from orlicz_lab.finite_model import FiniteSpace, uniform_space
from orlicz_lab.norms import (holder_check, luxemburg_norm, modular,
                              orlicz_norm, phi_inverse)
from orlicz_lab.orlicz_functions import (CATALOG, EntropyConjugateFunction,
                                         EntropyFunction, ExpFunction,
                                         OrliczFunction,
                                         PiecewiseLinearFunction, PowerFunction,
                                         _NumericConjugate, build_sparse_pair,
                                         conjugate, sparse_schedule)


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

    def test_overflow_reports_atom(self):
        X = two_atom_space(0.5).rv([1e200, 0.0])
        with pytest.raises(NumericFailure, match="atom 0"):
            modular(X, PowerFunction(3.0), 1.0)


class TestPhiInverse:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_inverts(self, name):
        phi = CATALOG[name]
        for v in (0.5, 1.0, 4.0):
            t = phi_inverse(phi, v)
            assert abs(float(phi(t)) - v) < 1e-8 * (1.0 + v)

    def test_zero(self):
        assert phi_inverse(ExpFunction(), 0.0) == 0.0


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


def amemiya_objective(k, y_abs, p, psi):
    """``(1 + E[psi(k|Y|)]) / k``, +inf past psi's domain."""
    m = norms._modular_raw(k * y_abs, p, psi, 1.0)
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


def definitional_by_bisection(y_abs, p, phi):
    """Reference definitional Orlicz value: the multiplier found by
    doubling from 1 and bisection to width 1e-14, then the residual
    budget handed along flat segments.  It raises on a linear last piece
    and when the modular stays below 1 at a domain cap."""
    active = y_abs > 0

    def h(mu):
        try:
            x = phi.rderiv_inverse_left(mu * y_abs)
        except NumericFailure:
            return math.inf
        vals = np.asarray(phi(x), dtype=float)
        if np.any(~np.isfinite(vals)):
            return math.inf
        return float(np.sum(p * vals))

    lo, hi = 0.0, 1.0
    for _ in range(1200):
        if h(hi) > 1.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise NumericFailure("multiplier bracket not found")
    for _ in range(120):
        if hi - lo <= 1e-14 * hi:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    mu = lo if lo > 0 else hi * 0.5
    x = phi.rderiv_inverse_left(mu * y_abs)
    budget = 1.0 - float(np.sum(p * np.asarray(phi(x), dtype=float)))
    if budget > 1e-15:
        try:
            x_hi = phi.rderiv_inverse_left(hi * y_abs)
        except NumericFailure:
            x_hi = np.where(active, math.inf, 0.0)
        jump = active & (x_hi > x * (1 + 1e-9) + 1e-300)
        for i in np.where(jump)[0]:
            slope = float(phi.rderiv(x[i]))
            if slope <= 0:
                continue
            d = min(x_hi[i] - x[i], budget / (p[i] * slope))
            x[i] += d
            budget -= p[i] * slope * d
            if budget <= 1e-15:
                break
    return math.fsum((p * x * y_abs).tolist())


# slopes 1 then 2 up to the cap 1.5, where phi is 2: the cheapest second
# segments fill up to the cap before the budget runs out
CAP_BINDS = PiecewiseLinearFunction([1.0], [1.0, 2.0], domain_cap=1.5)
DEFINITIONAL_PHI = {**CATALOG, "power1.5": PowerFunction(1.5, 0.3),
                    "capped": CAP_BINDS}

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

    @pytest.mark.parametrize("cls", [PowerFunction, ExpFunction,
                                     EntropyFunction, PiecewiseLinearFunction])
    def test_no_bisection_on_the_path(self, cls):
        assert cls.orlicz_definitional is not OrliczFunction.orlicz_definitional

    @pytest.mark.parametrize("name", sorted(DEFINITIONAL_PHI))
    @given(atoms=spread_atoms_st)
    def test_matches_the_bisection(self, name, atoms):
        phi = DEFINITIONAL_PHI[name]
        y, p = sorted_atoms(atoms)
        assume(np.any(y > 0))
        if phi.domain_cap is not None:
            # the bisection needs the modular to pass 1 below the cap
            assume(math.fsum(p[y > 0]) * phi(phi.domain_cap) > 1.0)
        ref = definitional_by_bisection(y, p, phi)
        got, _ = phi.orlicz_definitional(y, p)
        assert abs(got - ref) <= 1e-12 * ref

    def test_the_cap_binds(self):
        # atom 3 fills both segments up to the cap (cost .25 + .25),
        # atom 2 its first (cost .5): 0.25*3*1.5 + 0.5*2*1 = 2.125
        # atom 1's first segment is next, at the multiplier 1 / 1
        y, p = np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.5, 0.25])
        value, mu = CAP_BINDS.orlicz_definitional(y, p)
        assert value == pytest.approx(2.125, rel=1e-15)
        assert mu == 1.0
        ref = definitional_by_bisection(y, p, CAP_BINDS)
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

    @pytest.mark.parametrize("name", sorted(LUXEMBURG_PHI))
    @given(atoms=atoms_st)
    def test_certified_bracket(self, name, atoms):
        phi = LUXEMBURG_PHI[name]
        sp, x = space_and_values(atoms)
        x_abs = np.abs(x)
        assume(np.any(x_abs > 0))
        v = luxemburg_norm(sp.rv(x), phi)
        if phi.domain_cap is not None and v == np.max(x_abs) / phi.domain_cap:
            # the cap binds: the norm itself, where the modular is at most 1
            assert norms._modular_raw(x_abs, sp.p, phi, v) <= 1.0
            assert norms._modular_raw(x_abs, sp.p, phi,
                                      v * (1.0 - 1e-10)) == math.inf
        elif phi.luxemburg_closed_form(x_abs, sp.p) is None:
            assert norms._modular_raw(x_abs, sp.p, phi, v) > 1.0
        else:
            assert norms._modular_raw(x_abs, sp.p, phi, v * (1.0 - 1e-10)) > 1.0
        assert norms._modular_raw(x_abs, sp.p, phi, v * (1.0 + 1e-10)) <= 1.0

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
        assert norms._modular_raw(x_abs, sp.p, phi, v * (1.0 - 1e-10)) > 1.0
        assert norms._modular_raw(x_abs, sp.p, phi, v * (1.0 + 1e-10)) <= 1.0

    def test_a_binding_cap_is_the_norm_in_one_evaluation(self, monkeypatch):
        # the modular is +inf below max|x| / cap and at most 1 there, so
        # that is the norm; Newton's method from the right cannot step
        # from +inf and used to bisect down to it (38 evaluations)
        rng = np.random.default_rng([7, 0])
        p = rng.dirichlet(np.full(600, 2.0))
        X = FiniteSpace(tuple(p)).rv(1.5 * rng.standard_normal(600))
        calls = []
        real = norms._modular_raw
        monkeypatch.setattr(norms, "_modular_raw",
                            lambda *args: calls.append(1) or real(*args))
        v = luxemburg_norm(X, CAPPED)
        assert v == X.max_abs() / 2.0 == 2.241185691302481
        assert len(calls) <= 2

    def test_a_norm_past_the_double_range_raises(self):
        # the norm is about 1.9e308: the bracket's upper end overflows
        X = FiniteSpace((0.5, 0.5)).rv([1.7e308, 0.85e308])
        with pytest.raises(NumericFailure, match="double range"):
            luxemburg_norm(X, ExpFunction())


class TestEvaluationBudget:
    """Each norm evaluates phi (and psi) at most 12 times on the draws the
    ``kernels`` benchmark makes; a count, so it does not depend on the
    host.  An entropy Orlicz norm whose first bracket started at 0 used
    to bisect from there, at up to 57 evaluations."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("norm", [luxemburg_norm, orlicz_norm],
                             ids=lambda f: f.__name__)
    def test_at_most_12_evaluations(self, name, norm, monkeypatch):
        calls = []
        real = OrliczFunction.__call__
        monkeypatch.setattr(OrliczFunction, "__call__",
                            lambda self, t: calls.append(1) or real(self, t))
        worst = 0
        for n in (600, 200):
            for seed in range(16):
                rng = np.random.default_rng([seed, 0])
                sp = FiniteSpace(tuple(rng.dirichlet(np.full(n, 2.0))))
                X = sp.rv(1.5 * rng.standard_normal(n))
                Y = sp.rv(rng.standard_normal(n))
                calls.clear()
                norm(X if norm is luxemburg_norm else Y, CATALOG[name])
                worst = max(worst, len(calls))
        assert worst <= 12


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
