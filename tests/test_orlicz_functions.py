import decimal
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_lab.errors import (InputError, InvalidSchedule, NumericFailure,
                               WitnessNotFound)
from orlicz_lab.finite_model import FiniteSpace
from orlicz_lab.norms import orlicz_norm
from orlicz_lab.orlicz_functions import (
    CATALOG,
    EntropyConjugateFunction,
    EntropyFunction,
    ExpConjugateFunction,
    ExpFunction,
    OrliczFunction,
    PiecewiseLinearFunction,
    PiecewiseSlopeSchedule,
    PowerFunction,
    build_sparse_pair,
    conjugate,
    conjugate_value,
    delta2_witnesses,
    newton_from_right,
    parse_phi_spec,
    phi_spec_string,
    sparse_schedule,
    young_check,
)
from orlicz_lab.orlicz_functions import _geometric_table, _scan_grid

from bisection_oracle import _NumericConjugate, definitional_by_bisection
from kernel_references import entropy_slope_inverse_by_where


def grid_conjugate(phi, s, t_max=200.0, n=400_001):
    """Independent oracle: dense-grid maximization of t*s - phi(t)."""
    t = np.linspace(0.0, t_max, n)
    vals = t * s - np.asarray(phi(t), dtype=float)
    return float(np.max(vals))


def scalar_scan(phi, count, t_cap=1e50):
    """Reference for delta2_witnesses: the scan one point at a time,
    from the first grid point again for every n."""
    grid = _scan_grid(phi, t_cap)
    out = []
    for n in range(1, count + 1):
        bound = 2.0 ** n
        found = None
        for t in grid:
            try:
                a = float(phi(t))
                b = float(phi(2.0 * t))
            except NumericFailure:
                break
            if not math.isfinite(a):
                break
            if a >= 3.0 and b > bound * a:
                found = t
                break
        if found is None:
            raise WitnessNotFound(f"no witness for n={n}")
        out.append((n, found))
    return out


def reference_grid(phi, t_cap):
    """Reference for _scan_grid: the geometric points made one at a time,
    then phi's breakpoints, up to the cap, half phi's domain cap and half
    the largest double."""
    hi = min(t_cap, sys.float_info.max / 2.0)
    if phi.domain_cap is not None:
        hi = min(hi, phi.domain_cap / 2.0)
    pts = []
    t = 1e-2
    factor = 2.0 ** 0.25
    while t <= hi:
        pts.append(t)
        t *= factor
    pts.extend(b for b in phi.breakpoints if b <= hi)
    return sorted(pts)


def scan_outcome(scan, phi, count, t_cap):
    """The witness list, or the type of the exception raised."""
    try:
        return scan(phi, count, t_cap)
    except (WitnessNotFound, NumericFailure) as exc:
        return type(exc)


def assert_same_scan(phi, count, t_cap=1e50):
    new = scan_outcome(delta2_witnesses, phi, count, t_cap)
    old = scan_outcome(scalar_scan, phi, count, t_cap)
    assert new == old, (phi.name, count, t_cap)
    if isinstance(new, list):  # bit-identical floats
        assert [t.hex() for _, t in new] == [float(t).hex() for _, t in old]


class TestCatalogBasics:
    def test_power_values(self):
        phi = PowerFunction(2.0)
        assert float(phi(0.0)) == 0.0
        assert float(phi(3.0)) == 9.0

    def test_power_right_derivative(self):
        assert PowerFunction(3.0).rderiv(2.0) == 12.0
        assert PowerFunction(2.0, 0.5).rderiv(np.array([0.0, 1.0, 3.0])).tolist() \
            == [0.0, 1.0, 3.0]

    @pytest.mark.parametrize("coef", [0.0, -1.0, math.inf, math.nan])
    def test_power_coefficient_must_be_positive_and_finite(self, coef):
        with pytest.raises(InputError, match="coefficient"):
            PowerFunction(2.0, coef)

    def test_exp_values(self):
        phi = ExpFunction()
        assert float(phi(0.0)) == 0.0
        assert abs(float(phi(1.0)) - (math.e - 1.0)) < 1e-15

    def test_entropy_values(self):
        phi = EntropyFunction()
        assert float(phi(0.0)) == 0.0
        assert abs(float(phi(1.0)) - (2.0 * math.log(2.0) - 1.0)) < 1e-15

    def test_catalog_entries_are_orlicz(self):
        for name, phi in CATALOG.items():
            assert float(phi(0.0)) == 0.0
            assert float(phi(1e-2)) > 0.0
            ts = np.array([0.5, 1.0, 2.0, 3.0])
            vals = np.asarray(phi(ts), dtype=float)
            assert np.all(np.diff(vals) > 0), name
            mid = 0.5 * (vals[0] + vals[2])
            assert vals[1] <= mid + 1e-12, name  # convexity probe


class TestConjugation:
    def test_power_conjugate_closed_form(self):
        # spec example: phi = t^2 -> psi(s) = s^2 / 4
        assert abs(conjugate_value(PowerFunction(2.0), 2.0) - 1.0) < 1e-12

    def test_exp_conjugate_at_one_is_zero(self):
        assert conjugate_value(ExpFunction(), 1.0) == 0.0

    def test_exp_conjugate_formula(self):
        psi = conjugate(ExpFunction())
        for s in (1.5, 2.0, 5.0):
            expect = s * math.log(s) - s + 1.0
            assert abs(float(psi(s)) - expect) < 1e-12

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_grid_oracle(self, name):
        phi = CATALOG[name]
        for s in (0.5, 1.0, 1.7):
            oracle = grid_conjugate(phi, s)
            value = conjugate_value(phi, s)
            assert value >= oracle - 1e-9
            assert value <= oracle + 1e-4 + 1e-4 * abs(oracle)

    def test_a_class_without_a_closed_form_conjugate_is_named(self):
        # every shipped class has a closed-form conjugate, and there is
        # no numeric fallback for one that has none
        class Quartic(OrliczFunction):
            name = "quartic"

            def _eval(self, t):
                return t ** 4

        for call in (conjugate, lambda f: conjugate_value(f, 1.0)):
            with pytest.raises(InputError, match="Quartic"):
                call(Quartic())

    def test_negative_argument_rejected(self):
        with pytest.raises(InputError):
            conjugate_value(PowerFunction(2.0), -1.0)

    @pytest.mark.parametrize("t, s", [(-1.0, 1.0), (1.0, -1.0)])
    def test_young_check_rejects_a_negative_argument(self, t, s):
        with pytest.raises(InputError, match="nonnegative"):
            young_check(PowerFunction(2.0), t, s)

    def test_young_inequality_random(self):
        rng = np.random.default_rng(7)
        for name, phi in CATALOG.items():
            for _ in range(50):
                t = float(rng.uniform(0.0, 5.0))
                s = float(rng.uniform(0.0, 5.0))
                lhs, rhs, holds = young_check(phi, t, s)
                assert holds, (name, t, s, lhs, rhs)

    def test_piecewise_linear_biconjugation_exact(self):
        phi = build_sparse_pair(sparse_schedule(bursts=6))
        psi = conjugate(phi)
        phi2 = conjugate(psi)
        grid = np.linspace(0.0, float(phi.breakpoints[-1]), 500)
        err = np.max(np.abs(np.asarray(phi(grid)) - np.asarray(phi2(grid))))
        assert err <= 1e-9

    def test_smooth_numeric_biconjugation(self):
        for phi in (PowerFunction(2.0), ExpFunction(), EntropyFunction()):
            psi_numeric = _NumericConjugate(phi)
            for t in (0.3, 1.0, 2.5):
                back = conjugate_value(psi_numeric, t)
                direct = float(phi(t))
                assert abs(back - direct) <= 1e-6 * (1.0 + abs(direct))


def inverse_slope_functions():
    """Every catalog function and its conjugate, a capped piecewise-linear
    function and two numeric conjugates (the base-class bisection)."""
    fns = [f for phi in CATALOG.values() for f in (phi, conjugate(phi))]
    return fns + [
        PiecewiseLinearFunction([1.0, 3.0], [0.5, 2.0, 5.0], domain_cap=10.0,
                                name="capped"),
        _NumericConjugate(PowerFunction(1.0)),
        _NumericConjugate(PowerFunction(2.0)),
    ]


class TestRderivInverseLeft:
    @pytest.mark.parametrize("phi", inverse_slope_functions(),
                             ids=lambda f: f.name)
    def test_array_matches_scalar_calls(self, phi):
        s = np.concatenate(([-1.0, 0.0], np.geomspace(1e-3, 50.0, 31)))
        scalar = []
        for x in s:
            try:
                scalar.append(phi.rderiv_inverse_left(float(x)))
            except NumericFailure:
                scalar.append(None)
        assert all(type(v) is float for v in scalar if v is not None)
        if None in scalar:  # one entry out of range fails the whole array
            with pytest.raises(NumericFailure):
                phi.rderiv_inverse_left(s)
            return
        out = phi.rderiv_inverse_left(s)
        assert isinstance(out, np.ndarray) and out.shape == s.shape
        assert [v.hex() for v in out.tolist()] == [v.hex() for v in scalar]

    @pytest.mark.parametrize("phi", [ExpConjugateFunction(), EntropyFunction()],
                             ids=lambda f: f.name)
    def test_slope_past_overflow_raises_numeric_failure(self, phi):
        for s in (800.0, np.array([1.0, 800.0])):
            with pytest.raises(NumericFailure):
                phi.rderiv_inverse_left(s)

    def test_power_slope_past_overflow_raises_numeric_failure(self):
        # (1e300 / 1.5)**2 overflows: inf, which no t attains
        phi = PowerFunction(1.5)
        for s in (1e300, np.array([1.0, 1e300])):
            with pytest.raises(NumericFailure,
                               match="slope beyond representable range"):
                phi.rderiv_inverse_left(s)

    @pytest.mark.parametrize("phi", [ExpFunction(), EntropyConjugateFunction(),
                                     PowerFunction(2.0), CATALOG["sparse"]],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_a_slope_that_is_not_finite_raises(self, phi, s):
        for arg in (s, np.array([1.0, s])):
            with pytest.raises(NumericFailure):
                phi.rderiv_inverse_left(arg)


    @pytest.mark.parametrize("phi", [PowerFunction(1.0),
                                     conjugate(PowerFunction(1.0)),
                                     conjugate(CATALOG["sparse"])],
                             ids=lambda f: f.name)
    def test_a_nan_slope_raises(self, phi):
        # the linear function answered 0.0 and the capped ones their cap
        for arg in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(NumericFailure, match="slope is NaN"):
                phi.rderiv_inverse_left(arg)

    def test_entropy_maps_every_slope_at_most_0_to_plus_0(self):
        # np.maximum(s, 0.0) gives +0.0 at s = -0.0 (its second operand),
        # so no np.where is needed for it; on every array length up to
        # 1000, which numpy's vector loops and their tails both see
        phi = EntropyFunction()
        rng = np.random.default_rng([32, 0])
        values = np.array([0.0, -0.0, -1.0, -5e-324, -math.inf, 2.0 ** -60,
                           0.5, 30.0])
        for n in range(1, 1001):
            s = rng.choice(values, n)
            assert phi._rderiv_inverse_left(s).tobytes() \
                == entropy_slope_inverse_by_where(s).tobytes()
        for s in (-0.0, 0.0, -1.0):
            assert math.copysign(1.0, phi.rderiv_inverse_left(s)) == 1.0


class TestBaseMultiplierLoop:
    """A multiplier whose slope inverse overflows counts as past the
    root (an infinite excess), and the loop goes on below it."""

    @pytest.mark.parametrize("phi", [EntropyFunction(), ExpConjugateFunction()],
                             ids=lambda f: f.name)
    def test_an_overflowing_start_counts_as_past_the_root(self, phi,
                                                          monkeypatch):
        # E[y**2] = 1e-6, so mu0 = sqrt(2e6) ~ 1414 and e**1414 overflows
        y_abs, p = np.array([0.0, 1.0]), np.array([1.0 - 1e-6, 1e-6])
        raised = []
        real = phi.rderiv_inverse_left

        def spy(s):
            try:
                return real(s)
            except NumericFailure:
                raised.append(float(np.max(s)))
                raise

        monkeypatch.setattr(phi, "rderiv_inverse_left", spy)
        value, mu = phi.orlicz_definitional(y_abs, p)
        assert raised and raised[0] == pytest.approx(math.sqrt(2e6))
        monkeypatch.undo()
        ref, _ = definitional_by_bisection(phi, y_abs, p)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestNewtonFromRight:
    """A Newton step shorter than half an ulp of ``hi`` rounds onto ``hi``;
    it is replaced by the probe just left of ``hi``, not by the midpoint,
    so a first bracket from 0 closes without bisecting down from it."""

    def test_a_step_that_rounds_onto_hi_probes(self):
        # the root lies 1e-20 / 2 below 1.0, so the Newton point from
        # hi = 1.0 rounds onto 1.0 itself
        calls = []

        def excess(x):
            calls.append(x)
            return (x * x - 1.0) + 1e-20

        lo, hi = newton_from_right(excess, lambda x: 2.0 * x, 1.0, 1e-14,
                                   "no bracket")
        assert len(calls) <= 12
        assert excess(lo) <= 0.0 < excess(hi)
        assert hi - lo <= 1e-14 * lo

    @pytest.mark.parametrize("shift", [-3e-11, 1e-13, 1e-10, 2e-10])
    def test_certify_moves_the_ends_the_steering_misjudged(self, shift):
        # the steering root is 1 + shift and the certified root 1: at
        # -3e-11 hi lands below 1, at 1e-10 and 2e-10 lo lands above it
        # (two and four half-tolerance moves), and at 1e-13 both ends hold
        lo, hi = newton_from_right(lambda x: x * x - (1.0 + shift) ** 2,
                                   lambda x: 2.0 * x, 2.0, 1e-10,
                                   "no bracket", lambda x: x - 1.0)
        assert lo <= 1.0 < hi
        assert hi - lo <= 1e-10 * lo

    def test_entropy_multiplier_from_an_overshooting_start(self, monkeypatch):
        # mu0 = sqrt(2 / E[y^2]) already overshoots here, so the first
        # bracket is (0, mu0), and its first Newton point rounds onto mu0:
        # the midpoint branch took 56 evaluations of phi, bisecting from 0
        rng = np.random.default_rng([7, 2])
        p = rng.dirichlet(np.full(600, 2.0))
        rng.standard_normal(600)
        Y = FiniteSpace(tuple(p)).rv(rng.standard_normal(600))
        calls = []
        real = EntropyFunction.__call__
        monkeypatch.setattr(EntropyFunction, "__call__",
                            lambda self, t: calls.append(1) or real(self, t))
        value = orlicz_norm(Y, EntropyFunction())
        assert len(calls) <= 12
        # the bisection's value, within the multiplier's 1e-14 width
        assert value == pytest.approx(float.fromhex("0x1.fd89b6e14b2e7p+0"),
                                      rel=1e-14, abs=0.0)

    def test_phi_below_v_everywhere_has_no_bracket(self):
        # the doubling from 1 passes 1e300 with phi still below 2
        with pytest.raises(NumericFailure,
                           match="^phi_inverse: bracket not found$"):
            Saturating().inverse(2.0)

    def test_a_root_past_1e300_is_not_bracketed(self):
        # entropy reaches 1e306 near t = 1.5e303: without the stop past
        # 1e300 the doubling brackets it at 2**1008
        with pytest.raises(NumericFailure,
                           match="^phi_inverse: bracket not found$"):
            EntropyFunction().inverse(1e306)

    @pytest.mark.parametrize("start", [0.0, math.nan])
    def test_a_start_that_never_grows_ends(self, start):
        calls = []

        def excess(x):
            calls.append(x)
            return x - 1.0

        with pytest.raises(NumericFailure, match="^no bracket$"):
            newton_from_right(excess, lambda x: 1.0, start, 1e-12,
                              "no bracket")
        assert len(calls) <= 1100

    def test_a_root_at_zero_never_closes_the_bracket(self):
        # width rtol * lo is 0 while lo is 0: the bisection reaches the
        # smallest subnormal and stops after _MAX_DOUBLINGS points
        with pytest.raises(NumericFailure, match="bracket did not close"):
            newton_from_right(lambda x: x, lambda x: 1.0, 1.0, 1e-12,
                              "no bracket")


class Saturating(OrliczFunction):
    """``min(t, 1)``: a test phi that never reaches 2."""

    name = "saturating"

    def _eval(self, t):
        return np.minimum(t, 1.0)

    def _rderiv(self, t):
        return np.where(t < 1.0, 1.0, 0.0)


class TestDelta2Witnesses:
    def test_exp_witnesses_direct_inequality(self):
        phi = ExpFunction()
        for n, t in delta2_witnesses(phi, 5):
            a = math.exp(t) - 1.0
            b = math.exp(2.0 * t) - 1.0
            assert a >= 3.0
            assert b > 2.0 ** n * a

    def test_exp_spec_point(self):
        # phi(6)/phi(3) = 402.43/19.09 > 2^4 at t=3
        a = math.exp(3.0) - 1.0
        b = math.exp(6.0) - 1.0
        assert abs(b - 402.4287934927351) < 1e-9
        assert b > 16.0 * a

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_power_no_witness(self, p):
        # phi(2t) = 2^p phi(t), so no n with 2^n >= 2^p admits a witness
        with pytest.raises(WitnessNotFound):
            delta2_witnesses(PowerFunction(p), 4)

    def test_sparse_pair_both_fail(self):
        phi = build_sparse_pair(sparse_schedule())
        psi = conjugate(phi)
        assert len(delta2_witnesses(phi, 10)) == 10
        assert len(delta2_witnesses(psi, 10)) == 10

    def test_witness_count_validation(self):
        with pytest.raises(InputError):
            delta2_witnesses(ExpFunction(), 0)

    @pytest.mark.parametrize("t_cap", [math.inf, math.nan, 0.0])
    def test_cap_must_be_positive_and_finite(self, t_cap, monkeypatch):
        # an infinite cap would make the grid endless: reject before scanning
        def endless(phi, t_cap):
            raise AssertionError("scanned")

        monkeypatch.setattr("orlicz_lab.orlicz_functions._scan_grid", endless)
        with pytest.raises(InputError):
            delta2_witnesses(ExpFunction(), 3, t_cap=t_cap)

    @pytest.mark.parametrize("t_cap", [1e10, 1e50, 1e300])
    @pytest.mark.parametrize("side", ["phi", "conjugate"])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_same_as_scalar_scan_on_catalog(self, name, side, t_cap):
        phi = CATALOG[name] if side == "phi" else conjugate(CATALOG[name])
        for count in (1, 4, 12, 30):
            assert_same_scan(phi, count, t_cap)

    @settings(max_examples=25)
    @given(bursts=st.integers(3, 20), ratio=st.sampled_from([2.0, 2.5, 3.0]),
           count=st.integers(1, 30), t_cap=st.sampled_from([1e10, 1e50, 1e300]),
           side=st.sampled_from(["phi", "conjugate"]))
    def test_same_as_scalar_scan_on_sparse_schedules(self, bursts, ratio, count,
                                                     t_cap, side):
        phi = build_sparse_pair(sparse_schedule(bursts, ratio))
        assert_same_scan(phi if side == "phi" else conjugate(phi), count, t_cap)

    def test_same_as_scalar_scan_with_domain_cap(self):
        phi = PiecewiseLinearFunction((1.0, 4.0, 50.0, 300.0),
                                      (0.5, 2.0, 40.0, 900.0, 5e4),
                                      domain_cap=2e3)
        for count in (1, 3, 6, 9):
            assert_same_scan(phi, count)

    def test_scan_stops_where_evaluation_raises(self):
        # the conjugate of t is 0 on [0, 1] and +inf beyond; evaluating
        # it past s = 1 raises, so the scan stops before any witness
        psi = _NumericConjugate(PowerFunction(1.0))
        with pytest.raises(NumericFailure):
            psi(np.array([0.5, 2.0]))
        with pytest.raises(WitnessNotFound):
            delta2_witnesses(psi, 2)
        assert_same_scan(psi, 2)

    def test_witnesses_found_before_evaluation_raises(self):
        # the numeric conjugate of a piecewise-linear phi without a cap
        # raises beyond phi's maximal slope; its stretch witnesses lie
        # below that point, so the scan must keep the evaluable prefix
        psi = _NumericConjugate(build_sparse_pair(sparse_schedule(bursts=6)))
        with pytest.raises(NumericFailure):
            psi(np.array([1.0, 1e9]))
        assert len(delta2_witnesses(psi, 3)) == 3
        for count in (1, 3, 5, 8):
            assert_same_scan(psi, count)

    def test_one_pass_over_the_grid(self):
        phi = build_sparse_pair(sparse_schedule())
        calls = []

        class Counting(PiecewiseLinearFunction):
            def _eval(self, t):
                calls.append(np.shape(t))
                return super()._eval(t)

        counted = Counting(phi.breakpoints, phi.slopes)
        assert delta2_witnesses(counted, 10) == delta2_witnesses(phi, 10)
        n_grid = len(_scan_grid(phi, 1e50))
        assert calls == [(n_grid,), (n_grid,)]


class TestPowerPastOverflow:
    """``coef * t**p`` with ``coef < 1`` is finite past the overflow of
    ``t**p``; values finite before keep their bits."""

    @pytest.mark.parametrize("t_cap", [1e300, 8.9e307])
    def test_conjugate_of_power2_has_no_false_witness(self, t_cap):
        # phi(2t) / phi(t) is exactly 4: a false n = 2 came where t**2
        # overflowed at 2t but not at t (t = 7.2e153)
        with pytest.raises(WitnessNotFound, match="n=2 "):
            delta2_witnesses(conjugate(CATALOG["power2"]), 2, t_cap=t_cap)

    @pytest.mark.parametrize("phi", [PowerFunction(3.0, 0.1),
                                     conjugate(PowerFunction(1.5))],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("t_cap", [1e300, 8.9e307])
    def test_no_false_witness_where_one_formula_meets_the_other(self, phi,
                                                                 t_cap):
        # phi(t) is coef * t**3 and phi(2t) the rescaled form, and still
        # phi(2t) / phi(t) is exactly 8 (a false n = 3 came at 4.05e102)
        assert delta2_witnesses(phi, 2, t_cap=t_cap)
        with pytest.raises(WitnessNotFound, match="n=3 "):
            delta2_witnesses(phi, 3, t_cap=t_cap)

    def test_the_value_where_t_squared_overflows(self):
        psi = conjugate(CATALOG["power2"])
        assert psi.coef == 0.25
        assert psi(1.44e154) == pytest.approx(5.184e307, rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 7.0])
    @pytest.mark.parametrize("coef", [1e-310, 1e-300, 1e-3, 0.1, 0.25, 0.9,
                                      1.0, 3.0])
    def test_finite_values_keep_their_bits(self, p, coef):
        # the parent formula coef * t**p decides every value it finds
        # finite, by float.hex; each value below the largest double is
        # now finite
        phi = PowerFunction(p, coef)
        t = np.geomspace(1e-3, 1.7e308, 4001)
        with np.errstate(over="ignore"):
            ref = coef * t ** p
            exact_log = np.log(coef) + p * np.log(t)
        out = phi(t)
        kept = np.isfinite(ref)
        assert ([v.hex() for v in out[kept].tolist()]
                == [v.hex() for v in ref[kept].tolist()])
        in_range = exact_log < math.log(np.finfo(float).max) - 1e-9
        assert np.isfinite(out[in_range]).all()
        for i in np.flatnonzero(kept)[::400]:  # one point at a time
            assert phi(float(t[i])) == float(coef * np.asarray(t[i]) ** p)


    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("coef", [5e-324, 1e-310, 1e-300, 1e-100])
    def test_a_tiny_coefficient_against_decimal(self, p, coef):
        # 2**(k p) >= 1 / coef overflowed for coef below about 2**-1023,
        # and PowerFunction(2.0, 1e-310)(1e300) was inf
        phi = PowerFunction(p, coef)
        with decimal.localcontext(decimal.Context(prec=60)):
            for t in np.geomspace(1e-3, 1.7e308, 301).tolist():
                exact = decimal.Decimal(coef) * decimal.Decimal(t) ** \
                    decimal.Decimal(p)
                if exact > decimal.Decimal(sys.float_info.max) or \
                        exact < decimal.Decimal(2.0 ** -1000):
                    continue
                assert phi(t) == pytest.approx(float(exact), rel=1e-14), t
                if p.is_integer() and 2.0 * t < 1.7e308 and \
                        math.isfinite(phi(2.0 * t)):
                    assert phi(2.0 * t) == 2.0 ** p * phi(t)


    @pytest.mark.parametrize("p", [1.0000000001, 1.0000001])
    def test_a_fold_past_the_double_range(self, p):
        # the conjugate's exponent q is about 1e10 (1e7) and its coef
        # about 3.7e-11, so coef * 2**(k q) itself passes the range:
        # math.ldexp raised OverflowError from conjugate_value,
        # young_check and `orlicz-lab conjugate`
        assert conjugate_value(PowerFunction(p), 1e300) == math.inf
        assert young_check(PowerFunction(p), 2.0, 1e300)[2]
        psi = conjugate(PowerFunction(p))
        lo, hi = (math.exp(v / psi.p) for v in (
            math.log(sys.float_info.max),
            math.log(sys.float_info.max) - math.log(psi.coef)))
        t = np.concatenate(([0.0, 1.0, 1e300],
                            np.linspace(lo * (1 + 1e-12), hi * (1 - 1e-12),
                                        21)))
        out = psi(t)  # 0 beside the values past t**q must not warn
        assert out[:2].tolist() == [0.0, psi.coef]
        assert out[2] == math.inf
        with decimal.localcontext(decimal.Context(prec=60)):
            for ti, vi in zip(t[3:].tolist(), out[3:].tolist()):
                exact = (decimal.Decimal(psi.coef)
                         * decimal.Decimal(ti) ** decimal.Decimal(psi.p))
                assert vi == pytest.approx(float(exact), rel=1e-12), ti


class TwoValues(OrliczFunction):
    """``a`` at the scan's first point 1e-2 and ``b`` beyond it: with the
    cap at 1e-2 the scan sees ``phi(t) = a`` and ``phi(2t) = b`` only."""

    name = "two-values"

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _eval(self, t):
        return np.where(t <= 1e-2, self.a, self.b)


@st.composite
def level_pairs(draw):
    """``(a, b)`` with ``b`` within 3 ulps of ``2**n * a`` (of the largest
    double where that overflows), now and then negated, or ``b`` infinite
    or nan."""
    a = draw(st.one_of(st.floats(3.0, 1e300), st.floats(0.0, 3.0),
                       st.sampled_from([3.0, 4.0, 2.0 ** 1023,
                                        sys.float_info.max])))
    special = draw(st.sampled_from([None, None, None, None, math.inf,
                                    -math.inf, math.nan]))
    if special is not None:
        return a, special
    n = draw(st.integers(-2, 1030))
    try:
        b = math.ldexp(a, n)
    except OverflowError:
        b = sys.float_info.max
    k = draw(st.integers(-3, 3))
    for _ in range(abs(k)):
        b = math.nextafter(b, math.copysign(math.inf, k))
    return a, draw(st.sampled_from([b, b, b, -b]))


class TestScanGrid:
    @pytest.mark.parametrize("t_cap", [1e10, 1e50, 1e300])
    @pytest.mark.parametrize("side", ["phi", "conjugate"])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_grid_is_the_pointwise_chain(self, name, side, t_cap):
        phi = CATALOG[name] if side == "phi" else conjugate(CATALOG[name])
        assert [float(t).hex() for t in _scan_grid(phi, t_cap)] == \
            [float(t).hex() for t in reference_grid(phi, t_cap)]

    @pytest.mark.parametrize("t_cap", [1e10, 1e50, 1e300])
    def test_grid_with_domain_cap(self, t_cap):
        phi = PiecewiseLinearFunction((1.0, 4.0, 50.0, 300.0),
                                      (0.5, 2.0, 40.0, 900.0, 5e4),
                                      domain_cap=2e3)
        grid = _scan_grid(phi, t_cap)
        assert [float(t).hex() for t in grid] == \
            [float(t).hex() for t in reference_grid(phi, t_cap)]
        assert grid[-1] <= 1e3

    def test_the_table_is_made_once_and_read_only(self):
        table = _geometric_table()
        assert _geometric_table() is table
        assert not table.flags.writeable
        last = float(table[-1])
        assert math.isfinite(last) and not math.isfinite(last * 2.0 ** 0.25)
        grid = _scan_grid(ExpFunction(), 1e300)
        assert grid.flags.writeable and not np.shares_memory(grid, table)

    @settings(max_examples=400)
    @given(level_pairs())
    def test_level_is_the_direct_comparison(self, pair):
        # the largest n with b > 2**n a, comparing in floats one n at a time
        a, b = pair
        level = max([n for n in range(1, 1024)
                     if a >= 3.0 and b > 2.0 ** n * a], default=0)
        phi = TwoValues(a, b)
        if level:
            assert delta2_witnesses(phi, level, t_cap=1e-2) == \
                [(n, 1e-2) for n in range(1, level + 1)]
        with pytest.raises(WitnessNotFound, match=f"n={level + 1} "):
            delta2_witnesses(phi, level + 1, t_cap=1e-2)

    def test_a_huge_count_stops_past_the_largest_level(self):
        # levels reach 472 below 1e300, so n = 473 fails without a list
        # of 10**12 bounds being made
        start = time.perf_counter()
        with pytest.raises(WitnessNotFound, match="n=473 "):
            delta2_witnesses(ExpFunction(), 10 ** 12, t_cap=1e300)
        assert time.perf_counter() - start < 1.0

    def test_no_false_witness_where_2t_overflows(self):
        # phi is linear at the top, so phi(2t) / phi(t) -> 2; a grid point
        # past max / 2 evaluated phi at 2t = inf and found n = 2, 3, 4
        phi = PiecewiseLinearFunction([1.0], [1 / 128, 1 / 64])
        with pytest.raises(WitnessNotFound, match="n=2 "):
            delta2_witnesses(phi, 4, t_cap=1e308)
        assert _scan_grid(phi, 1e308)[-1] <= sys.float_info.max / 2.0

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_no_overflow_warning_at_the_top_of_the_range(self, name):
        # the suite turns RuntimeWarning into an error
        for phi in (CATALOG[name], conjugate(CATALOG[name])):
            for count in (1, 3):
                scan_outcome(delta2_witnesses, phi, count, 1e308)


class TestSparseSchedule:
    def test_schedule_shape(self):
        sched = sparse_schedule(bursts=5, ratio=2.0)
        assert sched.breakpoints[0] == 2.0
        assert sched.slopes[0] == 1.0
        assert all(b2 > b1 for b1, b2 in zip(sched.breakpoints,
                                             sched.breakpoints[1:]))
        assert all(s2 > s1 for s1, s2 in zip(sched.slopes, sched.slopes[1:]))

    def test_overflowing_schedule_rejected(self):
        with pytest.raises(InvalidSchedule):
            sparse_schedule(bursts=40)

    def test_a_last_kink_value_past_the_double_range_is_rejected(self):
        # 2^676 and 2^351 are finite, their product is not
        with pytest.raises(InvalidSchedule, match="overflows double precision"):
            sparse_schedule(bursts=26)

    def test_needs_a_burst(self):
        with pytest.raises(InvalidSchedule, match="at least one burst"):
            sparse_schedule(bursts=0)

    @pytest.mark.parametrize("breakpoints, slopes, match", [
        ((1.0,), (1.0,), "need len"),
        ((1.0,), (0.0, 1.0), "first slope"),
        ((1.0,), (2.0, 2.0), "strictly increasing"),
        ((0.0,), (1.0, 2.0), "breakpoints")])
    def test_rejects_a_bad_schedule(self, breakpoints, slopes, match):
        with pytest.raises(InvalidSchedule, match=match):
            PiecewiseSlopeSchedule(breakpoints, slopes)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_non_finite_ratio_is_rejected_before_the_schedule_is_built(self,
                                                                       ratio):
        # inf ** k never overflows, so a huge burst count would build
        # lists until memory runs out
        class Ratio(float):
            def __pow__(self, k):
                raise AssertionError("built")

        with pytest.raises(InvalidSchedule):
            sparse_schedule(10 ** 9, Ratio(ratio))

    def test_pl_requires_monotone_slopes(self):
        with pytest.raises(InputError):
            PiecewiseLinearFunction((1.0, 2.0), (2.0, 1.0))

    @pytest.mark.parametrize("breakpoints, slopes, match", [
        ((2.0, 1.0), (1.0, 2.0, 3.0), "breakpoints"),
        ((0.0,), (1.0, 2.0), "breakpoints"),
        ((1.0,), (2.0, 1.0), "slopes"),
        ((1.0,), (-1.0, 2.0), "slopes")])
    def test_pl_rejects_a_bad_schedule(self, breakpoints, slopes, match):
        with pytest.raises(InvalidSchedule, match=match):
            PiecewiseLinearFunction(breakpoints, slopes)


class TestPiecewiseLinearArrays:
    """An array call gives, entry by entry, the scalar call's bits."""

    SPARSE = build_sparse_pair(sparse_schedule())

    @staticmethod
    def points(f):
        top = f.domain_cap or 2.0 * f.breakpoints[-1]
        kinks = [-1.0, -1e-300, 0.0, top, *f.breakpoints]
        kinks += [math.nextafter(b, d) for b in f.breakpoints
                  for d in (-math.inf, math.inf)]
        return st.lists(st.sampled_from(kinks) | st.floats(-top, top),
                        min_size=1, max_size=30)

    @settings(max_examples=60)
    @given(data=st.data(), side=st.sampled_from(["phi", "conjugate"]))
    def test_phi_and_rderiv_match_scalar_calls(self, data, side):
        f = self.SPARSE if side == "phi" else conjugate(self.SPARSE)
        t = data.draw(self.points(f))
        for method in (f, f.rderiv):
            one_by_one = np.array([method(x) for x in t])
            assert method(np.array(t)).tobytes() == one_by_one.tobytes()


class TestSpecParsing:
    @pytest.mark.parametrize("text", ["power:p=2", "power:p=3", "exp",
                                      "entropy", "sparse:bursts=12,ratio=2"])
    def test_round_trip(self, text):
        phi = parse_phi_spec(text)
        again = parse_phi_spec(phi_spec_string(phi))
        grid = np.array([0.5, 1.0, 2.0])
        assert np.allclose(np.asarray(phi(grid)), np.asarray(again(grid)))

    def test_sparse_ratio_survives_round_trip(self):
        phi = parse_phi_spec("sparse:bursts=12,ratio=3")
        text = phi_spec_string(phi)
        assert text == "sparse:bursts=12,ratio=3.0"
        again = parse_phi_spec(text)
        assert again.breakpoints[0] == 3.0
        assert list(again.slopes) == list(phi.slopes)

    def test_unknown_spec(self):
        with pytest.raises(InputError):
            parse_phi_spec("mystery:q=2")

    def test_bad_power(self):
        with pytest.raises(InputError):
            parse_phi_spec("power:p=0.5")

    @pytest.mark.parametrize("text", ["power:p=2,q=3", "power:2", "exp:x=1",
                                      "entropy:p=2", "sparse:bursts=3,size=2",
                                      "power:p=nan", "power:p=inf",
                                      "sparse:bursts=40", "sparse:bursts=2.5",
                                      "power"])
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(InputError):
            parse_phi_spec(text)

    @given(p=st.floats(min_value=1.0, max_value=1e300))
    def test_power_spec_round_trips(self, p):
        assert parse_phi_spec(phi_spec_string(PowerFunction(p))).p == p

    def test_power_spec_is_short_where_it_round_trips(self):
        assert phi_spec_string(PowerFunction(2.0)) == "power:p=2"
        assert phi_spec_string(PowerFunction(2.123456789)) == "power:p=2.123456789"
        with pytest.raises(InputError):
            phi_spec_string(PowerFunction(2.0, 3.0))

    def test_custom_schedule_has_no_spec(self):
        # same burst count and first breakpoint as sparse:bursts=2,ratio=3,
        # different slopes
        phi = build_sparse_pair(PiecewiseSlopeSchedule((3.0, 81.0),
                                                       (1.0, 2.0, 5.0)))
        assert phi.spec is None
        with pytest.raises(InputError,
                           match=r"only when built on sparse_schedule\(bursts, ratio\)"):
            phi_spec_string(phi)
        canonical = build_sparse_pair(sparse_schedule(2, 3.0))
        assert phi_spec_string(canonical) == "sparse:bursts=2,ratio=3.0"


class TestLinearConjugate:
    """The conjugate of c t is 0 up to c and +inf beyond."""

    @pytest.mark.parametrize("c", [1.0, 2.0, 0.3])
    def test_exact_and_biconjugate(self, c):
        psi = conjugate(PowerFunction(1.0, c))
        assert psi(np.array([0.0, 0.5 * c, c])).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(NumericFailure):
            psi(2.0 * c)
        for s in (0.5, 1.0, 7.0):
            assert conjugate_value(psi, s) == c * s
        assert list(conjugate(psi).slopes) == [c]

    @pytest.mark.parametrize("c", [1.0, 0.3])
    def test_the_cap_slack_is_one_part_in_1e12(self, c):
        # phi and phi_inverse read the same slack past the cap
        psi = conjugate(PowerFunction(1.0, c))
        assert psi(c * (1 + 1e-13)) == 0.0
        with pytest.raises(NumericFailure, match="evaluation beyond domain cap"):
            psi(np.array([0.0, c * (1 + 1e-11)]))
        capped = PiecewiseLinearFunction([1.0], [1.0, 2.0], domain_cap=c + 1.0)
        top = 1.0 + 2.0 * c
        assert capped.inverse(top * (1 + 1e-13)) > c + 1.0
        with pytest.raises(NumericFailure, match="value beyond domain cap"):
            capped.inverse(top * (1 + 1e-10))

    @pytest.mark.parametrize("phi", [PowerFunction(1.0, c)
                                     for c in (1.0, 2.0, 0.3)]
                             + [CATALOG["sparse"]], ids=lambda f: f.name)
    def test_conjugate_value_is_inf_strictly_past_the_cap(self, phi):
        # as is the conjugate of the sparse pair past phi's last slope
        cap = conjugate(phi).domain_cap
        assert math.isfinite(conjugate_value(phi, cap))
        for s in (math.nextafter(cap, math.inf), 2.5 * cap, 1e300):
            assert conjugate_value(phi, s) == math.inf
