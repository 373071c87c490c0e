import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_lab.errors import (InputError, InvalidSchedule, NumericFailure,
                               WitnessNotFound)
from orlicz_lab.orlicz_functions import (
    CATALOG,
    EntropyFunction,
    ExpConjugateFunction,
    ExpFunction,
    PiecewiseLinearFunction,
    PiecewiseSlopeSchedule,
    PowerFunction,
    build_sparse_pair,
    conjugate,
    conjugate_value,
    delta2_witnesses,
    parse_phi_spec,
    phi_spec_string,
    sparse_schedule,
    young_check,
)
from orlicz_lab.orlicz_functions import _NumericConjugate, _scan_grid


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

    def test_negative_argument_rejected(self):
        with pytest.raises(InputError):
            conjugate_value(PowerFunction(2.0), -1.0)

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
        from orlicz_lab.orlicz_functions import _NumericConjugate

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
                                      "sparse:bursts=40", "sparse:bursts=2.5"])
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

    @pytest.mark.parametrize("phi", [PowerFunction(1.0, c)
                                     for c in (1.0, 2.0, 0.3)]
                             + [CATALOG["sparse"]], ids=lambda f: f.name)
    def test_conjugate_value_is_inf_strictly_past_the_cap(self, phi):
        # as is the conjugate of the sparse pair past phi's last slope
        cap = conjugate(phi).domain_cap
        assert math.isfinite(conjugate_value(phi, cap))
        for s in (math.nextafter(cap, math.inf), 2.5 * cap, 1e300):
            assert conjugate_value(phi, s) == math.inf
