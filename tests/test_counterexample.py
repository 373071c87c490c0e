import ast
import dataclasses
import json
import math
import pathlib
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
import scipy.optimize
from scipy.optimize import linprog

import exhibit_replay
import orlicz_lab.counterexample as cex
from orlicz_lab import closure_lab, duality
from orlicz_lab.counterexample import (
    Combo,
    CounterexampleInstance,
    MembershipCertificate,
    TImage,
    build_instance,
    certificate_from_json,
    certificate_to_json,
    diagonal_pairs,
    gap_exhibit,
    instance_from_json,
    instance_to_json,
    limit_certificate,
    membership,
    rho_c,
    t_operator,
    verify_certificate,
    weak_approx_select,
)
from orlicz_lab.errors import (CertificateError, InputError, NotAMember,
                               NumericFailure, TruncationTooSmall)
from orlicz_lab.finite_model import pairing
from orlicz_lab.orlicz_functions import (OrliczFunction, build_sparse_pair,
                                         conjugate, delta2_witnesses,
                                         sparse_schedule)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def phi():
    return build_sparse_pair(sparse_schedule(bursts=12))


@pytest.fixture(scope="module")
def phi14():
    """Enough conjugate witnesses for variant L at 5 x 5 x 10."""
    return build_sparse_pair(sparse_schedule(bursts=14))


@pytest.fixture(scope="module")
def instance(phi):
    return build_instance(phi, I=4, J=4, N=8, variant="L")


@pytest.fixture(scope="module")
def instance_h(phi):
    return build_instance(phi, I=4, J=4, N=8, variant="H")


def targets(ins):
    return [
        Combo(ins, {("Z0",): 1.0}),
        Combo(ins, {("Y", 1): 0.5, ("one",): 0.02}),
        Combo(ins, {("Y", 2): 1.0, ("Z", 1, 1): 0.0004}),
    ]


def image_add(a: TImage, b: TImage) -> TImage:
    assert a.variant == b.variant
    av, bv = a.v_dict(), b.v_dict()
    return TImage(
        u=tuple(x + y for x, y in zip(a.u, b.u)),
        a=a.a + b.a,
        v=tuple(sorted((k, av[k] + bv[k]) for k in av)),
        variant=a.variant,
        u_tail=a.u_tail + b.u_tail,
    )


def image_scale(a: TImage, c: float) -> TImage:
    return TImage(
        u=tuple(c * x for x in a.u),
        a=c * a.a,
        v=tuple(sorted((k, c * v) for k, v in a.v)),
        variant=a.variant,
        u_tail=c * a.u_tail,
    )


def is_member(ins, image):
    try:
        membership(ins, image)
        return True
    except NotAMember:
        return False


class TestDiagonalPairs:
    def test_enumeration_order(self):
        assert diagonal_pairs(2, 2) == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_covers_grid(self):
        pairs = diagonal_pairs(3, 5)
        assert len(pairs) == 15
        assert set(pairs) == {(i, j) for i in range(1, 4) for j in range(1, 6)}


def block_rv(ins, symbol):
    """One block (or the constant 1) as a discretized position."""
    return Combo(ins, {symbol: 1.0}).as_rv()


class TestInstanceInvariants:
    def test_pairings_are_unit(self, instance):
        ins = instance
        for b in ins.x_seq.blocks:
            pr = pairing(block_rv(ins, ("X", b.index)),
                         block_rv(ins, ("Y", b.index)))
            assert pr == pytest.approx(1.0, abs=1e-12)
        assert pairing(block_rv(ins, ("W0",)), block_rv(ins, ("Z0",))) == 1.0
        for key in ins.third_keys:
            pr = pairing(block_rv(ins, ("W", *key)), block_rv(ins, ("Z", *key)))
            assert pr == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self, instance):
        ins = instance
        X1 = block_rv(ins, ("X", ins.x_seq.blocks[0].index))
        W0 = block_rv(ins, ("W0",))
        Z = block_rv(ins, ("Z", *ins.third_keys[0]))
        assert pairing(X1, W0) == 0.0
        assert pairing(X1, Z) == 0.0
        assert pairing(W0, Z) == 0.0

    def test_w0_height(self, instance):
        assert instance._height_of[("W0",)] == SQRT3

    def test_t_rows_are_the_first_atoms(self, instance, instance_h):
        # T reads row k off atom k: A1..AN, B0, then C<key> in key order
        for ins in (instance, instance_h):
            R = len(ins._row_pairs)
            assert ins.space.labels[:R] == tuple(
                [f"A{n}" for n in range(1, ins.N + 1)] + ["B0"]
                + ["C" + "_".join(map(str, k)) for k in ins.third_keys])
            assert ins.space.labels[R:] == ("rest",)
            for atom, (primal, dual) in enumerate(ins._row_pairs):
                assert ins._atom_of[primal] == ins._atom_of[dual] == atom

    def test_phi_calls_do_not_grow_with_the_block_count(self, phi,
                                                       monkeypatch):
        # the build evaluates phi and psi once per block sequence and
        # once per series modular, however many blocks there are
        psi, calls = conjugate(phi), []
        call = OrliczFunction.__call__

        def counted(f, t):
            calls.append(f is phi or f is psi)
            return call(f, t)

        monkeypatch.setattr(OrliczFunction, "__call__", counted)
        counts = []
        for I, J, N in ((2, 2, 4), (4, 4, 8)):
            calls.clear()
            build_instance(phi, I, J, N)
            counts.append(sum(calls))
        assert counts[0] == counts[1]

    def test_truncation_validation(self, phi):
        with pytest.raises(InputError):
            build_instance(phi, 0, 2, 2)
        with pytest.raises(InputError):
            build_instance(phi, 2, 2, 2, variant="Q")


class TestCombo:
    def test_arithmetic_and_vector(self, instance):
        ins = instance
        A = Combo(ins, {("W0",): 2.0}) + 1.0
        B = A - Combo(ins, {("W0",): 2.0})
        assert np.allclose(B.x, 1.0)
        C = Combo(ins, {("X", 1): 1.0}) * 3.0
        atom = ins._atom_of[("X", 1)]
        assert C.x[atom] == 3.0 * ins._height_of[("X", 1)]

    def test_negation(self, instance):
        A = Combo(instance, {("W0",): 2.0, ("Xtail", 3): -0.5, ("one",): 1.0})
        assert (-A).coeffs == {("W0",): -2.0, ("Xtail", 3): 0.5, ("one",): -1.0}

    def test_combos_of_two_instances_do_not_mix(self, instance, instance_h):
        A, B = Combo(instance, {("W0",): 1.0}), Combo(instance_h, {("W0",): 1.0})
        with pytest.raises(InputError, match="different instances"):
            A + B
        with pytest.raises(InputError, match="different instance"):
            t_operator(instance, B)

    def test_abs_round_trip(self, instance, instance_h):
        ins = instance
        A = Combo(ins, {("W0",): -1.0, ("Y", 2): 0.5, ("one",): -0.25})
        assert np.allclose(A.abs().x, np.abs(A.x))
        # every symbol of an L and an H instance sits on its block's atom
        for ins in (instance, instance_h):
            symbols = [(base, b.index) for base in ("X", "Y")
                       for b in ins.x_seq.blocks] + [("W0",), ("Z0",)] + \
                [(base, *k) for base in ("W", "Z") for k in ins.third_keys]
            for sym in symbols:
                C = Combo(ins, {sym: 1.0})
                block = np.zeros(ins.space.n_atoms)
                block[ins._atom_of[sym]] = ins._height_of[sym]
                assert np.array_equal(C.as_rv().x, block), sym
                D = Combo(ins, {sym: -2.0, ("one",): 0.25})
                assert np.allclose(D.abs().x, np.abs(D.x), rtol=1e-15,
                                   atol=0.0), sym

    def test_tail_starts_within_the_truncation(self, phi):
        # Xtail(30) on N = 3 would report u_tail = 100 although u(5) = 0,
        # and with it a lambda = 8 certificate for a non-member
        ins = build_instance(phi, I=2, J=6, N=3)
        with pytest.raises(InputError, match="Xtail"):
            Combo(ins, {("Xtail", 30): 100.0, ("W0",): -1.0,
                        ("W", 1, 5): 1.0, ("W", 2, 5): 1.0, ("W", 1, 6): 1.0})
        for r in (0, ins.N + 2):
            with pytest.raises(InputError):
                Combo(ins, {("Xtail", r): 1.0})
        last = Combo(ins, {("Xtail", ins.N + 1): 2.0})
        assert t_operator(ins, last).u_tail == 2.0

    def test_abs_rejects_symbolic_tail(self, instance):
        with pytest.raises(InputError):
            Combo(instance, {("Xtail", 1): 1.0}).abs()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_x_and_abs_are_the_per_symbol_loop_bit_for_bit(
            self, instance, instance_h, data):
        for ins in (instance, instance_h):
            C = data.draw(st.one_of(wide_combos(ins), overlapping_combos(ins)))
            assert C.x.tobytes() == combo_x_by_symbols(C).tobytes()
            if C.tail_coefficient:
                continue
            got = [(k, v.hex()) for k, v in C.abs().coeffs.items()]
            assert got == [(k, v.hex()) for k, v in
                           combo_abs_by_symbols(C).coeffs.items()]

    def test_unknown_symbol(self, instance, instance_h):
        for ins, sym in ((instance, ("Q", 1)), (instance, ("X", 99)),
                         (instance, ("W", 9, 9)), (instance_h, ("Z", 1, 1)),
                         (instance, ("Xtail",))):
            with pytest.raises(InputError):
                Combo(ins, {sym: 1.0})


class TestTOperator:
    def test_minus_w0_image_exact(self, instance):
        img = t_operator(instance, Combo(instance, {("W0",): -1.0}))
        assert all(x == 0.0 for x in img.u)
        assert img.a == -1.0
        assert all(v == 0.0 for _, v in img.v)
        assert img.u_tail == 0.0

    def test_positivity(self, instance):
        # T is a positive operator: nonnegative positions have
        # componentwise nonnegative images
        ins = instance
        X = Combo(ins, {("X", 1): 1.0, ("W0",): 0.5, ("one",): 0.25})
        img = t_operator(ins, X)
        assert all(x >= 0.0 for x in img.u)
        assert img.a >= 0.0
        assert all(v >= 0.0 for _, v in img.v)
        assert img.u_tail >= 0.0

    def test_constant_tail_lower_bound(self, instance):
        # u(n) = c/t_n for the constant position c*1 increases toward 0,
        # so inf over n > N sits between the last truncated entry and 0
        ins = instance
        img = t_operator(ins, Combo(ins, {("one",): -2.0}))
        assert img.u[-1] - 1e-15 <= img.u_tail <= 0.0

    def test_discretized_position(self, instance):
        ins = instance
        X = Combo(ins, {("X", 1): 1.0})
        img_combo = t_operator(ins, X)
        img_rv = t_operator(ins, X.as_rv())
        assert img_rv.u == img_combo.u
        assert img_rv.u_tail == math.inf

    def test_rejects_foreign_space(self, instance):
        from orlicz_lab.finite_model import uniform_space
        with pytest.raises(InputError):
            t_operator(instance, uniform_space(3).constant(0.0))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_each_entry_is_the_pairing_with_its_dual_bit_for_bit(
            self, instance, instance_h, data):
        # every entry, the sign of a zero included, is what summing over
        # the atoms gives
        for ins in (instance, instance_h):
            X = data.draw(st.one_of(wide_combos(ins), wide_rvs(ins)))
            rv = X.as_rv() if isinstance(X, Combo) else X
            duals = [("Y", b.index) for b in ins.x_seq.blocks] + [("Z0",)] + \
                [("Z", *k) for k in ins.third_keys]
            img = t_operator(ins, X)
            v = img.v_dict()
            got = list(img.u) + [img.a] + [v[k] for k in ins.third_keys]
            assert [g.hex() for g in got] == \
                [pairing(rv, block_rv(ins, d)).hex() for d in duals]

    @pytest.mark.parametrize("variant", ["L", "H"])
    @pytest.mark.parametrize("I, J, N", [(2, 3, 4), (4, 4, 8), (5, 5, 10)])
    def test_v_is_sorted_by_key(self, phi14, I, J, N, variant):
        # the diagonal order of variant L's keys is not their sorted order
        ins = build_instance(phi14, I, J, N, variant=variant)
        X = Combo(ins, {("W", *k): n + 1.0 for n, k in enumerate(ins.third_keys)})
        img = t_operator(ins, X)
        assert [k for k, _ in img.v] == sorted(ins.third_keys)
        v = img.v_dict()
        for n, k in enumerate(ins.third_keys):
            assert v[k] == pytest.approx(n + 1.0, rel=1e-12)

    def test_a_position_that_is_not_finite_is_rejected(self, instance):
        # x = 1e308 t_8 overflows; rho_c used to loop on its NaN rows
        ins = instance
        X = Combo(ins, {("X", 8): 1e308})
        for position in (X, X.as_rv()):
            with pytest.raises(NumericFailure, match="on atom A8"):
                t_operator(ins, position)
        with pytest.raises(NumericFailure, match="on atom A8"):
            rho_c(ins, X)
        nan_rest = ins.space.rv([0.0] * (ins.space.n_atoms - 1) + [math.nan])
        with pytest.raises(NumericFailure, match="on atom rest"):
            t_operator(ins, nan_rest)
        past_n = Combo(ins, {("Xtail", ins.N + 1): math.inf})
        with pytest.raises(NumericFailure, match="Xtail"):
            t_operator(ins, past_n)

    def test_an_entry_that_overflows_is_rejected(self, phi):
        # the default blocks keep p h_D <= 1/sqrt(3); a dual height scaled
        # up lets a finite position overflow on that dual's atom
        ins = build_instance(phi, 2, 2, 3)
        ins._row_dual = ins._row_dual * np.where(np.arange(len(ins._row_dual))
                                                 == ins.N, 1e10, 1.0)
        X = Combo(ins, {("W0",): 1e300})
        with pytest.raises(NumericFailure, match="on atom B0"):
            t_operator(ins, X)

    def test_one_errstate_per_call(self, instance, monkeypatch):
        # the vector and its rows are built under one np.errstate
        entered = []

        class Counting(np.errstate):
            def __enter__(self):
                entered.append(self)
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", Counting)
        X = Combo(instance, {("X", 1): 1.0, ("W0",): -1.0, ("one",): 0.5,
                             ("Xtail", 3): 2.0})
        for position in (X, X.as_rv()):
            entered.clear()
            t_operator(instance, position)
            assert len(entered) == 1

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_t_of_one_is_made_once_and_read_only(self, instance, instance_h,
                                                 variant):
        ins = instance if variant == "L" else instance_h
        rows = ins._one_rows
        assert ins._one_rows is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 0.0
        fresh = cex._rows(ins, t_operator(ins, Combo(ins, {("one",): 1.0})))[0]
        assert [r.hex() for r in rows.tolist()] == \
            [r.hex() for r in fresh.tolist()]


class TestMembership:
    def test_zero_is_member_with_canonical_certificate(self, instance):
        cert = membership(instance, t_operator(instance, Combo(instance, {})))
        assert cert.lam == 0.0
        assert cert.y == (((1, 1), 0.5),)

    def test_minus_w0_not_member_with_farkas_certificate(self, instance):
        with pytest.raises(NotAMember) as exc:
            membership(instance, t_operator(
                instance, Combo(instance, {("W0",): -1.0})))
        cert = exc.value.certificate
        assert cert is not None
        assert cert["__objective__"] < -1e-9
        assert any(label.startswith("a >=") for label in cert)

    def test_x_sr_member_with_unit_lambda(self, instance):
        ins = instance
        s, r = 1, 3
        X_sr = Combo(ins, {("Xtail", r): 2.0 ** s, ("W0",): -1.0,
                           ("W", s, r): 2.0 ** (-s)})
        cert = membership(ins, t_operator(ins, X_sr))
        assert cert.lam == pytest.approx(1.0, abs=1e-6)
        assert cert.y_dict()[(s, r)] == pytest.approx(2.0 ** (-s), rel=1e-6)
        assert cert.row_weighted_sum == pytest.approx(1.0, abs=1e-9)
        assert verify_certificate(ins, t_operator(ins, X_sr), cert)

    def test_certificates_verify_on_random_members(self, instance):
        rng = np.random.default_rng(31)
        ins = instance
        syms = [("X", b.index) for b in ins.x_seq.blocks[:4]] + \
            [("W0",), ("one",)] + [("W", *k) for k in ins.third_keys[:4]]
        for _ in range(40):
            coeffs = {s: float(rng.uniform(0.0, 2.0))
                      for s in syms if rng.random() < 0.5}
            X = Combo(ins, coeffs)
            img = t_operator(ins, X)
            cert = membership(ins, img)  # nonneg positions are members
            assert verify_certificate(ins, img, cert)

    def test_cone_and_monotone(self, instance):
        # membership region of images is a monotone convex cone
        rng = np.random.default_rng(37)
        ins = instance
        syms = [("X", 1), ("X", 2), ("W0",), ("one",), ("W", 1, 1),
                ("W", 2, 1), ("Xtail", 2)]
        members = []
        for _ in range(120):
            coeffs = {s: float(rng.uniform(-1.0, 2.0))
                      for s in syms if rng.random() < 0.6}
            img = t_operator(ins, Combo(ins, coeffs))
            if is_member(ins, img):
                members.append(img)
        assert len(members) >= 10
        for k in range(0, min(len(members) - 1, 20), 2):
            A, B = members[k], members[k + 1]
            assert is_member(ins, image_add(A, B))
            assert is_member(ins, image_scale(A, float(rng.uniform(0.1, 5.0))))
            bump = TImage(u=tuple(0.1 for _ in A.u), a=0.1,
                          v=tuple((key, 0.1) for key, _ in A.v),
                          variant=A.variant, u_tail=0.1)
            assert is_member(ins, image_add(A, bump))

    def test_images_slightly_below_zero_are_not_members(self, instance):
        # at HiGHS's default feasibility tolerance 1e-7 the image at
        # m = 1.46768, whose u is -6.8e-8, passed as a member although
        # rho_c(X) = 1.4677114
        ins = instance
        X = Combo(ins, {("X", 3): -0.0031672018348364306,
                        ("W0",): 0.1588557619426032,
                        ("W", 2, 1): 0.32364962543718234,
                        ("Z", 1, 1): 0.10042148873833678})
        with pytest.raises(NotAMember):
            membership(ins, t_operator(ins, X + 1.46768))
        img = t_operator(ins, X + (rho_c(ins, X) + 1e-9))
        assert verify_certificate(ins, img, membership(ins, img), tol=1e-9)

    def test_pairs_past_n_sit_only_in_the_tail_row(self, phi):
        # at J > N the pairs (i, j > N) are in no prefix row u(n): here
        # u(3) = 0.5 must not cap z(1,5), which only u(tail) = 1 bounds
        ins = build_instance(phi, 4, 5, 3)
        X = Combo(ins, {("Xtail", 1): 1.0, ("X", 3): -0.5, ("W", 1, 5): 1.0,
                        ("W0",): -0.4})
        img = t_operator(ins, X)
        cert = membership(ins, img)
        assert cert.lam == pytest.approx(highs_max_lambda(ins, img),
                                         rel=1e-9)
        assert cert.lam == pytest.approx(0.5, rel=1e-15)
        assert cert.y == (((1, 5), 0.5),)

    def test_rows_of_tiny_scale_below_zero_are_not_members(self, instance):
        # v(4,4) = -0.5 E[Z_44^2] = -2.2e-14 is a true negative row, which
        # an LP at feasibility tolerance 1e-10 accepts
        ins = instance
        img = t_operator(ins, Combo(ins, {("Z", 4, 4): -0.5}))
        assert -1e-13 < img.v_dict()[(4, 4)] < 0.0
        with pytest.raises(NotAMember) as exc:
            membership(ins, img)
        assert exc.value.certificate == {"v(4,4) >= z(4,4)": 1.0,
                                         "__objective__": img.v_dict()[(4, 4)]}

    def test_h_rejects_a_tiny_negative_constant(self, instance_h):
        # every row of T(-1e-12 * 1) is negative; HiGHS, at feasibility
        # 1e-10, accepted it with the lambda = 0 certificate
        ins = instance_h
        img = t_operator(ins, Combo(ins, {("one",): -1e-12}))
        with pytest.raises(NotAMember) as exc:
            membership(ins, img)
        assert exc.value.certificate == {"u(1) >= sum tail z": 1.0,
                                         "__objective__": img.u[0]}
        assert img.u[0] < 0.0

    def test_farkas_certificate_audits(self, instance):
        # every Farkas certificate must price the constraint rows so
        # that mu . b < 0 while mu^T A lies in the span of the equality
        ins = instance
        from orlicz_lab.counterexample import _rows
        X = Combo(ins, {("W0",): -1.0, ("X", 1): 0.3})
        img = t_operator(ins, X)
        with pytest.raises(NotAMember) as exc:
            membership(ins, img)
        cert = dict(exc.value.certificate)
        obj = cert.pop("__objective__")
        b, chain = _rows(ins, img)
        labels, A, eq = chain.labels, chain.A, chain.eq
        mu = np.array([cert.get(lbl, 0.0) for lbl in labels])
        assert np.all(mu >= 0.0)
        assert float(mu @ b) < -1e-9
        combo = mu @ A
        # feasibility of the Farkas system: A^T mu + nu*eq >= 0 for some
        # scalar nu; entries with eq > 0 bound nu from below, entries
        # with eq < 0 from above
        lower = [-combo[i] / eq[i] for i in range(len(eq)) if eq[i] > 0.0]
        nu = max(lower) if lower else 0.0
        assert np.all(combo + nu * eq >= -1e-7)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_a_cover_that_fails_its_dual_rows_is_a_certificate_error(
            self, instance, instance_h, variant, monkeypatch):
        # the chain rows' multipliers halved: mu . b stays below 0, but
        # A^T mu + nu eq >= 0 fails at nu = mu_a, so the audit, not the
        # cover, decides: CertificateError, where an unaudited cover
        # would raise NotAMember on a certificate that proves nothing
        ins = instance if variant == "L" else instance_h
        real = cex._cover

        def halved(chain, b):
            mu = real(chain, b)
            mu[chain.first:] *= 0.5
            assert mu @ b < 0.0
            assert np.any(chain.A.T @ mu + mu[0] * chain.eq < 0.0)
            return mu

        monkeypatch.setattr(cex, "_cover", halved)
        with pytest.raises(CertificateError, match="fails its audit"):
            membership(ins, t_operator(ins, Combo(ins, {("W0",): -1.0})))

    def test_a_greedy_point_with_a_negative_entry_is_a_certificate_error(
            self, instance, monkeypatch):
        # lambda* = 1 at z(1,3) = 1/2; z(1,1) = -0.1 leaves lambda = 0.8 >= -a,
        # and y = z / lambda without its negative entry sums to 1.25
        ins = instance
        img = t_operator(ins, Combo(ins, {("Xtail", 3): 2.0, ("W", 1, 3): 0.5}))
        assert membership(ins, img).lam == 1.0
        real = cex._greedy

        def tampered(chain, b):
            z = real(chain, b).copy()
            z[chain.pairs.index((1, 1))] = -0.1
            return z

        monkeypatch.setattr(cex, "_greedy", tampered)
        with pytest.raises(CertificateError, match="row-weighted sum"):
            membership(ins, img)


class TestVerifyCertificate:
    def test_rejects_wrong_lambda(self, instance):
        ins = instance
        img = t_operator(ins, Combo(ins, {("W0",): -1.0}))
        fake = MembershipCertificate(1.0, (((1, 1), 0.5),))
        assert not verify_certificate(ins, img, fake)

    def test_rejects_negative_weights(self, instance):
        img = t_operator(instance, Combo(instance, {}))
        bad = MembershipCertificate(0.0, (((1, 1), -0.5),))
        assert not verify_certificate(instance, img, bad)

    def test_l_checks_every_box(self, instance):
        # y names no pair (4, 4), yet its box v(4,4) >= z(4,4) = 0 fails
        # on -W_44; only the boxes of the pairs in y used to be checked
        ins = instance
        img = t_operator(ins, Combo(ins, {("W", 4, 4): -1.0}))
        cert = MembershipCertificate(0.0, (((1, 1), 0.5),))
        assert not verify_certificate(ins, img, cert)
        with pytest.raises(NotAMember):
            membership(ins, img)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_rejects_pairs_outside_the_grid(self, instance, instance_h,
                                            variant):
        ins = instance if variant == "L" else instance_h
        img = t_operator(ins, Combo(ins, {("one",): 1.0}))
        i = ins.I + 1
        cert = MembershipCertificate(1.0, (((i, 1), 2.0 ** -i),))
        assert cert.row_weighted_sum == 1.0
        assert not verify_certificate(ins, img, cert)

    def test_h_checks_the_tail_row(self, phi):
        # every row but u(tail) >= lambda * sum_{j > N} y holds
        ins = build_instance(phi, 2, 3, 1, variant="H")
        X = Combo(ins, {("X", 1): 1.0, ("W", 3): 4.0, ("W0",): -1.0})
        img = t_operator(ins, X)
        assert img.u_tail == 0.0
        cert = MembershipCertificate(1.0, (((1, 3), 0.5),))
        assert not verify_certificate(ins, img, cert)
        with pytest.raises(NotAMember):
            membership(ins, img)
        assert verify_certificate(ins, dataclasses.replace(img, u_tail=math.inf),
                                  cert)

    def test_rejects_a_row_weighted_sum_off_one(self, instance):
        # every row has room for z(1,1) = 1, so only sum_i 2^i y_i decides
        ins = instance
        v = tuple((k, 10.0) for k in sorted(ins.third_keys))
        img = TImage(u=(10.0,) * ins.N, a=0.0, v=v, variant="L")
        assert verify_certificate(
            ins, img, MembershipCertificate(1.0, (((1, 1), 0.5),)))
        assert not verify_certificate(
            ins, img, MembershipCertificate(1.0, (((1, 1), 1.0),)))

    def test_lambda_at_minus_tol_is_accepted_and_one_ulp_below_is_not(
            self, instance):
        # a = E[1 Z_0] > 0 and every row has room, so only lam >= -tol decides
        ins = instance
        img = t_operator(ins, Combo(ins, {("one",): 1.0}))
        tol = 1e-7
        at = MembershipCertificate(-tol, (((1, 1), 0.5),))
        below = MembershipCertificate(math.nextafter(-tol, -math.inf),
                                      (((1, 1), 0.5),))
        assert verify_certificate(ins, img, at, tol=tol)
        assert not verify_certificate(ins, img, below, tol=tol)

    def test_a_row_at_its_bound_is_accepted_and_one_ulp_above_is_not(
            self, instance):
        # with tol = 2^-24 the box bound v(1,1) + tol (1 + lambda) is
        # exactly 0.5, and z(1,1) = lambda y(1,1) is the row's value
        ins = instance
        tol = 2.0 ** -24
        v = tuple((k, 0.5 - 2.0 * tol if k == (1, 1) else 1.0)
                  for k in sorted(ins.third_keys))
        img = TImage(u=(10.0,) * ins.N, a=0.0, v=v, variant="L")
        at = MembershipCertificate(1.0, (((1, 1), 0.5),))
        above = MembershipCertificate(1.0, (((1, 1), math.nextafter(0.5, 1.0)),))
        assert verify_certificate(ins, img, at, tol=tol)
        assert not verify_certificate(ins, img, above, tol=tol)


class TestMalformedImages:
    @pytest.mark.parametrize("edit", ["missing", "extra", "unsorted"])
    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_v_must_hold_the_third_keys_sorted(self, instance, instance_h,
                                               variant, edit):
        # missing (4, 4) used to raise a bare KeyError, and an extra (9, 9)
        # was decided as if it were absent
        ins = instance if variant == "L" else instance_h
        img = t_operator(ins, Combo(ins, {("one",): 1.0}))
        cert = membership(ins, img)
        v = list(img.v)
        assert v[-1][0] == max(ins.third_keys)
        extra = (9, 9) if variant == "L" else (9,)
        edits = {"missing": v[:-1], "extra": v + [(extra, 1.0)],
                 "unsorted": v[::-1]}
        bad = dataclasses.replace(img, v=tuple(edits[edit]))
        with pytest.raises(InputError, match="third keys"):
            membership(ins, bad)
        with pytest.raises(InputError, match="third keys"):
            verify_certificate(ins, bad, cert)

    def test_an_image_of_the_other_variant_is_rejected(self, instance,
                                                      instance_h):
        img = t_operator(instance_h, Combo(instance_h, {("one",): 1.0}))
        with pytest.raises(InputError, match="do not match the truncation"):
            membership(instance, img)

    def test_t_takes_only_combos_and_positions(self, instance):
        with pytest.raises(InputError, match="unsupported input float"):
            t_operator(instance, 1.0)


class TestRhoC:
    def test_rho_of_minus_w0_is_sqrt3(self, instance):
        value = rho_c(instance, Combo(instance, {("W0",): -1.0}))
        assert value == pytest.approx(SQRT3, abs=1e-4)

    def test_a_tail_capacity_that_overflows_its_cut_holds_for_every_m(
            self, instance):
        # the tail twin's cut -1e308 t_N overflows to -inf, which used to
        # warn (and so raise in this suite); that row binds no m
        ins = instance
        X = Combo(ins, {("Xtail", ins.N + 1): 1e308, ("W0",): -1.0})
        assert rho_c(ins, X) == rho_c(ins, Combo(ins, {("W0",): -1.0})) \
            == 1.7320508075688774

    def test_rho_of_zero(self, instance):
        assert abs(rho_c(instance, Combo(instance, {}))) < 1e-5

    def test_rho_of_member_nonpositive(self, instance):
        ins = instance
        X_sr = Combo(ins, {("Xtail", 3): 2.0, ("W0",): -1.0, ("W", 1, 3): 0.5})
        assert rho_c(ins, X_sr) <= 1e-5

    def test_cash_additivity(self, instance):
        ins = instance
        X = Combo(ins, {("W0",): -1.0, ("X", 1): 0.2})
        r0 = rho_c(ins, X)
        r1 = rho_c(ins, X + 0.5)
        assert r1 == pytest.approx(r0 - 0.5, abs=1e-4)

    def test_positive_homogeneity(self, instance):
        ins = instance
        X = Combo(ins, {("W0",): -1.0})
        assert rho_c(ins, X * 2.0) == pytest.approx(
            2.0 * rho_c(ins, X), abs=1e-4)


    def test_infinite_value_from_infeasible_lp(self, instance):
        start = time.perf_counter()
        value = rho_c(instance, Combo(instance, {("Xtail", 2): -1.0}))
        assert value == math.inf
        assert time.perf_counter() - start < 1.0

    def test_exact_headline_values(self, instance):
        ins = instance
        assert rho_c(ins, Combo(ins, {("W0",): -1.0})) == \
            pytest.approx(SQRT3, rel=1e-9)
        t2 = ins.x_seq.blocks[1].height
        for c in (1.35, 2.0, 2.6):
            assert rho_c(ins, Combo(ins, {("X", 2): -c})) == \
                pytest.approx(c * t2, rel=1e-9)

    @staticmethod
    def _closed_form(ins, X):
        """``max_k -(T X)_k / (T 1)_k`` over ``(T 1)_k > 0``: the value
        when the optimum has ``lambda = 0``, so that membership asks only
        for a componentwise nonnegative image."""
        def coords(img):
            return list(img.u) + [img.a] + [v for _, v in img.v]
        tx = coords(t_operator(ins, X))
        t1 = coords(t_operator(ins, Combo(ins, {("one",): 1.0})))
        return max(-a / b for a, b in zip(tx, t1) if b > 0.0)

    def test_closed_form_at_zero_lambda(self, instance):
        ins = instance
        # bisection at tol=1e-9 stopped at 1.46766, 3.2e-5 relative low
        X = Combo(ins, {("X", 3): -0.0031672018348364306,
                        ("W0",): 0.1588557619426032,
                        ("W", 2, 1): 0.32364962543718234,
                        ("Z", 1, 1): 0.10042148873833678})
        value = rho_c(ins, X)
        assert value == pytest.approx(self._closed_form(ins, X), rel=1e-9)
        assert value == pytest.approx(1.46771141906, abs=1e-10)
        for Y in (Combo(ins, {("W0",): -1.0}), Combo(ins, {("X", 2): -2.0})):
            assert rho_c(ins, Y) == pytest.approx(self._closed_form(ins, Y),
                                                  rel=1e-9)

    def test_tail_row_moves_with_the_constant(self, phi):
        # at N = 1 the tail row u_tail(m) = tail + (c1 + m)/t_N binds for
        # m < 0: with z on i = 1, lambda = u_tail / 2, and the a row
        # m / sqrt(3) >= -lambda fixes m*
        ins = build_instance(phi, 2, 2, 1)
        X = Combo(ins, {("Xtail", 1): 2.0,
                        **{("W", *k): 5.0 for k in ins.third_keys}})
        expected = -1.0 / (1.0 / SQRT3 + 1.0 / (2.0 * ins.t_last))
        assert rho_c(ins, X) == pytest.approx(expected, rel=1e-9)
        assert rho_c(ins, X - 1.0) == pytest.approx(expected + 1.0, rel=1e-9)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_threshold_agrees_with_membership(self, instance, instance_h,
                                              variant):
        ins = instance if variant == "L" else instance_h
        X = Combo(ins, {("W0",): -1.0, ("X", 1): 0.3, ("one",): 0.1})
        value = rho_c(ins, X)
        assert 0.0 < value < math.inf
        assert is_member(ins, t_operator(ins, X + (value + 1e-6)))
        assert not is_member(ins, t_operator(ins, X + (value - 1e-6)))

    def test_variant_h_value(self, instance_h):
        # bisection at tol=1e-9 gave 1.2986287501407787, biased by the
        # 1e-7 feasibility tolerance of the membership LPs it bisected on
        ins = instance_h
        value = rho_c(ins, Combo(ins, {("W0",): -1.0}))
        assert value == pytest.approx(1.2986287501407787, abs=1e-6)
        assert rho_c(ins, Combo(ins, {("W0",): -2.0})) == \
            pytest.approx(2.0 * value, rel=1e-9)

    @staticmethod
    def _tamper_greedy(monkeypatch, edit):
        real = cex._rho_newton

        def tampered(*args, **kwargs):
            m, z, mu, nu = real(*args, **kwargs)
            return edit(m, z.copy(), mu.copy(), nu)

        monkeypatch.setattr(cex, "_rho_newton", tampered)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_perturbed_greedy_multipliers_raise(self, instance, instance_h,
                                                variant, monkeypatch):
        ins = instance if variant == "L" else instance_h
        X = Combo(ins, {("W0",): -1.0})

        def negative_tail(m, z, mu, nu):
            # the tail row and its twin: equal rows of A and equal
            # right-hand sides here, so this breaks only mu >= 0
            mu[-2] += 0.01
            mu[-1] -= 0.01
            return m, z, mu, nu

        for edit in (lambda m, z, mu, nu: (m, z, 0.5 * mu, nu),
                     lambda m, z, mu, nu: (m, z, mu - 0.1, nu),
                     lambda m, z, mu, nu: (m, z, mu, nu + 1.0),
                     lambda m, z, mu, nu: (m, z, mu, nu - 1.0),
                     # keeps the gap closed, breaks mu . b1 = 1
                     lambda m, z, mu, nu: (m, z, 2.0 * mu, 2.0 * nu),
                     negative_tail):
            with monkeypatch.context() as mp:
                self._tamper_greedy(mp, edit)
                with pytest.raises(CertificateError):
                    rho_c(ins, X)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_mu_b1_at_its_bound(self, instance, instance_h, variant,
                                monkeypatch):
        # mu and nu scaled by c put mu . b1 at 1 + d; the check
        # |mu . b1 - 1| > scale, scale = tol (1 + sum|mu|), accepts at the
        # tol whose scale is exactly d and rejects at the tol one ulp
        # below it, where d is one ulp past the scale
        ins = instance if variant == "L" else instance_h
        X = Combo(ins, {("W0",): -1.0})
        seen = {}
        real = cex._rho_newton

        def record(chain, rhs, b1):
            out = real(chain, rhs, b1)
            seen.update(b1=b1, mu=out[2])
            return out

        with monkeypatch.context() as mp:
            mp.setattr(cex, "_rho_newton", record)
            m = rho_c(ins, X)

        def tol_for(scale, s1):
            t = scale / s1
            for cand in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0)):
                if cand * s1 == scale:
                    return cand
            return None

        for k in range(1, 64):
            c = 1.0 + k * 2.0 ** -32
            d = abs(float((c * seen["mu"]) @ seen["b1"]) - 1.0)
            s1 = 1.0 + float(np.sum(np.abs(c * seen["mu"])))
            at, past = tol_for(d, s1), tol_for(math.nextafter(d, 0.0), s1)
            if at is not None and past is not None:
                break
        else:
            pytest.fail("no tol puts the scale exactly at d")
        self._tamper_greedy(monkeypatch,
                            lambda m, z, mu, nu: (m, z, c * mu, c * nu))
        assert rho_c(ins, X, tol=at) == m
        with pytest.raises(CertificateError, match="Farkas"):
            rho_c(ins, X, tol=past)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_t_operator_runs_twice_per_call(self, phi, variant, monkeypatch):
        # T 1 is made once per instance, on the first call
        ins = build_instance(phi, 4, 4, 8, variant=variant)
        calls = []
        real = cex.t_operator

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cex, "t_operator", counted)
        X = Combo(ins, {("W0",): -1.0, ("X", 1): 0.2})
        first = rho_c(ins, X)
        assert len(calls) == 3
        for _ in range(3):
            calls.clear()
            assert rho_c(ins, X) == first
            assert len(calls) == 2

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_perturbed_greedy_primal_point_raises(self, instance, instance_h,
                                                  variant, monkeypatch):
        ins = instance if variant == "L" else instance_h
        X = Combo(ins, {("Xtail", 3): 2.0, ("W0",): -1.0,
                        ("W", *ins.third_keys[-1]): 0.5})

        def shift_z(m, z, mu, nu):
            z[0] += 0.5
            return m, z, mu, nu

        # z off the optimum fails the primal check; m* moved down fails
        # it too, and m* moved up keeps a valid primal certificate but
        # leaves the duality gap the dual check measures
        for edit in (shift_z,
                     lambda m, z, mu, nu: (m - 0.1, z, mu, nu),
                     lambda m, z, mu, nu: (m + 0.1, z, mu, nu)):
            with monkeypatch.context() as mp:
                self._tamper_greedy(mp, edit)
                with pytest.raises(CertificateError):
                    rho_c(ins, X)

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_minus_x_n_is_t_n(self, instance, instance_h, variant):
        # 1/t_n falls below HiGHS's small_matrix_value (1e-9) from n = 6
        # on; an LP then read the row u(n) as 0 <= -1 and returned +inf
        # or gave up
        ins = instance if variant == "L" else instance_h
        for n, b in enumerate(ins.x_seq.blocks, start=1):
            X = Combo(ins, {("X", n): -1.0})
            assert rho_c(ins, X) == pytest.approx(b.height, rel=1e-12)
        assert rho_c(ins, Combo(ins, {("X", 6): -1.0})) == 2.0 ** 36

    @pytest.mark.parametrize("variant", ["L", "H"])
    def test_tiny_constants_keep_cash_additivity(self, instance, instance_h,
                                                 variant):
        # an LP at feasibility 1e-10 gave rho_c(-1e-12 * 1) = 0.0 on H,
        # while membership rejected -1e-12 * 1; at m = 0 the two must
        # agree: X is rejected exactly when rho_c(X) > 0
        ins = instance if variant == "L" else instance_h
        for c in (1e-12, 1e-6, 1.0):
            for X in (Combo(ins, {("one",): -c}), Combo(ins, {("one",): c})):
                value = rho_c(ins, X)
                assert value == pytest.approx(-X.constant_part, rel=1e-12)
                assert is_member(ins, t_operator(ins, X)) == (value <= 0.0)

    def test_minus_z_key_is_its_height(self, instance):
        # E[Z_key] falls to 8e-25, far below HiGHS's small_matrix_value
        for key in instance.third_keys:
            X = Combo(instance, {("Z", *key): -0.5})
            assert rho_c(instance, X) == pytest.approx(
                0.5 * instance._height_of[("Z", *key)], rel=1e-12)

    def test_finite_unless_the_tail_coefficient_is_negative(self, instance):
        ins = instance
        value = rho_c(ins, Combo(ins, {("W", 4, 4): -1.0}))
        assert 0.0 < value < math.inf
        assert rho_c(ins, Combo(ins, {("Xtail", 2): -1e-3,
                                      ("W0",): 5.0})) == math.inf
        assert rho_c(ins, Combo(ins, {("Xtail", 2): 0.0, ("X", 8): -1.0})) \
            == pytest.approx(ins.t_last, rel=1e-12)


# -- the greedy against HiGHS ---------------------------------------------

HIGHS = {"primal_feasibility_tolerance": 1e-10}


def highs_max_lambda(ins, img):
    """Reference: HiGHS' largest lambda on ``_rows``' rows, or None
    when the LP is infeasible."""
    b, chain = cex._rows(ins, img)
    A, eq = chain.A, chain.eq
    cost = np.zeros(A.shape[1])
    cost[0] = -1.0
    res = linprog(cost, A_ub=A, b_ub=b, A_eq=eq.reshape(1, -1), b_eq=[0.0],
                  bounds=[(0, None)] * A.shape[1], method="highs",
                  options=HIGHS)
    return float(res.x[0]) if res.status == 0 else None


def highs_rho(ins, X):
    """Reference: rho_c as one HiGHS LP over ``(lambda, z, m)``, or None
    where HiGHS solves another LP.  It drops matrix entries below 1e-9
    (its small_matrix_value), so a row whose ``T 1`` coefficient is that
    small loses m; such a row must keep a clearly positive capacity."""
    c1 = X.constant_part
    b0, chain = cex._rows(ins, t_operator(ins, X - c1))
    A, eq = chain.A, chain.eq
    b1 = cex._rows(ins, t_operator(ins, Combo(ins, {("one",): 1.0})))[0]
    A = np.vstack([A, A[-1]])
    rhs = np.append(b0, b0[-1]) + c1 * np.append(b1, 1.0 / ins.t_last)
    b1 = np.append(b1, 1.0 / ins.t_last)
    if np.any((b1 > 0.0) & (b1 < 1e-9) & (rhs < 1e-6)):
        return None
    nvar = A.shape[1]
    cost = np.zeros(nvar + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.hstack([A, -b1.reshape(-1, 1)]), b_ub=rhs,
                  A_eq=np.append(eq, 0.0).reshape(1, -1), b_eq=[0.0],
                  bounds=[(0, None)] * nvar + [(None, None)], method="highs",
                  options=HIGHS)
    return float(res.x[-1]) if res.status == 0 else None


def audit_farkas(ins, img, certificate):
    """The audit of ``TestMembership.test_farkas_certificate_audits``."""
    cert = dict(certificate)
    cert.pop("__objective__")
    b, chain = cex._rows(ins, img)
    labels, A, eq = chain.labels, chain.A, chain.eq
    mu = np.array([cert.get(lbl, 0.0) for lbl in labels])
    assert np.all(mu >= 0.0)
    assert float(mu @ b) < -1e-9 * max(1.0, float(np.abs(mu * b).max()))
    combo = mu @ A
    lower = [-combo[i] / eq[i] for i in range(len(eq)) if eq[i] > 0.0]
    nu = max(lower) if lower else 0.0
    assert np.all(combo + nu * eq >= -1e-7)


TRUNCATIONS = [(4, 4, 8), (3, 4, 5), (4, 5, 3), (2, 2, 1)]
POSITIVE = [0.125, 0.25, 0.5, 1.0, 2.0]


@pytest.fixture(scope="module",
                params=[(*t, v) for v in "LH" for t in TRUNCATIONS],
                ids=["x".join(map(str, t)) + v for v in "LH"
                     for t in TRUNCATIONS])
def truncated(request, phi):
    return build_instance(phi, *request.param)


@st.composite
def wide_combos(draw, ins):
    """Any symbols of ``ins`` with coefficients of every sign and scale,
    tiny negative ones among them, whose products underflow to -0.0."""
    symbols = list(ins._atom_of) + [("one",)] + \
        [("Xtail", r) for r in range(1, ins.N + 2)]
    coefficient = st.one_of(
        st.sampled_from([-5e-324, -1e-310, -1e-300, -1.0, 0.5, 3.0]),
        st.floats(-1e6, 1e6))
    keys = draw(st.lists(st.sampled_from(symbols), max_size=6, unique=True))
    return Combo(ins, {k: draw(coefficient) for k in keys})


@st.composite
def overlapping_combos(draw, ins):
    """A wide combo with ``Xtail(r)`` over a block ``X_n``, n >= r, the
    empty tail ``Xtail(N+1)`` and the constant added, their coefficients
    zeros of both signs among them."""
    r = draw(st.integers(1, ins.N))
    extra = [("Xtail", r), ("X", draw(st.integers(r, ins.N))),
             ("Xtail", ins.N + 1), ("one",)]
    coefficient = st.one_of(
        st.sampled_from([0.0, -0.0, -5e-324, -1.0, 0.5]), st.floats(-1e6, 1e6))
    coeffs = dict(draw(wide_combos(ins)).coeffs)
    coeffs.update({k: draw(coefficient) for k in extra})
    return Combo(ins, coeffs)


def combo_x_by_symbols(C):
    """``Combo.x`` as one loop over the symbols, each tail block by block."""
    ins = C.instance
    vec = np.full(ins.space.n_atoms, C.constant_part)
    for k, c in C.coeffs.items():
        if k == ("one",):
            continue
        if k[0] == "Xtail":
            for b in ins.x_seq.blocks:
                if b.index >= k[1]:
                    vec[ins._atom_of[("X", b.index)]] += c * b.height
        else:
            vec[ins._atom_of[k]] += c * ins._height_of[k]
    return vec


def combo_abs_by_symbols(C):
    """``Combo.abs`` over the dual symbols Y_1..Y_N, Z_0, Z_key."""
    ins = C.instance
    vec = np.abs(combo_x_by_symbols(C))
    c1 = abs(C.constant_part)
    out = {("one",): c1}
    duals = [("Y", b.index) for b in ins.y_seq.blocks] + [("Z0",)] + \
        [("Z", *k) for k in ins.third_keys]
    for sym in duals:
        delta = vec[ins._atom_of[sym]] - c1
        if delta != 0.0:
            out[sym] = delta / ins._height_of[sym]
    return Combo(ins, out)


def wide_rvs(ins):
    """Discretized positions with any finite values, zeros of both signs
    and the largest floats among them."""
    value = st.one_of(st.sampled_from([0.0, -0.0, -5e-324, 1e308, -1e308]),
                      st.floats(allow_nan=False, allow_infinity=False))
    return st.lists(value, min_size=ins.space.n_atoms,
                    max_size=ins.space.n_atoms).map(ins.space.rv)


@st.composite
def positions(draw, ins):
    """Dyadic combinations: ``X_n``, ``Xtail(r)`` and the constant at 0
    or above, ``W_key`` above 0, ``W_0`` in [-4, 1], and at most one
    block entering negatively; members and non-members of both kinds (a
    negative row, or ``a + lambda* < 0``)."""
    first = [("X", n) for n in range(1, ins.N + 1)] + \
        [("Xtail", r) for r in range(1, ins.N + 1)] + [("one",)]
    third = [("W", *k) for k in ins.third_keys]
    coeffs = {s: draw(st.sampled_from([0.0] + POSITIVE)) for s in first}
    coeffs.update({s: draw(st.sampled_from(POSITIVE)) for s in third})
    coeffs[("W0",)] = draw(st.sampled_from([-4.0, -1.0, -0.25, 0.0, 1.0]))
    flip = draw(st.one_of(st.none(), st.sampled_from(first[:-1] + third)))
    if flip is not None:
        coeffs[flip] = -draw(st.sampled_from(POSITIVE))
    return Combo(ins, coeffs)


class TestGreedyAgainstHighs:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_membership_and_rho_match_the_lp(self, truncated, data):
        ins = truncated
        X = data.draw(positions(ins))
        img = t_operator(ins, X)
        b, chain = cex._rows(ins, img)
        # HiGHS accepts rows violated by up to its feasibility tolerance,
        # so it cannot decide an image with a capacity just below 0
        assume(not np.any((b[1:] < 0.0) & (b[1:] > -1e-9)))
        reference = highs_max_lambda(ins, img)
        try:
            cert = membership(ins, img)
        except NotAMember as exc:
            assert reference is None
            audit_farkas(ins, img, exc.certificate)
        else:
            assert reference is not None
            assert verify_certificate(ins, img, cert)
            lam = cex._lam(cex._greedy(chain, b), chain)
            assert lam == pytest.approx(reference, rel=1e-9, abs=1e-12)
        value = rho_c(ins, X)
        assert math.isfinite(value) == (X.tail_coefficient >= 0.0)
        reference = highs_rho(ins, X)
        if reference is not None:
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)


def greedy_by_pairs(b, pairs, N):
    """Variant L's greedy as a loop over ``pairs``, the reference that
    ``_greedy`` must equal bit for bit."""
    P = len(pairs)
    slack = list(b[1 + P:])
    z = np.zeros(P)
    for k in sorted(range(P), key=lambda k: (pairs[k][0], -pairs[k][1])):
        i, j = pairs[k]
        first = min(j, N + 1) - 1
        w = min([4.0 ** i * b[1 + k]] + slack[first:])
        for r in range(first, len(slack)):
            slack[r] -= w
        z[k] = w / 4.0 ** i
    return z


def cover_by_levels(b, pairs, N):
    """Variant L's cover as a loop over levels that adds each level's
    step to the box of every pair its chain row leaves out, the
    reference that ``_cover`` must equal bit for bit."""
    P = len(pairs)
    I = max(i for i, _ in pairs)
    box = [4.0 ** i * b[1 + k] for k, (i, _) in enumerate(pairs)]
    rho = np.zeros(len(b))
    rho[0] = 1.0
    for level in range(1, I + 1):
        step = 2.0 ** -(level + 1) if level < I else 2.0 ** -I
        members = [k for k, (i, _) in enumerate(pairs) if i <= level]
        options = [(sum(box[k] for k in members), len(members), 0, members)]
        for r in range(1 + P, len(b)):
            n = r - P if r - P <= N else math.inf
            rest = [k for k in members if pairs[k][1] > n]
            options.append((b[r] + sum(box[k] for k in rest), 1 + len(rest),
                            r, rest))
        _, _, r, rest = min(options, key=lambda o: o[:3])
        if r:
            rho[r] += step
        for k in rest:
            rho[1 + k] += 4.0 ** pairs[k][0] * step
    return rho


class TestChainAgainstTheLoops:
    @settings(max_examples=300)
    @given(I=st.integers(1, 4), J=st.integers(1, 5), N=st.integers(1, 6),
           extra=st.integers(0, 2), data=st.data())
    def test_l_greedy_and_cover_are_the_loops_bit_for_bit(self, I, J, N,
                                                          extra, data):
        # extra chain rows: none, the tail row, the tail row and its twin;
        # capacities repeat, so that covers tie
        n_rows = 1 + I * J + N + extra
        chain = cex._chain(I, J, N, "L", n_rows)
        caps = st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.0, 3.0, 7.5])
        b = np.array([-1.0] + [data.draw(caps) for _ in range(n_rows - 1)])
        assert np.array_equal(cex._greedy(chain, b),
                              greedy_by_pairs(b, chain.pairs, N))
        assert np.array_equal(cex._cover(chain, b),
                              cover_by_levels(b, chain.pairs, N))


def scipy_imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "scipy"]


class TestNoSolver:
    def test_the_module_imports_no_solver(self):
        # scipy only inside the functions named, and ``linprog`` nowhere
        for module, users in ((cex, ()), (closure_lab, ()), (duality, ())):
            tree = ast.parse(pathlib.Path(module.__file__).read_text())
            allowed = [node for f in ast.walk(tree)
                       if isinstance(f, ast.FunctionDef) and f.name in users
                       for node in scipy_imports(f)]
            assert len(scipy_imports(tree)) == len(allowed), module.__name__
            assert not any(isinstance(node, ast.Name) and node.id == "linprog"
                           or isinstance(node, ast.alias)
                           and node.name == "linprog"
                           for node in ast.walk(tree)), module.__name__

    def test_exhibit_rho_and_membership_make_no_lp(self, instance, instance_h,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counterexample called linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        # a module-level binding of the solver would escape the patch above
        monkeypatch.setattr(cex, "linprog", refuse, raising=False)
        ins = instance
        report = gap_exhibit(ins, targets(ins), 1e-2)
        assert report["infeasibility_certificate"] == {
            "a >= -lambda": 2.0 / 3.0, "u(4) >= sum 4^i prefix z": 1.0 / 3.0,
            "__objective__": -2.0 / 3.0}
        for ins in (instance, instance_h):
            assert rho_c(ins, Combo(ins, {("X", 2): -2.0})) == \
                pytest.approx(2.0 * ins.x_seq.blocks[1].height, rel=1e-12)
            with pytest.raises(NotAMember):
                membership(ins, t_operator(ins, Combo(ins, {("W0",): -1.0})))


class TestWeakApproxSelect:
    def test_selection_and_bounds(self, instance):
        ins = instance
        eps = 1e-2
        s, r, X_sr, report = weak_approx_select(ins, targets(ins), eps)
        assert (s, r) == (1, 3)
        for row in report["pairings"]:
            assert row["bound"] < eps
        # the member really is X_sr = 2^s Xtail(r) - W0 + 2^-s W_{s,r}
        assert X_sr.coeffs[("Xtail", r)] == 2.0 ** s
        assert X_sr.coeffs[("W0",)] == -1.0
        assert report["certificate"].lam == pytest.approx(1.0, abs=1e-6)

    def test_eps_too_demanding(self, instance):
        with pytest.raises(TruncationTooSmall):
            weak_approx_select(instance, targets(instance), 1e-12)

    def test_a_target_on_the_last_block_leaves_no_r(self, instance):
        # E[X_8 Y_8] / eps = 100 sits in every tail the selector can take
        ins = instance
        with pytest.raises(TruncationTooSmall, match="no r <= 4"):
            weak_approx_select(ins, [Combo(ins, {("Y", ins.N): 1.0})], 1e-2)

    def test_validation(self, instance, instance_h):
        for eps in (-1.0, math.inf, math.nan):
            with pytest.raises(InputError):
                weak_approx_select(instance, targets(instance), eps)
        with pytest.raises(InputError):
            weak_approx_select(instance, [], 1e-2)
        with pytest.raises(InputError):
            weak_approx_select(instance_h, [Combo(instance_h, {("Z0",): 1.0})],
                               1e-2)


class TestLimitCertificate:
    def _member(self, ins, scale=1.0):
        X = Combo(ins, {("Xtail", 3): 2.0 * scale, ("W0",): -scale,
                        ("W", 1, 3): 0.5 * scale})
        return X, membership(ins, t_operator(ins, X))

    def test_constant_family(self, instance):
        X, cert = self._member(instance)
        members = [(X, cert)] * 5
        out = limit_certificate(instance, members, X)
        assert verify_certificate(instance, t_operator(instance, X), out)

    def test_converging_family(self, instance):
        ins = instance
        X, _ = self._member(ins)
        members = []
        for p in range(1, 8):
            U = X + 2.0 ** (-p)
            members.append((U, membership(ins, t_operator(ins, U))))
        out = limit_certificate(ins, members, X)
        assert verify_certificate(ins, t_operator(ins, X), out)

    def test_rejects_diverging_family(self, instance):
        X, cert = self._member(instance)
        far = X + 1.0
        with pytest.raises(InputError):
            limit_certificate(instance, [(far, membership(
                instance, t_operator(instance, far)))] * 4, X)

    def test_rejects_bad_certificate(self, instance):
        X, _ = self._member(instance)
        fake = MembershipCertificate(0.5, (((1, 1), 2.0),))
        with pytest.raises(CertificateError):
            limit_certificate(instance, [(X, fake)] * 3, X)

    def test_a_limit_outside_c_fails_the_final_check(self, instance):
        # -W0 + 4 and -W0 + 2 are members at lambda = 0 and approach -W0,
        # which is not a member: every check passes but the last, the
        # limit certificate against the limit's image
        ins = instance
        minus_w0 = Combo(ins, {("W0",): -1.0})
        members = [(U, membership(ins, t_operator(ins, U)))
                   for U in (minus_w0 + 4.0, minus_w0 + 2.0)]
        assert [cert.lam for _, cert in members] == [0.0, 0.0]
        with pytest.raises(NotAMember, match="against the limit image"):
            limit_certificate(ins, members, minus_w0)

    def test_one_member_is_invalid_input(self, instance):
        X, cert = self._member(instance)
        with pytest.raises(InputError, match="at least two"):
            limit_certificate(instance, [(X, cert)], X)

    @staticmethod
    def _two_pair_member(ins, lam):
        """A position whose certificates at ``lam`` may sit on pair (1, 3)
        or on pair (1, 4), with ``y = 1/2`` either way."""
        X = Combo(ins, {("Xtail", 3): 2.0, ("W0",): -0.5,
                        ("W", 1, 3): 0.5, ("W", 1, 4): 0.5})
        certs = [MembershipCertificate(lam, (((1, j), 0.5),)) for j in (3, 4)]
        img = t_operator(ins, X)
        assert all(verify_certificate(ins, img, c) for c in certs)
        return X, certs

    def test_a_vanishing_lambda_tail_settles_whatever_y_does(self, instance):
        # lambda_p = 2^-p halves along the tail, so the limit is the
        # zero-lambda certificate even though y keeps jumping
        ins = instance
        X = Combo(ins, {("Xtail", 3): 2.0, ("W", 1, 3): 0.5, ("W", 1, 4): 0.5})
        img = t_operator(ins, X)
        members = [(X, MembershipCertificate(2.0 ** -p, (((1, 3 + p % 2), 0.5),)))
                   for p in range(1, 9)]
        assert all(verify_certificate(ins, img, c) for _, c in members)
        assert limit_certificate(ins, members, X) == cex._ZERO_LAMBDA

    def test_a_y_tail_that_alternates_does_not_settle(self, instance):
        # lambda holds at 1/2 while y jumps by 1/2 > 1e-3 + lambda/2
        X, certs = self._two_pair_member(instance, 0.5)
        members = [(X, certs[p % 2]) for p in range(6)]
        with pytest.raises(InputError, match="does not settle"):
            limit_certificate(instance, members, X)

    def test_a_y_tail_at_the_settle_bound_is_accepted(self, instance):
        # y jumps by exactly 1e-3 + lambda/2 (= 1/2 in floats)
        lam = 2.0 * (0.5 - 1e-3)
        assert 1e-3 + 0.5 * lam == 0.5
        X, certs = self._two_pair_member(instance, lam)
        members = [(X, certs[p % 2]) for p in range(6)]
        out = limit_certificate(instance, members, X)
        assert out == certs[1]

    def test_a_settled_tail_does_not_loosen_the_final_check(self, instance):
        # L + E and L + E/2 approach L = -W0, which is not in C; y jumps
        # by 1/2 along the tail, within the settle bound, and the limit
        # is verified at _CERT_TOL, not at 4 times that jump
        ins = instance
        minus_w0 = Combo(ins, {("W0",): -1.0})
        E = Combo(ins, {("W", 1, 1): 1.0, ("W", 1, 2): 1.0, ("Xtail", 1): 4.0})
        certs = [MembershipCertificate(1.0, (((1, j), 0.5),)) for j in (1, 2)]
        members = [(minus_w0 + c * E, cert) for c in (1.0, 0.5) for cert in certs]
        assert all(verify_certificate(ins, t_operator(ins, U), cert)
                   for U, cert in members)
        with pytest.raises(NotAMember, match="against the limit image"):
            limit_certificate(ins, members, minus_w0)


class TestExhibitReplay:
    def test_sessions_are_the_fixture_bit_for_bit(self):
        # every rho_c, decision and gap_exhibit report of 16 seeded
        # exhibit sessions, compared by float.hex
        expected = json.loads(exhibit_replay.FIXTURE.read_text())
        assert len(expected) == len(exhibit_replay.SEEDS) == 16
        for seed, got, want in zip(exhibit_replay.SEEDS,
                                   exhibit_replay.replay(), expected):
            assert got == want, f"session {seed}"


class TestGapExhibit:
    def test_headline_report(self, instance):
        report = gap_exhibit(instance, targets(instance), 1e-2)
        assert report["rho_minus_w0"] == pytest.approx(SQRT3, abs=1e-4)
        assert report["delta"] > 1.0
        assert report["infeasibility_certificate"]
        approx = report["approximants"][0]
        assert approx["rho"] <= 1e-5
        assert all(row["bound"] < 1e-2 for row in approx["pairings"])
        assert report["truncation"]["variant"] == "L"


class TestVariantH:
    def test_minus_w0_still_excluded(self, instance_h):
        with pytest.raises(NotAMember):
            membership(instance_h, t_operator(
                instance_h, Combo(instance_h, {("W0",): -1.0})))

    def test_zero_and_nonneg_members(self, instance_h):
        ins = instance_h
        assert membership(ins, t_operator(ins, Combo(ins, {}))).lam == 0.0
        X = Combo(ins, {("X", 1): 1.0, ("W", 2): 0.5})
        img = t_operator(ins, X)
        cert = membership(ins, img)
        assert verify_certificate(ins, img, cert)

    def test_third_region_is_single_indexed(self, instance_h):
        assert instance_h.third_keys == [(j,) for j in range(1, 5)]
        img = t_operator(instance_h, Combo(instance_h, {}))
        assert all(len(k) == 1 for k, _ in img.v)


class TestSerialization:
    def test_certificate_round_trip(self, instance):
        ins = instance
        X = Combo(ins, {("Xtail", 3): 2.0, ("W0",): -1.0, ("W", 1, 3): 0.5})
        cert = membership(ins, t_operator(ins, X))
        again = certificate_from_json(certificate_to_json(cert))
        assert again.lam == cert.lam
        assert again.y == cert.y

    def test_certificate_malformed(self):
        with pytest.raises(InputError):
            certificate_from_json("{\"lambda\": 1.0}")

    def test_instance_round_trip(self, instance):
        text = instance_to_json(instance)
        again = instance_from_json(text)
        assert again.I == instance.I and again.N == instance.N
        assert again.variant == instance.variant
        assert instance_to_json(again) == text

    def test_instance_round_trip_keeps_sparse_ratio(self):
        ins = build_instance(build_sparse_pair(sparse_schedule(12, 3.0)),
                             2, 2, 3)
        text = instance_to_json(ins)
        again = instance_from_json(text)
        assert again.x_seq.blocks[0].height == 3.0
        assert instance_to_json(again) == text

    def test_instance_round_trip_past_the_default_cap(self):
        # built at t_cap = 1e300, the tallest block is past the 1e50 the
        # loader used to rebuild at, where the scan found no witness
        ins = build_instance(build_sparse_pair(sparse_schedule(bursts=25)),
                             6, 6, 12, t_cap=1e300)
        assert max(b.height for b in ins.z_seq.blocks) > 1e50
        text = instance_to_json(ins)
        assert instance_to_json(instance_from_json(text)) == text

    def test_instance_tampered_blocks_rejected(self, instance):
        payload = json.loads(instance_to_json(instance))
        payload["first_region"]["blocks"][0]["t"] *= 1.5
        with pytest.raises(InputError):
            instance_from_json(json.dumps(payload))
        payload = json.loads(instance_to_json(instance))
        payload["phi"] = payload["phi"].replace("ratio=2.0", "ratio=3.0")
        with pytest.raises(InputError):
            instance_from_json(json.dumps(payload))

    def test_instance_malformed(self):
        with pytest.raises(InputError):
            instance_from_json("{\"phi\": \"exp\"}")
