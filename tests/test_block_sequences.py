import pytest

from orlicz_lab.errors import InputError, WitnessNotFound
from orlicz_lab.block_sequences import (
    REGIONS,
    Block,
    BlockSequence,
    block_luxemburg_norm,
    blocks_from_json,
    blocks_to_json,
    build_disjoint_sequence,
    discretize,
    dual_block_orlicz_norm,
    series_modular,
)
from orlicz_lab.block_sequences import _exact_unit_pair
from orlicz_lab.finite_model import pairing
from orlicz_lab.norms import luxemburg_norm, orlicz_norm
from orlicz_lab.orlicz_functions import (CATALOG, ExpFunction,
                                         build_sparse_pair, conjugate,
                                         delta2_witnesses, sparse_schedule)

#: every CATALOG function and its conjugate, and sparse functions whose
#: schedules fit in double precision, with their conjugates
SEQUENCE_FUNCTIONS = [
    pytest.param(f, id=f"{name}-{side}")
    for name, phi in list(CATALOG.items()) + [
        (f"sparse{b}/{r:g}", build_sparse_pair(sparse_schedule(b, r)))
        for b in (6, 12, 25) for r in (2.0, 3.0) if (b, r) != (25, 3.0)]
    for side, f in (("phi", phi), ("conjugate", conjugate(phi)))
]


class TestBlockSequenceValidation:
    def test_regions_partition(self):
        assert REGIONS["omega1"] == (0.0, 1.0 / 3.0)
        assert REGIONS["omega2"][1] == REGIONS["omega3"][0]

    def test_overlap_rejected(self):
        blocks = (Block(1, 1.0, 0.1, 0.0, 0.1), Block(2, 1.0, 0.1, 0.05, 0.2))
        with pytest.raises(InputError):
            BlockSequence("omega1", blocks)

    def test_out_of_region_rejected(self):
        with pytest.raises(InputError):
            BlockSequence("omega1", (Block(1, 1.0, 0.1, 0.3, 0.4),))

    def test_probability_exceeding_slot_rejected(self):
        with pytest.raises(InputError):
            BlockSequence("omega1", (Block(1, 1.0, 0.2, 0.0, 0.1),))

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            BlockSequence("omega4", ())


class TestBuildDisjointSequence:
    def test_pairing_exact(self):
        phi = ExpFunction()
        xs, ys = build_disjoint_sequence(phi, 8)
        assert len(xs) == len(ys) == 8
        for xb, yb in zip(xs.blocks, ys.blocks):
            assert xb.probability * xb.height * yb.height == pytest.approx(1.0, abs=1e-12)

    def test_norm_windows(self):
        phi = ExpFunction()
        psi = conjugate(phi)
        xs, ys = build_disjoint_sequence(phi, 8)
        for xb in xs.blocks:
            norm = block_luxemburg_norm(xb, phi)
            assert 0.5 < norm <= 1.0 + 1e-9, (xb.index, norm)
        for yb in ys.blocks:
            norm = dual_block_orlicz_norm(yb, phi)
            assert norm < 2.0 + 1e-9, (yb.index, norm)

    def test_series_modular_geometric(self):
        phi = ExpFunction()
        xs, _ = build_disjoint_sequence(phi, 10)
        value, tail = series_modular(xs, phi, 1.0)
        # sum_{n<=10} 2^-n plus a 2^-10 tail bound
        assert value == pytest.approx(sum(2.0 ** -b.index for b in xs.blocks),
                                      rel=1e-12)
        assert value + tail <= 1.0 + 1e-12
        _, tail5 = series_modular(BlockSequence(xs.region, xs.blocks[:5]),
                                  phi, 1.0)
        assert tail5 == 2.0 ** -xs.blocks[4].index

    def test_series_modular_of_no_blocks_is_zero(self):
        empty = BlockSequence("omega1", ())
        assert series_modular(empty, ExpFunction(), 1.0) == (0.0, 0.0)

    def test_series_modular_requires_lam_at_least_one(self):
        phi = ExpFunction()
        xs, _ = build_disjoint_sequence(phi, 3)
        with pytest.raises(InputError):
            series_modular(xs, phi, 0.5)

    def test_sparse_function_underflow_slots(self):
        phi = build_sparse_pair(sparse_schedule(bursts=12))
        xs, ys = build_disjoint_sequence(phi, 12)
        assert len(xs) == 12
        for b in xs.blocks:
            assert b.hi > b.lo
            assert b.probability <= (b.hi - b.lo) + 1e-15

    def test_bad_region(self):
        with pytest.raises(InputError):
            build_disjoint_sequence(ExpFunction(), 3, region="omega9")


class TestOneEvaluationPerSequence:
    """The blocks and the series modular from one phi call on all heights
    are, bit for bit, what one scalar call per block gives."""

    @staticmethod
    def witnesses(phi, most=8):
        for count in range(most, 0, -1):
            try:
                return delta2_witnesses(phi, count)
            except WitnessNotFound:
                pass
        return []

    @pytest.mark.parametrize("phi", SEQUENCE_FUNCTIONS)
    def test_blocks_match_the_per_block_recipe(self, phi):
        witnesses = self.witnesses(phi)
        if not witnesses:
            with pytest.raises(WitnessNotFound):
                build_disjoint_sequence(phi, 1)
            return
        xs, ys = build_disjoint_sequence(phi, len(witnesses))
        for (n, t), xb, yb in zip(witnesses, xs.blocks, ys.blocks):
            p, h = _exact_unit_pair(1 / (2 ** n * float(phi(t))), t)
            assert (xb.height, xb.probability) == (t, p)
            assert (yb.height, yb.probability) == (h, p)
        for lam in (1.0, 1.7):
            value = 0.0
            for b in xs.blocks:
                value += b.probability * float(phi(b.height / lam))
            assert series_modular(xs, phi, lam)[0] == value


class TestDiscretize:
    def test_cross_check_against_norms(self):
        phi = ExpFunction()
        psi = conjugate(phi)
        xs, ys = build_disjoint_sequence(phi, 6)
        space, (x_rvs, y_rvs) = discretize(xs, ys)
        for xb, yb, X, Y in zip(xs.blocks, ys.blocks, x_rvs, y_rvs):
            assert pairing(X, Y) == pytest.approx(1.0, abs=1e-9)
            assert luxemburg_norm(X, phi) == pytest.approx(
                block_luxemburg_norm(xb, phi), rel=1e-7)
            assert orlicz_norm(Y, phi) == pytest.approx(
                dual_block_orlicz_norm(yb, phi), rel=1e-6)

    def test_disjoint_blocks_vanish_jointly(self):
        phi = ExpFunction()
        xs, _ = build_disjoint_sequence(phi, 5)
        _, (x_rvs,) = discretize(xs)
        for i, Xi in enumerate(x_rvs):
            for Xj in x_rvs[i + 1:]:
                assert pairing(Xi, Xj) == 0.0

    def test_overlapping_distinct_sequences_rejected(self):
        a = BlockSequence("omega1", (Block(1, 1.0, 0.1, 0.0, 0.1),))
        b = BlockSequence("omega1", (Block(1, 1.0, 0.1, 0.05, 0.15),))
        with pytest.raises(InputError):
            discretize(a, b)

    def test_slack_summed_over_three_regions_overflows(self):
        # each of 1100 blocks per third starts 0.8e-15 before the last
        # one ends and exceeds its slot by as much: every slot, region
        # and overlap check passes within its 1e-15 or 1e-12, but the
        # thirds together hold about 1 + 2.6e-12
        def crowded(region, n=1100, over=0.8e-15):
            lo, hi = REGIONS[region]
            width, blocks, end = (hi - lo) / n, [], lo
            for k in range(n):
                start = end - over if k else lo
                blocks.append(Block(k + 1, 1.0, width + over, start,
                                    start + width))
                end = start + width
            return BlockSequence(region, tuple(blocks))

        with pytest.raises(InputError, match=r"overflow \[0, 1\]"):
            discretize(*(crowded(region) for region in REGIONS))


class TestJson:
    def test_round_trip(self):
        phi = ExpFunction()
        xs, _ = build_disjoint_sequence(phi, 4)
        again = blocks_from_json(blocks_to_json(xs))
        assert again.region == xs.region
        assert [b.height for b in again.blocks] == [b.height for b in xs.blocks]
        assert [b.probability for b in again.blocks] == [
            b.probability for b in xs.blocks]

    def test_malformed(self):
        with pytest.raises(InputError):
            blocks_from_json("{\"region\": \"omega1\"}")
        with pytest.raises(InputError):
            blocks_from_json("not json")
