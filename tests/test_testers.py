"""Trial-level behavior: completeness, degenerate randomness, budgets, sampling."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rank1check import oracles
from rank1check.core import (
    BinaryTensor,
    CubePoint,
    DirectSum,
    MaskMismatchError,
    Shape,
    cube_points,
    delta,
)
from rank1check.testers import (
    ALL_TEST_KINDS,
    BLR,
    CONJECTURED,
    SHAPKA,
    SIC_CUBE,
    SIC_SUBSETS,
    TENSOR_TEST_KINDS,
    BlrRandomness,
    ConjecturedRandomness,
    ShapkaRandomness,
    SicCubeRandomness,
    SicSubsetsRandomness,
    blr_affinity_trial,
    blr_table,
    conjectured_trial,
    run_trial,
    sample_randomness,
    shapka_trial,
    sic_cube_trial,
    sic_subsets_trial,
)


def enumerate_randomness(kind, shape):
    """Every randomness tuple of a test over a small shape."""
    d = shape.d
    points = list(shape.points())
    if kind == SIC_SUBSETS:
        for a, b in itertools.product(points, repeat=2):
            for s in range(1 << d):
                for t in range(1 << d):
                    yield SicSubsetsRandomness(a, b, s, t)
    elif kind == SIC_CUBE:
        for a, b in itertools.product(points, repeat=2):
            m = delta(a, b)
            for x in cube_points(m):
                for y in cube_points(m):
                    yield SicCubeRandomness(a, b, x, y)
    elif kind == SHAPKA:
        for a, b in itertools.product(points, repeat=2):
            yield ShapkaRandomness(a, b)
    elif kind == CONJECTURED:
        for a, b in itertools.product(points, repeat=2):
            for x in cube_points(delta(a, b)):
                yield ConjecturedRandomness(a, b, x)
    else:
        raise ValueError(kind)


class TestCompleteness:
    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_every_direct_sum_accepted_on_every_tuple(self, dims, kind):
        shape = Shape(dims)
        for ds in DirectSum.enumerate_all(shape):
            f = ds.materialize()
            for r in enumerate_randomness(kind, shape):
                assert run_trial(f, kind, r).accepted

    def test_affine_tables_pass_blr_always(self):
        for dim in (1, 2, 3):
            for w in range(1 << (dim + 1)):
                table = oracles.AffineWitness(w & 1, w >> 1).table(dim)
                for x in range(1 << dim):
                    for y in range(1 << dim):
                        assert blr_affinity_trial(table, BlrRandomness(x, y)).accepted


class TestSicSubsets:
    def test_s_equals_t_always_accepts(self):
        sh = Shape((2, 2))
        rng = np.random.default_rng(0)
        f = BinaryTensor(sh, rng.integers(0, 2, 4))
        for a in sh.points():
            for b in sh.points():
                for s in range(4):
                    assert sic_subsets_trial(f, SicSubsetsRandomness(a, b, s, s)).accepted

    def test_indicator_rejection_matches_oracle(self):
        # Exhaustive dual route: loop all 256 tuples through the trial and
        # compare against the enumeration oracle.  Frozen value 24/256.
        sh = Shape((2, 2))
        f = BinaryTensor(sh, [1, 0, 0, 0])
        rejected = sum(
            not sic_subsets_trial(f, r).accepted
            for r in enumerate_randomness(SIC_SUBSETS, sh)
        )
        exact = oracles.exact_rejection(f, SIC_SUBSETS)
        assert (rejected, 256) == (exact.rejecting, exact.total)
        assert exact.value == Fraction(3, 32)

    def test_rejects_bad_subset(self):
        f = BinaryTensor(Shape((2, 2)), [0, 0, 0, 0])
        with pytest.raises(ValueError):
            sic_subsets_trial(f, SicSubsetsRandomness((0, 0), (1, 1), 1 << 5, 0))

    def test_query_budget(self):
        sh = Shape((3, 3))
        f = BinaryTensor(sh, np.zeros(9, dtype=np.uint8))
        for r in enumerate_randomness(SIC_SUBSETS, sh):
            assert len(sic_subsets_trial(f, r).queries) <= 4


class TestSicCube:
    def test_x_equals_y_always_accepts(self):
        sh = Shape((2, 3))
        rng = np.random.default_rng(1)
        f = BinaryTensor(sh, rng.integers(0, 2, 6))
        for a in sh.points():
            for b in sh.points():
                for x in cube_points(delta(a, b)):
                    assert sic_cube_trial(f, SicCubeRandomness(a, b, x, x)).accepted

    def test_mask_mismatch(self):
        f = BinaryTensor(Shape((2, 2)), [0, 0, 0, 0])
        bad = CubePoint(0b01, 0)
        with pytest.raises(MaskMismatchError):
            sic_cube_trial(f, SicCubeRandomness((0, 0), (1, 1), bad, bad))

    def test_equals_subsets_formulation_on_random_tensors(self):
        sh = Shape((2, 2, 2))
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = BinaryTensor(sh, rng.integers(0, 2, 8))
            r1 = oracles.exact_rejection(f, SIC_SUBSETS)
            r2 = oracles.exact_rejection(f, SIC_CUBE)
            assert r1.value == r2.value

    def test_degenerate_pair_accepts(self):
        # a == b spans a zero-dimensional cube; the trial must accept.
        f = BinaryTensor(Shape((2, 2)), [1, 1, 0, 1])
        z = CubePoint(0, 0)
        assert sic_cube_trial(f, SicCubeRandomness((1, 0), (1, 0), z, z)).accepted


class TestShapka:
    def test_even_dimension_query_set(self):
        sh = Shape((2, 2))
        f = BinaryTensor(sh, [0, 1, 1, 0])
        out = shapka_trial(f, ShapkaRandomness((0, 0), (1, 1)))
        assert set(out.queries) == {(1, 1), (1, 0), (0, 1), (0, 0)}
        assert len(out.queries) == 4

    def test_odd_dimension_excludes_anchor(self):
        sh = Shape((2, 2, 2))
        f = BinaryTensor(sh, np.zeros(8, dtype=np.uint8))
        out = shapka_trial(f, ShapkaRandomness((0, 0, 0), (1, 1, 1)))
        assert len(out.queries) == 4
        assert (0, 0, 0) not in out.queries

    def test_query_budget(self):
        for dims in [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2)]:
            sh = Shape(dims)
            f = BinaryTensor(sh, np.zeros(sh.size, dtype=np.uint8))
            for r in enumerate_randomness(SHAPKA, sh):
                assert len(shapka_trial(f, r).queries) <= sh.d + 2

    def test_one_flip_rejection_at_least_distance(self):
        sh = Shape((2, 2, 2))
        base = DirectSum.random(sh, np.random.default_rng(3)).materialize()
        bits = base.bits.copy()
        bits[6] ^= 1
        f = BinaryTensor(sh, bits)
        exact = oracles.exact_rejection(f, SHAPKA)
        assert exact.value >= Fraction(1, 8)


class TestBlr:
    def test_x_zero_always_accepts(self):
        rng = np.random.default_rng(4)
        table = rng.integers(0, 2, 8)
        for y in range(8):
            assert blr_affinity_trial(table, BlrRandomness(0, y)).accepted

    def test_and_gate_rejection(self):
        # Dual route: direct loop over all 16 pairs vs the oracle, frozen 6/16.
        table = [0, 0, 0, 1]
        rejected = sum(
            not blr_affinity_trial(table, BlrRandomness(x, y)).accepted
            for x in range(4) for y in range(4)
        )
        exact = oracles.exact_blr_rejection(table)
        assert (rejected, 16) == (exact.rejecting, exact.total)
        assert exact.value == Fraction(3, 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            blr_affinity_trial([0, 1, 0], BlrRandomness(0, 0))

    @pytest.mark.parametrize("check", [
        lambda t: blr_affinity_trial(t, BlrRandomness(1, 2)),
        oracles.exact_blr_rejection,
        oracles.nearest_affine,
    ], ids=["trial", "exact", "nearest"])
    @pytest.mark.parametrize("table", [[0, 2, 0, 0], [0, -1, 0, 0],
                                       np.array([0, 256, 0, 0])])
    def test_rejects_non_bit_entries(self, check, table):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            check(table)

    def test_blr_table_requires_binary_axes(self):
        with pytest.raises(ValueError):
            blr_table(BinaryTensor(Shape((3,)), [0, 1, 0]))

    def test_query_budget_counts_origin(self):
        out = blr_affinity_trial([0, 1, 1, 0], BlrRandomness(1, 2))
        assert len(out.queries) == 4
        assert out.queries[0] == 0


class TestConjectured:
    def test_x_zero_and_x_top_accept(self):
        sh = Shape((2, 3))
        rng = np.random.default_rng(5)
        f = BinaryTensor(sh, rng.integers(0, 2, 6))
        for a in sh.points():
            for b in sh.points():
                m = delta(a, b)
                assert conjectured_trial(
                    f, ConjecturedRandomness(a, b, CubePoint(m, 0))).accepted
                assert conjectured_trial(
                    f, ConjecturedRandomness(a, b, CubePoint(m, m))).accepted

    def test_query_budget(self):
        sh = Shape((2, 2, 2))
        f = BinaryTensor(sh, np.zeros(8, dtype=np.uint8))
        for r in enumerate_randomness(CONJECTURED, sh):
            assert len(conjectured_trial(f, r).queries) == 4


class TestSymmetries:
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_exact_rejection_invariant_under_reindex_and_flip(self, kind):
        from rank1check.core import flip, reindex
        sh = Shape((2, 2, 2))
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = BinaryTensor(sh, rng.integers(0, 2, 8))
            base = oracles.exact_rejection(f, kind).value
            perms = [rng.permutation(n).tolist() for n in sh.dims]
            assert oracles.exact_rejection(reindex(f, perms), kind).value == base
            assert oracles.exact_rejection(flip(f), kind).value == base


class TestSampling:
    def test_deterministic_in_seed(self):
        from rank1check.harness import rng_for
        sh = Shape((3, 2, 3))
        for kind in ALL_TEST_KINDS:
            use = Shape((2, 2, 2)) if kind == BLR else sh
            a = sample_randomness(kind, use, rng_for(99))
            b = sample_randomness(kind, use, rng_for(99))
            assert a == b

    def test_delta_size_marginal_binomial(self):
        # On (2,2) each axis differs with probability 1/2, so |delta| is
        # Binomial(2, 1/2); check the mean within 3 sigma at 1e5 draws.
        from rank1check.harness import rng_for
        rng = rng_for(7)
        sh = Shape((2, 2))
        n = 100000
        total = 0
        for _ in range(n):
            r = sample_randomness(SHAPKA, sh, rng)
            total += delta(r.a, r.b).bit_count()
        mean = total / n
        sigma = np.sqrt(2 * 0.25 / n)
        assert abs(mean - 1.0) <= 3 * sigma

    def test_subset_inclusion_frequency(self):
        from rank1check.harness import rng_for
        rng = rng_for(8)
        sh = Shape((2, 2))
        n = 100000
        counts = np.zeros(2)
        for _ in range(n):
            r = sample_randomness(SIC_SUBSETS, sh, rng)
            for i in range(2):
                counts[i] += (r.s >> i) & 1
        sigma = np.sqrt(0.25 / n)
        assert np.all(np.abs(counts / n - 0.5) <= 3 * sigma)

    def test_cube_randomness_has_matching_mask(self):
        from rank1check.harness import rng_for
        rng = rng_for(9)
        sh = Shape((3, 3))
        for _ in range(200):
            r = sample_randomness(SIC_CUBE, sh, rng)
            assert r.x.mask == r.y.mask == delta(r.a, r.b)

    def test_blr_needs_binary_shape(self):
        from rank1check.harness import rng_for
        with pytest.raises(ValueError):
            sample_randomness(BLR, Shape((3, 2)), rng_for(0))
