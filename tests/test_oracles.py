"""Exact oracles: enumeration counts, nearest codewords, decoders, identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank1check.core import (
    BinaryTensor,
    CubePoint,
    DirectSum,
    Shape,
    cube_points,
    delta,
    distance,
    flip,
    materialize,
    point_with,
    project,
    splice,
)
from rank1check.oracles import (
    AffineWitness,
    BudgetExceededError,
    best_anchor_decode,
    biased_character_probability,
    biased_character_probability_enumerated,
    exact_blr_rejection,
    exact_rejection,
    exact_rejections,
    is_direct_sum,
    local_view_decode,
    nearest_affine,
    nearest_direct_sum,
    nearest_distances,
    shapka_residual_identity_check,
)
from rank1check.testers import (
    ALL_TEST_KINDS,
    BLR,
    CONJECTURED,
    SHAPKA,
    SIC_CUBE,
    SIC_SUBSETS,
    TENSOR_TEST_KINDS,
)


def all_tensors(shape):
    for idx in range(1 << shape.size):
        yield BinaryTensor(shape, [(idx >> i) & 1 for i in range(shape.size)])


class TestExactRejection:
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_direct_sums_reject_never(self, kind):
        for dims in [(2, 2), (3, 2), (2, 2, 2)]:
            sh = Shape(dims)
            for ds in DirectSum.enumerate_all(sh):
                r = exact_rejection(ds.materialize(), kind)
                assert r.rejecting == 0 and r.total > 0

    def test_totals_are_the_full_space(self):
        sh = Shape((2, 2))
        f = BinaryTensor(sh, [1, 0, 0, 0])
        assert exact_rejection(f, SIC_SUBSETS).total == 4 * 4 * 4 * 4
        assert exact_rejection(f, SIC_CUBE).total == 4 * 4 * 4 * 4
        assert exact_rejection(f, SHAPKA).total == 4 * 4
        assert exact_rejection(f, "conjectured").total == 4 * 4 * 4

    def test_blr_and_gate(self):
        assert exact_blr_rejection([0, 0, 0, 1]).value == Fraction(3, 8)

    def test_one_flip_shapka_lower_bound(self):
        sh = Shape((2, 2, 2))
        base = DirectSum.random(sh, np.random.default_rng(0)).materialize()
        for pos in range(8):
            bits = base.bits.copy()
            bits[pos] ^= 1
            value = exact_rejection(BinaryTensor(sh, bits), SHAPKA).value
            assert value >= Fraction(1, 8)

    def test_budget_refusal(self):
        sh = Shape((2, 2))
        f = BinaryTensor(sh, [1, 0, 0, 0])
        with pytest.raises(BudgetExceededError):
            exact_rejection(f, SIC_SUBSETS, budget=10)

    @pytest.mark.parametrize("units", [28, 30])
    def test_refuses_counts_beyond_int64(self, units):
        # The space has 2^(2 * units + 8) tuples.  From 2^63 on its weights
        # and sums would wrap in int64, so a raised budget still refuses.
        f = BinaryTensor(Shape((2, 2) + (1,) * units), [0, 0, 0, 1])
        with pytest.raises(BudgetExceededError, match="int64 limit"):
            exact_rejection(f, SIC_SUBSETS, budget=10**40)
        assert exact_rejection(f, SHAPKA, budget=10**40).total == 16

    def test_blr_refuses_cubes_beyond_int64(self):
        # sum_S W(S)^3 can reach n^3 = 2^63 at D = 21, past int64.
        table = np.zeros(1 << 21, dtype=np.uint8)
        with pytest.raises(BudgetExceededError, match="int64 limit"):
            exact_blr_rejection(table, budget=2**42)

    def test_formulation_equivalence_includes_weighting(self):
        # The cube enumeration weights pairs by cube size; on a shape with
        # unequal axes the weighted total still matches the subsets space.
        sh = Shape((3, 2))
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = BinaryTensor(sh, rng.integers(0, 2, 6))
            r1 = exact_rejection(f, SIC_SUBSETS)
            r2 = exact_rejection(f, SIC_CUBE)
            assert r1.total == r2.total == 36 * 16
            assert r1.value == r2.value


def brute_force_rejection(f, kind):
    """(rejecting, total) summed tuple by tuple over the weighted space.

    Each accept bit comes straight from core's point operations, with no
    use of the testers' query patterns or the oracles' plans.
    """
    sh = f.shape
    d = sh.d
    rejecting = total = 0

    def add(queries, weight=1):
        nonlocal rejecting, total
        parity = 0
        for q in queries:
            parity ^= f.value(q)
        rejecting += parity * weight
        total += weight

    for a in sh.points():
        for b in sh.points():
            m = delta(a, b)
            if kind == SIC_SUBSETS:
                for s in range(1 << d):
                    for t in range(1 << d):
                        add([a] + [splice(b, a, u) for u in (s, t, s ^ t)])
            elif kind == SIC_CUBE:
                for x in cube_points(m):
                    for y in cube_points(m):
                        add([project(a, b, c) for c in (CubePoint(m, 0), x, y, x ^ y)],
                            4 ** (d - m.bit_count()))
            elif kind == SHAPKA:
                add([b] + [point_with(a, j, b[j]) for j in range(d)]
                    + ([a] if d % 2 == 0 else []))
            elif kind == CONJECTURED:
                top = CubePoint(m, m)
                for x in cube_points(m):
                    add([project(a, b, c) for c in (CubePoint(m, 0), x, top, x ^ top)],
                        2 ** (d - m.bit_count()))
    return rejecting, total


def brute_force_blr(table):
    n = len(table)
    rejecting = sum(table[0] ^ table[x] ^ table[y] ^ table[x ^ y]
                    for x in range(n) for y in range(n))
    return rejecting, n * n


class TestBruteForceReference:
    @pytest.mark.parametrize("dims", [(1,), (3,), (2, 2), (3, 2), (2, 1, 2), (2, 2, 2)])
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_tensor_tests(self, dims, kind):
        sh = Shape(dims)
        rng = np.random.default_rng(sum(dims) + len(dims))
        for _ in range(3):
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            r = exact_rejection(f, kind)
            assert (r.rejecting, r.total) == brute_force_rejection(f, kind)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_blr(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.integers(0, 2, (4, 1 << dim))
        rej, total = exact_rejections(Shape((2,) * dim), BLR, rows)
        for row, batched in zip(rows, rej):
            table = [int(v) for v in row]
            brute = brute_force_blr(table)
            assert (int(batched), total) == brute
            r = exact_blr_rejection(table)
            assert (r.rejecting, r.total) == brute
            f = BinaryTensor(Shape((2,) * dim), table)
            assert exact_rejection(f, BLR) == r


class TestNearestDirectSum:
    def test_member_has_zero_distance(self):
        sh = Shape((2, 2, 2))
        ds = DirectSum.random(sh, np.random.default_rng(2))
        res = nearest_direct_sum(ds.materialize())
        assert res.distance == 0
        assert res.witness == ds

    def test_one_flip_distance(self):
        sh = Shape((2, 2, 2))
        base = DirectSum.random(sh, np.random.default_rng(3))
        bits = base.materialize().bits.copy()
        bits[2] ^= 1
        res = nearest_direct_sum(BinaryTensor(sh, bits))
        assert res.distance == Fraction(1, 8)
        assert res.witness == base

    def test_parity_of_coordinates_is_direct_sum(self):
        sh = Shape((2, 2, 2))
        f = BinaryTensor.from_function(sh, lambda p: sum(p) & 1)
        assert nearest_direct_sum(f).distance == 0

    def test_tie_break_lexicographic(self):
        # All-around check against a test-local brute force with the same
        # ordering rule.
        sh = Shape((2, 2))
        sums = list(DirectSum.enumerate_all(sh))
        for f in all_tensors(sh):
            dists = [distance(f, materialize(ds)) for ds in sums]
            best = min(range(len(sums)), key=lambda i: (dists[i], i))
            res = nearest_direct_sum(f)
            assert res.distance == dists[best]
            assert res.witness == sums[best]

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            nearest_direct_sum(BinaryTensor(Shape((2, 2)), [0, 1, 1, 0]), budget=2)


class TestNearestAffine:
    def test_affine_is_at_zero(self):
        for dim in (1, 2, 3):
            for c in (0, 1):
                for mask in range(1 << dim):
                    t = AffineWitness(c, mask).table(dim)
                    res = nearest_affine(t)
                    assert res.distance == 0
                    assert res.witness == AffineWitness(c, mask)

    def test_and_gate(self):
        res = nearest_affine([0, 0, 0, 1])
        assert res.distance == Fraction(1, 4)
        assert res.witness == AffineWitness(0, 0)

    def test_majority(self):
        res = nearest_affine([0, 0, 0, 1, 0, 1, 1, 1])
        assert res.distance == Fraction(1, 4)
        assert res.witness == AffineWitness(0, 1)  # the first coordinate

    def test_matches_brute_force(self):
        # The witness is the smallest (constant, mask) among the minimisers,
        # so a wrong map from transform index to mask shows up here.
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3, 4):
            n = 1 << dim
            for _ in range(20):
                t = rng.integers(0, 2, n, dtype=np.uint8)
                res = nearest_affine(t)
                dist, c, m = min(
                    (int(np.count_nonzero(AffineWitness(c, m).table(dim) != t)), c, m)
                    for c in (0, 1) for m in range(n)
                )
                assert res.distance == Fraction(dist, n)
                assert res.witness == AffineWitness(c, m)


class TestLocalViewDecode:
    def test_direct_sum_round_trip_every_anchor(self):
        for dims in [(2, 2), (3, 2), (2, 2, 2), (3, 3)]:
            sh = Shape(dims)
            rng = np.random.default_rng(5)
            for _ in range(5):
                ds = DirectSum.random(sh, rng)
                f = ds.materialize()
                for a in sh.points():
                    assert local_view_decode(f, a).materialize() == f

    def test_even_dimension_flip_term(self):
        # With f(a) = 0 the last component is the raw slice.
        sh = Shape((2, 2))
        f = BinaryTensor(sh, [0, 1, 1, 1])
        a = (0, 0)
        assert f.value(a) == 0
        ds = local_view_decode(f, a)
        assert ds.eval((0, 1)) == f.value((0, 1))

    def test_best_anchor_on_one_flip(self):
        sh = Shape((2, 2, 2))
        base = DirectSum.random(sh, np.random.default_rng(6)).materialize()
        bits = base.bits.copy()
        bits[7] ^= 1
        f = BinaryTensor(sh, bits)
        anchor, ds, dist = best_anchor_decode(f)
        assert dist == nearest_direct_sum(f).distance == Fraction(1, 8)

    def test_decode_distance_equals_rejection_given_anchor(self):
        # The reconstruction residual at b is exactly the (a, b) parity, so
        # distance(f, decode) equals the fraction of rejecting b's.
        from rank1check.testers import ShapkaRandomness, shapka_trial
        cases = [((2, 2), 5), ((2, 3), 5), ((2, 2, 2), 5), ((3, 3), 3),
                 ((3, 3, 3), 2)]
        for dims, reps in cases:
            sh = Shape(dims)
            rng = np.random.default_rng(7)
            for _ in range(reps):
                f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
                for a in sh.points():
                    decoded = local_view_decode(f, a).materialize()
                    rejecting = sum(
                        not shapka_trial(f, ShapkaRandomness(a, b)).accepted
                        for b in sh.points()
                    )
                    assert distance(f, decoded) == Fraction(rejecting, sh.size)


class TestResidualIdentity:
    def test_exhaustive_two_by_two(self):
        sh = Shape((2, 2))
        for f in all_tensors(sh):
            for a in sh.points():
                for b in sh.points():
                    lhs, rhs = shapka_residual_identity_check(f, a, b)
                    assert lhs == rhs

    def test_odd_dimension_random(self):
        sh = Shape((2, 2, 2))
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = BinaryTensor(sh, rng.integers(0, 2, 8))
            for a in sh.points():
                for b in sh.points():
                    lhs, rhs = shapka_residual_identity_check(f, a, b)
                    assert lhs == rhs

    def test_direct_sum_both_sides_zero(self):
        sh = Shape((2, 3))
        ds = DirectSum.random(sh, np.random.default_rng(9))
        f = ds.materialize()
        for a in sh.points():
            for b in sh.points():
                assert shapka_residual_identity_check(f, a, b) == (0, 0)


class TestMembership:
    def test_is_direct_sum_exhaustive(self):
        sh = Shape((2, 2))
        members = {materialize(ds) for ds in DirectSum.enumerate_all(sh)}
        for f in all_tensors(sh):
            assert is_direct_sum(f) == (f in members)

    def test_flip_of_direct_sum_is_direct_sum(self):
        sh = Shape((3, 2))
        ds = DirectSum.random(sh, np.random.default_rng(10))
        assert is_direct_sum(flip(ds.materialize()))


class TestBiasedCharacters:
    def test_empty_set(self):
        assert biased_character_probability(0) == 1

    def test_singleton(self):
        assert biased_character_probability(1) == Fraction(1, 3)

    def test_pair(self):
        assert biased_character_probability(2) == Fraction(5, 9)

    def test_closed_form_matches_enumeration(self):
        for s in range(7):
            closed = biased_character_probability(s)
            assert closed == biased_character_probability_enumerated(s)
            assert closed == biased_character_probability_enumerated(s, dim=6)

    def test_threshold(self):
        # Strictly above 2/3 only at the empty set.
        assert biased_character_probability(0) > Fraction(2, 3)
        for s in range(1, 9):
            assert biased_character_probability(s) <= Fraction(2, 3)


class TestRigiditySmall:
    def test_two_by_two_rigidity(self):
        sh = Shape((2, 2))
        for f in all_tensors(sh):
            eps = exact_rejection(f, SIC_SUBSETS).value
            dist = nearest_direct_sum(f).distance
            assert (eps == 0) == (dist == 0)

    def test_four_axis_rigidity_exhaustive(self):
        # All 65536 tensors on (2,2,2,2), batched through a weighted cube
        # enumeration built here: each (a, b, x, y) row stands for the
        # 4^(d - |delta|) sic-cube tuples of the full randomness space.
        sh = Shape((2, 2, 2, 2))
        indices, weights = [], []
        for a in sh.points():
            for b in sh.points():
                m = delta(a, b)
                for x in cube_points(m):
                    for y in cube_points(m):
                        corners = (CubePoint(m, 0), x, y, x ^ y)
                        indices.append([sh.index_of(project(a, b, c)) for c in corners])
                        weights.append(4 ** (sh.d - m.bit_count()))
        indices = np.array(indices)
        weights = np.array(weights)
        total = int(weights.sum())
        assert total == sh.size ** 2 * 4 ** sh.d
        tables = ((np.arange(1 << 16, dtype=np.int64)[:, None]
                   >> np.arange(16)) & 1).astype(np.uint8)
        rejecting = np.zeros(1 << 16, dtype=np.int64)
        chunk = 2048
        for lo in range(0, 1 << 16, chunk):
            vals = tables[lo:lo + chunk][:, indices]
            parity = np.bitwise_xor.reduce(vals, axis=2)
            rejecting[lo:lo + chunk] = (parity.astype(np.int64)
                                        * weights).sum(axis=1)
        cands = np.stack([materialize(ds).bits
                          for ds in DirectSum.enumerate_all(sh)])
        dists = (tables[:, None, :] != cands[None, :, :]).sum(axis=2).min(axis=1)
        assert np.array_equal(rejecting == 0, dists == 0)
        nonzero = dists > 0
        ratios = (rejecting[nonzero] / total) / (dists[nonzero] / 16)
        assert ratios.min() > 0
        # The public batched oracles agree with this independent enumeration.
        assert np.array_equal(nearest_distances(sh, tables), dists)
        assert np.array_equal(exact_rejections(sh, SIC_CUBE, tables[::16])[0],
                              rejecting[::16])
        # Spot-check the batched values against the per-tensor oracle.
        rng = np.random.default_rng(11)
        for idx in rng.integers(0, 1 << 16, size=8):
            f = BinaryTensor(sh, tables[idx])
            assert exact_rejection(f, SIC_CUBE).rejecting == rejecting[idx]


# ---------------------------------------------------------------------------
# Batched oracles
# ---------------------------------------------------------------------------


@st.composite
def batches(draw, kinds=ALL_TEST_KINDS):
    """(kind, shape, rows): up to 16 entries, all-binary axes for BLR."""
    kind = draw(st.sampled_from(kinds))
    if kind == BLR:
        dims = (2,) * draw(st.integers(1, 4))
    else:
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                          .filter(lambda ds: np.prod(ds) <= 16)))
    shape = Shape(dims)
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=shape.size,
                                  max_size=shape.size),
                         min_size=1, max_size=5))
    return kind, shape, np.array(rows, dtype=np.uint8)


class TestBatchedOracles:
    @settings(max_examples=80, deadline=None)
    @given(batches())
    def test_batch_equals_single(self, batch):
        kind, shape, rows = batch
        rej, total = exact_rejections(shape, kind, rows)
        dist = nearest_distances(shape, rows)
        assert rej.dtype == np.int64 and dist.dtype == np.int64
        for row, r, d in zip(rows, rej, dist):
            f = BinaryTensor(shape, row)
            single = exact_rejection(f, kind)
            assert (int(r), total) == (single.rejecting, single.total)
            assert Fraction(int(d), shape.size) == nearest_direct_sum(f).distance

    @settings(max_examples=80, deadline=None)
    @given(batches(), st.integers(0, 2**32 - 1))
    def test_coset_invariance(self, batch, seed):
        # Every test is a parity check that direct sums pass, so adding one
        # changes neither the rejection count nor the distance.
        kind, shape, rows = batch
        s = DirectSum.random(shape, np.random.default_rng(seed)).materialize()
        shifted = rows ^ s.bits
        assert np.array_equal(exact_rejections(shape, kind, shifted)[0],
                              exact_rejections(shape, kind, rows)[0])
        assert np.array_equal(nearest_distances(shape, shifted),
                              nearest_distances(shape, rows))

    @pytest.mark.parametrize("rows", [
        [[0, 1, 2, 0]], [[0, 1, -1, 0]], [[0, 0.5, 1, 0]],
        [[0, 1, 1]], [[0, 1, 1, 0, 1]], [0, 1, 1, 0], [[[0, 1, 1, 0]]],
    ], ids=["two", "minus-one", "half", "narrow", "wide", "flat", "3d"])
    def test_rejects_bad_rows(self, rows):
        shape = Shape((2, 2))
        with pytest.raises(ValueError):
            exact_rejections(shape, SHAPKA, rows)
        with pytest.raises(ValueError):
            nearest_distances(shape, rows)

    def test_empty_batch(self):
        rej, total = exact_rejections(Shape((2, 2)), SIC_SUBSETS, np.zeros((0, 4)))
        assert rej.shape == (0,) and total == 256
        assert nearest_distances(Shape((2, 2)), np.zeros((0, 4))).shape == (0,)

    @pytest.mark.parametrize("kind", ALL_TEST_KINDS)
    def test_budget_message_matches_single(self, kind):
        shape = Shape((2, 2, 2))
        f = BinaryTensor(shape, [0, 1, 1, 0, 1, 0, 0, 0])
        budget = exact_rejection(f, kind).total - 1
        with pytest.raises(BudgetExceededError) as single:
            exact_rejection(f, kind, budget)
        with pytest.raises(BudgetExceededError) as batch:
            exact_rejections(shape, kind, f.bits[None], budget)
        assert str(batch.value) == str(single.value)
        budget = DirectSum.count(shape) - 1
        with pytest.raises(BudgetExceededError) as single:
            nearest_direct_sum(f, budget)
        with pytest.raises(BudgetExceededError) as batch:
            nearest_distances(shape, f.bits[None], budget)
        assert str(batch.value) == str(single.value)

    def test_blr_needs_binary_axes(self):
        with pytest.raises(ValueError, match="BLR needs every axis of size 2"):
            exact_rejections(Shape((2, 3)), BLR, np.zeros((1, 6)))

    def test_many_passes(self):
        # A batch larger than one pass of the kernels gives the same counts
        # as the same tensors one at a time.
        shape = Shape((2, 2, 3))
        rows = np.random.default_rng(5).integers(0, 2, size=(300, 12))
        rej, _ = exact_rejections(shape, SIC_SUBSETS, rows)
        dist = nearest_distances(shape, rows)
        for i in range(300):
            f = BinaryTensor(shape, rows[i])
            assert rej[i] == exact_rejection(f, SIC_SUBSETS).rejecting
            assert Fraction(int(dist[i]), 12) == nearest_direct_sum(f).distance
