"""Exact oracles: enumeration counts, nearest codewords, decoders, identities."""

import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank1check import oracles
from rank1check.core import (
    BinaryTensor,
    CubePoint,
    DirectSum,
    Shape,
    delta,
    distance,
    flip,
    materialize,
    splice,
)
from rank1check.oracles import (
    AffineWitness,
    BudgetExceededError,
    ExactRejection,
    best_anchor_decode,
    exact_blr_rejection,
    exact_rejection,
    exact_rejections,
    exhaustive_soundness,
    is_direct_sum,
    local_view_decode,
    nearest_affine,
    nearest_direct_sum,
    nearest_distances,
)
from rank1check.testers import (
    ALL_TEST_KINDS,
    BLR,
    CONJECTURED,
    SHAPKA,
    SIC_CUBE,
    SIC_SUBSETS,
    TENSOR_TEST_KINDS,
    ConjecturedRandomness,
    ShapkaRandomness,
    SicCubeRandomness,
    SicSubsetsRandomness,
    run_trial,
    shapka_trial,
)
from test_core import cube_points


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
        f = BinaryTensor(Shape((2,) * 21), np.zeros(1 << 21, dtype=np.uint8))
        with pytest.raises(BudgetExceededError, match="int64 limit"):
            exact_rejection(f, BLR, budget=2**42)

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
    value = {p: f.value(p) for p in sh.points()}

    def add(queries, weight=1):
        nonlocal rejecting, total
        parity = 0
        for q in queries:
            parity ^= value[tuple(q)]
        rejecting += parity * weight
        total += weight

    for a in sh.points():
        for b in sh.points():
            m = delta(a, b)
            if kind == SIC_SUBSETS:
                picks = [splice(b, a, u) for u in range(1 << d)]
                for s in range(1 << d):
                    for t in range(1 << d):
                        add([a, picks[s], picks[t], picks[s ^ t]])
            elif kind == SIC_CUBE:
                for x in cube_points(m):
                    for y in cube_points(m):
                        add([splice(b, a, c.bits) for c in (CubePoint(m, 0), x, y, x ^ y)],
                            4 ** (d - m.bit_count()))
            elif kind == SHAPKA:
                add([b] + [a[:j] + (b[j],) + a[j + 1:] for j in range(d)]
                    + ([a] if d % 2 == 0 else []))
            elif kind == CONJECTURED:
                top = CubePoint(m, m)
                for x in cube_points(m):
                    add([splice(b, a, c.bits) for c in (CubePoint(m, 0), x, top, x ^ top)],
                        2 ** (d - m.bit_count()))
    return rejecting, total


def brute_force_blr(table):
    n = len(table)
    rejecting = sum(table[0] ^ table[x] ^ table[y] ^ table[x ^ y]
                    for x in range(n) for y in range(n))
    return rejecting, n * n


class TestBruteForceReference:
    @pytest.mark.parametrize("dims", [(1,), (3,), (2, 2), (3, 2), (2, 1, 2), (2, 2, 2),
                                      (3, 3), (2, 3, 2), (3, 1, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_tensor_tests(self, dims, kind):
        sh = Shape(dims)
        rng = np.random.default_rng(sum(dims) + len(dims))
        for _ in range(3):
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            r = exact_rejection(f, kind)
            assert (r.rejecting, r.total) == brute_force_rejection(f, kind)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 1, 3), (4, 2), (2, 2, 2)])
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    def test_sic_against_trials(self, dims, kind):
        # The whole randomness space of each tensor test's trial, run through
        # the public run_trial: the pattern-derived count that the cube and
        # line kernels must meet.  A cube point stands for the 2^(d - |delta|)
        # full selectors that agree with it on delta.
        sh = Shape(dims)
        d = sh.d
        rng = np.random.default_rng(len(dims) * 10 + sum(dims))
        for _ in range(2):
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            rejecting = total = 0
            for a in sh.points():
                for b in sh.points():
                    m = delta(a, b)
                    unit = 2 ** (d - m.bit_count())
                    if kind == SIC_SUBSETS:
                        space = [(SicSubsetsRandomness(a, b, s, t), 1)
                                 for s in range(1 << d) for t in range(1 << d)]
                    elif kind == SIC_CUBE:
                        space = [(SicCubeRandomness(a, b, x, y), unit ** 2)
                                 for x in cube_points(m) for y in cube_points(m)]
                    elif kind == SHAPKA:
                        space = [(ShapkaRandomness(a, b), 1)]
                    else:
                        space = [(ConjecturedRandomness(a, b, x), unit)
                                 for x in cube_points(m)]
                    total += sum(weight for _, weight in space)
                    rejecting += sum(weight for r, weight in space
                                     if not run_trial(f, kind, r).accepted)
            assert exact_rejection(f, kind) == ExactRejection(rejecting, total)

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


def bchks_gamma(delta):
    """Bellare-Coppersmith-Hastad-Kiwi-Sudan's lower bound on BLR rejection at distance delta."""
    if delta <= Fraction(5, 16):
        return 3 * delta - 6 * delta ** 2
    return max(Fraction(45, 128), delta)


class TestBchksBound:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_exhaustive_minimum_is_at_least_gamma(self, dim):
        # Every table on F2^dim: its exact BLR rejection, and its distance to
        # the nearest of the 2^(dim+1) affine functions, by brute force.  The
        # affinity test on f is the linearity test on f ^ f(0), and Gamma is
        # nondecreasing, so the bound on linearity holds here too.
        sh = Shape((2,) * dim)
        n = sh.size
        rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        rej, total = exact_rejections(sh, BLR, rows)
        points = np.indices(sh.dims).reshape(dim, n)
        linear = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1) @ points % 2
        affine = np.vstack((linear, 1 - linear))
        agree = (1 - 2 * rows) @ (1 - 2 * affine).T
        dist = (n - agree.max(axis=1)) // 2
        meets = []
        for j in range(1, int(dist.max()) + 1):
            eps = Fraction(int(rej[dist == j].min()), total)
            assert eps >= bchks_gamma(Fraction(j, n)), j
            if eps == bchks_gamma(Fraction(j, n)):
                meets.append(j)
        # One flip rejects 3n - 6 of the n^2 pairs, which is Gamma(1/n).
        assert meets[0] == 1
        print(f"(2,)^{dim}: the minimum rejection meets Gamma at j = {meets}")


class TestSicCubeKernel:
    """sic-subsets and sic-cube are counted from each pair's cube, with no plan."""

    @staticmethod
    def one_flip(d):
        sh = Shape((2,) * d)
        bits = DirectSum.random(sh, np.random.default_rng(d)).materialize().bits.copy()
        bits[3 % sh.size] ^= 1
        return BinaryTensor(sh, bits)

    @staticmethod
    def one_flip_count(d):
        # A tuple rejects when an odd number of its four queries hit the
        # flipped point.  Summed over the cubes the pairs span, that is
        # 4 (8^d - 3 6^d + 2 5^d) of the 16^d tuples.
        return 4 * (8 ** d - 3 * 6 ** d + 2 * 5 ** d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_flip_closed_form(self, d):
        f = self.one_flip(d)
        assert brute_force_rejection(f, SIC_SUBSETS) == (self.one_flip_count(d), 16 ** d)

    @pytest.mark.parametrize("kind", [SIC_SUBSETS, SIC_CUBE])
    def test_seven_binary_axes_without_a_plan(self, monkeypatch, kind):
        # A plan of this space would hold 128 * 5^7 rows of 4 queries, which
        # peaked at 1.5 GiB; the cube table holds 128 * 3^7 indices.
        monkeypatch.setattr(oracles, "_cache", {})  # build the cube table cold
        f = self.one_flip(7)
        tracemalloc.start()
        try:
            r = exact_rejection(f, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.rejecting, r.total) == (self.one_flip_count(7), 16 ** 7)
        assert peak < 64 << 20

    def test_eight_binary_axes_cold(self, monkeypatch):
        # The cube table holds 256 * 3^8 int64 indices, 13 MiB, so the bound
        # leaves room for little beside the table and one width's transform.
        monkeypatch.setattr(oracles, "_cache", {})
        f = self.one_flip(8)
        tracemalloc.start()
        try:
            r = exact_rejection(f, SIC_SUBSETS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.rejecting, r.total) == (self.one_flip_count(8), 16 ** 8)
        assert peak < 32 << 20

    def test_four_axes_of_five_cold(self, monkeypatch):
        # The table and the pair differences take 43 MiB; the doubling fills
        # each width's cubes in place, so little comes on top.
        monkeypatch.setattr(oracles, "_cache", {})
        f = BinaryTensor(Shape((5,) * 4), np.random.default_rng(5).integers(0, 2, 625))
        tracemalloc.start()
        try:
            exact_rejection(f, CONJECTURED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    @pytest.mark.parametrize("kind", [SIC_SUBSETS, SIC_CUBE, CONJECTURED])
    def test_byte_ceiling_refuses_before_building(self, kind):
        # (8,)^4 passes the default tuple budget, and its cube table would
        # hold 4096 * 50568 int64 indices (1.54 GiB) beside 512 MiB of
        # differences.
        f = BinaryTensor(Shape((8,) * 4), np.zeros(4096, dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as refused:
                exact_rejection(f, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            f"{kind} on shape (8, 8, 8, 8) needs 2193883136 bytes for its cube "
            "table, beyond the 268435456-byte ceiling")
        assert peak < 1 << 20

    def test_tuple_budget_is_checked_first(self):
        f = BinaryTensor(Shape((8,) * 4), np.zeros(4096, dtype=np.uint8))
        with pytest.raises(BudgetExceededError,
                           match="^sic-subsets enumeration needs 4294967296 tuples, "
                                 "budget is 2147483648$"):
            exact_rejection(f, SIC_SUBSETS, budget=1 << 31)

    @pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 1, 2), (2, 2, 2),
                                      (4, 4, 4), (1, 4, 1, 3), (2,) * 5])
    def test_byte_count_is_what_the_build_holds(self, monkeypatch, dims):
        # With the ceiling at zero the refusal names the bytes the build
        # would take: the table plus the (size^2, d) int64 differences.  A
        # shape whose table is empty, such as (5,), builds nothing and so is
        # never refused.
        sh = Shape(dims)
        monkeypatch.setattr(oracles, "MAX_CUBE_TABLE_BYTES", 0)
        entries = sum(cubes.size for _, cubes in oracles._cube_table(sh))
        if entries == 0:
            assert exact_rejection(BinaryTensor.zeros(sh), CONJECTURED).rejecting == 0
            return
        with pytest.raises(BudgetExceededError) as refused:
            exact_rejection(BinaryTensor.zeros(sh), CONJECTURED)
        needed = int(str(refused.value).split(" needs ")[1].split()[0])
        assert needed == 8 * (entries + sh.size ** 2 * sh.d)

    def test_one_axis_builds_no_table(self, monkeypatch):
        # No pair of a one-axis shape differs on two axes, so its table is
        # empty: nothing is built and the byte ceiling does not apply.
        monkeypatch.setattr(oracles, "_cache", {})
        f = BinaryTensor(Shape((2048,)), np.random.default_rng(6).integers(0, 2, 2048))
        tracemalloc.start()
        try:
            r = exact_rejection(f, CONJECTURED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.rejecting, r.total) == (0, 2048 ** 2 * 2)
        assert peak < 1 << 20
        f = BinaryTensor(Shape((32768,)), np.random.default_rng(7).integers(0, 2, 32768))
        r = exact_rejection(f, SIC_SUBSETS)
        assert (r.rejecting, r.total) == (0, 1 << 32)


class TestShapkaKernel:
    """shapka is counted by the residual identity, from a Walsh transform over the binary axes."""

    @staticmethod
    def six_by_four():
        sh = Shape((6,) * 4)
        return BinaryTensor(sh, np.random.default_rng(12).integers(0, 2, sh.size))

    def test_four_axes_of_six_cold(self, monkeypatch):
        # The (a, b) pairs of this shape number 1296^2; the Gram table holds
        # 216^2 int64 entries.
        monkeypatch.setattr(oracles, "_cache", {})
        f = self.six_by_four()
        tracemalloc.start()
        try:
            r = exact_rejection(f, SHAPKA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.total == 1296 ** 2
        assert peak < 16 << 20

    def test_gram_table_ceiling_refuses_before_building(self, monkeypatch):
        # (3,)^10's 3^20 pairs pass the default tuple budget, but its Gram
        # table would hold 3^9 x 3^9 int64 entries, 2.9 GiB.  shapka and the
        # best-anchor decode share it.
        monkeypatch.setattr(oracles, "_cache", {})
        f = BinaryTensor.zeros(Shape((3,) * 10))
        for call in (lambda: exact_rejection(f, SHAPKA), lambda: best_anchor_decode(f)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError) as refused:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(refused.value) == (
                f"local-view decode on shape {(3,) * 10} needs 3099363912 bytes for its "
                "Gram table, beyond the 268435456-byte ceiling")
            assert peak < 1 << 20

    def test_gram_table_is_what_is_counted(self, monkeypatch):
        # (2,)^11 x 3: the Gram table holds 2^11 x 2^11 int64 entries, 32 MiB,
        # and the rest of the count stays near a MiB beside it.  A shape of
        # one axis needs no table: its Gram table is a single entry.
        for dims, gram, seed in (((2,) * 11 + (3,), 32 << 20, 13), ((4096,), 8, 14)):
            monkeypatch.setattr(oracles, "_cache", {})
            sh = Shape(dims)
            f = BinaryTensor(sh, np.random.default_rng(seed).integers(0, 2, sh.size))
            tracemalloc.start()
            try:
                r = exact_rejection(f, SHAPKA)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert r.total == sh.size ** 2
            assert gram <= peak < gram + (2 << 20)
            monkeypatch.setattr(oracles, "MAX_CUBE_TABLE_BYTES", gram - 1)
            with pytest.raises(BudgetExceededError, match=f" needs {gram} bytes for its Gram"):
                exact_rejection(f, SHAPKA)
            monkeypatch.setattr(oracles, "MAX_CUBE_TABLE_BYTES", gram)
            assert exact_rejection(f, SHAPKA) == r
        assert r.rejecting == 0  # on one axis the hybrid of a toward b is b

    def test_anchor_residuals_are_decode_distances(self):
        f = self.six_by_four()
        residuals = oracles._residuals(f.bits[None], f.shape)[0]
        assert residuals.sum() == exact_rejection(f, SHAPKA).rejecting
        for a in [(0, 0, 0, 0), (5, 5, 5, 5), (1, 4, 0, 3), (2, 0, 5, 1)]:
            decoded = local_view_decode(f, a).materialize()
            assert residuals[f.shape.index_of(a)] == distance(f, decoded) * f.shape.size

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3)])
    def test_best_anchor_is_the_first_closest(self, dims):
        sh = Shape(dims)
        rng = np.random.default_rng(sum(dims))
        for _ in range(5):
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            best = None
            for a in sh.points():
                ds = local_view_decode(f, a)
                dist = distance(f, ds.materialize())
                if best is None or dist < best[2]:
                    best = (a, ds, dist)
            assert best_anchor_decode(f) == best
            ds = DirectSum.random(sh, rng)
            assert best_anchor_decode(ds.materialize()) == (sh.origin(), ds, 0)

    def test_best_anchor_refuses_beyond_the_budget(self):
        # 65792^2 anchor-point pairs exceed 2^32, before any table is sized.
        f = BinaryTensor.zeros(Shape((257, 256)))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as refused:
                best_anchor_decode(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == ("best-anchor decode needs 4328587264 tuples, "
                                      "budget is 4294967296")
        assert peak < 1 << 20


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


def brute_force_nearest(f):
    """(witness, distance): the first canonical direct sum at minimum Hamming distance."""
    sums = list(DirectSum.enumerate_all(f.shape))
    dists = [int(np.count_nonzero(f.bits != ds.materialize().bits)) for ds in sums]
    best = dists.index(min(dists))
    return sums[best], Fraction(dists[best], f.shape.size)


NEAREST_SHAPES = [(1,), (5,), (1, 3), (3, 1, 2), (2, 2, 3), (3, 3), (2, 2, 2, 2),
                  (4, 2, 2), (2,) * 6]


class TestNearestKernel:
    """The last-axis majority kernel against a scan of every direct sum."""

    @staticmethod
    def tensors(sh, seed):
        # Random tensors, and direct sums with one or two entries flipped:
        # ties on the last component and between prefixes are common.
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, 2, sh.size, dtype=np.uint8) for _ in range(8)]
        for flips in (1, 2, 1, 2):
            bits = DirectSum.random(sh, rng).materialize().bits.copy()
            bits[rng.choice(sh.size, size=min(flips, sh.size), replace=False)] ^= 1
            rows.append(bits)
        return np.array(rows)

    @pytest.mark.parametrize("dims", NEAREST_SHAPES)
    def test_matches_brute_force(self, dims):
        sh = Shape(dims)
        rows = self.tensors(sh, sum(dims) * 7 + len(dims))
        for row in rows:
            f = BinaryTensor(sh, row)
            witness, dist = brute_force_nearest(f)
            res = nearest_direct_sum(f)
            assert res.witness.encoding() == witness.encoding()
            assert res.distance == dist
        singles = [nearest_direct_sum(BinaryTensor(sh, row)).distance * sh.size
                   for row in rows]
        assert nearest_distances(sh, rows).tolist() == singles

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(NEAREST_SHAPES), st.integers(0, 2**32 - 1))
    def test_random_rows(self, dims, seed):
        sh = Shape(dims)
        f = BinaryTensor(sh, np.random.default_rng(seed).integers(0, 2, sh.size))
        witness, dist = brute_force_nearest(f)
        res = nearest_direct_sum(f)
        assert (res.witness.encoding(), res.distance) == (witness.encoding(), dist)

    @pytest.mark.parametrize("dims", [(16, 16), (8, 8, 8)])
    def test_large_shapes_cold(self, monkeypatch, dims):
        # A scan would hold 2^31 candidates on (16,16) and 2^22 on (8,8,8);
        # the prefix table holds 2^15 x 16 and 2^14 x 64 bytes.  Three flips
        # from a direct sum decode to it, since two sums differ in at least
        # 16 entries.
        monkeypatch.setattr(oracles, "_cache", {})
        sh = Shape(dims)
        ds = DirectSum.random(sh, np.random.default_rng(sum(dims)))
        bits = ds.materialize().bits.copy()
        bits[[3, 100, 200]] ^= 1
        f = BinaryTensor(sh, bits)
        tracemalloc.start()
        try:
            res = nearest_direct_sum(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.witness, res.distance) == (ds, Fraction(3, sh.size))
        assert peak < 32 << 20

    def test_prefix_table_ceiling_refuses_before_building(self, monkeypatch):
        # (3,)^10's 2^21 direct sums pass the default tuple budget, but its
        # prefix table would hold 2^18 x 3^9 bytes.
        monkeypatch.setattr(oracles, "_cache", {})
        f = BinaryTensor.zeros(Shape((3,) * 10))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as refused:
                nearest_direct_sum(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            f"direct-sum enumeration on shape {(3,) * 10} needs 5159780352 bytes for "
            "its prefix table, beyond the 268435456-byte ceiling")
        assert peak < 1 << 20

    def test_walsh_ceiling_refuses_before_building(self, monkeypatch):
        # (2,)^25's 2^26 direct sums pass the default tuple budget; its
        # transform is charged 16 bytes per entry, as nearest_affine's is.
        monkeypatch.setattr(oracles, "_cache", {})
        f = BinaryTensor.zeros(Shape((2,) * 25))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as refused:
                nearest_distances(f.shape, f.bits[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            f"direct-sum enumeration on shape {(2,) * 25} needs 536870912 bytes for "
            "its Walsh table, beyond the 268435456-byte ceiling")
        assert peak < 1 << 20

    def test_tuple_budget_is_checked_before_the_prefix_table(self):
        with pytest.raises(BudgetExceededError,
                           match="^direct-sum enumeration needs 65536 tuples, budget is 65535$"):
            nearest_direct_sum(BinaryTensor.zeros(Shape((2,) * 15)), budget=65535)

    def test_thirteen_binary_axes_answer(self, monkeypatch):
        # An all-binary shape has no prefix axis: the search reads the transform.
        monkeypatch.setattr(oracles, "_cache", {})
        sh = Shape((2,) * 13)
        ds = DirectSum.random(sh, np.random.default_rng(13))
        bits = ds.materialize().bits.copy()
        bits[[3, 100, 200]] ^= 1
        res = nearest_direct_sum(BinaryTensor(sh, bits))
        assert (res.witness, res.distance) == (ds, Fraction(3, sh.size))

    def test_sixteen_binary_axes_cold(self, monkeypatch):
        # The old prefix table would have needed 2 GiB here; the search holds
        # the transform, 16 bytes per entry.
        monkeypatch.setattr(oracles, "_cache", {})
        sh = Shape((2,) * 16)
        ds = DirectSum.random(sh, np.random.default_rng(16))
        bits = ds.materialize().bits.copy()
        bits[[3, 100, 200, 40000]] ^= 1
        f = BinaryTensor(sh, bits)
        tracemalloc.start()
        try:
            res = nearest_direct_sum(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.distance == Fraction(4, sh.size)
        assert peak < 16 * sh.size + (1 << 20)
        assert res.witness == ds

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_equals_nearest_affine_on_binary_shapes(self, dim):
        sh = Shape((2,) * dim)
        rows = TestNearestKernel.tensors(sh, dim)
        affine = [nearest_affine(row).distance * sh.size for row in rows]
        assert nearest_distances(sh, rows).tolist() == affine

    def test_prefix_table_is_built_in_place(self):
        # (8,8,8,4)'s table, on the prefix axes (8, 8, 4), holds 2^17 x 2^8
        # bytes; a build that doubled a copy of it would peak near twice that.
        tracemalloc.start()
        try:
            table = oracles._prefix_table(Shape((8, 8, 8, 4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 32 << 20
        assert peak < 1.1 * table.nbytes

    @pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 1, 2), (2, 2, 2), (4, 4, 4), (2,) * 6,
                                      (5, 5, 5)])
    def test_prefix_byte_count_is_the_table(self, monkeypatch, dims):
        # The search is charged its transform, 16 bytes per entry, and then
        # its prefix table.
        sh = Shape(dims)
        walsh, prefix = 16 * sh.size, oracles._prefix_table(sh).nbytes
        monkeypatch.setattr(oracles, "_cache", {})
        for needed, table in ((walsh, "Walsh"), (prefix, "prefix")):
            monkeypatch.setattr(oracles, "MAX_CUBE_TABLE_BYTES", needed - 1)
            if table == "Walsh" or prefix > walsh:
                with pytest.raises(BudgetExceededError, match=f" needs {needed} bytes for its {table}"):
                    nearest_direct_sum(BinaryTensor.zeros(sh))
        monkeypatch.setattr(oracles, "MAX_CUBE_TABLE_BYTES", max(walsh, prefix))
        assert nearest_direct_sum(BinaryTensor.zeros(sh)).distance == 0


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

    def test_walsh_working_set_refused_before_building(self):
        # 16 bytes per entry: 512 MiB on F2^25, beyond the 256 MiB ceiling,
        # which F2^24 meets exactly.
        table = np.zeros(1 << 25, dtype=np.uint8)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as refused:
                nearest_affine(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            f"affine enumeration on shape {(2,) * 25} needs 536870912 bytes for "
            "its Walsh table, beyond the 268435456-byte ceiling")
        assert peak < 1 << 20

    def test_walsh_working_set_is_what_is_counted(self):
        table = np.random.default_rng(16).integers(0, 2, 1 << 16, dtype=np.uint8)
        nearest_affine(table[:4])  # lazy set-up
        tracemalloc.start()
        try:
            nearest_affine(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * table.size + (64 << 10)  # 1 MiB


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


def shapka_residual_identity_check(f, a, b):
    """Both sides of the residual identity; they must agree for every input.

    Left: (f - local-view sum)(b).  Right: the query-set parity at (a, b).
    """
    a = f.shape.require_point(a)
    b = f.shape.require_point(b)
    lhs = f.value(b) ^ local_view_decode(f, a).eval(b)
    rhs = 0 if shapka_trial(f, ShapkaRandomness(a, b)).accepted else 1
    return lhs, rhs


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


def biased_character_probability(s_size: int) -> Fraction:
    """Pr[chi_S(x) = 0] when each bit is 1 with probability 2/3: (1+(-1/3)^s)/2."""
    if s_size < 0:
        raise ValueError("set size must be nonnegative")
    return (1 + Fraction(-1, 3) ** s_size) / 2


def biased_character_probability_enumerated(s_size: int, dim: int | None = None) -> Fraction:
    """Pr[chi_S(x) = 0] by summing weighted assignments on a dim-cube.

    S is taken to be the first s_size coordinates; the remaining coordinates
    only multiply every parity class by a total weight of one.
    """
    if dim is None:
        dim = s_size
    if s_size < 0 or dim < s_size:
        raise ValueError("need 0 <= s_size <= dim")
    zero_w = Fraction(1, 3)
    one_w = Fraction(2, 3)
    total = Fraction(0)
    for x in range(1 << dim):
        weight = Fraction(1)
        for i in range(dim):
            weight *= one_w if (x >> i) & 1 else zero_w
        parity = (x & ((1 << s_size) - 1)).bit_count() & 1
        if parity == 0:
            total += weight
    return total


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
                        indices.append([sh.index_of(splice(b, a, c.bits)) for c in corners])
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


class TestExhaustiveSoundness:
    """The library's exhaustive check against the oracles called tensor by tensor."""

    @pytest.mark.parametrize("dims,kind", [
        (dims, kind) for dims in [(2, 2), (2, 3), (1, 4), (2, 2, 2)]
        for kind in (SIC_SUBSETS, SIC_CUBE, SHAPKA, BLR) if kind != BLR or set(dims) == {2}
    ])
    def test_worst_ratio_matches_every_tensor(self, dims, kind):
        # Every tensor of (1, 4) is a direct sum, so it has no ratio at all.
        sh = Shape(dims)
        ratios = [exact_rejection(f, kind).value / dist for f in all_tensors(sh)
                  if (dist := nearest_direct_sum(f).distance) > 0]
        assert exhaustive_soundness(sh, kind) == (None, min(ratios, default=None))

    def test_refusals(self):
        with pytest.raises(ValueError, match="^no soundness guarantee is claimed for the "
                                             "conjectured test$"):
            exhaustive_soundness(Shape((2, 2)), CONJECTURED)
        with pytest.raises(ValueError, match=r"^cannot iterate 2\^25 tensors"):
            exhaustive_soundness(Shape((5, 5)), SHAPKA)


def reference_residuals(rows, shape):
    """|f ^ local_view_decode(f, a)| for each row and anchor, gathered pair by pair.

    The line-table kernel that the Walsh kernel replaced: row a of the table
    lists the axis lines through a, and the decode at b XORs each view at
    b's coordinate.
    """
    pts = shape.point_array()
    offsets = np.cumsum((0,) + shape.dims)
    lines = np.concatenate([np.arange(n) - pts[:, i:i + 1] for i, n in enumerate(shape.dims)],
                           axis=1) * np.repeat(shape.strides, shape.dims)
    lines += np.arange(shape.size)[:, None]
    columns = pts.T + offsets[:-1, None]
    views = rows[:, lines]  # (T, size, sum n_i)
    if shape.d % 2 == 0:
        views[..., -shape.dims[-1]:] ^= rows[:, :, None]
    residual = rows[:, None] ^ views[..., columns[0]]
    for column in columns[1:]:
        residual ^= views[..., column]
    return residual.sum(axis=2, dtype=np.int64)


def brute_force_distances(shape, rows):
    """The distance, times size, from each row to the nearest of every direct sum."""
    sums = np.array([ds.materialize().bits for ds in DirectSum.enumerate_all(shape)])
    agree = (1 - 2 * rows.astype(np.int64)) @ (1 - 2 * sums.astype(np.int64)).T
    return (shape.size - agree.max(axis=1)) // 2


@st.composite
def unit_axis_batches(draw):
    """(shape, rows): up to 24 entries and 5 axes, at least one of them of length 1."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                .filter(lambda ds: np.prod(ds) <= 24))
    at = draw(st.integers(0, len(dims)))
    shape = Shape(tuple(dims[:at]) + (1,) + tuple(dims[at:]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 6))
    return shape, np.random.default_rng(seed).integers(0, 2, (count, shape.size), dtype=np.uint8)


class TestWalshKernels:
    """shapka's count and the nearest search against the kernels they replaced."""

    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2), (2, 2), (2, 3), (3, 2),
                                      (1, 3), (3, 3), (2, 1, 2), (2, 2, 2), (3, 1, 2),
                                      (2, 2, 3), (2, 3, 2), (1, 2, 1, 3), (2, 2, 2, 2)])
    def test_every_tensor(self, dims):
        sh = Shape(dims)
        rows = ((np.arange(1 << sh.size)[:, None] >> np.arange(sh.size)) & 1).astype(np.uint8)
        assert np.array_equal(oracles._residuals(rows, sh), reference_residuals(rows, sh))
        assert np.array_equal(nearest_distances(sh, rows), brute_force_distances(sh, rows))

    @settings(max_examples=80, deadline=None)
    @given(unit_axis_batches())
    def test_batches_with_unit_axes(self, batch):
        shape, rows = batch
        assert np.array_equal(oracles._residuals(rows, shape), reference_residuals(rows, shape))
        assert np.array_equal(nearest_distances(shape, rows), brute_force_distances(shape, rows))

    @pytest.mark.parametrize("dims", [(4, 4), (3, 4, 2), (2, 5, 3), (6, 6), (2,) * 7,
                                      (3, 3, 3), (4, 2, 1, 3)])
    def test_random_rows_of_larger_shapes(self, dims):
        sh = Shape(dims)
        rows = TestNearestKernel.tensors(sh, sum(dims))
        assert np.array_equal(oracles._residuals(rows, sh), reference_residuals(rows, sh))


def upper_envelope_shapes():
    """Every shape, up to axis order, of d >= 2 axes of length >= 2 with at most 2^16 cosets."""
    found = []

    def extend(dims):
        for n in range(dims[-1] if dims else 2, 18):
            longer = dims + (n,)
            cosets = prod(longer) - 1 - sum(m - 1 for m in longer)
            if len(longer) >= 2 and cosets > 16:
                return
            if len(longer) >= 2:
                found.append(longer)
            extend(longer)

    extend(())
    return found


class TestUpperEnvelope:
    """eps <= q dist for the four tensor tests, on every coset of the small shapes.

    Each query is uniform on the domain and each test's parity vanishes on
    direct sums, so f = s ^ e rejects only when a query lands in e's support:
    q is 4 for the sic and conjectured tests and d + 1 + [d even] for shapka.
    shapka's eps >= dist then brackets the distance in [eps / q, eps].
    """

    @pytest.mark.parametrize("dims", upper_envelope_shapes(), ids=str)
    def test_rejection_at_most_q_times_distance(self, dims):
        sh = Shape(dims)
        corner = np.array(dims) - 1
        free = np.flatnonzero((sh.point_array() != corner).sum(axis=1) > 1)
        codes = np.arange(1 << free.size)
        rows = np.zeros((codes.size, sh.size), dtype=np.uint8)
        rows[:, free] = (codes[:, None] >> np.arange(free.size)) & 1
        dist = nearest_distances(sh, rows)
        worst = {}
        for kind in TENSOR_TEST_KINDS:
            q = sh.d + 1 + (sh.d % 2 == 0) if kind == SHAPKA else 4
            rej, total = exact_rejections(sh, kind, rows)
            assert (rej * sh.size <= q * dist * total).all(), kind
            if kind == SHAPKA:
                assert (rej * sh.size >= dist * total).all()
            far = dist > 0
            worst[kind] = max(Fraction(int(r) * sh.size, int(d) * total)
                              for r, d in set(zip(rej[far].tolist(), dist[far].tolist())))
        print(f"{dims}: max eps/dist", {k: str(v) for k, v in worst.items()})


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


# ---------------------------------------------------------------------------
# Maps between shapes
# ---------------------------------------------------------------------------
# Each map takes (dims, tables), with tables of shape (T,) + dims, to the
# larger shape's (dims, tables).  All three keep every test's exact eps and
# the nearest distance: a lift and a blow-up carry the larger test's
# randomness onto the smaller test's with the same distribution.


def lift(dims, tables, n):
    """g(x, y) = f(x) on dims + (n,): constant along a new last axis."""
    return dims + (n,), np.repeat(tables[..., None], n, axis=-1)


def blow_up(dims, tables, axis, k):
    """Each value of the axis becomes k equal copies."""
    grown = dims[:axis] + (dims[axis] * k,) + dims[axis + 1:]
    return grown, np.repeat(tables, k, axis=axis + 1)


def permute_axes(dims, tables, perm):
    return tuple(dims[i] for i in perm), tables.transpose(0, *(i + 1 for i in perm))


def exact_scores(shape, rows):
    """Per test, every row's exact eps, and its nearest distance (BLR on binary shapes)."""
    kinds = ALL_TEST_KINDS if all(n == 2 for n in shape.dims) else TENSOR_TEST_KINDS
    scores = {"dist": [Fraction(int(c), shape.size) for c in nearest_distances(shape, rows)]}
    for kind in kinds:
        rej, total = exact_rejections(shape, kind, rows)
        scores[kind] = [Fraction(int(r), total) for r in rej]
    return scores


def keeps_scores(dims, tables, mapped_dims, mapped):
    small = exact_scores(Shape(dims), tables.reshape(len(tables), -1))
    large = exact_scores(Shape(mapped_dims), mapped.reshape(len(mapped), -1))
    return all(small[key] == large[key] for key in small.keys() & large.keys())


@st.composite
def shape_maps(draw):
    """Up to three tensors of at most 12 entries, and one map applied to them."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                      .filter(lambda ds: np.prod(ds) <= 12)))
    size = int(np.prod(dims))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=size, max_size=size),
                         min_size=1, max_size=3))
    tables = np.array(rows, dtype=np.uint8).reshape((-1,) + dims)
    how = draw(st.sampled_from(("lift", "blow-up", "permute")))
    if how == "lift":
        mapped = lift(dims, tables, draw(st.integers(1, 3)))
    elif how == "blow-up":
        axis = draw(st.integers(0, len(dims) - 1))
        mapped = blow_up(dims, tables, axis, draw(st.integers(2, 3)))
    else:
        mapped = permute_axes(dims, tables, draw(st.permutations(range(len(dims)))))
    return dims, tables, *mapped


class TestShapeMaps:
    @settings(max_examples=60, deadline=None)
    @given(shape_maps())
    def test_maps_keep_eps_and_dist(self, case):
        assert keeps_scores(*case)

    def test_repeating_one_value_changes_them(self):
        # A blow-up that copies only value 0 of axis 0 moves the AND gate's
        # distance from 1/4 to 1/6, so the property above would catch it.
        dims, tables = (2, 2), np.array([[[0, 0], [0, 1]]], dtype=np.uint8)
        assert keeps_scores(dims, tables, *blow_up(dims, tables, 0, 2))
        assert not keeps_scores(dims, tables, (3, 2), np.repeat(tables, [2, 1], axis=1))
