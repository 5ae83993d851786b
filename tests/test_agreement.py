"""Direct-product tests, plurality decoding, samplers, and the affine bridge."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rank1check.agreement import (
    DEFAULT_ALPHA,
    AgreementRandomness,
    DPFormatError,
    DPFunction,
    DPShape,
    _agreement_rejects,
    corrupt_entries,
    default_intersection_size,
    direct_product,
    dp_agreement_trial,
    dp_from_text,
    dp_plurality_decode,
    dp_to_text,
    exact_alpha_rejection,
    exact_fixed_t_rejection,
    random_direct_product,
    sample_alpha_randomness,
    sample_fixed_t_randomness,
    sic_to_dp_bridge,
)
from rank1check.core import (
    BinaryTensor,
    DirectSum,
    Shape,
    axes_of,
    delta,
    flip,
    splice,
)
from rank1check.harness import rng_for
from rank1check.oracles import nearest_affine


GRID = [
    (DPShape((2,), 2), 0),
    (DPShape((3,), 3), 1),
    (DPShape((2, 3), 2), 2),
    (DPShape((3, 3), 3), 3),
    (DPShape((1, 2, 3), 2), 4),
    (DPShape((3, 3, 3), 3), 5),
    (DPShape((2, 1, 3, 2), 2), 6),
    (DPShape((3, 3, 3, 3), 2), 7),
]


class TestDPShape:
    def test_domain_is_the_shape_of_the_sizes(self):
        dsh = DPShape((2, 1, 3), 4)
        sh = Shape((2, 1, 3))
        assert (dsh.k, dsh.domain_size) == (3, sh.size)
        assert list(dsh.points()) == list(sh.points())
        assert [dsh.index_of(p) for p in dsh.points()] == list(range(sh.size))
        with pytest.raises(ValueError, match=r"point \(0, 1, 3\) outside"):
            dsh.index_of((0, 1, 3))

    @pytest.mark.parametrize("sizes,alphabet,message", [
        ((0, 2), 2, r"axis sizes must be positive, got \(0, 2\)"),
        ((), 2, "a shape needs at least one axis"),
        ((2,), 0, "alphabet size must be positive"),
    ])
    def test_validation(self, sizes, alphabet, message):
        with pytest.raises(ValueError, match=message):
            DPShape(sizes, alphabet)


class TestDirectProduct:
    @staticmethod
    def per_point(dpshape, components):
        """The product table filled one point at a time, in Python."""
        return np.array([[int(components[i][x]) for i, x in enumerate(p)]
                         for p in dpshape.points()], dtype=np.int64)

    @pytest.mark.parametrize("sizes,alphabet", [
        ((4, 4, 4, 4), 3), ((8, 8, 8, 8), 5), ((1, 3, 1), 2), ((2, 3), 1),
    ])
    def test_table_equals_the_per_point_loop(self, sizes, alphabet):
        dsh = DPShape(sizes, alphabet)
        comps = [rng_for(0, i).integers(0, alphabet, size=n) for i, n in enumerate(sizes)]
        g = direct_product(dsh, comps)
        assert g.table.dtype == np.int64
        assert np.array_equal(g.table, self.per_point(dsh, comps))

    def test_random_shapes_with_size_one_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            sizes = tuple(int(n) for n in rng.choice([1, 1, 2, 3, 5], size=rng.integers(1, 5)))
            dsh = DPShape(sizes, int(rng.integers(1, 6)))
            comps = [rng.integers(0, dsh.alphabet, size=n) for n in sizes]
            g = direct_product(dsh, comps)
            assert np.array_equal(g.table, self.per_point(dsh, comps)), sizes


class TestTrials:
    def test_direct_product_accepts_always(self):
        dsh = DPShape((2, 3), 3)
        g = random_direct_product(dsh, rng_for(0))
        rng = rng_for(1)
        for _ in range(200):
            r = sample_alpha_randomness(dsh, DEFAULT_ALPHA, rng)
            assert dp_agreement_trial(g, r).accepted
            r2 = sample_fixed_t_randomness(dsh, 1, rng)
            assert dp_agreement_trial(g, r2).accepted

    def test_empty_agreement_set_accepts(self):
        dsh = DPShape((2, 2), 2)
        g = DPFunction(dsh, [[0, 1], [1, 0], [0, 0], [1, 1]])
        assert dp_agreement_trial(g, AgreementRandomness((0, 0), (1, 1), 0)).accepted

    def test_tied_disagreement_rejects(self):
        # g(0, 0) = (0, 1) and g(0, 1) = (1, 0) differ on both coordinates,
        # but only coordinate 0 can be tied.
        dsh = DPShape((2, 2), 2)
        g = DPFunction(dsh, [[0, 1], [1, 0], [0, 0], [1, 1]])
        r = dp_agreement_trial(g, AgreementRandomness((0, 0), (0, 1), 0b01))
        assert (r.accepted, r.queries) == (False, ((0, 0), (0, 1)))

    def test_randomness_invariants_enforced(self):
        with pytest.raises(ValueError):
            AgreementRandomness((0, 0), (1, 0), 0b01)
        with pytest.raises(ValueError):
            AgreementRandomness((0, 0), (0, 1), 0b10)

    def test_samplers_draw_their_tied_sets(self):
        dsh = DPShape((2, 3, 2), 2)
        rng = rng_for(2)
        for t in range(dsh.k + 1):
            for _ in range(20):
                assert sample_fixed_t_randomness(dsh, t, rng).tied.bit_count() == t
        for alpha, tied in ((0, 0), (1, 0b111)):
            assert all(sample_alpha_randomness(dsh, alpha, rng).tied == tied
                       for _ in range(20))

    def test_t_bounds(self):
        dsh = DPShape((2, 2), 2)
        with pytest.raises(ValueError):
            sample_fixed_t_randomness(dsh, 3, rng_for(0))
        assert default_intersection_size(4) == 1
        assert default_intersection_size(10) == 2
        assert default_intersection_size(1) == 1


class TestExactRejection:
    @pytest.mark.parametrize("dsh,seed", GRID)
    def test_products_pass_exactly(self, dsh, seed):
        g = random_direct_product(dsh, rng_for(seed))
        assert exact_alpha_rejection(g).rejecting == 0
        t = default_intersection_size(dsh.k)
        assert exact_fixed_t_rejection(g, t).rejecting == 0

    def test_corrupted_product_dual_route(self):
        # Library enumeration vs a test-local one over the same weighting.
        dsh = DPShape((2, 2), 2)
        g = random_direct_product(dsh, rng_for(8))
        g = corrupt_entries(g, [(3, 0)], rng_for(9))
        got = exact_alpha_rejection(g, Fraction(3, 4))
        total = 0
        rejecting = 0
        points = list(dsh.points())
        for x in points:
            for a0 in (0, 1):
                for a1 in (0, 1):
                    mask = a0 | (a1 << 1)
                    for y in points:
                        ok = True
                        w = 1
                        for i, tied in enumerate((a0, a1)):
                            if tied:
                                w *= 3 * dsh.sizes[i]
                                if y[i] != x[i]:
                                    ok = False
                        if not ok:
                            continue
                        total += w
                        gx, gy = g.value(x), g.value(y)
                        if any(gx[i] != gy[i] for i in range(2) if (mask >> i) & 1):
                            rejecting += w
        assert got.total == dsh.domain_size ** 2 * 16
        assert total == got.total
        assert rejecting == got.rejecting

    def test_fixed_t_zero_always_accepts(self):
        dsh = DPShape((2, 2), 2)
        g = DPFunction(dsh, [[0, 1], [1, 0], [0, 0], [1, 1]])
        assert exact_fixed_t_rejection(g, 0).rejecting == 0

    def test_corrupted_fixed_t(self):
        dsh = DPShape((3, 3, 3, 3), 2)
        g = random_direct_product(dsh, rng_for(10))
        bad = corrupt_entries(g, [(0, 0)], rng_for(11))
        r = exact_fixed_t_rejection(bad, 1)
        assert r.rejecting > 0


def _pairs_agreeing_on(dsh, x, tied):
    """Every y equal to x on the tied coordinates."""
    free = [i for i in range(dsh.k) if i not in tied]
    for choice in itertools.product(*(range(dsh.sizes[i]) for i in free)):
        y = list(x)
        for i, v in zip(free, choice):
            y[i] = v
        yield tuple(y)


def brute_force_alpha(g, alpha):
    """(rejecting, total) of the alpha test, (x, tied set, y) by (x, tied set, y)."""
    dsh = g.dpshape
    p, q = alpha.numerator, alpha.denominator
    rejecting = 0
    for x in dsh.points():
        gx = g.value(x)
        for mask in range(1 << dsh.k):
            tied = axes_of(mask)
            w = p ** len(tied) * (q - p) ** (dsh.k - len(tied))
            for i in tied:
                w *= dsh.sizes[i]
            for y in _pairs_agreeing_on(dsh, x, tied):
                gy = g.value(y)
                if any(gx[i] != gy[i] for i in tied):
                    rejecting += w
    return rejecting, dsh.domain_size ** 2 * q ** dsh.k


def brute_force_fixed_t(g, t):
    """(rejecting, total) of the fixed-t test, (x, T, y) by (x, T, y)."""
    dsh = g.dpshape
    rejecting = 0
    for x in dsh.points():
        gx = g.value(x)
        for tied in itertools.combinations(range(dsh.k), t):
            w = 1
            for i in tied:
                w *= dsh.sizes[i]
            for y in _pairs_agreeing_on(dsh, x, tied):
                gy = g.value(y)
                if any(gx[i] != gy[i] for i in tied):
                    rejecting += w
    return rejecting, dsh.domain_size ** 2 * comb(dsh.k, t)


class TestBruteForceReference:
    @pytest.mark.parametrize("dsh", [
        DPShape((3,), 3),
        DPShape((2, 1, 3), 2),   # a size-1 coordinate
        DPShape((3, 2), 1),      # alphabet 1: every pair accepts
        DPShape((2, 2, 2), 2),
        DPShape((3, 2, 2), 3),
    ], ids=str)
    def test_matches_enumeration(self, dsh):
        rng = rng_for(dsh.domain_size + dsh.alphabet)
        clean = random_direct_product(dsh, rng)
        noisy = DPFunction(dsh, rng.integers(0, dsh.alphabet, (dsh.domain_size, dsh.k)))
        for g in (corrupt_entries(clean, [(0, 0), (1, dsh.k - 1)], rng), noisy):
            for alpha in (Fraction(0), Fraction(1, 2), Fraction(2, 3),
                          Fraction(3, 4), Fraction(1)):
                r = exact_alpha_rejection(g, alpha)
                assert (r.rejecting, r.total) == brute_force_alpha(g, alpha)
            for t in range(dsh.k + 1):
                r = exact_fixed_t_rejection(g, t)
                assert (r.rejecting, r.total) == brute_force_fixed_t(g, t)


def _law_rows(law, k):
    """The keys (x, y, mask) of a pair law as (rows, k) x, y and 0/1 tied arrays."""
    x, y, masks = (np.array(column) for column in zip(*law))
    return x, y, (masks[:, None] >> np.arange(k)) & 1


class TestOraclesAgainstPattern:
    """Both exact oracles against _agreement_rejects over the whole randomness space."""

    SHAPES = [DPShape((3,), 3), DPShape((2, 1, 3), 2), DPShape((2, 2, 2), 2),
              DPShape((3, 2, 2), 3)]

    @staticmethod
    def functions(dsh):
        rng = rng_for(dsh.domain_size, dsh.k)
        clean = random_direct_product(dsh, rng)
        noisy = DPFunction(dsh, rng.integers(0, dsh.alphabet, (dsh.domain_size, dsh.k)))
        return corrupt_entries(clean, [(0, 0), (1, dsh.k - 1)], rng), noisy

    @pytest.mark.parametrize("dsh", SHAPES, ids=str)
    def test_alpha(self, dsh):
        # Every (x, y, tied) row of the exact law, weighted by its probability.
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            law = reference_alpha_law(dsh, alpha)
            weights = list(law.values())
            for g in self.functions(dsh):
                rejects = _agreement_rejects(g, *_law_rows(law, dsh.k))
                value = sum(w for w, bad in zip(weights, rejects) if bad)
                assert value == exact_alpha_rejection(g, alpha).value

    @pytest.mark.parametrize("dsh", SHAPES, ids=str)
    def test_fixed_t(self, dsh):
        # Every t-subset T and every (x, y) that agree on T, weighted by the
        # prod_{i in T} N_i draws of x_T that the oracle's total counts.
        points = np.array(list(dsh.points()))
        x = np.repeat(points, len(points), axis=0)
        y = np.tile(points, (len(points), 1))
        for g in self.functions(dsh):
            for t in range(dsh.k + 1):
                rejecting = total = 0
                for tied_axes in itertools.combinations(range(dsh.k), t):
                    tied = np.zeros(dsh.k, dtype=np.int64)
                    tied[list(tied_axes)] = 1
                    keep = (x == y)[:, tied == 1].all(axis=1)
                    weight = int(np.prod([dsh.sizes[i] for i in tied_axes]))
                    rows = np.broadcast_to(tied, (int(keep.sum()), dsh.k))
                    total += weight * len(rows)
                    rejecting += weight * int(_agreement_rejects(g, x[keep], y[keep], rows).sum())
                r = exact_fixed_t_rejection(g, t)
                assert (rejecting, total) == (r.rejecting, r.total)


class TestPluralityDecode:
    def test_recovers_products(self):
        for dsh, seed in GRID:
            g = random_direct_product(dsh, rng_for(seed))
            decode = dp_plurality_decode(g)
            assert decode.product() == g
            assert decode.agreement == 1

    def test_single_corruption_at_three(self):
        dsh = DPShape((3, 3), 2)
        g = random_direct_product(dsh, rng_for(12))
        bad = corrupt_entries(g, [(4, 1)], rng_for(13))
        decode = dp_plurality_decode(bad)
        assert decode.product() == g
        assert decode.agreement == Fraction(8, 9)

    def test_constant_function(self):
        dsh = DPShape((2, 3), 3)
        g = DPFunction(dsh, np.full((6, 2), 2))
        decode = dp_plurality_decode(g)
        assert decode.agreement == 1
        assert all(int(v) == 2 for h in decode.components for v in h)

    def test_tie_breaks_toward_smallest_symbol(self):
        dsh = DPShape((2,), 3)
        g = DPFunction(dsh, [[2], [1]])
        decode = dp_plurality_decode(g)
        assert list(decode.components[0]) == [2, 1]
        tied = DPFunction(DPShape((1, 2), 3), [[1, 0], [2, 0]])
        # Coordinate 0 sees votes {1, 2} at value 0: the smaller symbol wins.
        assert dp_plurality_decode(tied).components[0][0] == 1

    def test_monotone_rejection_agreement(self):
        # Rejection zero forces agreement one over a corruption sweep.
        dsh = DPShape((3, 3, 3, 3), 2)
        rng = rng_for(14)
        for m in (0, 2, 5):
            g = random_direct_product(dsh, rng)
            cells = [(int(rng.integers(0, dsh.domain_size)), int(rng.integers(0, 4)))
                     for _ in range(m)]
            bad = corrupt_entries(g, cells, rng)
            rej = exact_fixed_t_rejection(bad, 1)
            dec = dp_plurality_decode(bad)
            if rej.rejecting == 0:
                assert dec.agreement == 1

    def test_rate_graded_corruption_experiment(self):
        # k=4, sizes 3, alphabet 2, table-cell corruption rates 0, 1/16, 1/8.
        # Asserted: rejection 0 implies agreement 1, and the decoder's loss
        # never beats the trivial bound.  The measured constant
        # (1 - agreement) / rejection is printed, not asserted.
        dsh = DPShape((3, 3, 3, 3), 2)
        cells_total = dsh.domain_size * dsh.k
        rng = rng_for(15)
        measured = []
        for rate in (Fraction(0), Fraction(1, 16), Fraction(1, 8)):
            count = int(cells_total * rate)
            for trial in range(3):
                g = random_direct_product(dsh, rng)
                flat = rng.choice(cells_total, size=count, replace=False)
                cells = [(int(c) // dsh.k, int(c) % dsh.k) for c in flat]
                bad = corrupt_entries(g, cells, rng)
                rej = exact_fixed_t_rejection(bad, 1)
                dec = dp_plurality_decode(bad)
                assert 0 <= dec.agreement <= 1
                if rej.rejecting == 0:
                    assert dec.agreement == 1
                else:
                    measured.append((1 - dec.agreement) / rej.value)
        assert measured, "corrupted runs should reject"
        print(f"decoding constant across corrupted runs: "
              f"max {float(max(measured)):.3f}")


class TestBridge:
    def test_direct_sum_becomes_direct_product(self):
        sh = Shape((2, 2, 2))
        for seed in range(5):
            ds = DirectSum.random(sh, rng_for(seed))
            f = ds.materialize()
            for anchor in [(0, 0, 0), (1, 0, 1)]:
                F = sic_to_dp_bridge(f, anchor)
                decode = dp_plurality_decode(F)
                assert decode.agreement == 1
                assert exact_alpha_rejection(F).rejecting == 0

    def test_bridge_output_marks_differing_components(self):
        # With f(anchor) = 0 the fit on each cube is exactly linear, and the
        # output flags the axes whose component changes between anchor and b.
        sh = Shape((2, 2))
        ds = DirectSum(sh, [[0, 1], [0, 1]])
        f = ds.materialize()
        anchor = (0, 0)
        F = sic_to_dp_bridge(f, anchor)
        for b in sh.points():
            # component i differs iff f_i(b_i) != f_i(a_i); here f_i = identity
            expected = tuple(int(b[i] != anchor[i]) for i in range(2))
            assert F.value(b) == expected

    def test_one_flip_bridge_monotone(self):
        sh = Shape((2, 2, 2))
        base = DirectSum.random(sh, rng_for(20)).materialize()
        bits = base.bits.copy()
        bits[3] ^= 1
        f = BinaryTensor(sh, bits)
        F = sic_to_dp_bridge(f, (0, 0, 0))
        rej = exact_alpha_rejection(F)
        dec = dp_plurality_decode(F)
        if rej.rejecting == 0:
            assert dec.agreement == 1

    def test_flip_normalization(self):
        sh = Shape((2, 2))
        ds = DirectSum(sh, [[1, 0], [0, 1]])
        f = ds.materialize()
        assert f.value((0, 0)) == 1
        F = sic_to_dp_bridge(f, (0, 0))
        assert dp_plurality_decode(F).agreement == 1

    @pytest.mark.parametrize("dims", [(1,), (3,), (2, 3), (3, 1, 2), (2, 2, 2),
                                      (4, 4, 4), (1, 4, 1, 3), (2,) * 5])
    def test_matches_definition(self, dims):
        # The definition, one point at a time: normalise f to vanish at the
        # anchor, read the cube spanned by (anchor, b) through core.splice
        # with the first differing axis most significant, fit it with
        # nearest_affine, and mark the differing axes in the fit's mask.
        sh = Shape(dims)
        rng = rng_for(len(dims), sum(dims))
        ds = DirectSum.random(sh, rng).materialize()
        one_flip = ds.bits.copy()
        one_flip[int(rng.integers(0, sh.size))] ^= 1
        tensors = [BinaryTensor(sh, rng.integers(0, 2, size=sh.size)), ds,
                   BinaryTensor(sh, one_flip)]
        anchors = [sh.origin(), sh.point_at(sh.size - 1),
                   sh.point_at(int(rng.integers(0, sh.size)))]
        for f in tensors:
            for anchor in anchors:
                g = f if f.value(anchor) == 0 else flip(f)
                expected = np.zeros((sh.size, sh.d), dtype=np.int64)
                for row, b in enumerate(sh.points()):
                    m = delta(anchor, b)
                    diff_axes = axes_of(m)
                    w = len(diff_axes)
                    cube = []
                    for r in range(1 << w):
                        bits = sum(1 << axis for j, axis in enumerate(diff_axes)
                                   if (r >> (w - 1 - j)) & 1)
                        cube.append(g.value(splice(b, anchor, bits)))
                    for j in axes_of(nearest_affine(cube).witness.mask):
                        expected[row, diff_axes[j]] = 1
                F = sic_to_dp_bridge(f, anchor)
                assert F.dpshape == DPShape(dims, 2)
                assert np.array_equal(F.table, expected), (f, anchor)


def reference_alpha_law(dsh, alpha):
    """The alpha test's (x, y, mask) law, enumerated x by x and mask by mask."""
    out = {}
    for x in dsh.points():
        for mask in range(1 << dsh.k):
            w = Fraction(1, dsh.domain_size)
            for i in range(dsh.k):
                w *= alpha if (mask >> i) & 1 else (1 - alpha)
            if w == 0:
                continue
            free = [i for i in range(dsh.k) if not (mask >> i) & 1]
            denom = 1
            for i in free:
                denom *= dsh.sizes[i]
            for choice in itertools.product(*(range(dsh.sizes[i]) for i in free)):
                y = list(x)
                for i, v in zip(free, choice):
                    y[i] = v
                key = (x, tuple(y), mask)
                out[key] = out.get(key, Fraction(0)) + w / denom
    return out


def reference_two_step_law(dsh, alpha):
    """Two alpha draws chained through their shared x, over the joint law."""
    base = reference_alpha_law(dsh, alpha)
    out = {}
    for (x1, y1, m1), p1 in base.items():
        for (x2, y2, m2), p2 in base.items():
            if x1 != x2:
                continue
            key = (y1, y2, m1 & m2)
            # p1 already includes the 1/|domain| factor for x; drop one copy.
            out[key] = out.get(key, Fraction(0)) + p1 * p2 * dsh.domain_size
    return out


def chi_square(law, sample, n):
    counts = {}
    for _ in range(n):
        key = sample()
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)
    return sum((counts.get(key, 0) - float(p) * n) ** 2 / (float(p) * n)
               for key, p in law.items())


class TestPairDistributions:
    def test_alpha_sampler_chi_square(self):
        dsh = DPShape((2, 2), 2)
        law = reference_alpha_law(dsh, DEFAULT_ALPHA)
        rng = rng_for(23)

        def sample():
            r = sample_alpha_randomness(dsh, DEFAULT_ALPHA, rng)
            return r.x, r.y, r.tied

        chi2 = chi_square(law, sample, 20000)
        # 36 keys, 35 degrees of freedom; 99.9th percentile is ~66.6
        assert len(law) == 36
        assert chi2 < 66.6

    def test_two_step_equals_alpha_squared(self):
        for sizes in [(2, 2), (2, 3)]:
            dsh = DPShape(sizes, 2)
            derived = reference_two_step_law(dsh, Fraction(3, 4))
            direct = reference_alpha_law(dsh, Fraction(9, 16))
            assert set(derived) == set(direct)
            for key, p in derived.items():
                assert direct[key] == p

    def test_alpha_pair_distribution_normalizes(self):
        dsh = DPShape((2, 2), 2)
        law = reference_alpha_law(dsh, Fraction(3, 4))
        assert sum(law.values()) == 1


class TestTextFormat:
    def test_round_trip(self):
        dsh = DPShape((2, 3), 3)
        g = random_direct_product(dsh, rng_for(22))
        assert dp_from_text(dp_to_text(g)) == g

    def test_golden(self):
        g = DPFunction(DPShape((2,), 2), [[0], [1]])
        assert dp_to_text(g) == "dpshape 1 2 2\n0\n1\n"

    @pytest.mark.parametrize("text", [
        "",
        "dpshape 2 2\n",                 # missing sizes
        "dpshape 1 2 2\n0\n",            # too few rows
        "dpshape 1 2 2\n0\n1\n2\n",      # too many rows
        "dpshape 1 2 2\n0\n5\n",         # symbol out of range
        "dpshape 1 2 2\n0 0\n1\n",       # wrong arity
        "dpshape x 2 2\n0\n1\n",         # bad header token
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(DPFormatError):
            dp_from_text(text)
