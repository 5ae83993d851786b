"""Direct-product tests, plurality decoding, samplers, and the affine bridge."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rank1check.agreement import (
    DEFAULT_ALPHA,
    AlphaRandomness,
    DPFormatError,
    DPFunction,
    DPShape,
    FixedTRandomness,
    alpha_pair_distribution,
    bridge_pair_distribution,
    corrupt_entries,
    default_intersection_size,
    direct_product,
    dp_alpha_trial,
    dp_fixed_t_trial,
    dp_from_text,
    dp_plurality_decode,
    dp_to_text,
    exact_alpha_rejection,
    exact_fixed_t_rejection,
    random_direct_product,
    sample_alpha_randomness,
    sample_bridge_pair,
    sample_fixed_t_randomness,
    sic_to_dp_bridge,
    two_step_alpha_pair_distribution,
)
from rank1check.core import BinaryTensor, DirectSum, Shape, axes_of
from rank1check.harness import rng_for


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


class TestTrials:
    def test_direct_product_accepts_always(self):
        dsh = DPShape((2, 3), 3)
        g = random_direct_product(dsh, rng_for(0))
        rng = rng_for(1)
        for _ in range(200):
            r = sample_alpha_randomness(dsh, DEFAULT_ALPHA, rng)
            assert dp_alpha_trial(g, r).accepted
            r2 = sample_fixed_t_randomness(dsh, 1, rng)
            assert dp_fixed_t_trial(g, r2).accepted

    def test_empty_agreement_set_accepts(self):
        dsh = DPShape((2, 2), 2)
        g = DPFunction(dsh, [[0, 1], [1, 0], [0, 0], [1, 1]])
        assert dp_alpha_trial(g, AlphaRandomness((0, 0), (1, 1), 0)).accepted
        assert dp_fixed_t_trial(g, FixedTRandomness((0, 0), 0, (1, 1))).accepted

    def test_randomness_invariants_enforced(self):
        with pytest.raises(ValueError):
            AlphaRandomness((0, 0), (1, 0), 0b01)
        with pytest.raises(ValueError):
            FixedTRandomness((0, 0), 0b10, (0, 1))

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


class TestPairDistributions:
    def test_bridge_pair_symmetric_exact(self):
        for dims in [(2, 2), (3, 2), (2,)]:
            dist = bridge_pair_distribution(Shape(dims))
            assert sum(dist.values()) == 1
            for (b, b2), p in dist.items():
                assert dist.get((b2, b)) == p

    def test_bridge_pair_sampler_chi_square(self):
        # Sampled counts against the exact law; generous chi-square bound.
        sh = Shape((2, 2))
        law = bridge_pair_distribution(sh)
        rng = rng_for(21)
        n = 20000
        counts = {}
        for _ in range(n):
            pair = sample_bridge_pair(sh, rng)
            counts[pair] = counts.get(pair, 0) + 1
        chi2 = 0.0
        for pair, p in law.items():
            expected = float(p) * n
            chi2 += (counts.get(pair, 0) - expected) ** 2 / expected
        # 15 degrees of freedom; 99.9th percentile is ~37.7
        assert chi2 < 37.7

    def test_two_step_equals_alpha_squared(self):
        for sizes in [(2, 2), (2, 3)]:
            dsh = DPShape(sizes, 2)
            derived = two_step_alpha_pair_distribution(dsh, Fraction(3, 4))
            direct = alpha_pair_distribution(dsh, Fraction(9, 16))
            assert set(derived) == set(direct)
            for key, p in derived.items():
                assert direct[key] == p

    def test_alpha_pair_distribution_normalizes(self):
        dsh = DPShape((2, 2), 2)
        law = alpha_pair_distribution(dsh, Fraction(3, 4))
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

    def test_file_round_trip(self, tmp_path):
        from rank1check.agreement import read_dp, write_dp
        g = random_direct_product(DPShape((2, 2), 2), rng_for(23))
        path = tmp_path / "g.dp"
        write_dp(g, path)
        assert read_dp(path) == g
