"""Generators, Wilson intervals, estimation, sweep configs, CSV determinism."""

import collections
import hashlib
import itertools
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rank1check import harness, testers
from rank1check.core import Shape
from rank1check.harness import (
    CSV_HEADER,
    DEFAULT_SWEEP_CONFIG,
    GeneratorSpec,
    SweepConfigError,
    estimate_rejection,
    generate,
    parse_sweep_config,
    rng_for,
    run_sweep,
    sweep_csv,
    wilson_interval,
    worker_count,
)
from rank1check.oracles import DEFAULT_BUDGET, exact_rejection, nearest_direct_sum
from rank1check.testers import (
    ALL_TEST_KINDS,
    BLR,
    CONJECTURED,
    SHAPKA,
    SIC_CUBE,
    SIC_SUBSETS,
    TENSOR_TEST_KINDS,
)


class TestGenerate:
    def test_direct_sum_kind_is_direct_sum(self):
        sh = Shape((3, 3, 2))
        for seed in range(5):
            f = generate(GeneratorSpec("direct-sum", sh, seed))
            assert nearest_direct_sum(f).distance == 0

    def test_zero_rate_is_direct_sum(self):
        sh = Shape((2, 2, 2))
        f = generate(GeneratorSpec("corrupted-direct-sum", sh, 1, rate=Fraction(0)))
        assert nearest_direct_sum(f).distance == 0

    def test_zero_flips_matches_direct_sum_kind(self):
        sh = Shape((2, 2, 2))
        a = generate(GeneratorSpec("corrupted-direct-sum", sh, 2, flips=0))
        b = generate(GeneratorSpec("direct-sum", sh, 2))
        assert a == b

    def test_exact_flip_count(self):
        sh = Shape((4, 4))
        base = generate(GeneratorSpec("direct-sum", sh, 3))
        got = generate(GeneratorSpec("corrupted-direct-sum", sh, 3, flips=5))
        assert int(np.count_nonzero(base.bits ^ got.bits)) == 5

    def test_rate_mean_flip_count(self):
        # Binomial mean check: 64 entries at rate 1/8 flips 8 on average;
        # the mean over ten thousand seeds stays within three standard errors.
        sh = Shape((4, 4, 4))
        rate = Fraction(1, 8)
        total = 0
        n = 10000
        for seed in range(n):
            base = generate(GeneratorSpec("direct-sum", sh, seed))
            got = generate(GeneratorSpec("corrupted-direct-sum", sh, seed, rate=rate))
            total += int(np.count_nonzero(base.bits ^ got.bits))
        mean = total / n
        sigma = np.sqrt(64 * (1 / 8) * (7 / 8))
        assert abs(mean - 8.0) <= 3 * sigma / np.sqrt(n)

    # sha256 of the bits, pinned before the rate mask was drawn in chunks:
    # (8,)^8 is exactly 256 chunks of 2^16 entries, (1000, 1500) ends on a
    # partial one.
    @pytest.mark.parametrize("dims, seed, rate, sha", [
        ((8,) * 8, 7, Fraction(1, 16),
         "d88e4895e0f73234e99e0ff5c1a2e0829b0ddabb50b134907a65c4780570164d"),
        ((1000, 1500), 8, Fraction(1, 3),
         "20d1bdea37bcd8c8b202667a4b90da3f4b0d93bc4841260e737c0156c977740c"),
    ])
    def test_rate_bits_pinned(self, dims, seed, rate, sha):
        f = generate(GeneratorSpec("corrupted-direct-sum", Shape(dims), seed, rate=rate))
        assert hashlib.sha256(f.bits.tobytes()).hexdigest() == sha

    @pytest.mark.parametrize("kind, extra", [
        ("direct-sum", {}),
        ("corrupted-direct-sum", {"rate": Fraction(1, 16)}),
        ("corrupted-direct-sum", {"flips": 1000}),
        ("uniform-random", {}),
        ("single-point-indicator", {}),
    ], ids=["direct-sum", "rate", "flips", "uniform", "indicator"])
    def test_peak_is_the_tensor_and_one_rate_buffer(self, kind, extra):
        # Every kind is built and corrupted in the tensor's own bytes.  A
        # whole-tensor float64 rate mask alone would take 128 MiB here, and
        # each copy of the bits 16 MiB.  A flip count above size/50 is not
        # covered: numpy's choice then permutes an int64 array of the domain.
        generate(GeneratorSpec(kind, Shape((2,) * 10), 7, **extra))  # lazy set-up
        shape = Shape((8,) * 8)
        tracemalloc.start()
        try:
            f = generate(GeneratorSpec(kind, shape, 7, **extra))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rate_buffer = 9 * harness._RATE_CHUNK  # the doubles and their hits
        assert peak <= shape.size + rate_buffer + (64 << 10)
        assert not f.bits.flags.writeable

    def test_indicator_has_weight_one(self):
        f = generate(GeneratorSpec("single-point-indicator", Shape((3, 3)), 4))
        assert int(f.bits.sum()) == 1

    def test_uniform_deterministic(self):
        spec = GeneratorSpec("uniform-random", Shape((5, 5)), 9)
        assert generate(spec) == generate(spec)

    def test_spec_validation(self):
        sh = Shape((2, 2))
        with pytest.raises(ValueError):
            GeneratorSpec("nope", sh, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("corrupted-direct-sum", sh, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("corrupted-direct-sum", sh, 0, rate=Fraction(1, 2), flips=1)
        with pytest.raises(ValueError):
            GeneratorSpec("corrupted-direct-sum", sh, 0, rate=Fraction(3, 2))
        with pytest.raises(ValueError):
            GeneratorSpec("corrupted-direct-sum", sh, 0, flips=5)
        with pytest.raises(ValueError):
            GeneratorSpec("direct-sum", sh, 0, rate=Fraction(1, 2))


class TestRngFor:
    @pytest.mark.parametrize("seed,stream,draws", [
        (0, 0, [106500010600983629, 2227898105101312729]),
        (0, 1, [7501867102099269819, 6929809256754480050]),
        (1, 0, [2799920918907928943, 7827956549285775127]),
        (2**32, 1, [3417855389719769178, 4496318755766134434]),
        (2**63 - 1, 0, [8539059778737004569, 1674689969096962102]),
    ])
    def test_streams_pinned(self, seed, stream, draws):
        assert rng_for(seed, stream).integers(0, 2**63, 2).tolist() == draws

    @pytest.mark.parametrize("seed", [-1, -2, 2**64, 2**64 + 1])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            rng_for(seed)


class TestWilson:
    def test_single_trial_spans(self):
        lo, hi = wilson_interval(0, 1)
        assert lo == 0.0 and hi >= 0.79
        lo, hi = wilson_interval(1, 1)
        assert lo <= 0.21 and hi == 1.0

    def test_zero_rejections_interval_positive(self):
        lo, hi = wilson_interval(0, 100000)
        assert lo == 0.0 and 0 < hi < 1e-3

    @pytest.mark.parametrize("trials", [1, 7, 100, 20000, 10**6])
    def test_endpoints_are_exact(self, trials):
        # The interval's lower end at 0 rejections is 0, and its upper end at
        # `trials` rejections is 1; rounding must not move either.
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0

    def test_width_shrinks_like_root_n(self):
        w100 = np.subtract(*wilson_interval(25, 100)[::-1])
        w10000 = np.subtract(*wilson_interval(2500, 10000)[::-1])
        assert w10000 < w100 / 5

    @pytest.mark.parametrize("rejections,trials,expected", [
        (0, 1, (0.0, 0.7934506856227626)),
        (1, 1, (0.20654931437723745, 1.0)),
        (7, 20000, (0.00016955317759555281, 0.0007223484532697996)),
        (2500, 10000, (0.24161019318292498, 0.2585818060024132)),
        (0, 100000, (0.0, 3.841311258303963e-05)),
        # A quantile one ulp low gives hi = 0.47041738000949995 here.
        (9270, 20000, (0.45659663862259564, 0.4704173800095)),
    ])
    def test_bounds_pinned(self, rejections, trials, expected):
        assert wilson_interval(rejections, trials) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestEstimate:
    def test_direct_sum_never_rejects(self):
        sh = Shape((3, 2, 3))
        f = generate(GeneratorSpec("direct-sum", sh, 5))
        for kind in ("sic-subsets", "sic-cube", "shapka", "conjectured"):
            est = estimate_rejection(f, kind, 100000, 6)
            assert est.rejections == 0

    def test_deterministic_in_seed(self):
        sh = Shape((2, 2, 2))
        f = generate(GeneratorSpec("uniform-random", sh, 7))
        a = estimate_rejection(f, SIC_SUBSETS, 50000, 8)
        b = estimate_rejection(f, SIC_SUBSETS, 50000, 8)
        c = estimate_rejection(f, SIC_SUBSETS, 50000, 9)
        assert a == b
        assert a != c

    def test_interval_covers_known_value(self):
        sh = Shape((2, 2, 2))
        f = generate(GeneratorSpec("corrupted-direct-sum", sh, 10, flips=1))
        exact = float(exact_rejection(f, SHAPKA).value)
        est = estimate_rejection(f, SHAPKA, 100000, 11)
        assert est.lo <= exact <= est.hi

    def test_interval_contains_point_estimate(self):
        sh = Shape((2, 2, 2))
        f = generate(GeneratorSpec("uniform-random", sh, 12))
        for trials in (1, 10, 1000):
            est = estimate_rejection(f, SHAPKA, trials, 13)
            assert est.lo <= est.estimate <= est.hi

    def test_needs_positive_trials(self):
        f = generate(GeneratorSpec("direct-sum", Shape((2, 2)), 0))
        with pytest.raises(ValueError):
            estimate_rejection(f, SHAPKA, 0, 0)


_STREAM_BLOCK = 1 << 17
_SELECTORS = {SIC_SUBSETS: 2, SIC_CUBE: 2, SHAPKA: 0, CONJECTURED: 1}


def reference_rejections(f, kind, trials, seed):
    """estimate_rejection's count, re-derived with public Generator calls.

    The trials stream (stream 1 of the seed) is read in blocks of 2^17
    trials.  Per block a tensor test draws a's coordinates axis by axis, then
    b's, then each selector as an (n, d) 0/1 array; BLR draws x, then y.
    Queries are built from coordinates, independently of testers' flat
    offsets.
    """
    rng = rng_for(seed, 1)
    dims = f.shape.dims
    d = len(dims)
    table = f.bits.reshape(dims)
    rejections = 0
    for start in range(0, trials, _STREAM_BLOCK):
        n = min(_STREAM_BLOCK, trials - start)
        if kind == BLR:
            x, y = (rng.integers(0, f.shape.size, size=n, dtype=np.int64)
                    for _ in range(2))
            rejections += int(np.count_nonzero(
                f.bits[0] ^ f.bits[x] ^ f.bits[y] ^ f.bits[x ^ y]))
            continue
        a, b = (np.stack([rng.integers(0, m, size=n, dtype=np.int64) for m in dims],
                         axis=1)
                for _ in range(2))
        sels = [rng.integers(0, 2, size=(n, d), dtype=np.int64).astype(bool)
                for _ in range(_SELECTORS[kind])]

        def value(p):
            return table[tuple(p.T)]

        if kind in (SIC_SUBSETS, SIC_CUBE):
            s, t = sels
            bad = (value(a) ^ value(np.where(s, b, a)) ^ value(np.where(t, b, a))
                   ^ value(np.where(s ^ t, b, a)))
        elif kind == CONJECTURED:
            (x,) = sels
            bad = value(a) ^ value(np.where(x, b, a)) ^ value(b) ^ value(np.where(x, a, b))
        else:
            bad = value(b)
            for j in range(d):
                hybrid = a.copy()
                hybrid[:, j] = b[:, j]
                bad = bad ^ value(hybrid)
            if d % 2 == 0:
                bad = bad ^ value(a)
        rejections += int(np.count_nonzero(bad))
    return rejections


def lemire_skips(words, m, n):
    """Words skipped while drawing n values below m from a next_uint32 stream.

    Lemire's rule: a word w is skipped when (w * m) mod 2^32 falls below
    (2^32 - m) mod m.
    """
    kept = ((words.astype(np.uint64) * m) & 0xFFFFFFFF) >= (2**32 - m) % m
    used = int(np.searchsorted(np.cumsum(kept), n)) + 1
    return used - n


class TestMonteCarloStream:
    """estimate_rejection reproduces the per-axis Generator.integers stream."""

    @pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 131072, 131073])
    @pytest.mark.parametrize("kind", ALL_TEST_KINDS)
    def test_matches_reference(self, kind, trials):
        # Axes of size 2^e decode by a shift and other sizes by a 64-bit
        # product: (4, 2, 8) and BLR's tables take only the shift, (3, 5, 2)
        # and (4, 3, 2) both.
        shapes = [(2,) * 5] if kind == BLR else [(3, 5, 2), (4, 2, 8), (4, 3, 2)]
        for dims in shapes:
            f = generate(GeneratorSpec("uniform-random", Shape(dims), 21))
            est = estimate_rejection(f, kind, trials, 22)
            assert est.rejections == reference_rejections(f, kind, trials, 22), dims

    # A tensor with a single axis of size above 1 is a direct sum, so its
    # counts are 0 whatever the stream: every shape here has two such axes.
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    @pytest.mark.parametrize("dims", [(2, 1, 2), (1, 3, 2), (2, 1, 4)])
    def test_size_one_axes_draw_nothing(self, dims, kind):
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 23))
        est = estimate_rejection(f, kind, 131073, 24)
        assert est.rejections == reference_rejections(f, kind, 131073, 24)

    def test_skipped_words_carry_into_the_next_block(self):
        # On (100003, 2) sic-subsets draws 8 words per trial and only axis 0
        # can skip words, so the first block ends on a high half-word exactly
        # when a's and b's axis 0 skip an odd number together.
        m, n, seed = 100003, _STREAM_BLOCK, 5
        words = rng_for(seed, 1).integers(0, 2**32, size=4 * n + 64, dtype=np.uint32)
        skip_a = lemire_skips(words, m, n)
        skip_b = lemire_skips(words[2 * n + skip_a:], m, n)
        assert skip_a > 0 and skip_b > 0 and (skip_a + skip_b) % 2 == 1
        f = generate(GeneratorSpec("uniform-random", Shape((m, 2)), 25))
        est = estimate_rejection(f, SIC_SUBSETS, 150000, seed)
        assert est.rejections > 0
        assert est.rejections == reference_rejections(f, SIC_SUBSETS, 150000, seed)


class TestWordWidths:
    """Blocks whose drawn sizes are all powers of two keep 1 or 2 bytes of
    each word, and their counts still equal the per-axis reference.

    Each shape sits on one side of a width boundary, with size-1 axes mixed
    in.  sic-subsets and sic-cube read at least 2^20 words per 131073-trial
    block on each of them, so two and three threads split those blocks.
    """

    WIDTHS = {
        (256, 1, 2, 2, 2, 1, 2, 2, 2, 2): 1,
        (512, 2, 1, 2, 2, 2, 1, 2, 2, 2): 2,
        (65536, 1, 2, 2, 2, 2): 2,
        (131072, 2, 1, 2, 2, 2): 4,
    }

    @pytest.mark.parametrize("trials", [1, 8193, 131073])
    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    @pytest.mark.parametrize("dims", list(WIDTHS))
    def test_counts_on_both_sides_of_each_width(self, monkeypatch, dims, kind, trials):
        from rank1check.testers import _word_bytes, _word_groups
        assert _word_bytes(_word_groups(kind, Shape(dims), 1)[2]) == self.WIDTHS[dims]
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 37))
        counts = TestThreadCount.counts(monkeypatch, f, kind, trials, 38)
        assert counts == [reference_rejections(f, kind, trials, 38)] * 3

    @pytest.mark.parametrize("trials", [1, 8193, 131073])
    @pytest.mark.parametrize("d,width", [(8, 1), (9, 2)])
    def test_blr_table_sizes(self, monkeypatch, d, width, trials):
        from rank1check.testers import _word_bytes, _word_groups
        assert _word_bytes(_word_groups(BLR, Shape((2,) * d), 1)[2]) == width
        f = generate(GeneratorSpec("uniform-random", Shape((2,) * d), 39))
        counts = TestThreadCount.counts(monkeypatch, f, BLR, trials, 40)
        assert counts == [reference_rejections(f, BLR, trials, 40)] * 3

    def test_one_byte_words_bound_the_block(self):
        # (2,)^16 sic-subsets reads 64 words a trial, each decoded to its top
        # bit: 25.6 MB of whole words at 1e5 trials, 6.4 MB of top bytes.
        f = generate(GeneratorSpec("uniform-random", Shape((2,) * 16), 41))
        harness._estimate_rejection(f, SIC_SUBSETS, 1000, 42, 1)
        tracemalloc.start()
        try:
            harness._estimate_rejection(f, SIC_SUBSETS, 100000, 42, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20


class TestPhiloxRaw:
    """The word source's threaded read by position equals one sequential
    random_raw, kept at each word width."""

    # A read of n outputs gets a thread per _WORDS_PER_THREAD / 2 of them.
    @pytest.mark.parametrize("n", [0, 1, 3, 5, harness._WORDS_PER_THREAD - 1,
                                   2 * harness._WORDS_PER_THREAD + 7])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 6, 2**20 + 5])
    def test_equals_random_raw(self, start, workers, n):
        key = rng_for(41, 1).bit_generator.state["state"]["key"]
        expected = np.random.Philox(key=key).random_raw(start + n)[start:]
        words = expected.astype("<u8").view("<u4")
        for width in (1, 2, 4):
            got = harness._philox_words(key, 2 * start, 2 * n, width, workers)
            assert got.dtype == np.dtype(f"<u{width}")
            assert np.array_equal(got, words >> (32 - 8 * width)), width
        assert np.array_equal(got.view("<u8"), expected)


class TestShared:
    """harness._shared, the one path that shares work among threads."""

    def test_results_come_back_in_item_order(self):
        # Item 0 waits until the last item is done, so items finish out of
        # order, on two threads.
        last_done = threading.Event()
        finished = []

        def square(i):
            if i == 0:
                assert last_done.wait(timeout=10)
            finished.append(i)
            if i == 5:
                last_done.set()
            return i * i

        assert harness._shared(square, range(6), 2, 2) == [i * i for i in range(6)]
        assert finished[-1] == 0

    @pytest.mark.parametrize("threads,workers,items", [
        (0, 2, 8), (1, 3, 8), (2, 3, 8), (3, 3, 8), (4, 3, 8), (3, 1, 8), (3, 3, 2),
        (3, 3, 0)])
    def test_thread_bound(self, threads, workers, items):
        seen = set()

        def record(i):
            seen.add(threading.get_ident())
            time.sleep(0.005)
            return -i

        assert harness._shared(record, range(items), threads, workers) == \
            [-i for i in range(items)]
        assert len(seen) <= min(max(threads, 1), workers, items)

    def test_threads_run_at_once(self):
        # Each item waits for the other two, so three threads run them.
        barrier = threading.Barrier(3)

        def meet(i):
            barrier.wait(timeout=10)
            return i

        assert harness._shared(meet, range(3), 3, 3) == [0, 1, 2]

    def test_each_item_runs_once_under_contention(self):
        # More threads than cores and a short switch interval: an item taken
        # twice or lost shows in the per-thread records.
        taken = collections.defaultdict(list)

        def take(i):
            taken[threading.get_ident()].append(i)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                assert harness._shared(take, range(500), 6, 6) == list(range(500))
                assert sorted(i for items in taken.values() for i in items) == \
                    list(range(500))
        finally:
            sys.setswitchinterval(interval)


class TestThreadCount:
    """Monte-Carlo counts are the same under every RANK1CHECK_THREADS.

    A block is split only into shares of harness._WORDS_PER_THREAD words,
    so the tensor shapes here read at least 16 words a trial, which splits a
    block of 2^17 trials.  BLR reads 2 words a trial and always runs on one
    thread.
    """

    @staticmethod
    def counts(monkeypatch, f, kind, trials, seed):
        out = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANK1CHECK_THREADS", threads)
            # A call on another seed replaces the words the process keeps,
            # so each count reads its own on its threads.
            estimate_rejection(f, kind, 1, seed + 1)
            out.append(estimate_rejection(f, kind, trials, seed).rejections)
        return out

    @pytest.mark.parametrize("trials", [1, 8193, 131073, 150000])
    @pytest.mark.parametrize("kind", ALL_TEST_KINDS)
    def test_counts_independent_of_threads(self, monkeypatch, kind, trials):
        dims = (2,) * 5 if kind == BLR else (3, 5, 2, 3, 2, 3, 2, 5)
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 31))
        first, *rest = self.counts(monkeypatch, f, kind, trials, 32)
        assert rest == [first, first]

    @pytest.mark.parametrize("kind", TENSOR_TEST_KINDS)
    @pytest.mark.parametrize("dims", [(2, 1, 2, 3, 2, 1, 2, 2, 3, 2, 2),
                                      (1, 3, 2, 2, 2, 2, 1, 2, 2, 2, 3)])
    def test_size_one_axes(self, monkeypatch, dims, kind):
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 33))
        first, *rest = self.counts(monkeypatch, f, kind, 131073, 34)
        assert rest == [first, first]

    def test_split_read_after_skipped_words(self, monkeypatch):
        # On (100003,) + (2,)*7 sic-subsets reads 32 words a trial and only
        # axis 0 skips words.  With seed 6 the first block skips 2 + 1, so
        # it reads 2^22 + 3 words: 2^21 + 2 outputs, two lanes into a
        # counter, the last of them half used.  The second block's split
        # read therefore opens on an odd word position, the high half of
        # that output, in the middle of a counter.
        m, n, seed = 100003, _STREAM_BLOCK, 6
        words = rng_for(seed, 1).integers(0, 2**32, size=9 * n + 64, dtype=np.uint32)
        skip_a = lemire_skips(words, m, n)
        skip_b = lemire_skips(words[8 * n + skip_a:], m, n)
        outputs = -(-(32 * n + skip_a + skip_b) // 2)
        assert (skip_a + skip_b) % 2 == 1 and -outputs % 4 == 2
        f = generate(GeneratorSpec("uniform-random", Shape((m,) + (2,) * 7), 25))
        first, *rest = self.counts(monkeypatch, f, SIC_SUBSETS, 2 * n, seed)
        assert rest == [first, first]
        assert first == reference_rejections(f, SIC_SUBSETS, 2 * n, seed)

    def test_calls_share_their_helper_thread(self, monkeypatch):
        # Threads started anew each call could each take another malloc
        # arena, which made peak RSS differ between identical runs.  The
        # fill runs testers._top_bytes on each piece and the apply
        # testers._query_columns on each sub-block.
        names = {"_top_bytes": set(), "_query_columns": set()}

        def spy(name):
            inner = getattr(testers, name)

            def call(*args):
                if threading.current_thread() is not threading.main_thread():
                    names[name].add(threading.current_thread().name)
                return inner(*args)
            return call

        for name in names:
            monkeypatch.setattr(testers, name, spy(name))
        monkeypatch.setenv("RANK1CHECK_THREADS", "2")
        f = generate(GeneratorSpec("uniform-random", Shape((2,) * 8), 35))
        # Each call is on a seed of its own, so none is served from the
        # words the one before it kept, and a first call on seed 3 replaces
        # whatever an earlier test left.
        estimate_rejection(f, SIC_SUBSETS, 1, 3)
        for seed in range(3):  # 32 words a trial: both phases split in two
            estimate_rejection(f, SIC_SUBSETS, _STREAM_BLOCK, seed)
        assert names["_top_bytes"] == names["_query_columns"]
        assert len(names["_top_bytes"]) == 1


class TestKeptFirstBlock:
    """The words of the last first block read, which later calls on the same
    stream are served from, never change a count."""

    @staticmethod
    def reads(monkeypatch):
        """The (position, count) of every read that goes to Philox."""
        seen = []
        inner = harness._philox_words

        def spy(key, position, count, width, workers):
            seen.append((position, count))
            return inner(key, position, count, width, workers)

        monkeypatch.setattr(harness, "_philox_words", spy)
        return seen

    @pytest.mark.parametrize("dims,kinds", [((2,) * 5, ALL_TEST_KINDS),
                                            ((3, 5, 2), TENSOR_TEST_KINDS)])
    def test_every_test_order(self, dims, kinds):
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 51))
        expected = {kind: reference_rejections(f, kind, 2000, 52) for kind in kinds}
        for order in itertools.permutations(kinds):
            estimate_rejection(f, SHAPKA, 1, 53)  # another stream first
            for kind in order:
                assert estimate_rejection(f, kind, 2000, 52).rejections == \
                    expected[kind], order

    @pytest.mark.parametrize("between", [
        ((4, 2, 8), SIC_SUBSETS, 55),  # another seed
        ((2, 2, 2, 2), SIC_SUBSETS, 54),  # another shape, the same width
        ((3, 5, 2), SIC_SUBSETS, 54),  # another width
        ((2,) * 5, BLR, 54),  # BLR's draws on the same stream
    ])
    def test_call_between(self, between):
        f = generate(GeneratorSpec("uniform-random", Shape((4, 2, 8)), 56))
        dims, kind, seed = between
        g = generate(GeneratorSpec("uniform-random", Shape(dims), 57))
        assert estimate_rejection(f, SIC_SUBSETS, 5000, 54).rejections == \
            reference_rejections(f, SIC_SUBSETS, 5000, 54)
        assert estimate_rejection(g, kind, 3000, seed).rejections == \
            reference_rejections(g, kind, 3000, seed)
        for kind in (SHAPKA, SIC_CUBE):
            assert estimate_rejection(f, kind, 5000, 54).rejections == \
                reference_rejections(f, kind, 5000, 54)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (1000003, 2)])
    def test_skip_shapes_keep_their_block(self, monkeypatch, dims):
        # Both shapes decode by Lemire's product.  Below 3 a word is skipped
        # about once in 2^32; below 1000003 about 22 times in 1e5, each
        # skip read by a top-up after the block.  sic-subsets reads the most
        # of any test, and its top-ups must not evict its block: the other
        # tests read from Philox only sic-cube's top-ups, past the block.
        f = generate(GeneratorSpec("uniform-random", Shape(dims), 58))
        block = 4 * len(dims) * 100000
        estimate_rejection(f, SIC_SUBSETS, 1, 60)
        reads = self.reads(monkeypatch)
        for kind in (SIC_SUBSETS, SHAPKA, CONJECTURED, SIC_CUBE):
            assert estimate_rejection(f, kind, 100000, 59).rejections == \
                reference_rejections(f, kind, 100000, 59)
        assert reads[0] == (0, block)
        assert all(position >= block for position, _ in reads[1:])
        assert (len(reads) > 1) == (dims[0] > 3)

    def test_second_block_starts_mid_stream(self, monkeypatch):
        # A second block starts where the first one's words end, which for a
        # test that reads fewer words a trial is inside the kept first block.
        f = generate(GeneratorSpec("uniform-random", Shape((3, 5, 2)), 61))
        estimate_rejection(f, SIC_SUBSETS, 1, 63)
        reads = self.reads(monkeypatch)
        for kind in (SIC_SUBSETS, SIC_SUBSETS, SHAPKA, CONJECTURED):
            assert estimate_rejection(f, kind, 150000, 62).rejections == \
                reference_rejections(f, kind, 150000, 62)
        # sic-subsets reads 12 words a trial.  Its second call reads its
        # second block again; shapka's and conjectured's second blocks, at 6
        # and 9 words a trial, lie inside sic-subsets' first.
        first, second = 12 * _STREAM_BLOCK, 12 * (150000 - _STREAM_BLOCK)
        assert reads == [(0, first), (first, second), (first, second)]

    def test_threads_with_different_keys(self):
        # More threads than cores and a short switch interval, each thread
        # calling on a seed of its own: every call replaces or reads the
        # kept words while the others do too.
        f = generate(GeneratorSpec("uniform-random", Shape((3, 4, 2)), 64))
        seeds = range(65, 71)
        expected = {s: reference_rejections(f, SIC_SUBSETS, 3000, s) for s in seeds}
        got = collections.defaultdict(list)

        def run(seed):
            for kind in (SIC_SUBSETS, SHAPKA, SIC_SUBSETS):
                got[seed].append((kind, estimate_rejection(f, kind, 3000, seed).rejections))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for s in seeds:
            shapka = reference_rejections(f, SHAPKA, 3000, s)
            assert got[s] == [(SIC_SUBSETS, expected[s]), (SHAPKA, shapka),
                              (SIC_SUBSETS, expected[s])]

    def test_served_words_are_read_only_and_whole(self, monkeypatch):
        # A read ending at the kept words' end is served from them, one
        # ending a word past it is read from Philox.
        key = rng_for(73, 1).bit_generator.state["state"]["key"]
        other = rng_for(72, 1).bit_generator.state["state"]["key"]
        harness._trial_words(other, 1)(10, 1)  # keep another stream's words
        expected = harness._philox_words(key, 0, 101, 1, 1)
        seen = self.reads(monkeypatch)
        for count in (100, 60, 100, 101, 101):
            served = harness._trial_words(key, 1)(count, 1)
            assert not served.flags.writeable
            with pytest.raises(ValueError):
                served[0] = 1
            assert np.array_equal(served, expected[:count])
        assert seen == [(0, 100), (0, 101)]

    def test_one_first_block_held_after_return(self):
        # (2,)^16 sic-subsets reads 64 one-byte words a trial.  Only the
        # last call's first block outlives it: not the calls before it, nor
        # a block after the first.
        f = generate(GeneratorSpec("uniform-random", Shape((2,) * 16), 74))
        estimate_rejection(f, SIC_SUBSETS, 100000, 75)  # starts the helper threads
        for trials, bound in ((100000, 64 * 100000), (150000, 64 * _STREAM_BLOCK)):
            tracemalloc.start()
            try:
                for seed in (76, 77, 78):
                    estimate_rejection(f, SIC_SUBSETS, trials, seed)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert bound <= held < bound + (64 << 10), trials


_CORRUPTED = "corrupted-direct-sum"


def _config(**keys) -> str:
    """A minimal valid sweep config, each of `keys` set in place, appended,
    or dropped where its value is None."""
    lines = {"shapes": "2,2", "tests": "shapka", "kinds": "direct-sum",
             "trials": "1", "seeds": "1"} | keys
    return "".join(f"{k} = {v}\n" for k, v in lines.items() if v is not None)


class TestSweepConfig:
    def test_parses_default(self):
        cfg = parse_sweep_config(DEFAULT_SWEEP_CONFIG)
        assert cfg.shapes == ((2, 2), (2, 2, 2))
        assert cfg.trials == 20000
        assert cfg.seeds == (1, 2)
        assert cfg.rates == (Fraction(1, 16), Fraction(1, 8))

    def test_comments_and_blanks(self):
        cfg = parse_sweep_config(
            "# comment\n\nshapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
            "trials = 10\nseeds = 1\n"
        )
        assert cfg.shapes == ((2, 2),)

    @pytest.mark.parametrize("text,field", [
        ("shapes = 2,x\ntests = shapka\nkinds = direct-sum\ntrials = 1\nseeds = 1\n",
         "shapes"),
        ("shapes = 2,2\ntests = bogus\nkinds = direct-sum\ntrials = 1\nseeds = 1\n",
         "tests"),
        ("shapes = 2,2\ntests = shapka\nkinds = bogus\ntrials = 1\nseeds = 1\n",
         "kinds"),
        ("shapes = 2,2\ntests = shapka\nkinds = direct-sum\ntrials = none\nseeds = 1\n",
         "trials"),
        ("shapes = 2,2\ntests = shapka\nkinds = direct-sum\ntrials = 1\n",
         "seeds"),
        ("shapes = 2,2\ntests = shapka\nkinds = direct-sum\ntrials = 1\n"
         "seeds = 1; -1\n", "seeds"),
        ("shapes = 2,2\ntests = shapka\nkinds = corrupted-direct-sum\ntrials = 1\n"
         "seeds = 1\n", "rates"),
        ("shapes = 2,2\ntests = shapka\nkinds = corrupted-direct-sum\nrates = 1/0\n"
         "trials = 1\nseeds = 1\n", "rates"),
        ("mystery = 1\nshapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
         "trials = 1\nseeds = 1\n", "mystery"),
        ("shapes = 2,2\nshapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
         "trials = 1\nseeds = 1\n", "shapes"),
        ("shapes\ntests = shapka\nkinds = direct-sum\ntrials = 1\nseeds = 1\n",
         "shapes"),
        ("shapes = 2,2,2; 2,2\ntests = shapka\nkinds = corrupted-direct-sum\n"
         "counts = 1; 9\ntrials = 1\nseeds = 1\n", "counts"),
        ("shapes = 2,2; 2,3\ntests = shapka; blr\nkinds = direct-sum\ntrials = 1\n"
         "seeds = 1\n", "tests"),
    ])
    def test_rejects_bad_config(self, text, field):
        with pytest.raises(SweepConfigError) as err:
            parse_sweep_config(text)
        assert err.value.field == field

    @pytest.mark.parametrize("text,line,field,message", [
        ("shapes\n" + _config(shapes=None), 1, "shapes", "expected key = value"),
        ("mystery = 1\n" + _config(), 1, "mystery", "unknown key"),
        (_config() + "shapes = 2,2\n", 6, "shapes", "duplicate key"),
        (_config(seeds=None), 0, "seeds", "required key missing"),
        (_config(shapes="2,x"), 1, "shapes",
         "bad shape '2,x': invalid literal for int() with base 10: 'x'"),
        (_config(shapes="0,2"), 1, "shapes",
         "bad shape '0,2': axis sizes must be positive, got (0, 2)"),
        (_config(shapes=";"), 1, "shapes", "needs at least one shape"),
        (_config(tests="shapka; bogus"), 2, "tests", "unknown test 'bogus'"),
        (_config(tests=";"), 2, "tests", "needs at least one test"),
        (_config(shapes="2,2; 2,3", tests="shapka; blr"), 2, "tests",
         "BLR needs every axis of size 2, got shape (2, 3)"),
        (_config(kinds="bogus"), 3, "kinds", "unknown kind 'bogus'"),
        (_config(kinds=" ; "), 3, "kinds", "needs at least one kind"),
        (_config(kinds=_CORRUPTED, rates="abc"), 6, "rates",
         "Invalid literal for Fraction: 'abc'"),
        (_config(kinds=_CORRUPTED, rates="1/0"), 6, "rates", "zero denominator"),
        (_config(kinds=_CORRUPTED, rates="1/8; 3/2"), 6, "rates",
         "rates must lie in [0, 1]"),
        (_config(kinds=_CORRUPTED, counts="x"), 6, "counts",
         "invalid literal for int() with base 10: 'x'"),
        (_config(kinds=_CORRUPTED, counts="-1"), 6, "counts",
         "counts must be nonnegative"),
        (_config(shapes="2,2,2; 2,2", kinds=_CORRUPTED, counts="1; 9"), 6, "counts",
         "flip count 9 exceeds the 4 entries of the smallest shape"),
        (_config(kinds=_CORRUPTED), 0, "rates", "corrupted kind needs rates or counts"),
        # An empty rates line still leaves the kind without a parameter.
        (_config(kinds=_CORRUPTED, rates=""), 0, "rates",
         "corrupted kind needs rates or counts"),
        (_config(trials="none"), 4, "trials",
         "invalid literal for int() with base 10: 'none'"),
        (_config(trials="1; 2"), 4, "trials",
         "invalid literal for int() with base 10: '1; 2'"),
        (_config(trials="0"), 4, "trials", "needs at least one trial"),
        (_config(seeds="x"), 5, "seeds", "invalid literal for int() with base 10: 'x'"),
        (_config(seeds=";"), 5, "seeds", "needs at least one seed"),
        (_config(seeds="1; -1"), 5, "seeds", "seeds must be nonnegative"),
        (_config(oracle_budget="x"), 6, "oracle_budget",
         "invalid literal for int() with base 10: 'x'"),
        (_config(oracle_budget="-1"), 6, "oracle_budget", "must be nonnegative"),
    ])
    def test_error_names_line_key_and_message(self, text, line, field, message):
        with pytest.raises(SweepConfigError) as err:
            parse_sweep_config(text)
        assert (err.value.line, err.value.field) == (line, field)
        assert str(err.value) == f"line {line}, key {field!r}: {message}"

    def test_optional_keys_and_their_defaults(self):
        cfg = parse_sweep_config(_config(kinds=_CORRUPTED, counts="0; 4",
                                         oracle_budget="0"))
        assert (cfg.rates, cfg.flip_counts, cfg.oracle_budget) == ((), (0, 4), 0)
        cfg = parse_sweep_config(_config(rates="1/8; 0.5", tests="blr; shapka"))
        assert cfg.rates == (Fraction(1, 8), Fraction(1, 2))
        assert (cfg.tests, cfg.oracle_budget) == (("blr", "shapka"), DEFAULT_BUDGET)


SMALL_CONFIG = """\
shapes = 2,2
tests = shapka; sic-subsets
kinds = direct-sum; corrupted-direct-sum
rates = 1/8
trials = 2000
seeds = 1; 2
oracle_budget = 1048576
"""


class TestSweep:
    def test_byte_identical_reruns(self):
        cfg = parse_sweep_config(SMALL_CONFIG)
        rows1, _ = run_sweep(cfg, master_seed=5)
        rows2, _ = run_sweep(cfg, master_seed=5)
        assert sweep_csv(rows1).encode() == sweep_csv(rows2).encode()

    def test_header_golden(self):
        assert CSV_HEADER == ("test,shape,kind,param,trials,rejections,est,lo,hi,"
                              "exact_rej,exact_dist,ratio")
        cfg = parse_sweep_config(SMALL_CONFIG)
        rows, _ = run_sweep(cfg, master_seed=5)
        csv = sweep_csv(rows)
        assert csv.splitlines()[0] == CSV_HEADER
        assert len(csv.splitlines()) == 1 + len(rows)

    def test_exact_columns_independent_of_trial_count(self):
        # Same tensors, different Monte-Carlo effort: the estimate columns
        # move, the oracle columns must not.
        cfg1 = parse_sweep_config(SMALL_CONFIG)
        cfg2 = parse_sweep_config(SMALL_CONFIG.replace("trials = 2000",
                                                       "trials = 4000"))
        rows1, _ = run_sweep(cfg1, master_seed=5)
        rows2, _ = run_sweep(cfg2, master_seed=5)
        for r1, r2 in zip(rows1, rows2):
            assert r1.key() == r2.key()
            assert r1.exact_rej == r2.exact_rej
            assert r1.exact_dist == r2.exact_dist

    def test_direct_sum_rows_all_zero(self):
        cfg = parse_sweep_config(
            "shapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
            "trials = 1000\nseeds = 3\noracle_budget = 1048576\n"
        )
        rows, summary = run_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.estimate.rejections == 0
        assert row.exact_rej == 0
        assert row.exact_dist == 0
        assert row.ratio is None

    def test_budget_zero_drops_exact_columns(self):
        cfg = parse_sweep_config(
            "shapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
            "trials = 100\nseeds = 3\noracle_budget = 0\n"
        )
        rows, summary = run_sweep(cfg)
        assert rows[0].exact_rej is None
        assert rows[0].exact_dist is None
        assert rows[0].csv().endswith(",,,")
        assert summary == {}

    def test_summary_reports_min_ratio(self):
        cfg = parse_sweep_config(SMALL_CONFIG)
        rows, summary = run_sweep(cfg, master_seed=7)
        for test, ratio in summary.items():
            candidates = [
                row.exact_rej / row.exact_dist
                for row in rows
                if row.test == test and row.exact_dist
            ]
            assert ratio == min(candidates)
            assert ratio > 0


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RANK1CHECK_THREADS", "2")
        assert worker_count() == 2

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("RANK1CHECK_THREADS", raising=False)
        assert worker_count() >= 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("RANK1CHECK_THREADS", "soon")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("RANK1CHECK_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count()

    def test_sweep_rows_run_monte_carlo_on_one_thread(self, monkeypatch):
        seen = []
        inner = harness._estimate_rejection

        def spy(f, kind, trials, seed, workers):
            seen.append(workers)
            return inner(f, kind, trials, seed, workers)

        monkeypatch.setattr(harness, "_estimate_rejection", spy)
        monkeypatch.setenv("RANK1CHECK_THREADS", "2")
        run_sweep(parse_sweep_config(SMALL_CONFIG), master_seed=8)
        assert len(seen) > 1 and set(seen) == {1}
        seen.clear()
        one_row = ("shapes = 2,2\ntests = shapka\nkinds = direct-sum\n"
                   "trials = 2000\nseeds = 1\n")
        run_sweep(parse_sweep_config(one_row), master_seed=8)
        assert seen == [2]

    def test_sweeps_share_their_helper_thread(self, monkeypatch):
        # Rows run on Monte Carlo's kept helper threads and the calling
        # one, not on threads started anew for each sweep.
        names = set()
        inner = harness._compute_row

        def spy(*args):
            if threading.current_thread() is not threading.main_thread():
                names.add(threading.current_thread().name)
            return inner(*args)

        monkeypatch.setattr(harness, "_compute_row", spy)
        monkeypatch.setenv("RANK1CHECK_THREADS", "2")
        for _ in range(2):
            run_sweep(parse_sweep_config(SMALL_CONFIG), master_seed=8)
        assert len(names) == 1

    def test_failed_sweep_leaves_no_row_running(self, monkeypatch):
        # A row that fails on the calling thread raises only after the
        # helper thread has finished the rows it took.
        helper_busy = threading.Event()
        started, finished = [], []

        def spy(*args):
            if threading.current_thread() is threading.main_thread():
                assert helper_busy.wait(timeout=10)
                raise ValueError("row failed")
            started.append(args)
            helper_busy.set()
            time.sleep(0.02)
            finished.append(args)

        monkeypatch.setattr(harness, "_compute_row", spy)
        monkeypatch.setenv("RANK1CHECK_THREADS", "2")
        with pytest.raises(ValueError, match="^row failed$"):
            run_sweep(parse_sweep_config(SMALL_CONFIG), master_seed=8)
        assert len(started) == len(finished) == 7

    def test_single_worker_sweep_matches(self, monkeypatch):
        cfg = parse_sweep_config(SMALL_CONFIG)
        rows_par, _ = run_sweep(cfg, master_seed=8)
        monkeypatch.setenv("RANK1CHECK_THREADS", "1")
        rows_seq, _ = run_sweep(cfg, master_seed=8)
        assert sweep_csv(rows_par) == sweep_csv(rows_seq)
