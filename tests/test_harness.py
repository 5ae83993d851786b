"""Generators, Wilson intervals, estimation, sweep configs, CSV determinism."""

from fractions import Fraction

import numpy as np
import pytest

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
from rank1check.oracles import exact_rejection, nearest_direct_sum
from rank1check.testers import SHAPKA, SIC_SUBSETS


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
    ])
    def test_rejects_bad_config(self, text, field):
        with pytest.raises(SweepConfigError) as err:
            parse_sweep_config(text)
        assert err.value.field == field


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

    def test_single_worker_sweep_matches(self, monkeypatch):
        cfg = parse_sweep_config(SMALL_CONFIG)
        rows_par, _ = run_sweep(cfg, master_seed=8)
        monkeypatch.setenv("RANK1CHECK_THREADS", "1")
        rows_seq, _ = run_sweep(cfg, master_seed=8)
        assert sweep_csv(rows_par) == sweep_csv(rows_seq)
