"""Generators, Monte-Carlo estimation, experiment sweeps, and CSV reporting.

Randomness is counter-based: every consumer builds its generator from a
Philox key (seed, stream), so results are reproducible and independent of
execution order.  Exact oracle columns never depend on any seed.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import BinaryTensor, DirectSum, Shape, _adopt
from . import oracles, testers

_MASK64 = (1 << 64) - 1

# Stream ids for the counter-based split.
_STREAM_GENERATE = 0
_STREAM_TRIALS = 1


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never collide.

    Seeds must lie in [0, 2^64): wider values would wrap onto another seed.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return np.random.Generator(
        np.random.Philox(key=[seed, stream & _MASK64])
    )


def worker_count() -> int:
    """Worker cap from RANK1CHECK_THREADS; hardware default when absent."""
    raw = os.environ.get("RANK1CHECK_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as e:
        raise ValueError(f"RANK1CHECK_THREADS must be an integer, got {raw!r}") from e
    if value < 1:
        raise ValueError("RANK1CHECK_THREADS must be at least 1")
    return value


@functools.cache
def _pool(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    """Monte Carlo's helper threads, kept for the process: threads started per
    call could each take another malloc arena, and peak RSS varied by 7 MB."""
    return concurrent.futures.ThreadPoolExecutor(max(1, workers - 1))


def _shared(fn, items, threads: int, workers: int) -> list:
    """[fn(item) for item in items], run on this thread and _pool(workers)'s:
    `threads` of them, but at least 1 and at most `workers` or the item count.

    Each thread takes the next item when it is ready for it, so a thread
    that falls behind takes fewer.  Every thread is waited for before an
    error is raised, so none is left running past it.
    """
    pending = collections.deque(enumerate(items))
    results = [None] * len(pending)

    def run():
        while True:
            try:
                i, item = pending.popleft()
            except IndexError:
                return
            results[i] = fn(item)

    later = [_pool(workers).submit(run)
             for _ in range(1, min(threads, workers, len(pending)))]
    try:
        run()
    finally:
        concurrent.futures.wait(later)
    for job in later:
        job.result()
    return results


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

KIND_DIRECT_SUM = "direct-sum"
KIND_CORRUPTED = "corrupted-direct-sum"
KIND_UNIFORM = "uniform-random"
KIND_INDICATOR = "single-point-indicator"

GENERATOR_KINDS = (KIND_DIRECT_SUM, KIND_CORRUPTED, KIND_UNIFORM, KIND_INDICATOR)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: kind, domain, seed, and the corruption parameter.

    For the corrupted kind exactly one of `rate` (independent flips) or
    `flips` (uniform without replacement) must be set.
    """

    kind: str
    shape: Shape
    seed: int
    rate: Optional[Fraction] = None
    flips: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == KIND_CORRUPTED:
            if (self.rate is None) == (self.flips is None):
                raise ValueError("corrupted generator needs exactly one of rate/flips")
            if self.rate is not None and not 0 <= Fraction(self.rate) <= 1:
                raise ValueError(f"corruption rate {self.rate} outside [0, 1]")
            if self.flips is not None and not 0 <= self.flips <= self.shape.size:
                raise ValueError(f"flip count {self.flips} outside the domain")
        elif self.rate is not None or self.flips is not None:
            raise ValueError(f"kind {self.kind!r} takes no corruption parameter")


# Rate draws go through one reused buffer of this many doubles.
_RATE_CHUNK = 1 << 16

# generate refuses larger shapes before allocating.  Every kind is built and
# corrupted in one buffer of a byte per entry, 256 MiB at the ceiling, beside
# 576 KiB of rate draws.  A flip count above size/50 is the exception: numpy's
# choice then permutes an int64 array of the whole domain.
MAX_GENERATE_ENTRIES = 1 << 28


def generate(spec: GeneratorSpec) -> BinaryTensor:
    """Deterministic tensor for the spec; same spec, same bits."""
    shape = spec.shape
    if shape.size > MAX_GENERATE_ENTRIES:
        raise oracles.BudgetExceededError(
            f"shape {shape.dims} has {shape.size} entries, beyond the "
            f"{MAX_GENERATE_ENTRIES}-entry ceiling for generated tensors")
    rng = rng_for(spec.seed, _STREAM_GENERATE)
    if spec.kind == KIND_UNIFORM:
        return _adopt(shape, rng.integers(0, 2, size=shape.size, dtype=np.uint8))
    if spec.kind == KIND_INDICATOR:
        bits = np.zeros(shape.size, dtype=np.uint8)
        bits[int(rng.integers(0, shape.size))] = 1
        return _adopt(shape, bits)
    bits = DirectSum.random(shape, rng)._bits()
    if spec.rate is not None:
        # One double per entry: the same doubles in the same order as a
        # single rng.random(shape.size), without the whole-tensor array.
        rate = float(spec.rate)
        draws = np.empty(min(_RATE_CHUNK, shape.size))
        hits = np.empty(draws.size, dtype=bool)
        for i in range(0, shape.size, _RATE_CHUNK):
            chunk = bits[i:i + _RATE_CHUNK]
            d, h = draws[:chunk.size], hits[:chunk.size]
            rng.random(out=d)
            chunk ^= np.less(d, rate, out=h).view(np.uint8)
    elif spec.flips:
        idx = rng.choice(shape.size, size=spec.flips, replace=False)
        bits[idx] ^= 1
    return _adopt(shape, bits)


# ---------------------------------------------------------------------------
# Monte-Carlo estimation
# ---------------------------------------------------------------------------


# Two-sided 95% normal quantile, Phi^-1(0.975), as the exact double.
_Z95 = 1.959963984540054


def wilson_interval(rejections: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Chosen over the normal approximation because it stays meaningful at zero
    rejections, which completeness runs hit constantly.

    Args:
        rejections: observed count of rejecting trials.
        trials: total number of trials, at least 1.

    Returns:
        (lower, upper) bounds on the true rejection probability.  The lower
        bound is exactly 0.0 at zero rejections and the upper exactly 1.0
        when every trial rejected; the formula alone misses both by rounding.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= rejections <= trials:
        raise ValueError("rejections outside [0, trials]")
    z = _Z95
    p = rejections / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = float(center - margin) if rejections else 0.0
    hi = float(center + margin) if rejections < trials else 1.0
    return lo, hi


@dataclass(frozen=True)
class RejectionEstimate:
    trials: int
    rejections: int
    seed: int
    lo: float
    hi: float

    @property
    def estimate(self) -> float:
        return self.rejections / self.trials


_CHUNK = 1 << 17

# Outputs a thread reads from one Philox it builds, and a piece a thread
# takes at a time.  Building the generator costs about 10-20 us.
_RAW_PIECE = 1 << 16

# A block is shared among threads only in shares of at least this many
# 32-bit words.  Thread hand-offs and waiting for the slowest thread cost
# about the same whatever the share, and on a loaded host smaller shares
# ran slower on two threads than on one.
_WORDS_PER_THREAD = 1 << 20


def _philox_words(key: np.ndarray, position: int, count: int, width: int,
                  workers: int) -> np.ndarray:
    """Words [position, position + count) of Philox(key)'s next_uint32 stream,
    each cut to its top `width` bytes (testers._top_bytes).

    Philox is counter-based: output k of a fresh generator is lane k % 4 of
    counter k // 4 + 1, Philox(key, counter=c) reads counter c + 1 first,
    and word w is half w % 2 of output w // 2, the low half first.  So any
    range of the stream is read from its position alone.  The outputs behind
    the words are read in pieces of _RAW_PIECE outputs, each from a generator
    built at the piece's counter and skipping the lanes before the piece's
    first output, on one thread per _WORDS_PER_THREAD words.  A range that
    opens on a high half reads that output again and drops its low half.
    Every word therefore lands where one sequential read puts it: with width
    4 these are the words Generator.integers(0, 2**32, dtype=uint32) gives
    on a fresh Philox(key) after `position` words.
    """
    first, skip = divmod(position, 2)
    n = (skip + count + 1) // 2
    out = np.empty(2 * n, dtype=f"<u{width}")

    def fill(i):  # the piece's raw words are freed when it returns
        k, size = first + i, min(_RAW_PIECE, n - i)
        raw = np.random.Philox(key=key, counter=k // 4).random_raw(k % 4 + size)
        raw = raw[k % 4:].astype("<u8", copy=False).view("<u4")
        out[2 * i:2 * (i + size)] = testers._top_bytes(raw, width)

    _shared(fill, range(0, n, _RAW_PIECE), 2 * n // _WORDS_PER_THREAD, workers)
    return out[skip:skip + count]


# The words of the last first block read, as (key bytes, width, words from
# word 0), kept read-only for the next call on the same stream.
_first_block = None
_first_block_lock = threading.Lock()


def _trial_words(key: np.ndarray, workers: int):
    """estimate_rejection's word source: `words(count, width)` returns the
    next count words of Philox(key)'s stream.

    Every call reads its first block from word 0, and each test's draws are
    a prefix of sic-subsets', whatever the shape.  So the process keeps the
    words of the last read from word 0: a read of the same key and width
    that lies inside them is a view of them, and any other read goes
    through _philox_words.  Only a read from word 0 replaces them: a
    block's top-ups of skipped words and a call's later blocks start where
    no other call of the stream starts.  A word depends only on its key,
    position and width, so counts do not depend on what was kept.
    """
    name = key.tobytes()
    position = 0

    def words(count: int, width: int) -> np.ndarray:
        global _first_block
        nonlocal position
        start, position = position, position + count
        with _first_block_lock:
            kept = _first_block
        if kept is not None and kept[:2] == (name, width) and position <= kept[2].size:
            return kept[2][start:position]
        out = _philox_words(key, start, count, width, workers)
        if start == 0:
            out.flags.writeable = False
            with _first_block_lock:
                _first_block = (name, width, out)
        return out

    return words


def estimate_rejection(f: BinaryTensor, kind: str, trials: int,
                       seed: int) -> RejectionEstimate:
    """Monte-Carlo rejection estimate with a 95% Wilson interval.

    Trial i's randomness is a fixed function of (seed, i): the Philox
    stream rng_for(seed, 1) is consumed in blocks of _CHUNK trials, so reruns
    with the same seed and trial count reproduce every outcome.  Per block,
    testers._draw reads the stream's words in one bulk request and decodes
    them as per-axis Generator.integers draws would, and each sub-block of
    the draw runs through the test's query pattern in testers.

    Each block runs on up to worker_count() threads, one per
    _WORDS_PER_THREAD words it reads: they read its words by position
    (_philox_words), then share out its sub-blocks and sum their
    rejections.  Counts do not depend on the thread count.

    The words are read through _trial_words, which keeps the last first
    block read, so a tensor's other tests and a sweep's other rows of the
    seed read none of its words again.  After a call returns, the process
    holds at most one first block's words.
    """
    return _estimate_rejection(f, kind, trials, seed, worker_count())


def _estimate_rejection(f: BinaryTensor, kind: str, trials: int, seed: int,
                        workers: int) -> RejectionEstimate:
    """estimate_rejection on at most `workers` threads."""
    if trials < 1:
        raise ValueError("need at least one trial")
    _, _, groups = testers._word_groups(kind, f.shape, 1)
    per_trial = sum(count for _, count in groups)
    rejections = 0
    # The key numpy built, which for seeds of 2^63 or more is rounded.
    key = rng_for(seed, _STREAM_TRIALS).bit_generator.state["state"]["key"]
    words = _trial_words(key, workers)
    for start in range(0, trials, _CHUNK):
        step = min(_CHUNK, trials - start)
        decode, starts = testers._draw(kind, f.shape, step, words)

        def apply(i):
            columns = testers._query_columns(kind, f.shape, decode(i))
            return int(np.count_nonzero(testers._parity(f.bits, columns)))

        threads = step * per_trial // _WORDS_PER_THREAD
        rejections += sum(_shared(apply, starts, threads, workers))
    lo, hi = wilson_interval(rejections, trials)
    return RejectionEstimate(trials, rejections, seed, lo, hi)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

CSV_HEADER = "test,shape,kind,param,trials,rejections,est,lo,hi,exact_rej,exact_dist,ratio"

DEFAULT_SWEEP_CONFIG = """\
shapes = 2,2; 2,2,2
tests = sic-subsets; sic-cube; shapka; conjectured
kinds = direct-sum; corrupted-direct-sum; uniform-random
rates = 1/16; 1/8
trials = 20000
seeds = 1; 2
oracle_budget = 16777216
"""


class SweepConfigError(ValueError):
    """Config text that cannot be parsed; carries line and field context."""

    def __init__(self, line: int, field: str, message: str) -> None:
        super().__init__(f"line {line}, key {field!r}: {message}")
        self.line = line
        self.field = field


@dataclass(frozen=True)
class SweepConfig:
    shapes: tuple[tuple[int, ...], ...]
    tests: tuple[str, ...]
    kinds: tuple[str, ...]
    rates: tuple[Fraction, ...]
    flip_counts: tuple[int, ...]
    trials: int
    seeds: tuple[int, ...]
    oracle_budget: int


_CONFIG_KEYS = ("shapes", "tests", "kinds", "rates", "counts", "trials",
                "seeds", "oracle_budget")


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator raised as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError as e:
        raise ValueError("zero denominator") from e


def parse_dims(text: str, what: str = "shape") -> tuple[int, ...]:
    """Comma-separated integers; a bad one is reported with `what` and the text."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as e:
        raise ValueError(f"bad {what} {text!r}: {e}") from e


def _config_shape(item: str) -> tuple[int, ...]:
    """A config's shape item; Shape's refusals are named like parse_dims' own."""
    dims = parse_dims(item)
    try:
        return Shape(dims).dims
    except ValueError as e:
        raise ValueError(f"bad shape {item!r}: {e}") from e


def _items(convert):
    """Converter of a ';' list: each nonblank item, stripped, through convert."""
    return lambda value: tuple(convert(item.strip()) for item in value.split(";")
                               if item.strip())


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat key=value sweep description.

    One key per sweep axis; list values use ';' between items and ',' inside
    a shape's dims.  Unknown keys, bad numbers, and missing required keys all
    raise SweepConfigError with the offending line.
    """
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SweepConfigError(lineno, line, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise SweepConfigError(lineno, key, "unknown key")
        if key in seen:
            raise SweepConfigError(lineno, key, "duplicate key")
        seen[key] = (lineno, value.strip())

    def check(key: str, ok, message: str) -> None:
        """Raise message on key's line, line 0 for a key not given, unless ok."""
        if not ok:
            raise SweepConfigError(seen.get(key, (0,))[0], key, message)

    def get(key: str, convert, default=None):
        """key's value through convert; default if key is absent, required if None."""
        if key not in seen:
            check(key, default is not None, "required key missing")
            return default
        lineno, value = seen[key]
        try:
            return convert(value)
        except ValueError as e:
            raise SweepConfigError(lineno, key, str(e)) from e

    shapes = get("shapes", _items(_config_shape))
    check("shapes", shapes, "needs at least one shape")
    tests = get("tests", _items(str))
    for t in tests:
        check("tests", t in testers.ALL_TEST_KINDS, f"unknown test {t!r}")
    check("tests", tests, "needs at least one test")
    if testers.BLR in tests:  # testers' own rule and message, on the tests line
        get("tests", lambda _: [testers._require_binary(Shape(dims)) for dims in shapes])
    kinds = get("kinds", _items(str))
    for k in kinds:
        check("kinds", k in GENERATOR_KINDS, f"unknown kind {k!r}")
    check("kinds", kinds, "needs at least one kind")
    rates = get("rates", _items(parse_fraction), ())
    check("rates", all(0 <= r <= 1 for r in rates), "rates must lie in [0, 1]")
    flip_counts = get("counts", _items(int), ())
    check("counts", all(c >= 0 for c in flip_counts), "counts must be nonnegative")
    smallest = min(Shape(dims).size for dims in shapes)
    top = max(flip_counts, default=0)
    check("counts", KIND_CORRUPTED not in kinds or top <= smallest,
          f"flip count {top} exceeds the {smallest} entries of the smallest shape")
    if KIND_CORRUPTED in kinds and not rates and not flip_counts:
        raise SweepConfigError(0, "rates", "corrupted kind needs rates or counts")
    trials = get("trials", int)
    check("trials", trials >= 1, "needs at least one trial")
    seeds = get("seeds", _items(int))
    check("seeds", seeds, "needs at least one seed")
    check("seeds", all(s >= 0 for s in seeds), "seeds must be nonnegative")
    oracle_budget = get("oracle_budget", int, oracles.DEFAULT_BUDGET)
    check("oracle_budget", oracle_budget >= 0, "must be nonnegative")
    return SweepConfig(shapes, tests, kinds, rates, flip_counts,
                       trials, seeds, oracle_budget)


@dataclass(frozen=True)
class SweepRow:
    test: str
    shape: tuple[int, ...]
    kind: str
    param: str
    seed: int
    estimate: RejectionEstimate
    exact_rej: Optional[Fraction]
    exact_dist: Optional[Fraction]

    @property
    def ratio(self) -> Optional[Fraction]:
        if self.exact_rej is None or self.exact_dist is None or self.exact_rej == 0:
            return None
        return self.exact_dist / self.exact_rej

    def key(self) -> tuple:
        return (self.test, self.shape, self.kind, self.param, self.seed)

    def csv(self) -> str:
        e = self.estimate
        cells = [
            self.test,
            "x".join(str(n) for n in self.shape),
            self.kind,
            self.param,
            str(e.trials),
            str(e.rejections),
            f"{e.estimate:.12g}",
            f"{e.lo:.12g}",
            f"{e.hi:.12g}",
            _frac_cell(self.exact_rej),
            _frac_cell(self.exact_dist),
            _frac_cell(self.ratio),
        ]
        return ",".join(cells)


def _frac_cell(value: Optional[Fraction]) -> str:
    if value is None:
        return ""
    return f"{value.numerator}/{value.denominator}"


def _row_seed(master_seed: int, seed: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(seed,))
    return int(ss.generate_state(1, np.uint64)[0])


def _param_values(kind: str, config: SweepConfig) -> list[tuple[str, dict]]:
    if kind != KIND_CORRUPTED:
        return [("-", {})]
    out = [(f"rate={r}", {"rate": r}) for r in config.rates]
    out.extend((f"flips={c}", {"flips": c}) for c in config.flip_counts)
    return out


def _compute_row(config: SweepConfig, master_seed: int, mc_workers: int,
                 dims: tuple[int, ...], test: str, kind: str, param: str,
                 extra: dict, seed: int) -> SweepRow:
    shape = Shape(dims)
    eff_seed = _row_seed(master_seed, seed)
    tensor = generate(GeneratorSpec(kind, shape, eff_seed, **extra))
    est = _estimate_rejection(tensor, test, config.trials, eff_seed, mc_workers)
    exact_rej = exact_dist = None
    try:
        exact_rej = oracles.exact_rejection(tensor, test, config.oracle_budget).value
    except oracles.BudgetExceededError:
        pass
    try:
        exact_dist = oracles.nearest_direct_sum(tensor, config.oracle_budget).distance
    except oracles.BudgetExceededError:
        pass
    return SweepRow(test, dims, kind, param, seed, est, exact_rej, exact_dist)


def run_sweep(config: SweepConfig,
              master_seed: int = 0) -> tuple[list[SweepRow], dict[str, Fraction]]:
    """Cartesian product of shapes x tests x generators x params x seeds.

    Returns rows sorted by their key plus, per test, the minimum observed
    exact-rejection / exact-distance ratio over rows with positive distance
    (the empirical soundness constant at this scale).  Rows are pure
    functions of (config, master_seed); worker threads only change timing.
    Rows run on Monte Carlo's helper threads and this one, each thread
    taking the next row when it is ready.  A row's Monte Carlo runs on one
    thread unless the sweep has only one row, so threads never nest.
    """
    # Seed-major: every row of a seed reads the same trials stream, so rows
    # run one after another can share the words estimate_rejection keeps.
    jobs = [(dims, test, kind, param, extra, seed)
            for seed in config.seeds for dims in config.shapes for test in config.tests
            for kind in config.kinds for param, extra in _param_values(kind, config)]
    workers = worker_count()
    mc_workers = workers if len(jobs) == 1 else 1
    rows = _shared(lambda job: _compute_row(config, master_seed, mc_workers, *job),
                   jobs, workers, workers)
    rows.sort(key=SweepRow.key)
    summary: dict[str, Fraction] = {}
    for row in rows:
        if row.exact_rej is None or row.exact_dist is None or row.exact_dist == 0:
            continue
        ratio = row.exact_rej / row.exact_dist
        if row.test not in summary or ratio < summary[row.test]:
            summary[row.test] = ratio
    return rows, summary


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.csv() for row in rows)
    return "\n".join(lines) + "\n"
