"""Generators, Monte-Carlo estimation, experiment sweeps, and CSV reporting.

Randomness is counter-based: every consumer builds its generator from a
Philox key (seed, stream), so results are reproducible and independent of
execution order.  Exact oracle columns never depend on any seed.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import BinaryTensor, DirectSum, Shape
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


def generate(spec: GeneratorSpec) -> BinaryTensor:
    """Deterministic tensor for the spec; same spec, same bits."""
    rng = rng_for(spec.seed, _STREAM_GENERATE)
    shape = spec.shape
    if spec.kind == KIND_UNIFORM:
        return BinaryTensor(shape, rng.integers(0, 2, size=shape.size, dtype=np.uint8))
    if spec.kind == KIND_INDICATOR:
        bits = np.zeros(shape.size, dtype=np.uint8)
        bits[int(rng.integers(0, shape.size))] = 1
        return BinaryTensor(shape, bits)
    base = DirectSum.random(shape, rng).materialize()
    if spec.kind == KIND_DIRECT_SUM:
        return base
    bits = base.bits.copy()
    if spec.rate is not None:
        mask = rng.random(shape.size) < float(spec.rate)
        bits ^= mask.astype(np.uint8)
    elif spec.flips:
        idx = rng.choice(shape.size, size=spec.flips, replace=False)
        bits[idx] ^= 1
    return BinaryTensor(shape, bits)


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
        (lower, upper) bounds on the true rejection probability.
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
    return max(0.0, float(center - margin)), min(1.0, float(center + margin))


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


def estimate_rejection(f: BinaryTensor, kind: str, trials: int,
                       seed: int) -> RejectionEstimate:
    """Monte-Carlo rejection estimate with a 95% Wilson interval.

    Trial i's randomness is a fixed function of (seed, i): one counter-based
    stream is consumed in fixed-size blocks, so reruns with the same seed and
    trial count reproduce every outcome.  Each block is drawn by the test's
    sampler and run through its query pattern, both defined in testers.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng_for(seed, _STREAM_TRIALS)
    remaining = trials
    rejections = 0
    while remaining:
        step = min(_CHUNK, remaining)
        randomness = testers._draw(kind, f.shape, step, rng)
        columns = testers._query_columns(kind, f.shape, randomness)
        rejections += int(np.count_nonzero(testers._parity(f.bits, columns)))
        remaining -= step
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


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(";") if item.strip()]


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

    def require(key: str) -> tuple[int, str]:
        if key not in seen:
            raise SweepConfigError(0, key, "required key missing")
        return seen[key]

    lineno, value = require("shapes")
    shapes = []
    for item in _split_list(value):
        try:
            dims = tuple(int(tok) for tok in item.split(","))
            Shape(dims)
        except ValueError as e:
            raise SweepConfigError(lineno, "shapes", f"bad shape {item!r}: {e}") from e
        shapes.append(dims)
    if not shapes:
        raise SweepConfigError(lineno, "shapes", "needs at least one shape")

    lineno, value = require("tests")
    tests = tuple(_split_list(value))
    for t in tests:
        if t not in testers.ALL_TEST_KINDS:
            raise SweepConfigError(lineno, "tests", f"unknown test {t!r}")
    if not tests:
        raise SweepConfigError(lineno, "tests", "needs at least one test")

    lineno, value = require("kinds")
    kinds = tuple(_split_list(value))
    for k in kinds:
        if k not in GENERATOR_KINDS:
            raise SweepConfigError(lineno, "kinds", f"unknown kind {k!r}")
    if not kinds:
        raise SweepConfigError(lineno, "kinds", "needs at least one kind")

    rates: tuple[Fraction, ...] = ()
    if "rates" in seen:
        lineno, value = seen["rates"]
        try:
            rates = tuple(Fraction(item) for item in _split_list(value))
        except ValueError as e:
            raise SweepConfigError(lineno, "rates", str(e)) from e
        except ZeroDivisionError as e:
            raise SweepConfigError(lineno, "rates", "zero denominator") from e
        if any(not 0 <= r <= 1 for r in rates):
            raise SweepConfigError(lineno, "rates", "rates must lie in [0, 1]")

    flip_counts: tuple[int, ...] = ()
    if "counts" in seen:
        lineno, value = seen["counts"]
        try:
            flip_counts = tuple(int(item) for item in _split_list(value))
        except ValueError as e:
            raise SweepConfigError(lineno, "counts", str(e)) from e
        if any(c < 0 for c in flip_counts):
            raise SweepConfigError(lineno, "counts", "counts must be nonnegative")

    if KIND_CORRUPTED in kinds and not rates and not flip_counts:
        raise SweepConfigError(0, "rates", "corrupted kind needs rates or counts")

    lineno, value = require("trials")
    try:
        trials = int(value)
    except ValueError as e:
        raise SweepConfigError(lineno, "trials", str(e)) from e
    if trials < 1:
        raise SweepConfigError(lineno, "trials", "needs at least one trial")

    lineno, value = require("seeds")
    try:
        seeds = tuple(int(item) for item in _split_list(value))
    except ValueError as e:
        raise SweepConfigError(lineno, "seeds", str(e)) from e
    if not seeds:
        raise SweepConfigError(lineno, "seeds", "needs at least one seed")
    if any(s < 0 for s in seeds):
        raise SweepConfigError(lineno, "seeds", "seeds must be nonnegative")

    oracle_budget = oracles.DEFAULT_BUDGET
    if "oracle_budget" in seen:
        lineno, value = seen["oracle_budget"]
        try:
            oracle_budget = int(value)
        except ValueError as e:
            raise SweepConfigError(lineno, "oracle_budget", str(e)) from e
        if oracle_budget < 0:
            raise SweepConfigError(lineno, "oracle_budget", "must be nonnegative")

    return SweepConfig(tuple(shapes), tests, kinds, rates, flip_counts,
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


def _compute_row(config: SweepConfig, master_seed: int, dims: tuple[int, ...],
                 test: str, kind: str, param: str, extra: dict,
                 seed: int) -> SweepRow:
    shape = Shape(dims)
    eff_seed = _row_seed(master_seed, seed)
    tensor = generate(GeneratorSpec(kind, shape, eff_seed, **extra))
    est = estimate_rejection(tensor, test, config.trials, eff_seed)
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
    """
    jobs = []
    for dims in config.shapes:
        for test in config.tests:
            for kind in config.kinds:
                for param, extra in _param_values(kind, config):
                    for seed in config.seeds:
                        jobs.append((dims, test, kind, param, extra, seed))
    workers = min(worker_count(), max(1, len(jobs)))
    if workers == 1:
        rows = [
            _compute_row(config, master_seed, dims, test, kind, param, extra, seed)
            for dims, test, kind, param, extra, seed in jobs
        ]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(lambda job: _compute_row(config, master_seed, *job), jobs)
            )
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
