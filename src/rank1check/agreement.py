"""Direct-product agreement tests, plurality decoding, and the affine bridge.

A tuple-valued function g on a product domain is a direct product when output
coordinate i depends only on input coordinate i.  The two-query tests here
check agreement of overlapping restrictions; the bridge turns a binary tensor
into such a function by fitting an affine function on every spanned subcube.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Iterator, Sequence

import numpy as np

from .core import BinaryTensor, Point, Shape, axes_of, flip
from .oracles import (
    DEFAULT_BUDGET,
    ExactRejection,
    _check_budget,
    nearest_affine,
)
from . import testers
from .testers import TrialOutcome

DEFAULT_ALPHA = Fraction(3, 4)


class DPFormatError(ValueError):
    """Malformed direct-product text."""


@dataclass(frozen=True)
class DPShape:
    """k coordinates with sizes (N_1, ..., N_k) and a common alphabet [M]."""

    sizes: tuple[int, ...]
    alphabet: int

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 1 or any(n < 1 for n in sizes):
            raise ValueError(f"coordinate sizes must be positive, got {sizes}")
        if self.alphabet < 1:
            raise ValueError("alphabet size must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def domain_size(self) -> int:
        out = 1
        for n in self.sizes:
            out *= n
        return out

    def points(self) -> Iterator[Point]:
        return itertools.product(*(range(n) for n in self.sizes))

    def index_of(self, point: Sequence[int]) -> int:
        idx = 0
        for x, n in zip(point, self.sizes):
            if not 0 <= x < n:
                raise ValueError(f"point {tuple(point)} outside domain {self.sizes}")
            idx = idx * n + x
        return idx


class DPFunction:
    """A function from the product domain to [M]^k, stored as a dense table."""

    __slots__ = ("dpshape", "table")

    def __init__(self, dpshape: DPShape, table) -> None:
        arr = np.ascontiguousarray(table, dtype=np.int64)
        arr = arr.reshape(dpshape.domain_size, dpshape.k)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= dpshape.alphabet):
            raise ValueError(f"entries must lie in [0, {dpshape.alphabet})")
        arr.flags.writeable = False
        object.__setattr__(self, "dpshape", dpshape)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DPFunction is immutable")

    def value(self, point: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(v) for v in self.table[self.dpshape.index_of(point)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DPFunction):
            return NotImplemented
        return self.dpshape == other.dpshape and bool(
            np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.dpshape, self.table.tobytes()))


def direct_product(dpshape: DPShape, components: Sequence[Sequence[int]]) -> DPFunction:
    """The product g(x) = (g_1(x_1), ..., g_k(x_k)) of per-coordinate maps."""
    comps = [np.asarray(c, dtype=np.int64) for c in components]
    if len(comps) != dpshape.k:
        raise ValueError(f"need {dpshape.k} components")
    table = np.empty((dpshape.domain_size, dpshape.k), dtype=np.int64)
    for row, point in enumerate(dpshape.points()):
        table[row] = [comps[i][x] for i, x in enumerate(point)]
    return DPFunction(dpshape, table)


def random_direct_product(dpshape: DPShape, rng: np.random.Generator) -> DPFunction:
    comps = [rng.integers(0, dpshape.alphabet, size=n) for n in dpshape.sizes]
    return direct_product(dpshape, comps)


def corrupt_entries(g: DPFunction, cells: Sequence[tuple[int, int]],
                    rng: np.random.Generator) -> DPFunction:
    """Replace the (row, coordinate) cells with uniformly chosen other symbols."""
    table = g.table.copy()
    if g.dpshape.alphabet > 1:
        for row, coord in cells:
            old = int(table[row, coord])
            new = int(rng.integers(0, g.dpshape.alphabet - 1))
            table[row, coord] = new + (new >= old)
    return DPFunction(g.dpshape, table)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaRandomness:
    """Two points plus the mask of coordinates forced to agree."""

    x: Point
    y: Point
    agreed: int

    def __post_init__(self) -> None:
        for i in axes_of(self.agreed):
            if self.x[i] != self.y[i]:
                raise ValueError(f"coordinate {i} marked agreed but differs")


@dataclass(frozen=True)
class FixedTRandomness:
    """Two points agreeing on a fixed-size coordinate set."""

    x: Point
    t_set: int
    y: Point

    def __post_init__(self) -> None:
        for i in axes_of(self.t_set):
            if self.x[i] != self.y[i]:
                raise ValueError(f"coordinate {i} in T but differs")


def dp_alpha_trial(g: DPFunction, r: AlphaRandomness) -> TrialOutcome:
    """Accept iff the two outputs agree on every coordinate in the mask."""
    gx = g.value(r.x)
    gy = g.value(r.y)
    ok = all(gx[i] == gy[i] for i in axes_of(r.agreed))
    return TrialOutcome(ok, (r.x, r.y))


def dp_fixed_t_trial(g: DPFunction, r: FixedTRandomness) -> TrialOutcome:
    gx = g.value(r.x)
    gy = g.value(r.y)
    ok = all(gx[i] == gy[i] for i in axes_of(r.t_set))
    return TrialOutcome(ok, (r.x, r.y))


def sample_alpha_randomness(dpshape: DPShape, alpha, rng: np.random.Generator) -> AlphaRandomness:
    a = float(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    x = tuple(int(rng.integers(0, n)) for n in dpshape.sizes)
    y = []
    agreed = 0
    for i, n in enumerate(dpshape.sizes):
        if rng.random() < a:
            y.append(x[i])
            agreed |= 1 << i
        else:
            y.append(int(rng.integers(0, n)))
    return AlphaRandomness(x, tuple(y), agreed)


def sample_fixed_t_randomness(dpshape: DPShape, t: int, rng: np.random.Generator) -> FixedTRandomness:
    k = dpshape.k
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= {k}")
    chosen = rng.choice(k, size=t, replace=False) if t else np.empty(0, dtype=np.int64)
    t_set = 0
    for i in chosen:
        t_set |= 1 << int(i)
    x = tuple(int(rng.integers(0, n)) for n in dpshape.sizes)
    y = tuple(
        x[i] if (t_set >> i) & 1 else int(rng.integers(0, n))
        for i, n in enumerate(dpshape.sizes)
    )
    return FixedTRandomness(x, t_set, y)


def default_intersection_size(k: int) -> int:
    """Default t for the fixed-intersection test: max(1, floor(k/5))."""
    return max(1, k // 5)


# ---------------------------------------------------------------------------
# Exact rejection
# ---------------------------------------------------------------------------


def _accepting_pairs(g: DPFunction, tied: tuple[int, ...]) -> int:
    """Pairs (x, y) that agree on every tied coordinate, in input and in output.

    Points sharing (x_T, g(x)_T) form a group, and every pair inside a group
    accepts, so the count is the sum of the squared group sizes.
    """
    points = np.indices(g.dpshape.sizes).reshape(g.dpshape.k, -1).T
    keys = np.hstack((points[:, tied], g.table[:, tied]))
    _, sizes = np.unique(keys, axis=0, return_counts=True)
    return int(sizes @ sizes)


def exact_alpha_rejection(g: DPFunction, alpha: Fraction = DEFAULT_ALPHA,
                          budget: int = DEFAULT_BUDGET) -> ExactRejection:
    """Exact rejection of the agreement test with per-coordinate tie rate alpha.

    Counts on the common denominator |domain| * q^k * |domain|, where
    alpha = p/q.  A tied set T weighs p^|T| * (q-p)^(k-|T|) * prod_{i in T} N_i
    per pair (x, y) that agrees on T, and its accepting pairs are counted by
    grouping the points on (x_T, g(x)_T); the rest of the total rejects.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    shape = g.dpshape
    k = shape.k
    p, q = alpha.numerator, alpha.denominator
    space = shape.domain_size * prod(n + 1 for n in shape.sizes)
    _check_budget(space, budget, "alpha-test enumeration")
    total = shape.domain_size ** 2 * q ** k
    accepting = 0
    for mask in range(1 << k):
        tied = axes_of(mask)
        w = p ** len(tied) * (q - p) ** (k - len(tied))
        w *= prod(shape.sizes[i] for i in tied)
        if w:
            accepting += w * _accepting_pairs(g, tied)
    return ExactRejection(total - accepting, total)


def exact_fixed_t_rejection(g: DPFunction, t: int,
                            budget: int = DEFAULT_BUDGET) -> ExactRejection:
    """Exact rejection of the fixed-intersection test with |T| = t.

    Each T of size t weighs prod_{i in T} N_i per pair (x, y) that agrees on
    T, and its accepting pairs are counted as in exact_alpha_rejection.
    """
    shape = g.dpshape
    k = shape.k
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= {k}")
    space = shape.domain_size * comb(k, t) * shape.domain_size
    _check_budget(space, budget, "fixed-t enumeration")
    accepting = sum(prod(shape.sizes[i] for i in tied) * _accepting_pairs(g, tied)
                    for tied in itertools.combinations(range(k), t))
    return ExactRejection(space - accepting, space)


# ---------------------------------------------------------------------------
# Plurality decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluralityDecode:
    dpshape: DPShape
    components: tuple[np.ndarray, ...]
    agreement: Fraction

    def product(self) -> DPFunction:
        return direct_product(self.dpshape, self.components)


def dp_plurality_decode(g: DPFunction) -> PluralityDecode:
    """Per-coordinate plurality vote, ties toward the smallest symbol.

    Also reports the exact fraction of points where g equals the decoded
    product on every coordinate.
    """
    shape = g.dpshape
    nd = g.table.reshape(shape.sizes + (shape.k,))
    comps = []
    for i, n in enumerate(shape.sizes):
        votes = np.moveaxis(nd[..., i], i, 0).reshape(n, -1)
        h = np.empty(n, dtype=np.int64)
        for v in range(n):
            counts = np.bincount(votes[v], minlength=shape.alphabet)
            h[v] = int(np.argmax(counts))
        h.flags.writeable = False
        comps.append(h)
    decode = PluralityDecode(shape, tuple(comps), Fraction(0))
    decoded = decode.product()
    agree = int(np.count_nonzero((g.table == decoded.table).all(axis=1)))
    return PluralityDecode(shape, tuple(comps), Fraction(agree, shape.domain_size))


# ---------------------------------------------------------------------------
# The affine bridge from tensors to direct products
# ---------------------------------------------------------------------------


def sic_to_dp_bridge(f: BinaryTensor, anchor: Point,
                     budget: int = DEFAULT_BUDGET) -> DPFunction:
    """Fit an affine function on every cube spanned from the anchor.

    f is first normalized to vanish at the anchor (by flipping if needed).
    For each point b, the restriction of f to the cube spanned by (anchor, b)
    is matched against all affine functions; the linear part of the best fit,
    read as a set of tensor axes, becomes the d-bit output at b.  When f is a
    direct sum every restriction is exactly linear and the output is exactly
    a direct product.
    """
    anchor = f.shape.require_point(anchor)
    d = f.shape.d
    _check_budget(f.shape.size * (2 << d), budget, "bridge enumeration")
    g = f if f.value(anchor) == 0 else flip(f)
    strides = np.asarray(f.shape.strides, dtype=np.int64)
    a_row = np.asarray(anchor, dtype=np.int64)
    points = f.shape.point_array()
    differ = points != a_row
    # One row per vertex of each cube, the cubes in point order and each in
    # row-major table order: table axis j is the cube's j-th differing axis.
    pair, (vertex,), _ = testers._delta_subsets(differ, 1)
    diff = (points - a_row) * strides
    flats = testers._spliced(f.shape.index_of(anchor), diff[pair], vertex)
    cube_tables = np.split(g.bits[flats], np.cumsum(1 << differ.sum(axis=1))[:-1])
    table = np.zeros((f.shape.size, d), dtype=np.int64)
    for row, cube_table in enumerate(cube_tables):
        diff_axes = np.flatnonzero(differ[row])
        for j in axes_of(nearest_affine(cube_table, budget).witness.mask):
            table[row, int(diff_axes[j])] = 1
    return DPFunction(DPShape(f.shape.dims, 2), table)


# ---------------------------------------------------------------------------
# Exact pair distributions for the sampler identities
# ---------------------------------------------------------------------------


def bridge_pair_distribution(shape: Shape, tie: Fraction = DEFAULT_ALPHA) -> dict:
    """Exact law of the correlated pair (b, b') used by the bridge experiment.

    Per coordinate: keep b's value with probability `tie`, otherwise resample
    uniformly among the other values.  Size-one axes always tie.
    """
    per_axis = []
    for n in shape.dims:
        m = {}
        for v in range(n):
            for w in range(n):
                if v == w:
                    m[(v, w)] = Fraction(1, n) * (tie if n > 1 else Fraction(1))
                else:
                    m[(v, w)] = Fraction(1, n) * (1 - tie) / (n - 1)
        per_axis.append(m)
    out = {}
    for b in shape.points():
        for b2 in shape.points():
            p = Fraction(1)
            for i in range(shape.d):
                p *= per_axis[i][(b[i], b2[i])]
            if p:
                out[(b, b2)] = p
    return out


def sample_bridge_pair(shape: Shape, rng: np.random.Generator,
                       tie: Fraction = DEFAULT_ALPHA) -> tuple[Point, Point]:
    b = tuple(int(rng.integers(0, n)) for n in shape.dims)
    b2 = []
    for i, n in enumerate(shape.dims):
        if n == 1 or rng.random() < float(tie):
            b2.append(b[i])
        else:
            v = int(rng.integers(0, n - 1))
            b2.append(v if v < b[i] else v + 1)
    return b, tuple(b2)


def alpha_pair_distribution(dpshape: DPShape, alpha: Fraction) -> dict:
    """Exact law of (x, y, agreement mask) under the alpha agreement test."""
    alpha = Fraction(alpha)
    out = {}
    for x in dpshape.points():
        for mask in range(1 << dpshape.k):
            w = Fraction(1, dpshape.domain_size)
            for i in range(dpshape.k):
                w *= alpha if (mask >> i) & 1 else (1 - alpha)
            if w == 0:
                continue
            free = [i for i in range(dpshape.k) if not (mask >> i) & 1]
            denom = 1
            for i in free:
                denom *= dpshape.sizes[i]
            for choice in itertools.product(*(range(dpshape.sizes[i]) for i in free)):
                y = list(x)
                for i, v in zip(free, choice):
                    y[i] = v
                key = (x, tuple(y), mask)
                out[key] = out.get(key, Fraction(0)) + w / denom
    return out


def two_step_alpha_pair_distribution(dpshape: DPShape, alpha: Fraction) -> dict:
    """Law of (y, y', joint agreement mask) from two chained alpha draws.

    Draw (x, y) and (x, y') independently given x, and record the mask of
    coordinates tied in both steps.  Coordinatewise this reproduces a single
    draw at rate alpha^2, which the exhaustive equality test pins down.
    """
    base = alpha_pair_distribution(dpshape, alpha)
    out = {}
    for (x1, y1, m1), p1 in base.items():
        for (x2, y2, m2), p2 in base.items():
            if x1 != x2:
                continue
            key = (y1, y2, m1 & m2)
            # p1 already includes the 1/|domain| factor for x; drop one copy.
            out[key] = out.get(key, Fraction(0)) + p1 * p2 * dpshape.domain_size
    return out


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
# Line 1: "dpshape k M N1 ... Nk".  Then one line per domain point in
# row-major order with k space-separated symbols.


def dp_to_text(g: DPFunction) -> str:
    shape = g.dpshape
    head = "dpshape " + " ".join(
        str(v) for v in (shape.k, shape.alphabet) + shape.sizes
    )
    lines = [head]
    lines.extend(" ".join(str(int(v)) for v in row) for row in g.table)
    return "\n".join(lines) + "\n"


def dp_from_text(text: str) -> DPFunction:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise DPFormatError("empty input")
    tokens = lines[0].split(" ")
    if len(tokens) < 3 or tokens[0] != "dpshape" or "" in tokens:
        raise DPFormatError(f"bad header {lines[0]!r}")
    try:
        nums = [int(t) for t in tokens[1:]]
    except ValueError as e:
        raise DPFormatError(f"bad header {lines[0]!r}") from e
    k, alphabet, sizes = nums[0], nums[1], nums[2:]
    if len(sizes) != k:
        raise DPFormatError(f"header promises {k} sizes, lists {len(sizes)}")
    shape = DPShape(tuple(sizes), alphabet)
    if len(lines) - 1 != shape.domain_size:
        raise DPFormatError(
            f"expected {shape.domain_size} rows, got {len(lines) - 1}"
        )
    table = np.empty((shape.domain_size, k), dtype=np.int64)
    for row, line in enumerate(lines[1:]):
        parts = line.split(" ")
        if len(parts) != k or "" in parts:
            raise DPFormatError(f"row {row} needs {k} symbols: {line!r}")
        try:
            table[row] = [int(p) for p in parts]
        except ValueError as e:
            raise DPFormatError(f"row {row} has a non-integer symbol") from e
    try:
        return DPFunction(shape, table)
    except ValueError as e:
        raise DPFormatError(str(e)) from e


def write_dp(g: DPFunction, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dp_to_text(g))


def read_dp(path) -> DPFunction:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return dp_from_text(fh.read())
