"""The direct-sum tests, each defined once as a vectorized query pattern.

A pattern maps a batch of randomness rows to the flat indices the test
queries; the test rejects a row when f's parity over them is 1.  The
one-shot trials below (a batch of one), Monte Carlo in harness (a sampled
batch) and the tensor tests' exact oracles (the whole randomness space)
apply the same pattern; BLR's oracle reads a Walsh-Hadamard transform.
Trials are pure functions of (tensor, randomness) and safe to run concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    BinaryTensor,
    CubePoint,
    MaskMismatchError,
    Point,
    Shape,
    ShapeMismatchError,
    as_bits,
    delta,
    full_mask,
)

SIC_SUBSETS = "sic-subsets"
SIC_CUBE = "sic-cube"
SHAPKA = "shapka"
BLR = "blr"
CONJECTURED = "conjectured"

TENSOR_TEST_KINDS = (SIC_SUBSETS, SIC_CUBE, SHAPKA, CONJECTURED)
ALL_TEST_KINDS = TENSOR_TEST_KINDS + (BLR,)


@dataclass(frozen=True)
class SicSubsetsRandomness:
    """Two points and two axis subsets (bitmasks over 0..d-1)."""

    a: Point
    b: Point
    s: int
    t: int


@dataclass(frozen=True)
class SicCubeRandomness:
    """Two points and two vertices of the cube they span."""

    a: Point
    b: Point
    x: CubePoint
    y: CubePoint


@dataclass(frozen=True)
class ShapkaRandomness:
    a: Point
    b: Point


@dataclass(frozen=True)
class BlrRandomness:
    """Two elements of F2^D, packed as ints with bit i <-> coordinate i."""

    x: int
    y: int


@dataclass(frozen=True)
class ConjecturedRandomness:
    a: Point
    b: Point
    x: CubePoint


TrialRandomness = Union[
    SicSubsetsRandomness,
    SicCubeRandomness,
    ShapkaRandomness,
    BlrRandomness,
    ConjecturedRandomness,
]


@dataclass(frozen=True)
class TrialOutcome:
    accepted: bool
    queries: tuple


# ---------------------------------------------------------------------------
# Query patterns: the one definition of each test
# ---------------------------------------------------------------------------
# A tensor test sees a batch of rows through flat_a and flat_b, the flat
# indices of the points a and b, and diff = (b - a) * strides.  A selector is
# a (rows, d) 0/1 array naming the axes on which a query takes b's coordinate
# instead of a's; the query's flat index is _spliced(flat_a, diff, selector).
# diff vanishes where a = b, so a selector only matters on delta(a, b): a
# subset of axes and a vertex of the cube spanned by a and b pick the same
# point.  A pattern returns the test's query columns, and a row is accepted
# when the parity of f over them is 0.  Monte Carlo, the scalar trials and
# the exact oracles all apply these functions and nothing else.


def _spliced(flat_a: np.ndarray, diff: np.ndarray, selector: np.ndarray) -> np.ndarray:
    """Flat index of the point taking b's coordinates where selector is 1."""
    return flat_a + np.einsum("ij,ij->i", diff, selector)


def _sic_queries(flat_a, flat_b, diff, s, t):
    """a and the splices of b onto a picked by s, t and s ^ t.

    The selections form a coset {0, s, t, s ^ t}, so on a direct sum each
    per-axis value appears an even number of times and the parity vanishes.
    """
    return (flat_a, _spliced(flat_a, diff, s), _spliced(flat_a, diff, t),
            _spliced(flat_a, diff, s ^ t))


def _shapka_queries(flat_a, flat_b, diff):
    """b, the d one-coordinate hybrids of a, and a when d is even.

    The parity is taken over this multiset, so coincident queries cancel in
    pairs; that makes the check vanish identically on direct sums and agree
    with the local-view residual at b.
    """
    d = diff.shape[1]
    columns = [flat_b]
    columns.extend(flat_a + diff[:, j] for j in range(d))
    if d % 2 == 0:
        columns.append(flat_a)
    return columns


def _conjectured_queries(flat_a, flat_b, diff, x):
    """The cube's bottom a, the vertex x, its top b, and the complement of x."""
    qx = _spliced(flat_a, diff, x)
    return (flat_a, qx, flat_b, flat_b - (qx - flat_a))  # b minus x's offset


def _blr_queries(x, y):
    """0, x, y and x ^ y as indices into a truth table on F2^D."""
    return (0, x, y, x ^ y)


# Tensor test -> (query pattern, number of selectors it draws).  sic-subsets
# and sic-cube differ only in how a trial names its selectors.
_TENSOR_TESTS = {
    SIC_SUBSETS: (_sic_queries, 2),
    SIC_CUBE: (_sic_queries, 2),
    SHAPKA: (_shapka_queries, 0),
    CONJECTURED: (_conjectured_queries, 1),
}


def _tensor_test(kind: str) -> tuple:
    try:
        return _TENSOR_TESTS[kind]
    except KeyError:
        raise ValueError(f"unknown test kind {kind!r}") from None


def _draw(kind: str, shape: Shape, n: int, rng: np.random.Generator) -> tuple:
    """n trials' randomness as arrays, from the test's distribution.

    Tensor tests: a and b as (n, d) int64 coordinates, each drawn axis by
    axis, then each selector as an (n, d) 0/1 array.  BLR: x and y as table
    indices.  This draw order fixes estimate_rejection's counts per seed.
    """
    if kind == BLR:
        _require_binary(shape)
        return tuple(rng.integers(0, shape.size, size=n, dtype=np.int64)
                     for _ in range(2))
    _, k = _tensor_test(kind)
    points = [
        np.stack([rng.integers(0, m, size=n, dtype=np.int64) for m in shape.dims],
                 axis=1)
        for _ in range(2)
    ]
    selectors = [rng.integers(0, 2, size=(n, shape.d), dtype=np.int64)
                 for _ in range(k)]
    return (*points, *selectors)


def _query_columns(kind: str, shape: Shape, randomness) -> tuple:
    """Apply the test's pattern to randomness laid out as _draw returns it."""
    if kind == BLR:
        return _blr_queries(*randomness)
    pattern, _ = _tensor_test(kind)
    a, b, *selectors = randomness
    strides = np.asarray(shape.strides, dtype=np.int64)
    return pattern(a @ strides, b @ strides, (b - a) * strides, *selectors)


def _parity(bits: np.ndarray, columns) -> np.ndarray:
    """Per-row XOR of bits over the query columns: 1 where the test rejects."""
    return functools.reduce(np.bitwise_xor, (bits[c] for c in columns))


def _delta_subsets(differ: np.ndarray, k: int) -> tuple:
    """Every choice of k subsets of delta(a, b) for each (a, b) row, weighted.

    `differ` is a (pairs, d) bool array marking where a and b differ.  Per
    output row: its pair, k uint8 selectors (zero off delta), and the weight
    2^((d - |delta|) * k) of the full selector choices it stands for.  A
    pair's rows are contiguous; its first selector runs over the pair's cube
    in row-major order, the first differing axis most significant.
    """
    d = differ.shape[1]
    width = differ.sum(axis=1)
    counts = 1 << (k * width)
    pair = np.repeat(np.arange(differ.shape[0]), counts)
    r = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = width[pair]
    on = differ[pair]
    after = np.cumsum(on, axis=1)
    np.subtract(width[:, None], after, out=after)  # differing axes after each
    selectors = []
    for _ in range(k):
        selectors.append(((r[:, None] >> after) & on).astype(np.uint8))
        r = r >> width
    return pair, selectors, 1 << ((d - width) * k)


# ---------------------------------------------------------------------------
# Trials: a batch of one
# ---------------------------------------------------------------------------


def _tensor_trial(f: BinaryTensor, kind: str, a: Point, b: Point,
                  *masks: int) -> TrialOutcome:
    for p in (a, b):
        if not f.shape.contains(p):
            raise ShapeMismatchError(f"point {p} outside domain {f.shape.dims}")
    d = f.shape.d
    rows = [np.array([p], dtype=np.int64) for p in (a, b)]
    rows.extend((np.array([[m]]) >> np.arange(d)) & 1 for m in masks)
    columns = _query_columns(kind, f.shape, rows)
    queries = tuple(f.shape.point_at(int(c[0])) for c in columns)
    return TrialOutcome(not _parity(f.bits, columns)[0], queries)


def sic_subsets_trial(f: BinaryTensor, r: SicSubsetsRandomness) -> TrialOutcome:
    """Four-query parity over a and the splices of b onto a picked by S, T, S^T."""
    d = f.shape.d
    fm = full_mask(d)
    if r.s & ~fm or r.t & ~fm or r.s < 0 or r.t < 0:
        raise ValueError(f"subset out of range for {d} axes")
    return _tensor_trial(f, SIC_SUBSETS, r.a, r.b, r.s, r.t)


def sic_cube_trial(f: BinaryTensor, r: SicCubeRandomness) -> TrialOutcome:
    """Affinity check of f restricted to the cube spanned by a and b."""
    m = delta(r.a, r.b)
    if r.x.mask != m or r.y.mask != m:
        raise MaskMismatchError("cube points must live on the cube spanned by a, b")
    return _tensor_trial(f, SIC_CUBE, r.a, r.b, r.x.bits, r.y.bits)


def shapka_trial(f: BinaryTensor, r: ShapkaRandomness) -> TrialOutcome:
    """Parity over b, the d one-coordinate hybrids of a, and a when d is even."""
    return _tensor_trial(f, SHAPKA, r.a, r.b)


def blr_affinity_trial(table, r: BlrRandomness) -> TrialOutcome:
    """BLR affinity check g(0) ^ g(x) ^ g(y) ^ g(x^y) == 0 on a truth table."""
    t = truth_table(table)
    if not (0 <= r.x < t.size and 0 <= r.y < t.size):
        raise ValueError("BLR randomness outside the cube")
    queries = _blr_queries(r.x, r.y)
    return TrialOutcome(not _parity(t, queries), queries)


def conjectured_trial(f: BinaryTensor, r: ConjecturedRandomness) -> TrialOutcome:
    """Four-query parity through the cube's bottom, top, x, and complement of x.

    Soundness of this test is an open conjecture; nothing beyond completeness
    is asserted anywhere in the package.
    """
    if r.x.mask != delta(r.a, r.b):
        raise MaskMismatchError("cube point must live on the cube spanned by a, b")
    return _tensor_trial(f, CONJECTURED, r.a, r.b, r.x.bits)


def run_trial(f: BinaryTensor, kind: str, r: TrialRandomness) -> TrialOutcome:
    if kind == SIC_SUBSETS:
        return sic_subsets_trial(f, r)
    if kind == SIC_CUBE:
        return sic_cube_trial(f, r)
    if kind == SHAPKA:
        return shapka_trial(f, r)
    if kind == CONJECTURED:
        return conjectured_trial(f, r)
    if kind == BLR:
        return blr_affinity_trial(blr_table(f), r)
    raise ValueError(f"unknown test kind {kind!r}")


def _require_binary(shape: Shape) -> None:
    if any(n != 2 for n in shape.dims):
        raise ValueError(f"BLR needs every axis of size 2, got shape {shape.dims}")


def blr_table(f: BinaryTensor) -> np.ndarray:
    """View an all-binary-axes tensor as a truth table on F2^d.

    Row-major layout makes the flat bit index the point itself (axis 0 is the
    most significant bit), and XOR of indices is coordinatewise XOR.
    """
    _require_binary(f.shape)
    return f.bits


def truth_table(table) -> np.ndarray:
    """A truth table on F2^D as flat uint8 bits.

    Its entries must be 0 or 1 and its length a power of two.
    """
    t = as_bits(table, "table")
    n = t.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"table length {n} is not a power of two")
    return t


def sample_randomness(kind: str, shape: Shape, rng: np.random.Generator) -> TrialRandomness:
    """Draw one trial's randomness from the test's stated distribution.

    This is the Monte-Carlo sampler at n = 1, so it is deterministic in the
    generator state and uses the same draw order.
    """
    arrays = _draw(kind, shape, 1, rng)
    if kind == BLR:
        return BlrRandomness(*(int(v[0]) for v in arrays))
    a, b = (tuple(int(v) for v in p[0]) for p in arrays[:2])
    masks = [sum(int(v) << i for i, v in enumerate(sel[0])) for sel in arrays[2:]]
    if kind == SIC_SUBSETS:
        return SicSubsetsRandomness(a, b, *masks)
    if kind == SHAPKA:
        return ShapkaRandomness(a, b)
    m = delta(a, b)
    cube = [CubePoint(m, x & m) for x in masks]
    if kind == SIC_CUBE:
        return SicCubeRandomness(a, b, *cube)
    return ConjecturedRandomness(a, b, *cube)
