"""The direct-sum tests, each defined once as a vectorized query pattern.

A pattern maps a batch of randomness rows to the flat indices the test
queries; the test rejects a row when f's parity over them is 1.  The
one-shot trials below (a batch of one) and Monte Carlo in harness (a
sampled batch) apply the same pattern.  The exact oracles count the whole
randomness space from closed forms over small per-shape tables instead, and
the tests check them against these trials.  Those tables, and the cubes the
affine bridge fits, are built in oracles: no code here enumerates a cube.
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
# indices of the points a and b, and the (d, rows) array diff, whose row j is
# (b_j - a_j) * stride_j.  A selector is a (d, rows) 0/1 array naming the
# axes on which a query takes b's coordinate instead of a's; the query's flat
# index is _spliced(flat_a, diff, selector).  Every query lies in [0, size),
# so the arithmetic may run modulo 2^bits in an unsigned dtype that holds
# size - 1: diff's rows and their sums wrap, and the queries come out exact.
# diff vanishes where a = b, so a selector only matters on delta(a, b): a
# subset of axes and a vertex of the cube spanned by a and b pick the same
# point.  A pattern returns the test's query columns, and a row is accepted
# when the parity of f over them is 0.  Monte Carlo and the scalar trials
# apply these functions and nothing else.


def _spliced(flat_a: np.ndarray, diff: np.ndarray, selector: np.ndarray) -> np.ndarray:
    """Flat index of the point taking b's coordinates where selector is 1."""
    # numpy sums narrower integers into 64 bits unless told otherwise.
    return flat_a + (diff * selector).sum(axis=0, dtype=flat_a.dtype)


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
    d = diff.shape[0]
    columns = [flat_b]
    columns.extend(flat_a + diff[j] for j in range(d))
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


# Monte Carlo applies a pattern to at most this many trials at a time, so
# that a sub-block's temporaries stay in cache.
_SUB_BLOCK = 1 << 13

_WORD = 1 << 32


def _below(words: np.ndarray, m) -> np.ndarray:
    """The values below m that 32-bit words decode to: (w * m) >> 32.

    The product is taken in uint64 whatever the operands' dtypes, so it
    never wraps under either numpy's value-based or NEP 50 promotion.
    """
    values = np.multiply(words, m, dtype=np.uint64)
    values >>= 32
    return values.view(np.int64)


def _kept_words(groups: list, words) -> np.ndarray:
    """The words behind consecutive groups of bounded draws, skips removed.

    Group (m, count) draws count values below m, 1 < m <= 2^32, the way
    numpy's Generator.integers does: Lemire's rule skips a word w when
    (w * m) mod 2^32 < (2^32 - m) mod m, which never happens for a power of
    two.  `words(count)` returns the stream's next count words, whole 32-bit
    words wherever a group can skip; exactly the words the draws consume are
    read.  Returns the kept words of all groups in draw order.
    """
    buf = words(sum(count for _, count in groups))
    pos = 0

    def take(count):
        nonlocal buf, pos
        if pos + count > buf.size:  # skipped words pushed the draws past buf
            buf = np.concatenate((buf[pos:], words(pos + count - buf.size)))
            pos = 0
        pos += count
        return buf[pos - count:pos]

    kept = []
    skipped = False
    for m, count in groups:
        group = take(count)
        threshold = (_WORD - m) % m
        while threshold:
            ok = group * np.uint32(m) >= threshold  # the product wraps mod 2^32
            missing = count - int(np.count_nonzero(ok))
            if not missing:
                break
            skipped = True
            group = np.concatenate((group[ok], take(missing)))
        kept.append(group)
    return np.concatenate(kept) if skipped else buf


def _word_groups(kind: str, shape: Shape, n: int) -> tuple:
    """The layout of n trials' draws: (dims, k, groups).

    dims are the sizes drawn below per point, k is the number of (n, d) 0/1
    selectors, and groups lists each (m, count) run of bounded draws in
    stream order.
    """
    if kind == BLR:
        _require_binary(shape)
        dims, k = (shape.size,), 0
    else:
        dims = shape.dims
        _, k = _tensor_test(kind)
    return dims, k, [(m, n) for m in dims if m > 1] * 2 + [(2, n * len(dims))] * k


def _word_bytes(groups: list) -> int:
    """Bytes of each 32-bit word that the draws of `groups` need: 1, 2 or 4.

    Below m = 2^e Lemire's rule skips no word and decodes w to its top e
    bits, so when every group draws below a power of two up to 2^8 (2^16)
    only each word's top byte (two bytes) is kept.  Any other size keeps the
    whole word, which Lemire's rule needs both to decode and to decide skips.
    """
    for width in (1, 2):
        if all(not m & (m - 1) and m <= 1 << 8 * width for m, _ in groups):
            return width
    return 4


def _top_bytes(words: np.ndarray, width: int) -> np.ndarray:
    """The top `width` bytes of each 32-bit word, as a uint8, uint16 or uint32
    view: in a little-endian word they are its last `width` bytes."""
    step = 4 // width
    return words.astype("<u4", copy=False).view(f"<u{width}")[step - 1::step]


def _draw(kind: str, shape: Shape, n: int, words):
    """n trials' randomness from the test's distribution, as sub-blocks.

    The draws read the 32-bit word stream `words(count, width)` in this order:
    tensor tests take a's coordinates axis by axis (n per axis), then b's,
    then each selector as an (n, d) 0/1 array filled row-major; BLR takes
    n values of x, then of y.  A value below m is decoded from its word as
    numpy's Generator.integers decodes next_uint32 (Lemire's rule), and a
    size-1 axis reads no word, so the values match per-axis integers calls
    on the generator the words come from.  This order fixes
    estimate_rejection's counts per seed.  The source keeps each word's top
    `width` bytes (_top_bytes), width being _word_bytes of the draws.  All
    words are read before this returns (estimate_rejection's word source
    reads them by position, in pieces across threads).  Returns (decode,
    starts): decode(i) is the randomness of the up to _SUB_BLOCK trials from
    start i, laid out as _query_columns takes it: a and b as axis-major
    (d, rows) coordinates and (d, rows) 0/1 selectors, or BLR's x and y as
    table indices.  Coordinates are unsigned, in the words' dtype.  decode
    only reads the words, so threads may decode different starts at
    once.  Sizes above 2^32 are refused.
    """
    dims, k, groups = _word_groups(kind, shape, n)
    if max(dims) > _WORD:
        raise ValueError(f"cannot draw below {max(dims)}: Monte-Carlo draws are "
                         "limited to sizes up to 2^32")
    d = len(dims)
    width = _word_bytes(groups)
    bits = 8 * width
    drawn = [m > 1 for m in dims]
    stream = _kept_words(groups, lambda count: words(count, width))
    # Both points' words as (2, d, n); a size-1 axis gets zero words.  Without
    # size-1 axes the words are a view of the stream, which saves a
    # zero-filled copy of the whole block.
    if all(drawn):
        points = stream[:2 * d * n].reshape(2, d, n)
    else:
        points = np.zeros((2, d, n), dtype=stream.dtype)
        points[:, drawn] = stream[:2 * sum(drawn) * n].reshape(2, -1, n)
    selectors = stream[stream.size - k * n * d:].reshape(k, n, d)
    # Below m = 2^e Lemire's rule (w * m) >> 32 is w >> (32 - e), the stored
    # top bits shifted by bits - e, which is 0 for m = 1; other sizes keep
    # whole words and take the product on their own axis rows.  Below 2 a
    # word decodes to its top bit.  Shifts and threshold are in the stored
    # words' dtype: a Python int or a wider array would promote by value
    # under numpy 1, by type under NEP 50.
    shifts = np.array([bits + 1 - m.bit_length() for m in dims], dtype=stream.dtype)[:, None]
    half = np.asarray(1 << bits - 1, dtype=stream.dtype)
    products = [(j, m) for j, m in enumerate(dims) if m & (m - 1)]

    def rows(i):
        j = i + _SUB_BLOCK
        words = points[:, :, i:j]
        a, b = words >> shifts
        for axis, m in products:
            a[axis], b[axis] = _below(words[:, axis], m)
        if kind == BLR:
            return a[0], b[0]
        selected = (selectors[:, i:j] >= half).transpose(0, 2, 1)
        return (a, b, *np.ascontiguousarray(selected))

    return rows, range(0, n, _SUB_BLOCK)


def _query_columns(kind: str, shape: Shape, randomness) -> tuple:
    """Apply the test's pattern to randomness laid out as _draw returns it."""
    if kind == BLR:
        return _blr_queries(*randomness)
    pattern, _ = _tensor_test(kind)
    a, b, *selectors = randomness
    # _draw's unsigned coordinates take the arithmetic modulo 2^bits in the
    # narrowest unsigned dtype that holds size - 1; the scalar trials' int64
    # rows stay signed.
    index = np.min_scalar_type(shape.size - 1) if a.dtype.kind == "u" else a.dtype
    strides = np.array(shape.strides, dtype=index)[:, None]
    a, b = np.multiply(a, strides, dtype=index), np.multiply(b, strides, dtype=index)
    return pattern(a.sum(axis=0, dtype=index), b.sum(axis=0, dtype=index), b - a,
                   *selectors)


def _parity(bits: np.ndarray, columns) -> np.ndarray:
    """Per-row XOR of bits over the query columns: 1 where the test rejects."""
    # numpy gathers by narrower indices far slower than it casts them to intp.
    return functools.reduce(np.bitwise_xor,
                            (bits[np.asarray(c, dtype=np.intp)] for c in columns))


# ---------------------------------------------------------------------------
# Trials: a batch of one
# ---------------------------------------------------------------------------


def _tensor_trial(f: BinaryTensor, kind: str, a: Point, b: Point,
                  *masks: int) -> TrialOutcome:
    for p in (a, b):
        if not f.shape.contains(p):
            raise ShapeMismatchError(f"point {p} outside domain {f.shape.dims}")
    d = f.shape.d
    rows = [np.array(p, dtype=np.int64)[:, None] for p in (a, b)]
    rows.extend(((m >> np.arange(d)) & 1)[:, None] for m in masks)
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
    generator state and uses the same draw order.  It reads the generator's
    32-bit words through rng.integers, which leaves rng in the state that
    per-axis rng.integers draws would.
    """
    decode, starts = _draw(
        kind, shape, 1, lambda count, width: _top_bytes(
            rng.integers(0, _WORD, size=count, dtype=np.uint32), width))
    arrays = decode(starts[0])
    if kind == BLR:
        return BlrRandomness(*(int(v[0]) for v in arrays))
    a, b = (tuple(int(v) for v in p[:, 0]) for p in arrays[:2])
    masks = [sum(int(v) << i for i, v in enumerate(sel[:, 0])) for sel in arrays[2:]]
    if kind == SIC_SUBSETS:
        return SicSubsetsRandomness(a, b, *masks)
    if kind == SHAPKA:
        return ShapkaRandomness(a, b)
    m = delta(a, b)
    cube = [CubePoint(m, x & m) for x in masks]
    if kind == SIC_CUBE:
        return SicCubeRandomness(a, b, *cube)
    return ConjecturedRandomness(a, b, *cube)
