"""Exact ground truth over the full randomness space of each test.

Rejection probabilities are integer counts, never floats.  No tuple is
enumerated: each count comes from a closed form over a small per-shape
table, and the test suite checks it against the query patterns of testers,
the tests' one definition, run as trials over the whole space.
- BLR and the sic tests read the integer Walsh-Hadamard transform W of
  F = (-1)^g for a table g on F2^D, with n = 2^D.  BLR on g rejects
  (n^2 - F(0) sum_S W(S)^3 / n) / 2 of its n^2 pairs, and c ^ chi_S is at
  distance (n - (-1)^c W(S)) / 2 from g.
- sic-subsets, sic-cube and the conjectured test read the cube each pair
  (a, b) spans: g(x) is f at the splice of b onto a along x in F2^w,
  w = |delta(a, b)|.  The sic tests are BLR on g, each of the pair's 4^w
  selections standing for 4^(d - w) tuples.  The conjectured test rejects
  the x with g(0) ^ g(x) ^ g(1...1) ^ g(~x) = 1, each standing for
  2^(d - w) tuples.  _cubes builds these cubes, for the per-shape table
  here and for agreement's affine bridge.
- shapka reads the axis lines through every anchor a.  By the residual
  identity its (a, b) parity is f(b) ^ local_view_decode(f, a)(b), so it
  rejects sum_a |f ^ local_view_decode(f, a)| pairs.
- A canonical direct sum is a prefix, its components on axes 0..d-2, plus a
  last component l with l(0) = 0 when d >= 2; given the prefix, the nearest l
  takes the majority on each last-axis value, ties going to 0.  One integer
  matmul scores every prefix, and the first at the minimum wins.
By Parseval |sum_S W(S)^3| <= n^3, so int64 holds these counts up to D = 20.
Oracles raise BudgetExceededError rather than sample when a space is too
large or its counts overflow int64, and when a cube, prefix or line table,
or nearest_affine's Walsh working set, would pass MAX_CUBE_TABLE_BYTES.

Each oracle has one kernel that works on a batch of tensors, given as the
rows of a (T, size) 0/1 matrix: exact_rejections and nearest_distances take
such a batch, and exact_rejection and nearest_direct_sum are a batch of one.
Likewise nearest_affine is a batch of one of _affine_fits, which the bridge
runs on all its cubes of one width at once.  exhaustive_soundness runs both
batched oracles over one representative of each coset of the direct sums.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import prod

import numpy as np

from .core import BinaryTensor, DirectSum, Point, Shape, _adopt, as_bits, axes_of
from . import testers

DEFAULT_BUDGET = 1 << 32


class BudgetExceededError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


@dataclass(frozen=True)
class ExactRejection:
    """Rejection count over the test's full randomness space."""

    rejecting: int
    total: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.rejecting, self.total)


@dataclass(frozen=True, eq=False)
class NearestResult:
    build: object = field(repr=False)  # makes the witness on its first read
    distance: Fraction
    witness = cached_property(lambda self: self.build())


@dataclass(frozen=True)
class AffineWitness:
    """The affine function constant ^ XOR of the coordinates in `mask`."""

    constant: int
    mask: int

    def table(self, dim: int) -> np.ndarray:
        """Its truth table on F2^dim: coordinate i of entry n is bit dim-1-i of n."""
        n = np.arange(1 << dim)
        out = np.full(1 << dim, self.constant, dtype=np.uint8)
        for axis in axes_of(self.mask):
            out ^= ((n >> (dim - 1 - axis)) & 1).astype(np.uint8)
        return out


def _check_budget(required: int, budget: int, what: str) -> None:
    if required > budget:
        raise BudgetExceededError(
            f"{what} needs {required} tuples, budget is {budget}"
        )


# The cube table and the (size^2, d) int64 differences it is built from may
# take this many bytes together, and so may the prefix table, the line table
# and nearest_affine's Walsh working set.  A larger shape is refused before
# anything is built: (6,)^4 needs 195 MiB, (8,)^4 2 GiB, (2,)^15 a 512 MiB
# prefix table, (8192,) a 512 MiB line table and a table on F2^25 512 MiB
# (F2^24 needs exactly 256 MiB and fits).
# The build's other temporaries come on top: (6,)^4 peaks at 268 MiB in
# tracemalloc and a shape of one axis at about twice its count, while the
# prefix and line tables are filled in place, near their own bytes.
MAX_CUBE_TABLE_BYTES = 1 << 28


def _check_table_bytes(needed: int, dims: tuple, what: str, table: str) -> None:
    if needed > MAX_CUBE_TABLE_BYTES:
        raise BudgetExceededError(
            f"{what} on shape {dims} needs {needed} bytes for its {table} "
            f"table, beyond the {MAX_CUBE_TABLE_BYTES}-byte ceiling"
        )


def _check_cube_bytes(shape: Shape, what: str) -> None:
    # Each a spans prod_i (2 n_i - 1) cube entries over all b: axis i adds one
    # for b_i = a_i and two for each other value.  The table drops the
    # 1 + 2 sum_i (n_i - 1) entries of the pairs with w < 2.
    spans = prod(2 * n - 1 for n in shape.dims) - 1 - 2 * sum(n - 1 for n in shape.dims)
    if spans:  # an empty table builds nothing
        _check_table_bytes(8 * shape.size * (spans + shape.size * shape.d), shape.dims, what,
                           "cube")


def _check_int64(bound: int, what: str) -> None:
    if bound >= 1 << 63:
        raise BudgetExceededError(
            f"{what} needs counts up to {bound}, beyond the int64 limit 2^63 - 1"
        )


# Cube, line and prefix tables depend only on the shape, so they
# are built once per process and shared between threads.
_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(key, build):
    value = _cache.get(key)
    if value is None:
        built = build()
        with _cache_lock:
            value = _cache.setdefault(key, built)
    return value


# ---------------------------------------------------------------------------
# Tensor tests
# ---------------------------------------------------------------------------
# sic-subsets, sic-cube and the conjectured test are counted from the cube
# table: the splices of b onto a for every pair (a, b).  shapka is counted
# from the line table: the axis lines through every anchor a.


def _cubes(flat_a: np.ndarray, diff: np.ndarray):
    """The cube each pair (a, b) spans, grouped by width w = |delta(a, b)|.

    flat_a holds the flat index of each pair's a, and the (pairs, d) diff
    its (b - a) * strides.  Yields (w, pairs, cubes) for each width present,
    in increasing w: pairs lists the pairs of width w in their given order,
    and row p of the (len(pairs), 2^w) int64 cubes holds the flat index of
    the splice of b onto a along each x in F2^w, x in row-major order with
    the first differing axis most significant.  So column 0 is a, the last
    column is b and column 2^w - 1 - x is x's complement.
    """
    differ = diff != 0
    width = differ.sum(axis=1)
    # bincount, not np.unique: a first np.unique call adds about 0.9 MB of
    # peak RSS (numpy 2.4).
    for w in np.flatnonzero(np.bincount(width)).tolist():
        pairs = np.flatnonzero(width == w)
        steps = diff[pairs][differ[pairs]].reshape(len(pairs), w)
        cubes = np.empty((len(pairs), 1 << w), dtype=np.int64)
        cubes[:, 0] = flat_a[pairs]
        for j in range(w):  # doubling in place, so the first axis ends most significant
            np.add(cubes[:, :1 << j], steps[:, w - 1 - j, None], out=cubes[:, 1 << j:2 << j])
        yield w, pairs, cubes


def _cube_table(shape: Shape) -> list:
    """The cubes of every pair (a, b) with w >= 2, as a list of (w, cubes).

    Pairs are a-major.  Pairs with w < 2 are left out: every test's queries
    on them cancel in pairs.
    """
    if sum(n > 1 for n in shape.dims) < 2:  # no pair has w >= 2: build nothing
        return []
    n = shape.size
    pts = shape.point_array()
    diff = (pts[None] - pts[:, None]).reshape(n * n, -1)
    diff *= shape.strides
    keep = np.flatnonzero(np.count_nonzero(diff, axis=1) >= 2)
    diff = diff[keep]  # frees the differences of the pairs left out
    keep //= n  # each kept pair's a
    return [(w, cubes) for w, _, cubes in _cubes(keep, diff)]


def _line_table(shape: Shape) -> tuple:
    """The axis lines through every anchor, and each point's place on them.

    lines is (size, sum n_i) int64: row a lists the flat indices of the line
    through a along axis 0, then along axis 1, and so on.  columns is
    (d, size) int64: entry (i, b) is the column of row a holding a with
    coordinate i set to b's.
    """
    pts = shape.point_array()
    flat = np.arange(shape.size, dtype=np.int64)[:, None]
    offsets = np.cumsum((0,) + shape.dims)
    lines = np.empty((shape.size, offsets[-1]), dtype=np.int64)
    for i, (n, stride) in enumerate(zip(shape.dims, shape.strides)):  # filled in place
        line = lines[:, offsets[i]:offsets[i + 1]]
        np.subtract(np.arange(n), pts[:, i:i + 1], out=line)
        line *= stride
        line += flat
    return lines, pts.T + offsets[:-1, None]


# Tensors times cube entries (or anchors times line points, prefixes or
# truth-table entries) that one pass of a batched kernel holds, so its
# temporaries stay near a MiB at any batch size; the weighted sum and the
# transform work in int64.  A single tensor always gets a pass of its own.
_PASS_ENTRIES = 1 << 16


def _passes(count: int, width: int):
    step = max(1, _PASS_ENTRIES // width)
    return (slice(i, i + step) for i in range(0, count, step))


# Butterflies on one flat index bit, and on two adjacent bits at once: half
# the matmuls, which ran about 20% faster on every size measured.
_HADAMARD_2 = np.array([[1, 1], [1, -1]])
_HADAMARD_4 = np.kron(_HADAMARD_2, _HADAMARD_2)
_SIGNS = np.array([1, -1])  # a bit b as the int64 (-1)^b


def _walsh(rows: np.ndarray) -> np.ndarray:
    """Integer Walsh-Hadamard transform of (-1)^row for each row of a (T, 2^D) bit matrix.

    Entry S of a row's transform is sum_x (-1)^(row[x] ^ chi_S(x)).  It is in
    mask order: bit i of S is coordinate i, which reversing the axes of the
    (2,)*D table puts at bit i of the flat index.
    """
    count, n = rows.shape
    dim = n.bit_length() - 1
    w = rows.reshape((count,) + (2,) * dim).transpose(0, *range(dim, 0, -1))
    w = 1 - 2 * w.reshape(count, n).astype(np.int64)
    for j in range(0, dim, 2):  # flat index bits dim - 1 - j and dim - 2 - j, if any
        hadamard = _HADAMARD_4 if j + 1 < dim else _HADAMARD_2
        w = hadamard @ w.reshape(count << j, len(hadamard), -1)
    return w.reshape(count, n)


def _blr_counts(tables: np.ndarray) -> np.ndarray:
    """BLR rejecting count of each row of a (T, n) bit matrix, out of n^2.

    sum_S W(S)^3 / n is exact: it is the sum over (x, y) of F(x) F(y) F(x ^ y).
    """
    n = tables.shape[1]
    w = _walsh(tables)
    cubes = np.einsum("ij,ij,ij->i", w, w, w) // n
    return (n * n - np.where(tables[:, 0], -cubes, cubes)) // 2


def _blr_rejections(rows: np.ndarray, budget: int) -> tuple[np.ndarray, int]:
    """BLR rejecting counts of each truth table in a (T, n) bit matrix, out of n^2."""
    n = rows.shape[1]
    _check_budget(n * n, budget, "BLR enumeration")
    _check_int64(n ** 3, "BLR enumeration")  # Parseval: |sum_S W(S)^3| <= n^3
    out = np.empty(len(rows), dtype=np.int64)
    for part in _passes(len(rows), n):
        out[part] = _blr_counts(rows[part])
    return out, n * n


def _cube_rejections(rows: np.ndarray, shape: Shape, kind: str, k: int) -> np.ndarray:
    """Rejecting count of each row of a (T, size) bit matrix, from the cube table.

    The sic tests: a pair of width w rejects BLR's count on its cube.  The
    conjectured test: it rejects the x in F2^w with g(0) ^ g(x) ^ g(1...1) ^
    g(~x) = 1.  Each of these stands for 2^(k (d - w)) tuples, so no sum
    exceeds the total that passed _check_int64; BLR's cube sum is at most
    8^w, below that total's 16^w.
    """
    out = np.zeros(len(rows), dtype=np.int64)
    for w, cubes in _cached(("cubes", shape.dims), lambda: _cube_table(shape)):
        for part in _passes(len(rows), cubes.size):
            g = np.take(rows[part], cubes, axis=1)
            if kind == testers.CONJECTURED:
                parity = g ^ g[..., ::-1] ^ (g[..., :1] ^ g[..., -1:])
                counts = np.count_nonzero(parity.reshape(len(g), -1), axis=1)
            else:
                counts = _blr_counts(g.reshape(-1, 1 << w)).reshape(len(g), -1)
                counts = counts.sum(axis=1)
            out[part] += counts << k * (shape.d - w)
    return out


def _residuals(rows: np.ndarray, shape: Shape) -> np.ndarray:
    """|f ^ local_view_decode(f, a)| for each row f and anchor a, as (T, size) int64.

    The local views at a are f on the axis lines through a, the last one
    absorbing f(a) when d is even; the decode at b is the XOR of each view
    at b's coordinate.
    """
    _check_table_bytes(8 * shape.size * (sum(shape.dims) + shape.d), shape.dims,
                       "local-view decode", "line")
    lines, columns = _cached(("lines", shape.dims), lambda: _line_table(shape))
    n, d = shape.size, shape.d
    width = n + lines.shape[1]  # entries of the views and the residual per anchor
    out = np.empty((len(rows), n), dtype=np.int64)
    for part in _passes(len(rows), n * width):
        block = rows[part]
        for anchors in _passes(n, len(block) * width):
            views = block[:, lines[anchors]]
            if d % 2 == 0:
                views[..., -shape.dims[-1]:] ^= block[:, anchors, None]
            residual = block[:, None] ^ views[..., columns[0]]
            for column in columns[1:]:
                residual ^= views[..., column]
            out[part, anchors] = np.einsum("tab->ta", residual, dtype=np.int64)
    return out


def _bit_rows(shape: Shape, rows) -> np.ndarray:
    """A (T, shape.size) matrix of 0/1 entries as contiguous uint8."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != shape.size:
        raise ValueError(f"expected a (T, {shape.size}) bit matrix for shape "
                         f"{shape.dims}, got shape {arr.shape}")
    return as_bits(arr, "row").reshape(arr.shape)


def exact_rejection(f: BinaryTensor, kind: str, budget: int = DEFAULT_BUDGET) -> ExactRejection:
    """Exact rejection probability of one test on one tensor."""
    rejecting, total = exact_rejections(f.shape, kind, f.bits[None], budget)
    return ExactRejection(int(rejecting[0]), total)


def exact_rejections(shape: Shape, kind: str, rows,
                     budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, int]:
    """exact_rejection for every row of a (T, shape.size) 0/1 matrix.

    Returns the int64 rejecting counts and the randomness-space total they
    are out of.  The budget bounds the space of one tensor, as for a single
    call.
    """
    bits = _bit_rows(shape, rows)
    if kind == testers.BLR:
        testers._require_binary(shape)
        return _blr_rejections(bits, budget)
    _, k = testers._tensor_test(kind)
    total = shape.size ** 2 << (k * shape.d)
    _check_budget(total, budget, f"{kind} enumeration")
    _check_int64(total, f"{kind} enumeration")  # every count is at most total
    if kind == testers.SHAPKA:  # the residual identity: rej = sum_a |f ^ LV_a(f)|
        return _residuals(bits, shape).sum(axis=1), total
    _check_cube_bytes(shape, kind)
    return _cube_rejections(bits, shape, kind, k), total


def exact_blr_rejection(table) -> ExactRejection:
    rejecting, total = _blr_rejections(testers.truth_table(table)[None], DEFAULT_BUDGET)
    return ExactRejection(int(rejecting[0]), total)


# ---------------------------------------------------------------------------
# Nearest codewords
# ---------------------------------------------------------------------------


def _prefix_table(shape: Shape) -> np.ndarray:
    """Canonical sums on axes 0..d-2 in enumeration order, as (prefixes, size / n_last) uint8."""
    dims = shape.dims[:-1]
    free = [(i, v) for i, n in enumerate(dims) for v in range(i > 0, n)]
    _check_table_bytes(prod(dims) << len(free), shape.dims, "direct-sum enumeration",
                       "prefix")
    coords = np.indices(dims).reshape(len(dims), prod(dims))
    table = np.zeros((1 << len(free), prod(dims)), dtype=np.uint8)
    for m, (i, v) in enumerate(reversed(free)):  # the first free entry ends most significant
        np.bitwise_xor(table[:1 << m], coords[i] == v, out=table[1 << m:2 << m])
    return table


def _nearest(rows: np.ndarray, shape: Shape, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (T, size) bit matrix: its nearest sum's prefix row, and the distance.

    In +-1 form r_c . p = fiber - 2 |r_c ^ p| for the fiber r_c at last-axis value c,
    so p with the majority l is at (size - sum_c |r_c . p|) / 2, r_0 . p signed if d >= 2.
    Prefixes come in complementary pairs, so for d >= 2 the best has r_0 . p >= 0: l(0) = 0.
    """
    _check_budget(DirectSum.count(shape), budget, "direct-sum enumeration")
    prefixes = _cached(("prefixes", shape.dims), lambda: _prefix_table(shape))
    (count, fiber), last = prefixes.shape, shape.dims[-1]
    best, top = np.empty((2, len(rows)), dtype=np.int64)
    for part in _passes(len(rows), 4 * (shape.size + last * count)):  # 4 int64 arrays each
        r = _SIGNS[rows[part].reshape(-1, fiber, last).swapaxes(1, 2)]
        totals = np.empty((len(r), count), dtype=np.int64)
        for chunk in _passes(count, max(len(r) * last, fiber)):
            agree = r @ _SIGNS[prefixes[chunk].T]
            score = np.abs(agree)
            if shape.d > 1:
                score[:, 0] = agree[:, 0]
            score.sum(axis=1, out=totals[:, chunk])
        best[part], top[part] = totals.argmax(axis=1), totals.max(axis=1)
    return prefixes[best], (shape.size - top) // 2


def nearest_direct_sum(f: BinaryTensor, budget: int = DEFAULT_BUDGET) -> NearestResult:
    """Global minimum over all canonical direct sums.

    Ties go to the lexicographically smallest canonical bit-string, which is
    the enumeration order, so the first minimum wins.  On an all-binary
    shape the direct sums are exactly the affine functions, so the distance
    is also nearest_affine's on the same bits.  The witness is built when
    read: it costs more than the search, and most callers read only the distance.
    """
    (p,), (count,) = _nearest(f.bits[None], f.shape, budget)
    return NearestResult(partial(_nearest_sum, f, p), Fraction(int(count), f.shape.size))


def _nearest_sum(f: BinaryTensor, p: np.ndarray) -> DirectSum:
    last = 2 * (f.bits.reshape(p.size, -1) ^ p[:, None]).sum(axis=0) > p.size
    return local_view_decode(_adopt(f.shape, p[:, None] ^ last), f.shape.origin())


def nearest_distances(shape: Shape, rows, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """nearest_direct_sum's disagreement count for every row of a (T, size) 0/1 matrix.

    Returns int64 counts; a row's distance is its count over shape.size.
    """
    return _nearest(_bit_rows(shape, rows), shape, budget)[1]


def _affine_fits(tables: np.ndarray) -> tuple:
    """Per row of a (T, 2^D) bit matrix: its nearest affine function.

    Returns int64 arrays (constants, masks, doubled): the first (constant,
    mask) pair at minimum distance and twice that distance.  Twice the
    distance to constant ^ chi_mask is n - (-1)^constant W(mask).  So the
    nearest with constant 0 is at W's first argmax and the nearest with
    constant 1 at its first argmin, and constant 0 wins a tie.
    """
    count, n = tables.shape
    constants = np.empty(count, dtype=np.int64)
    masks = np.empty(count, dtype=np.int64)
    doubled = np.empty(count, dtype=np.int64)
    for part in _passes(count, n):
        w = _walsh(tables[part])
        top, bottom = w.argmax(axis=1), w.argmin(axis=1)
        rows = np.arange(len(w))
        high, low = n - w[rows, top], n + w[rows, bottom]
        ones = high > low  # constant 1 is strictly nearer
        constants[part] = ones
        masks[part] = np.where(ones, bottom, top)
        doubled[part] = np.where(ones, low, high)
    return constants, masks, doubled


def nearest_affine(table) -> NearestResult:
    """Minimum distance over all 2^(D+1) affine functions on F2^D.

    Ties go to the smallest (constant, mask) pair.
    """
    t = testers.truth_table(table)
    # The int64 transform and the butterfly step that replaces it.
    dims = (2,) * (t.size.bit_length() - 1)
    _check_table_bytes(16 * t.size, dims, "affine enumeration", "Walsh")
    constants, masks, doubled = _affine_fits(t[None])
    return NearestResult(partial(AffineWitness, int(constants[0]), int(masks[0])),
                         Fraction(int(doubled[0]) // 2, t.size))


# ---------------------------------------------------------------------------
# Exhaustive soundness
# ---------------------------------------------------------------------------

# Coset representatives sent to the batched oracles per call.
_SOUNDNESS_BLOCK = 1 << 12


def exhaustive_soundness(shape: Shape, kind: str, budget: int = DEFAULT_BUDGET) -> tuple:
    """Check a test's soundness guarantee on every one of the 2^size tensors of a shape.

    shapka and BLR guarantee eps >= dist, and the sic tests reject exactly
    the tensors that are not direct sums.  Returns (violation, worst).
    violation is (index, eps, dist) for the smallest violating index, whose
    bit i holds flat entry i, or None; the check stops there, and worst is
    then None.  Otherwise worst is the minimum eps/dist over the tensors at
    positive distance, or None when every tensor is a direct sum.  The
    conjectured test claims no guarantee, so it is refused, and so is a
    shape of more than 24 entries.
    """
    if kind == testers.CONJECTURED:
        raise ValueError("no soundness guarantee is claimed for the conjectured test")
    size = shape.size
    if size > 24:
        raise ValueError(f"cannot iterate 2^{size} tensors; use a smaller shape")
    # Every test's parity vanishes on direct sums and they form a subspace,
    # so eps and dist are constant on each coset f + (direct sums).  A coset
    # has exactly one tensor that is 0 on the axis lines through the last
    # point, and it is the coset's smallest index.  So these representatives,
    # in index order, cover all 2^size tensors and meet the smallest
    # violating index first.
    corner = np.array(shape.dims) - 1
    free = np.flatnonzero((shape.point_array() != corner).sum(axis=1) > 1)
    count = 1 << free.size
    pairs = set()
    for start in range(0, count, _SOUNDNESS_BLOCK):
        codes = np.arange(start, min(start + _SOUNDNESS_BLOCK, count))
        rows = np.zeros((codes.size, size), dtype=np.uint8)
        rows[:, free] = (codes[:, None] >> np.arange(free.size)) & 1
        rej, total = exact_rejections(shape, kind, rows, budget)
        dist = nearest_distances(shape, rows, budget)
        if kind in (testers.SHAPKA, testers.BLR):
            ok = rej * size >= dist * total  # eps >= dist
        else:
            ok = (rej == 0) == (dist == 0)
        if not ok.all():
            k = int(np.argmin(ok))
            index = sum(1 << int(i) for i in np.flatnonzero(rows[k]))
            return (index, Fraction(int(rej[k]), total), Fraction(int(dist[k]), size)), None
        far = dist > 0
        pairs.update(zip(rej[far].tolist(), dist[far].tolist()))
    return None, min((Fraction(r * size, d * total) for r, d in pairs), default=None)


# ---------------------------------------------------------------------------
# Local-view decoding
# ---------------------------------------------------------------------------


def local_view_decode(f: BinaryTensor, a: Point) -> DirectSum:
    """Direct sum assembled from f's one-coordinate views anchored at a.

    Component i maps x to f(a with coordinate i set to x); the last component
    additionally absorbs f(a) when d is even, which is exactly what makes the
    reconstruction residual at any b equal the (a, b) query-set parity.
    """
    a = f.shape.require_point(a)
    arr = f.as_nd()
    comps = [arr[a[:i] + (slice(None),) + a[i + 1:]] for i in range(f.shape.d)]
    if f.shape.d % 2 == 0:
        comps[-1] = comps[-1] ^ arr[a]
    return DirectSum(f.shape, comps)


def shapka_residual_identity_check(f: BinaryTensor, a: Point, b: Point) -> tuple[int, int]:
    """Both sides of the residual identity; they must agree for every input.

    Left: (f - local-view sum)(b).  Right: the query-set parity at (a, b).
    """
    a = f.shape.require_point(a)
    b = f.shape.require_point(b)
    ds = local_view_decode(f, a)
    lhs = f.value(b) ^ ds.eval(b)
    rhs = 0 if testers.shapka_trial(f, testers.ShapkaRandomness(a, b)).accepted else 1
    return lhs, rhs


def is_direct_sum(f: BinaryTensor) -> bool:
    """Exact membership test via decode-and-compare at the origin anchor."""
    return local_view_decode(f, f.shape.origin()).materialize() == f


def best_anchor_decode(f: BinaryTensor) -> tuple[Point, DirectSum, Fraction]:
    """Local-view decode at the anchor whose reconstruction is closest to f.

    An experiment toward a voting-style reconstruction; no optimality claim.
    Ties go to the first anchor in row-major order.  It does shapka's work,
    so it is refused where shapka's size^2 pairs exceed DEFAULT_BUDGET.
    """
    _check_budget(f.shape.size ** 2, DEFAULT_BUDGET, "best-anchor decode")
    residuals = _residuals(f.bits[None], f.shape)[0]
    best = int(residuals.argmin())
    a = f.shape.point_at(best)
    return a, local_view_decode(f, a), Fraction(int(residuals[best]), f.shape.size)


# ---------------------------------------------------------------------------
# Biased characters
# ---------------------------------------------------------------------------


def biased_character_probability(s_size: int) -> Fraction:
    """Pr[chi_S(x) = 0] when each bit is 1 with probability 2/3: (1+(-1/3)^s)/2."""
    if s_size < 0:
        raise ValueError("set size must be nonnegative")
    return (1 + Fraction(-1, 3) ** s_size) / 2
