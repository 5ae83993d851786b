"""Exact ground truth over the full randomness space of each test.

Rejection probabilities are integer counts, never floats.  No tuple is
enumerated: each count comes from a closed form over a small per-shape
table, and the test suite checks it against the query patterns of testers,
the tests' one definition, run as trials over the whole space.
- BLR and the sic tests read the integer Walsh-Hadamard transform W of
  F = (-1)^g for a table g on F2^D, with n = 2^D (Bellare, Coppersmith,
  Hastad, Kiwi and Sudan, "Linearity testing in characteristic two", 1996).
  BLR on g rejects
  (n^2 - F(0) sum_S W(S)^3 / n) / 2 of its n^2 pairs, and c ^ chi_S is at
  distance (n - (-1)^c W(S)) / 2 from g.
- sic-subsets, sic-cube and the conjectured test read the cube each pair
  (a, b) spans: g(x) is f at the splice of b onto a along x in F2^w,
  w = |delta(a, b)|.  The sic tests are BLR on g, each of the pair's 4^w
  selections standing for 4^(d - w) tuples.  The conjectured test rejects
  the x with g(0) ^ g(x) ^ g(1...1) ^ g(~x) = 1, each standing for
  2^(d - w) tuples.  _cubes builds these cubes, for the per-shape table
  here and for agreement's affine bridge.
- shapka and the nearest direct sum read the same transform taken over the
  binary axes only.  By the residual identity shapka's (a, b) parity is
  f(b) ^ local_view_decode(f, a)(b), so it rejects sum_a |f ^
  local_view_decode(f, a)| pairs; each anchor's count reads the transform
  at the binary axes where f changes next to a, after a Gram product over
  the longest other axis.  A direct sum is +-chi_S on the binary axes times
  components on the others, so the nearest search scores every character S
  and every prefix (components on the other axes but the longest, each 0 at
  0), with the majority on the longest.
By Parseval |sum_S W(S)^3| <= n^3, so int64 holds these counts up to D = 20.
Oracles raise BudgetExceededError rather than sample when a space is too
large or its counts overflow int64, and when a cube, Gram or prefix table,
or a Walsh working set, would pass MAX_CUBE_TABLE_BYTES.

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
from functools import cached_property, lru_cache, partial
from math import prod

import numpy as np

from .core import BinaryTensor, DirectSum, Point, Shape, as_bits, axes_of
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
# take this many bytes together, and so may shapka's Gram table, the nearest
# search's prefix table and a Walsh working set (16 bytes per entry, for the
# nearest search and nearest_affine).  A larger shape is refused before
# anything is built: cubes on (6,)^4 need 195 MiB and on (8,)^4 2 GiB, the
# Gram table on (3,)^10 2.9 GiB, the prefix table on (8,)^4 1 GiB, and a
# Walsh working set on F2^25 512 MiB (F2^24 needs exactly 256 MiB and fits).
# The build's other temporaries come on top: (6,)^4 peaks at 268 MiB in
# tracemalloc and a shape of one axis at about twice its count, while the
# prefix table is filled in place, near its own bytes.
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


# Cube and prefix tables depend only on the shape, so they are built once
# per process and shared between threads.
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
# from a Walsh transform over the binary axes.


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
    """Integer Walsh-Hadamard transform of (-1)^row for each row of a (T, 2, ..., 2) bit array.

    Entry S of a row's transform is sum_x (-1)^(row[x] ^ chi_S(x)), where x
    and S index the row's (2,)*D table in C order: axis i is bit D - 1 - i.
    A (T, 2^D) matrix is read as (T, 2, ..., 2); pass a transposed view for
    another bit order.
    """
    count = len(rows)
    w = 1 - 2 * rows.reshape(count, -1).astype(np.int64)
    n = w.shape[1]
    dim = n.bit_length() - 1
    for j in range(0, dim - 2, 2):  # flat index bits dim - 1 - j and dim - 2 - j
        w = _HADAMARD_4 @ w.reshape(count << j, 4, -1)
    if dim:  # the last one or two bits, as one 2-D product (H is symmetric)
        hadamard = _HADAMARD_2 if dim % 2 else _HADAMARD_4
        w = w.reshape(-1, len(hadamard)) @ hadamard
    return w.reshape(count, n)


@lru_cache
def _axes(dims: tuple) -> tuple:
    """(binary, prefix, last): the axes of length 2; the first longest axis of
    length 3 or more (None if none), where the nearest search takes the
    majority; and the other such axes."""
    binary = tuple(i for i, n in enumerate(dims) if n == 2)
    other = [i for i, n in enumerate(dims) if n > 2]
    last = max(other, key=dims.__getitem__, default=None)
    return binary, tuple(i for i in other if i != last), last


def _binary_walsh(f: np.ndarray, dims: tuple) -> np.ndarray:
    """W_S(x) = sum over the binary axes' y of (-1)^f(y, x) chi_S(y), for a (T, *dims) bit array.

    Returned as (T, prefix entries, n_last, 2^|binary|) int64: the prefix
    axes in order, then the last axis (length 1 if none).  Bit |binary| - 1 - k
    of S is binary axis k.  Axes of length 1 go with the prefix.
    """
    binary, _, last = _axes(dims)
    order = [i for i in range(len(dims)) if dims[i] != 2 and i != last]
    order += [last] * (last is not None) + list(binary)
    w = _walsh(f.transpose(0, *(1 + i for i in order)).reshape(-1, 1 << len(binary)))
    return w.reshape(len(f), -1, dims[last] if last is not None else 1, 1 << len(binary))


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

    With F = (-1)^f it is (size - A_a) / 2, A_a = F(a)^[d even] sum_b F(b)
    prod_i F(a with coordinate i set to b_i).  That factor is F(a) on an axis
    of length 1, and F(a) chi(a_i ^ b_i) or F(a) on a binary axis i, as f(a ^
    e_i) differs from f(a) or not.  So with S_a those binary axes and M the
    axes of length 3 or more, for _binary_walsh's W,
        A_a = F(a)^(1 + |M|) chi_{S_a}(a) sum_x W_{S_a}(x) prod_{i in M} F(a with i set to x_i).
    The sum over the last axis is a Gram product of F and W, shared by the
    anchors that agree off it; the prefix axes are summed against a's lines.
    """
    dims, size = shape.dims, shape.size
    binary, prefix, last = _axes(dims)
    rest = 1  # rows of the Gram table, one per index off the last axis
    if last is not None:
        rest, step = size // dims[last], shape.strides[last]
        _check_table_bytes(8 * rest * rest, dims, "local-view decode", "Gram")
    steps = np.array(shape.strides)[:, None]
    coords = np.arange(size) // steps % np.array(dims)[:, None]
    starts = np.arange(size) - coords * steps  # the first point of each axis line through a
    across = (starts + (1 - coords) * steps)[list(binary)]  # a ^ e_i, on a binary axis i
    coords = coords[list(binary)].astype(np.uint8)
    off = (np.zeros(size, dtype=np.intp) if last is None else  # a's Gram row
           starts[last] // (dims[last] * step) * step + starts[last] % step)
    chars, m = 1 << len(binary), prod(dims[i] for i in prefix)
    letters = "".join(chr(65 + k) for k in range(len(prefix)))
    spec = ",".join(["tc" + letters] + ["tc" + x for x in letters]) + "->tc"
    out = np.empty((len(rows), size), dtype=np.int64)
    for part in _passes(len(rows), 8 * size + rest * rest):  # some eight int64 arrays a row
        f = rows[part]
        t = len(f)
        # S_a, numbered as _binary_walsh numbers S, and the sign of A_a's sum.
        flips = f & (1 - (len(prefix) + (last is not None)) % 2)
        changes = f[:, across] ^ f[:, None]
        flips ^= np.bitwise_xor.reduce(changes & coords, axis=1)  # chi_{S_a}(a)
        codes = np.zeros(f.shape, dtype=np.min_scalar_type(chars - 1))
        for k in range(len(binary)):
            codes <<= 1
            codes |= changes[:, k]
        w = _binary_walsh(f.reshape((-1,) + dims), dims)
        if last is not None:  # the Gram product; the prefix axes read signs too
            signs = _SIGNS[f]
            x = np.moveaxis(signs.reshape((t,) + dims), 1 + last, -1).reshape(t, rest, -1)
            w = x @ w.transpose(0, 2, 3, 1).reshape(t, dims[last], -1)
        w = w.reshape(-1, m)  # row (t rest + off) chars + S
        base = np.arange(0, t * rest * chars, rest * chars)[:, None]
        for c in _passes(size, t * m):
            key = base + off[c] * chars + codes[:, c]
            views = [w.take(key, axis=0).reshape((t, -1) + tuple(dims[i] for i in prefix))]
            views[0] *= _SIGNS.take(flips[:, c]).reshape(key.shape + (1,) * len(prefix))
            for i in prefix:  # F on the line through each anchor along axis i
                views.append(signs[:, starts[i, c, None] + np.arange(dims[i]) * steps[i]])
            a = np.subtract(size, np.einsum(spec, *views), out=out[part, c])
            a >>= 1
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
    """Canonical sums on the prefix axes, each component 0 at 0, as (prefixes, entries) uint8.

    Row p sets the free entries whose bits are set in p, the first most significant.
    """
    _, prefix, _ = _axes(shape.dims)
    dims = [shape.dims[i] for i in prefix]
    free = [(k, v) for k, n in enumerate(dims) for v in range(1, n)]
    _check_table_bytes(prod(dims) << len(free), shape.dims, "direct-sum enumeration",
                       "prefix")
    coords = np.indices(dims).reshape(len(dims), prod(dims))
    table = np.zeros((1 << len(free), prod(dims)), dtype=np.uint8)
    for m, (k, v) in enumerate(reversed(free)):  # the first free entry ends most significant
        np.bitwise_xor(table[:1 << m], coords[k] == v, out=table[1 << m:2 << m])
    return table


def _correlations(rows: np.ndarray, shape: Shape):
    """Yields (part, chunk, v) over the rows of a (T, size) bit matrix and the prefixes.

    v[t, c, S, p] correlates F = (-1)^f, row t of part, with chi_S times
    prefix p on the fiber where the last axis is c.  A direct sum is +-chi_S
    times a prefix times a last component of any signs, so the nearest one
    is at (size - max over (S, p) of sum_c |v[t, c, S, p]|) / 2.
    """
    _check_table_bytes(16 * shape.size, shape.dims, "direct-sum enumeration", "Walsh")
    prefixes = _cached(("prefixes", shape.dims), lambda: _prefix_table(shape))
    count, entries = prefixes.shape
    for part in _passes(len(rows), shape.size):
        w = _binary_walsh(rows[part].reshape((-1,) + shape.dims), shape.dims)
        t, _, n_last, chars = w.shape
        w = w.reshape(t, entries, -1).swapaxes(1, 2)
        for chunk in _passes(count, max(t * n_last * chars, entries)):
            v = w @ _SIGNS[prefixes[chunk].T] if entries > 1 else w  # no prefix axis: W itself
            yield part, chunk, v.reshape(t, n_last, chars, -1)


def nearest_direct_sum(f: BinaryTensor, budget: int = DEFAULT_BUDGET) -> NearestResult:
    """Global minimum over all canonical direct sums.

    Ties go to the lexicographically smallest canonical bit-string.  On an
    all-binary shape the direct sums are exactly the affine functions, so the
    distance is also nearest_affine's on the same bits.  The witness is built
    when read: it runs the search again, and most callers read only the distance.
    """
    (count,) = nearest_distances(f.shape, f.bits[None], budget)
    return NearestResult(partial(_nearest_sum, f, f.shape.size - 2 * int(count)),
                         Fraction(int(count), f.shape.size))


def _nearest_sum(f: BinaryTensor, top: int) -> DirectSum:
    """The canonical sum with the smallest bit-string among those at correlation top.

    Each (S, p) at the top gives the sums whose last component has the sign
    of v on each fiber, either sign where v is 0.  The canonical form moves
    the last component's value at 0 into component 0, whose first bit leads
    the string, so the smallest of them takes 0 wherever v is 0.
    """
    dims = f.shape.dims
    binary, prefix, last = _axes(dims)
    found = []
    for _, chunk, v in _correlations(f.bits[None], f.shape):
        s, p = np.nonzero(np.abs(v[0]).sum(axis=0) == top)
        found.append((s, p + chunk.start, v[0][:, s, p].T))
    s, p, v = (np.concatenate(x) for x in zip(*found))
    comps = [np.zeros((len(s), n), dtype=np.uint8) for n in dims]
    free = [(i, 1) for i in binary] + [(i, x) for i in prefix for x in range(1, dims[i])]
    code = s << (len(free) - len(binary)) | p  # the first free entry most significant
    for m, (i, x) in enumerate(free):
        comps[i][:, x] = code >> (len(free) - 1 - m) & 1
    signs = (v < 0).astype(np.uint8)  # the last component, or the constant if none
    if last != 0:
        comps[0] ^= signs[:, :1]
        signs ^= signs[:, :1]
    signs[v == 0] = 0
    if last is not None:
        comps[last] = signs
    best = np.lexsort(np.hstack(comps).T[::-1])[0]
    return DirectSum(f.shape, [c[best] for c in comps])


def nearest_distances(shape: Shape, rows, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """nearest_direct_sum's disagreement count for every row of a (T, size) 0/1 matrix.

    Returns int64 counts; a row's distance is its count over shape.size.
    """
    _check_budget(DirectSum.count(shape), budget, "direct-sum enumeration")
    rows = _bit_rows(shape, rows)
    top = np.zeros(len(rows), dtype=np.int64)
    for part, _, v in _correlations(rows, shape):
        score = np.abs(v, out=v).sum(axis=1).reshape(len(v), -1)
        np.maximum(top[part], score.max(axis=1), out=top[part])
    return (shape.size - top) // 2


def _affine_fits(tables: np.ndarray) -> tuple:
    """Per row of a (T, 2^D) bit matrix: its nearest affine function.

    Returns int64 arrays (constants, masks, doubled): the first (constant,
    mask) pair at minimum distance and twice that distance.  Twice the
    distance to constant ^ chi_mask is n - (-1)^constant W(mask).  So the
    nearest with constant 0 is at W's first argmax and the nearest with
    constant 1 at its first argmin, and constant 0 wins a tie.
    """
    count, n = tables.shape
    dim = n.bit_length() - 1
    constants = np.empty(count, dtype=np.int64)
    masks = np.empty(count, dtype=np.int64)
    doubled = np.empty(count, dtype=np.int64)
    for part in _passes(count, n):
        # Reversed axes put coordinate i at bit i of the transform's index.
        w = _walsh(tables[part].reshape((-1,) + (2,) * dim).transpose(0, *range(dim, 0, -1)))
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
