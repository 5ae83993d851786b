"""Exact ground truth by exhaustive enumeration.

Rejection probabilities are computed over the full randomness space of each
test and returned as integer counts, never floats.  The space is enumerated
once per shape and run through the test's query pattern from testers, the
same one the trials and Monte Carlo apply.  Oracles refuse (raise
BudgetExceededError) rather than silently sample when a space is too large.

Each oracle has one kernel that works on a batch of tensors, given as the
rows of a (T, size) 0/1 matrix: exact_rejections and nearest_distances take
such a batch, and exact_rejection and nearest_direct_sum are a batch of one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    BinaryTensor,
    DirectSum,
    Point,
    Shape,
    as_bits,
    axes_of,
    distance,
)
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


@dataclass(frozen=True)
class NearestResult:
    witness: object
    distance: Fraction


@dataclass(frozen=True)
class AffineWitness:
    """The affine function constant ^ XOR of the coordinates in `mask`."""

    constant: int
    mask: int

    def table(self, dim: int) -> np.ndarray:
        return (_parity_columns(dim, self.mask) ^ self.constant).astype(np.uint8)


def _check_budget(required: int, budget: int, what: str) -> None:
    if required > budget:
        raise BudgetExceededError(
            f"{what} needs {required} tuples, budget is {budget}"
        )


# Enumeration plans and candidate tables depend only on the shape, so they
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
# Enumeration plans
# ---------------------------------------------------------------------------
# A plan is a test's query pattern applied to its whole randomness space over
# one shape, flattened to an index matrix (one row per query column, one
# entry per tuple) plus optional integer tuple weights.

@dataclass(frozen=True)
class _Plan:
    indices: np.ndarray          # (queries, rows) int64 flat indices
    weights: Optional[np.ndarray]  # (rows,) int64, None means all-ones
    total: int                   # full randomness-space size


def _index_plan(columns, weights: Optional[np.ndarray], total: int) -> _Plan:
    return _Plan(np.stack(np.broadcast_arrays(*columns)), weights, total)


def _tensor_plan(shape: Shape, pattern, k: int, total: int) -> _Plan:
    """Every (a, b) pair with every choice of its k selectors inside delta(a, b).

    Each row stands for the 2^((d - |delta|) * k) tuples that agree with it
    on delta; shapka draws no selectors, so its plan stays unweighted.
    """
    n = shape.size
    pts = shape.point_array()
    flat_a = np.repeat(np.arange(n, dtype=np.int64), n)
    flat_b = np.tile(np.arange(n, dtype=np.int64), n)
    diff = (pts[flat_b] - pts[flat_a]) * np.asarray(shape.strides, dtype=np.int64)
    pair, selectors, weights = testers._delta_subsets(diff != 0, k)
    columns = pattern(flat_a[pair], flat_b[pair], diff[pair], *selectors)
    return _index_plan(columns, weights if k else None, total)


def _blr_plan(n: int, budget: int) -> _Plan:
    """BLR on a truth table of length n: every (x, y) pair."""
    _check_budget(n * n, budget, "BLR enumeration")

    def build():
        x = np.repeat(np.arange(n, dtype=np.int64), n)
        y = np.tile(np.arange(n, dtype=np.int64), n)
        return _index_plan(testers._blr_queries(x, y), None, n * n)

    return _cached(("blr-plan", n), build)


def _plan(shape: Shape, kind: str, budget: int) -> _Plan:
    if kind == testers.BLR:
        testers._require_binary(shape)
        return _blr_plan(shape.size, budget)
    pattern, k = testers._tensor_test(kind)
    total = shape.size ** 2 << (k * shape.d)
    _check_budget(total, budget, f"{kind} enumeration")
    return _cached(("plan", shape.dims, pattern),
                   lambda: _tensor_plan(shape, pattern, k, total))


# Tensors times plan rows (or candidates times entries) that one pass of a
# batched kernel holds, so its temporaries stay under a MiB at any batch
# size; the weighted sum widens parities to int64.  A single tensor always
# gets a pass of its own.
_PASS_ENTRIES = 1 << 16


def _passes(count: int, width: int):
    step = max(1, _PASS_ENTRIES // width)
    return (slice(i, i + step) for i in range(0, count, step))


def _apply_plan(rows: np.ndarray, plan: _Plan) -> np.ndarray:
    """Rejecting count of each tensor of a (T, size) bit matrix.

    Gathers each query column of the plan and XORs them into the per-tuple
    parity; the weighted sum of the parities is the count.
    """
    out = np.empty(len(rows), dtype=np.int64)
    for part in _passes(len(rows), plan.indices.shape[1]):
        block = rows[part]
        parity = np.take(block, plan.indices[0], axis=1)
        for column in plan.indices[1:]:
            parity ^= np.take(block, column, axis=1)
        if plan.weights is None:
            out[part] = np.count_nonzero(parity, axis=1)
        else:
            out[part] = parity @ plan.weights
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
    plan = _plan(f.shape, kind, budget)
    return ExactRejection(int(_apply_plan(f.bits[None], plan)[0]), plan.total)


def exact_rejections(shape: Shape, kind: str, rows,
                     budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, int]:
    """exact_rejection for every row of a (T, shape.size) 0/1 matrix.

    Returns the int64 rejecting counts and the randomness-space total they
    are out of.  The budget bounds the space of one tensor, as for a single
    call.
    """
    bits = _bit_rows(shape, rows)
    plan = _plan(shape, kind, budget)
    return _apply_plan(bits, plan), plan.total


def exact_blr_rejection(table, budget: int = DEFAULT_BUDGET) -> ExactRejection:
    t = testers.truth_table(table)
    plan = _blr_plan(t.size, budget)
    return ExactRejection(int(_apply_plan(t[None], plan)[0]), plan.total)


# ---------------------------------------------------------------------------
# Nearest codewords
# ---------------------------------------------------------------------------


def _closest(candidates: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the first candidate at minimum Hamming distance, and that distance."""
    best = np.empty(len(rows), dtype=np.int64)
    counts = np.empty(len(rows), dtype=np.int64)
    for part in _passes(len(rows), candidates.size):
        disagreements = np.count_nonzero(rows[part, None] != candidates, axis=2)
        best[part] = disagreements.argmin(axis=1)
        counts[part] = disagreements.min(axis=1)
    return best, counts


def _ds_candidates(shape: Shape) -> tuple[np.ndarray, list]:
    sums = list(DirectSum.enumerate_all(shape))
    return np.stack([ds.materialize().bits for ds in sums]), sums


def _direct_sums(shape: Shape, budget: int) -> tuple[np.ndarray, list]:
    _check_budget(DirectSum.count(shape), budget, "direct-sum enumeration")
    return _cached(("direct-sums", shape.dims), lambda: _ds_candidates(shape))


def nearest_direct_sum(f: BinaryTensor, budget: int = DEFAULT_BUDGET) -> NearestResult:
    """Global minimum over all canonical direct sums.

    Ties go to the lexicographically smallest canonical bit-string, which is
    the enumeration order, so the first minimum wins.  On an all-binary
    shape the direct sums are exactly the affine functions, so the distance
    is also nearest_affine's on the same bits.
    """
    matrix, sums = _direct_sums(f.shape, budget)
    best, counts = _closest(matrix, f.bits[None])
    return NearestResult(sums[best[0]], Fraction(int(counts[0]), f.shape.size))


def nearest_distances(shape: Shape, rows, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """nearest_direct_sum's disagreement count for every row of a (T, size) 0/1 matrix.

    Returns int64 counts; a row's distance is its count over shape.size.
    """
    bits = _bit_rows(shape, rows)
    matrix, _ = _direct_sums(shape, budget)
    return _closest(matrix, bits)[1]


def _parity_columns(dim: int, mask: int) -> np.ndarray:
    """chi_mask evaluated on every point of F2^dim, in table order.

    Table order is row-major: coordinate i of point `n` is bit (dim-1-i).
    The mask is an axis mask (bit i <-> coordinate i).
    """
    n = np.arange(1 << dim)
    out = np.zeros(1 << dim, dtype=np.uint8)
    for axis in axes_of(mask):
        out ^= ((n >> (dim - 1 - axis)) & 1).astype(np.uint8)
    return out


def _affine_tables(dim: int) -> tuple[np.ndarray, list[AffineWitness]]:
    witnesses = [
        AffineWitness(c, mask) for c in (0, 1) for mask in range(1 << dim)
    ]
    return np.stack([w.table(dim) for w in witnesses]), witnesses


def nearest_affine(table, budget: int = DEFAULT_BUDGET) -> NearestResult:
    """Minimum distance over all 2^(D+1) affine functions on F2^D.

    Ties go to the smallest (constant, mask) pair.
    """
    t = testers.truth_table(table)
    n = t.size
    dim = n.bit_length() - 1
    _check_budget(2 << dim, budget, "affine enumeration")
    matrix, witnesses = _cached(("affine", dim), lambda: _affine_tables(dim))
    best, counts = _closest(matrix, t[None])
    return NearestResult(witnesses[best[0]], Fraction(int(counts[0]), n))


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
    comps = []
    for i in range(f.shape.d):
        idx = list(a)
        idx[i] = slice(None)
        comps.append(np.array(arr[tuple(idx)], dtype=np.uint8))
    if f.shape.d % 2 == 0:
        comps[-1] = comps[-1] ^ np.uint8(f.value(a))
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
    """Local-view decode at every anchor, keeping the closest reconstruction.

    An experiment toward a voting-style reconstruction; no optimality claim.
    Ties go to the first anchor in row-major order.
    """
    best = None
    for a in f.shape.points():
        ds = local_view_decode(f, a)
        dist = distance(f, ds.materialize())
        if best is None or dist < best[2]:
            best = (a, ds, dist)
    return best


# ---------------------------------------------------------------------------
# Biased characters
# ---------------------------------------------------------------------------


def biased_character_probability(s_size: int) -> Fraction:
    """Pr[chi_S(x) = 0] when each bit is 1 with probability 2/3: (1+(-1/3)^s)/2."""
    if s_size < 0:
        raise ValueError("set size must be nonnegative")
    return (1 + Fraction(-1, 3) ** s_size) / 2


def biased_character_probability_enumerated(s_size: int, dim: int | None = None) -> Fraction:
    """Same probability by summing weighted assignments on a dim-cube.

    S is taken to be the first s_size coordinates; the remaining coordinates
    only multiply every parity class by a total weight of one.
    """
    if dim is None:
        dim = s_size
    if s_size < 0 or dim < s_size:
        raise ValueError("need 0 <= s_size <= dim")
    zero_w = Fraction(1, 3)
    one_w = Fraction(2, 3)
    total = Fraction(0)
    for x in range(1 << dim):
        weight = Fraction(1)
        for i in range(dim):
            weight *= one_w if (x >> i) & 1 else zero_w
        parity = (x & ((1 << s_size) - 1)).bit_count() & 1
        if parity == 0:
            total += weight
    return total
