"""Direct-product agreement tests, plurality decoding, and the affine bridge.

A tuple-valued function g on a product domain is a direct product when output
coordinate i depends only on input coordinate i.  Both two-query tests are one
pattern, _agreement_rejects, over rows (x, y, tied): y copies x on the tied
coordinates, and a row rejects when g(x) and g(y) differ on one of them.  The
alpha test ties each coordinate with probability alpha, the fixed-t test a
uniform t-subset, and nothing else tells them apart.  The bridge turns a
binary tensor into such a function by fitting an affine function on every
spanned subcube.  It takes those cubes from oracles._cubes, the builder of the
oracles' cube table, and fits each width's cubes in one batched Walsh pass.
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
    _affine_fits,
    _check_budget,
    _cubes,
    nearest_affine,  # not called here; perfbench/spans.py wraps agreement.nearest_affine
)
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
        domain = Shape(self.sizes)
        object.__setattr__(self, "sizes", domain.dims)
        object.__setattr__(self, "_domain", domain)
        if self.alphabet < 1:
            raise ValueError("alphabet size must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def domain_size(self) -> int:
        return self._domain.size

    def points(self) -> Iterator[Point]:
        return self._domain.points()

    def index_of(self, point: Sequence[int]) -> int:
        return self._domain.index_of(point)


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
    points = dpshape._domain.point_array()
    table = np.empty((dpshape.domain_size, dpshape.k), dtype=np.int64)
    for i, comp in enumerate(comps):
        table[:, i] = comp[points[:, i]]
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
# Trials: one pattern behind both agreement tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementRandomness:
    """Two points plus the mask of coordinates on which y copies x."""

    x: Point
    y: Point
    tied: int

    def __post_init__(self) -> None:
        for i in axes_of(self.tied):
            if self.x[i] != self.y[i]:
                raise ValueError(f"coordinate {i} marked tied but differs")


def _agreement_rejects(g: DPFunction, x: np.ndarray, y: np.ndarray,
                       tied: np.ndarray) -> np.ndarray:
    """Rows of (rows, k) points x, y and 0/1 tied where g(x), g(y) differ on a tied coordinate."""
    gx, gy = (g.table[np.ravel_multi_index(p.T, g.dpshape.sizes)] for p in (x, y))
    return ((gx != gy) & (tied != 0)).any(axis=1)


def dp_agreement_trial(g: DPFunction, r: AgreementRandomness) -> TrialOutcome:
    """Accept iff g(x) and g(y) agree on every tied coordinate."""
    tied = (np.array([[r.tied]]) >> np.arange(g.dpshape.k)) & 1
    rejects = _agreement_rejects(g, np.array([r.x]), np.array([r.y]), tied)
    return TrialOutcome(not rejects[0], (r.x, r.y))


def _draw_agreement(dpshape: DPShape, tied: int, rng: np.random.Generator) -> AgreementRandomness:
    """Uniform x, and y copying x on the tied coordinates and uniform elsewhere."""
    x = tuple(int(rng.integers(0, n)) for n in dpshape.sizes)
    y = tuple(x[i] if tied >> i & 1 else int(rng.integers(0, n))
              for i, n in enumerate(dpshape.sizes))
    return AgreementRandomness(x, y, tied)


def sample_alpha_randomness(dpshape: DPShape, alpha, rng: np.random.Generator) -> AgreementRandomness:
    a = float(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    tied = sum(1 << i for i in range(dpshape.k) if rng.random() < a)
    return _draw_agreement(dpshape, tied, rng)


def sample_fixed_t_randomness(dpshape: DPShape, t: int, rng: np.random.Generator) -> AgreementRandomness:
    if not 0 <= t <= dpshape.k:
        raise ValueError(f"need 0 <= t <= {dpshape.k}")
    tied = sum(1 << int(i) for i in rng.choice(dpshape.k, size=t, replace=False))
    return _draw_agreement(dpshape, tied, rng)


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


def exact_alpha_rejection(g: DPFunction, alpha: Fraction = DEFAULT_ALPHA) -> ExactRejection:
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
    _check_budget(space, DEFAULT_BUDGET, "alpha-test enumeration")
    total = shape.domain_size ** 2 * q ** k
    accepting = 0
    for mask in range(1 << k):
        tied = axes_of(mask)
        w = p ** len(tied) * (q - p) ** (k - len(tied))
        w *= prod(shape.sizes[i] for i in tied)
        if w:
            accepting += w * _accepting_pairs(g, tied)
    return ExactRejection(total - accepting, total)


def exact_fixed_t_rejection(g: DPFunction, t: int) -> ExactRejection:
    """Exact rejection of the fixed-intersection test with |T| = t.

    Each T of size t weighs prod_{i in T} N_i per pair (x, y) that agrees on
    T, and its accepting pairs are counted as in exact_alpha_rejection.
    """
    shape = g.dpshape
    k = shape.k
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= {k}")
    space = shape.domain_size * comb(k, t) * shape.domain_size
    _check_budget(space, DEFAULT_BUDGET, "fixed-t enumeration")
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
    decoded = direct_product(shape, comps)
    agree = int(np.count_nonzero((g.table == decoded.table).all(axis=1)))
    return PluralityDecode(shape, tuple(comps), Fraction(agree, shape.domain_size))


# ---------------------------------------------------------------------------
# The affine bridge from tensors to direct products
# ---------------------------------------------------------------------------


def sic_to_dp_bridge(f: BinaryTensor, anchor: Point) -> DPFunction:
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
    _check_budget(f.shape.size * (2 << d), DEFAULT_BUDGET, "bridge enumeration")
    g = f if f.value(anchor) == 0 else flip(f)
    diff = (f.shape.point_array() - anchor) * np.asarray(f.shape.strides)
    flat_a = np.full(f.shape.size, f.shape.index_of(anchor), dtype=np.int64)
    table = np.zeros((f.shape.size, d), dtype=np.int64)
    for _, pairs, cubes in _cubes(flat_a, diff):
        _, masks, _ = _affine_fits(g.bits[cubes])
        # Bit j of a mask is the pair's j-th differing axis.
        on = diff[pairs] != 0
        table[pairs] = (masks[:, None] >> (np.cumsum(on, axis=1) - on)) & on
    return DPFunction(DPShape(f.shape.dims, 2), table)


# ---------------------------------------------------------------------------
# Exact pair distributions for the sampler identities
# ---------------------------------------------------------------------------


def _product_law(per_axis: Sequence[dict]) -> dict:
    """Joint law over (x, y, mask) of independent per-axis laws over (v, w, tie)."""
    out = {((), (), 0): Fraction(1)}
    for i, law in enumerate(per_axis):
        out = {(x + (v,), y + (w,), mask | tie << i): p * q
               for (x, y, mask), p in out.items() for (v, w, tie), q in law.items() if q}
    return out


def _alpha_axis(n: int, alpha: Fraction) -> dict:
    """One coordinate of the alpha test: v uniform, tied with probability alpha, else w uniform."""
    law = {(v, w, 0): (1 - alpha) / n ** 2 for v in range(n) for w in range(n)}
    return law | {(v, v, 1): alpha / n for v in range(n)}


def bridge_pair_distribution(shape: Shape, tie: Fraction = DEFAULT_ALPHA) -> dict:
    """Exact law of the correlated pair (b, b') used by the bridge experiment.

    Per coordinate: keep b's value with probability `tie`, otherwise resample
    uniformly among the other values.  Size-one axes always tie.
    """
    def axis(n):
        return {(v, w, int(v == w)): Fraction(1, n) * (tie if v == w else (1 - tie) / (n - 1))
                if n > 1 else Fraction(1) for v in range(n) for w in range(n)}
    law = _product_law([axis(n) for n in shape.dims])
    return {(b, b2): p for (b, b2, _), p in law.items()}


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
    """Exact law of (x, y, tied mask) under the alpha agreement test."""
    return _product_law([_alpha_axis(n, Fraction(alpha)) for n in dpshape.sizes])


def two_step_alpha_pair_distribution(dpshape: DPShape, alpha: Fraction) -> dict:
    """Law of (y, y', mask tied in both) from alpha draws (x, y), (x, y') sharing x.

    Coordinatewise this reproduces a single draw at rate alpha^2, which the
    exhaustive equality test pins down.
    """
    per_axis = []
    for n in dpshape.sizes:
        step, law = _alpha_axis(n, Fraction(alpha)), {}
        for ((v, w, s), p), ((v2, w2, s2), q) in itertools.product(step.items(), repeat=2):
            if v == v2:  # p and q each hold x's 1/n: keep one
                law[w, w2, s & s2] = law.get((w, w2, s & s2), 0) + p * q * n
        per_axis.append(law)
    return _product_law(per_axis)


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
