"""Dense F2 tensors on rectangular product domains, and their direct sums.

Every tensor lives on a domain [n1] x ... x [nd] where [n] = {0, ..., n-1}.
Bits are stored flat in row-major order with the last axis varying fastest;
this layout is part of the on-disk text format and must not change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

Point = tuple[int, ...]

# Total entries must stay addressable as a dense bit array.
MAX_TENSOR_SIZE = 1 << 48


class ShapeMismatchError(ValueError):
    """Operands live on different domains."""


class MaskMismatchError(ValueError):
    """A cube point's axis mask differs from the mask required by context."""


class TensorFormatError(ValueError):
    """Malformed tensor text."""


@dataclass(frozen=True)
class Shape:
    """Rectangular domain [n1] x ... x [nd].

    Axes are numbered 0..d-1.  `size` is the number of points and is bounded
    by MAX_TENSOR_SIZE at construction time.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("a shape needs at least one axis")
        if any(n < 1 for n in dims):
            raise ValueError(f"axis sizes must be positive, got {dims}")
        size = 1
        for n in dims:
            size *= n
            if size > MAX_TENSOR_SIZE:
                raise ValueError(f"domain with {dims} entries is not addressable")
        object.__setattr__(self, "_size", size)
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        object.__setattr__(self, "_strides", tuple(strides))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self._size

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major element strides; index_of(p) == dot(p, strides)."""
        return self._strides

    def points(self) -> Iterator[Point]:
        """All points in row-major order (last axis fastest)."""
        return itertools.product(*(range(n) for n in self.dims))

    def point_array(self) -> np.ndarray:
        """All points as an int64 array of shape (size, d), row-major order."""
        if self.d == 1:
            return np.arange(self.size, dtype=np.int64).reshape(-1, 1)
        grids = np.indices(self.dims, dtype=np.int64)
        return grids.reshape(self.d, -1).T.copy()

    def contains(self, point: Sequence[int]) -> bool:
        return len(point) == self.d and all(
            0 <= x < n for x, n in zip(point, self.dims)
        )

    def require_point(self, point: Sequence[int]) -> Point:
        p = tuple(int(x) for x in point)
        if not self.contains(p):
            raise ValueError(f"point {p} outside domain {self.dims}")
        return p

    def index_of(self, point: Sequence[int]) -> int:
        p = self.require_point(point)
        return sum(x * s for x, s in zip(p, self._strides))

    def point_at(self, index: int) -> Point:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside domain of size {self.size}")
        coords = []
        for s in self._strides:
            coords.append(index // s)
            index %= s
        return tuple(coords)

    def origin(self) -> Point:
        return (0,) * self.d


# ---------------------------------------------------------------------------
# Axis sets and subcube points
# ---------------------------------------------------------------------------
# A set of axes S subseteq {0,...,d-1} is an int bitmask with bit i <-> axis i.


def full_mask(d: int) -> int:
    return (1 << d) - 1


def mask_of(axes: Sequence[int], d: int) -> int:
    m = 0
    for i in axes:
        if not 0 <= i < d:
            raise ValueError(f"axis {i} outside 0..{d - 1}")
        m |= 1 << i
    return m


def axes_of(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError("axis masks are nonnegative")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def scatter_bits(mask: int, packed: int) -> int:
    """Spread the low bits of `packed` onto the set bits of `mask`, in order."""
    out = 0
    for k, axis in enumerate(axes_of(mask)):
        if (packed >> k) & 1:
            out |= 1 << axis
    return out


@dataclass(frozen=True)
class CubePoint:
    """A vertex of the binary cube spanned by the axes in `mask`.

    `bits` records the per-axis choice and may only use axes in the mask.
    """

    mask: int
    bits: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.bits < 0:
            raise ValueError("mask and bits are nonnegative ints")
        if self.bits & ~self.mask:
            raise ValueError(
                f"assignment {self.bits:b} uses axes outside mask {self.mask:b}"
            )

    @property
    def dim(self) -> int:
        return self.mask.bit_count()

    def __xor__(self, other: "CubePoint") -> "CubePoint":
        if self.mask != other.mask:
            raise MaskMismatchError("cube points live on different cubes")
        return CubePoint(self.mask, self.bits ^ other.bits)


def cube_points(mask: int) -> Iterator[CubePoint]:
    """All 2^|mask| cube vertices, ordered by packed value."""
    for packed in range(1 << mask.bit_count()):
        yield CubePoint(mask, scatter_bits(mask, packed))


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------


def as_bits(values, what: str) -> np.ndarray:
    """Values that must each be 0 or 1, as a flat contiguous uint8 array.

    The entries are checked before the cast, so 256 or -255 is refused
    instead of wrapping to a bit.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        # The OR of integer entries lies in [0, 1] exactly when each one does.
        ok = 0 <= np.bitwise_or.reduce(arr, axis=None) <= 1
    else:
        ok = ((arr == 0) | (arr == 1)).all()
    if not ok:
        raise ValueError(f"{what} entries must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8).ravel()


class BinaryTensor:
    """A total function from the domain to F2, stored as a dense bit array."""

    __slots__ = ("shape", "bits")

    def __init__(self, shape: Shape, bits) -> None:
        arr = as_bits(bits, "tensor")
        if arr.size != shape.size:
            raise ValueError(
                f"expected {shape.size} bits for shape {shape.dims}, got {arr.size}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryTensor is immutable")

    @classmethod
    def zeros(cls, shape: Shape) -> "BinaryTensor":
        return cls(shape, np.zeros(shape.size, dtype=np.uint8))

    @classmethod
    def from_function(cls, shape: Shape, fn: Callable[[Point], int]) -> "BinaryTensor":
        return cls(shape, np.fromiter((fn(p) & 1 for p in shape.points()),
                                      dtype=np.uint8, count=shape.size))

    def as_nd(self) -> np.ndarray:
        return self.bits.reshape(self.shape.dims)

    def value(self, point: Sequence[int]) -> int:
        return int(self.bits[self.shape.index_of(point)])

    def __getitem__(self, point: Sequence[int]) -> int:
        return self.value(point)

    def value_at(self, index: int) -> int:
        return int(self.bits[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.shape.dims, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryTensor(dims={self.shape.dims}, weight={int(self.bits.sum())})"


class DirectSum:
    """Per-axis functions f_i: [n_i] -> F2 whose XOR defines a tensor.

    Stored in canonical form: for every axis i >= 1, component i vanishes at
    coordinate 0, with the absorbed constants folded into component 0.  Equal
    canonical forms therefore mean equal materialized tensors and vice versa.
    """

    __slots__ = ("shape", "components")

    def __init__(self, shape: Shape, components) -> None:
        comps = [as_bits(c, "component") for c in components]
        if len(comps) != shape.d:
            raise ValueError(f"need {shape.d} components, got {len(comps)}")
        for i, (c, n) in enumerate(zip(comps, shape.dims)):
            if c.size != n:
                raise ValueError(f"component {i} has {c.size} entries, axis needs {n}")
        # Fold each later component's value at 0 into component 0.
        carry = 0
        for c in comps[1:]:
            carry ^= int(c[0])
        canon = [comps[0] ^ np.uint8(carry)]
        canon.extend(c ^ c[0] for c in comps[1:])
        for c in canon:
            c.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "components", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("DirectSum is immutable")

    @classmethod
    def zero(cls, shape: Shape) -> "DirectSum":
        return cls(shape, [np.zeros(n, dtype=np.uint8) for n in shape.dims])

    @classmethod
    def random(cls, shape: Shape, rng: np.random.Generator) -> "DirectSum":
        return cls(shape, [rng.integers(0, 2, size=n, dtype=np.uint8)
                           for n in shape.dims])

    def eval(self, point: Sequence[int]) -> int:
        p = self.shape.require_point(point)
        v = 0
        for comp, x in zip(self.components, p):
            v ^= int(comp[x])
        return v

    def materialize(self) -> BinaryTensor:
        arr = np.zeros(self.shape.dims, dtype=np.uint8)
        for axis, comp in enumerate(self.components):
            view = [1] * self.shape.d
            view[axis] = self.shape.dims[axis]
            arr ^= comp.reshape(view)
        return BinaryTensor(self.shape, arr)

    def encoding(self) -> bytes:
        """Canonical bit-string: component bits concatenated in axis order."""
        return np.concatenate(self.components).tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectSum):
            return NotImplemented
        return self.shape == other.shape and self.encoding() == other.encoding()

    def __hash__(self) -> int:
        return hash((self.shape.dims, self.encoding()))

    def __repr__(self) -> str:
        comps = [''.join(str(b) for b in c) for c in self.components]
        return f"DirectSum({'+'.join(comps)})"

    @staticmethod
    def count(shape: Shape) -> int:
        """Number of distinct direct sums: 2^(1 + sum(n_i - 1))."""
        return 1 << (1 + sum(n - 1 for n in shape.dims))

    @classmethod
    def enumerate_all(cls, shape: Shape) -> Iterator["DirectSum"]:
        """All canonical direct sums, ordered by their canonical bit-string."""
        first = itertools.product((0, 1), repeat=shape.dims[0])
        rest = [
            [(0,) + tail for tail in itertools.product((0, 1), repeat=n - 1)]
            for n in shape.dims[1:]
        ]
        for combo in itertools.product(first, *rest):
            yield cls(shape, [np.array(c, dtype=np.uint8) for c in combo])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _require_same_length(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ShapeMismatchError(f"points of length {len(a)} and {len(b)}")


def delta(a: Sequence[int], b: Sequence[int]) -> int:
    """Mask of the axes where a and b differ."""
    _require_same_length(a, b)
    m = 0
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            m |= 1 << i
    return m


def splice(a: Sequence[int], b: Sequence[int], mask: int) -> Point:
    """The point taking a's coordinate on axes in `mask` and b's elsewhere."""
    _require_same_length(a, b)
    return tuple(x if (mask >> i) & 1 else y for i, (x, y) in enumerate(zip(a, b)))


def project(a: Sequence[int], b: Sequence[int], x: CubePoint) -> Point:
    """Embed cube vertex x of the cube spanned by delta(a, b) into the domain.

    Axis off the mask: the shared coordinate.  Axis on the mask: b's
    coordinate where the vertex bit is 1, a's where it is 0.
    """
    m = delta(a, b)
    if x.mask != m:
        raise MaskMismatchError(
            f"cube point mask {x.mask:b} differs from delta mask {m:b}"
        )
    return tuple(
        bv if (x.bits >> i) & 1 else av for i, (av, bv) in enumerate(zip(a, b))
    )


def point_with(a: Sequence[int], axis: int, value: int) -> Point:
    """Copy of a with one coordinate replaced."""
    return tuple(value if i == axis else x for i, x in enumerate(a))


def eval_direct_sum(ds: DirectSum, point: Sequence[int]) -> int:
    return ds.eval(point)


def materialize(ds: DirectSum) -> BinaryTensor:
    return ds.materialize()


def _require_same_shape(f: BinaryTensor, g: BinaryTensor) -> None:
    if f.shape != g.shape:
        raise ShapeMismatchError(f"shapes {f.shape.dims} and {g.shape.dims}")


def distance(f: BinaryTensor, g: BinaryTensor) -> Fraction:
    """Exact relative Hamming distance (#disagreements / domain size)."""
    _require_same_shape(f, g)
    return Fraction(int(np.count_nonzero(f.bits ^ g.bits)), f.shape.size)


def flip(f: BinaryTensor) -> BinaryTensor:
    """Add the constant-one function."""
    return BinaryTensor(f.shape, f.bits ^ np.uint8(1))


def reindex(f: BinaryTensor, perms: Sequence[Sequence[int]]) -> BinaryTensor:
    """Precompose with per-axis permutations: g(x) = f(p1(x1), ..., pd(xd))."""
    if len(perms) != f.shape.d:
        raise ValueError(f"need {f.shape.d} permutations, got {len(perms)}")
    idx = []
    for i, (perm, n) in enumerate(zip(perms, f.shape.dims)):
        p = np.asarray(perm, dtype=np.int64)
        if p.size != n or not np.array_equal(np.sort(p), np.arange(n)):
            raise ValueError(f"permutation for axis {i} is not a permutation of [{n}]")
        idx.append(p)
    return BinaryTensor(f.shape, f.as_nd()[np.ix_(*idx)])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
# Line 1: "shape n1 n2 ... nd".  Line 2: the size bits as one 0/1 string in
# row-major order.  Writers emit exactly this (with trailing newline); readers
# reject anything else.


def tensor_to_text(f: BinaryTensor) -> str:
    dims = " ".join(str(n) for n in f.shape.dims)
    body = "".join("1" if b else "0" for b in f.bits)
    return f"shape {dims}\n{body}\n"


def _parse_axis(token: str) -> int:
    if not token.isdigit() or (len(token) > 1 and token[0] == "0"):
        raise TensorFormatError(f"bad axis size {token!r}")
    return int(token)


def tensor_from_text(text: str) -> BinaryTensor:
    lines = text.split("\n")
    if len(lines) == 3 and lines[2] == "":
        lines = lines[:2]
    if len(lines) != 2:
        raise TensorFormatError("expected exactly two lines: header and bits")
    header, body = lines
    tokens = header.split(" ")
    if len(tokens) < 2 or tokens[0] != "shape" or "" in tokens:
        raise TensorFormatError(f"bad header {header!r}")
    shape = Shape(tuple(_parse_axis(t) for t in tokens[1:]))
    if len(body) != shape.size:
        raise TensorFormatError(
            f"expected {shape.size} bits, got {len(body)} characters"
        )
    if set(body) - {"0", "1"}:
        raise TensorFormatError("bit string may contain only 0 and 1")
    return BinaryTensor(shape, np.frombuffer(body.encode("ascii"), dtype=np.uint8)
                        - ord("0"))


def write_tensor(f: BinaryTensor, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(tensor_to_text(f))


def read_tensor(path) -> BinaryTensor:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return tensor_from_text(fh.read())
