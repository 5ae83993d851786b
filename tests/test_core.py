"""Domain types, subcube combinatorics, distance, and the text format."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank1check.core import (
    BinaryTensor,
    CubePoint,
    DirectSum,
    MaskMismatchError,
    Shape,
    ShapeMismatchError,
    TensorFormatError,
    axes_of,
    delta,
    distance,
    flip,
    full_mask,
    materialize,
    reindex,
    splice,
    tensor_from_text,
    tensor_to_text,
)


def scatter_bits(mask, packed):
    """Spread the low bits of `packed` onto the set bits of `mask`, in order."""
    return sum(1 << axis for k, axis in enumerate(axes_of(mask)) if (packed >> k) & 1)


def cube_points(mask):
    """All 2^|mask| cube vertices, ordered by packed value."""
    for packed in range(1 << mask.bit_count()):
        yield CubePoint(mask, scatter_bits(mask, packed))


def small_shapes():
    return [Shape(d) for d in [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]]


def all_tensors(shape):
    for idx in range(1 << shape.size):
        yield BinaryTensor(shape, [(idx >> i) & 1 for i in range(shape.size)])


@st.composite
def shapes(draw, max_d=3, max_n=3):
    dims = draw(st.lists(st.integers(1, max_n), min_size=1, max_size=max_d))
    return Shape(tuple(dims))


@st.composite
def tensors(draw, shape=None):
    if shape is None:
        shape = draw(shapes())
    bits = draw(st.lists(st.integers(0, 1), min_size=shape.size, max_size=shape.size))
    return BinaryTensor(shape, bits)


class TestShape:
    def test_basic(self):
        sh = Shape((2, 3, 4))
        assert sh.d == 3 and sh.size == 24
        assert sh.strides == (12, 4, 1)
        pts = list(sh.points())
        assert pts[0] == (0, 0, 0) and pts[1] == (0, 0, 1)  # last axis fastest
        assert len(pts) == 24
        for i, p in enumerate(pts):
            assert sh.index_of(p) == i
            assert sh.point_at(i) == p

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Shape(())
        with pytest.raises(ValueError):
            Shape((2, 0))
        with pytest.raises(ValueError):
            Shape((1 << 30, 1 << 30))

    def test_point_array_matches_points(self):
        sh = Shape((2, 3))
        assert np.array_equal(sh.point_array(), np.array(list(sh.points())))


class TestIndexSets:
    def test_mask_round_trip(self):
        assert full_mask(3) == 0b111
        assert scatter_bits(0b101, 0b11) == 0b101
        assert scatter_bits(0b101, 0b10) == 0b100

    def test_cube_point_validation(self):
        with pytest.raises(ValueError):
            CubePoint(0b01, 0b10)
        assert CubePoint(0b11, 0b10) ^ CubePoint(0b11, 0b11) == CubePoint(0b11, 0b01)
        with pytest.raises(MaskMismatchError):
            CubePoint(0b11, 0) ^ CubePoint(0b01, 0)

    def test_cube_enumeration(self):
        pts = list(cube_points(0b101))
        assert len(pts) == 4
        assert {p.bits for p in pts} == {0b000, 0b001, 0b100, 0b101}


class TestDelta:
    def test_identical_points(self):
        assert delta((0, 0, 0), (0, 0, 0)) == 0

    def test_two_axes(self):
        assert delta((0, 1, 0), (0, 0, 1)) == 0b110

    def test_all_differ(self):
        assert delta((1, 1), (0, 0)) == 0b11

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            delta((0, 0), (0, 0, 0))


class TestSplice:
    def test_full_and_empty(self):
        a, b = (1, 2, 3), (4, 5, 6)
        assert splice(a, b, full_mask(3)) == a
        assert splice(a, b, 0) == b

    def test_selected_axes(self):
        assert splice((1, 2, 3), (4, 5, 6), 0b101) == (1, 5, 3)

    def test_equal_inputs(self):
        a = (1, 2, 3)
        for mask in range(8):
            assert splice(a, a, mask) == a


class TestDirectSum:
    def test_eval_examples(self):
        sh = Shape((2, 2))
        ds = DirectSum(sh, [[0, 1], [0, 1]])
        assert ds.eval((1, 1)) == 0
        assert ds.eval((1, 0)) == 1

    def test_zero_materializes_to_zeros(self):
        ds = DirectSum.zero(Shape((2, 2)))
        assert np.array_equal(materialize(ds).bits, np.zeros(4, dtype=np.uint8))

    def test_single_axis_is_component(self):
        ds = DirectSum(Shape((4,)), [[0, 1, 1, 0]])
        assert list(materialize(ds).bits) == [0, 1, 1, 0]

    def test_xor_table(self):
        ds = DirectSum(Shape((2, 2)), [[0, 1], [0, 1]])
        assert list(materialize(ds).bits) == [0, 1, 1, 0]

    def test_canonical_form(self):
        sh = Shape((2, 3))
        ds = DirectSum(sh, [[0, 1], [1, 0, 1]])
        assert int(ds.components[1][0]) == 0
        # Constants moved, function unchanged.
        raw = DirectSum(sh, [[0, 1], [1, 0, 1]])
        for p in sh.points():
            assert raw.eval(p) == (0 ^ int([0, 1][p[0]])) ^ int([1, 0, 1][p[1]])

    def test_count_and_enumeration(self):
        for sh in [Shape((2, 2)), Shape((2, 2, 2)), Shape((3, 2))]:
            sums = list(DirectSum.enumerate_all(sh))
            assert len(sums) == DirectSum.count(sh)
            encodings = [ds.encoding() for ds in sums]
            assert encodings == sorted(encodings)
            assert len(set(encodings)) == len(sums)

    @given(st.data())
    @settings(max_examples=60)
    def test_materialize_matches_broadcast_xor(self, data):
        # The reference: start from zeros and XOR in each component along
        # its own axis, one full pass per axis.
        shape = data.draw(shapes(max_d=5, max_n=4))
        comps = [data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                 for n in shape.dims]
        ds = DirectSum(shape, comps)
        expected = np.zeros(shape.dims, dtype=np.uint8)
        for axis, comp in enumerate(ds.components):
            view = [1] * shape.d
            view[axis] = shape.dims[axis]
            expected ^= comp.reshape(view)
        assert np.array_equal(ds.materialize().as_nd(), expected)

    def test_canonicalization_soundness_exhaustive(self):
        # Equal materializations iff equal canonical forms, over every pair
        # of direct sums on (2,2,2).
        sh = Shape((2, 2, 2))
        sums = list(DirectSum.enumerate_all(sh))
        mats = [materialize(ds) for ds in sums]
        for i, j in itertools.product(range(len(sums)), repeat=2):
            assert (mats[i] == mats[j]) == (sums[i] == sums[j])


class TestDistance:
    def test_self_distance(self):
        f = BinaryTensor(Shape((2, 2)), [0, 1, 1, 0])
        assert distance(f, f) == 0

    def test_single_disagreement(self):
        f = BinaryTensor(Shape((2, 2)), [0, 0, 0, 0])
        g = BinaryTensor(Shape((2, 2)), [0, 0, 1, 0])
        assert distance(f, g) == Fraction(1, 4)

    def test_complement(self):
        f = BinaryTensor(Shape((2, 2)), [0, 1, 1, 0])
        assert distance(f, flip(f)) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            distance(BinaryTensor(Shape((2,)), [0, 1]),
                     BinaryTensor(Shape((3,)), [0, 1, 0]))

    @given(st.data())
    @settings(max_examples=50)
    def test_metric(self, data):
        shape = data.draw(shapes())
        f = data.draw(tensors(shape))
        g = data.draw(tensors(shape))
        h = data.draw(tensors(shape))
        assert distance(f, g) == distance(g, f)
        assert distance(f, h) <= distance(f, g) + distance(g, h)
        assert (distance(f, g) == 0) == (f == g)


class TestReindexFlip:
    def test_identity_permutations(self):
        f = BinaryTensor(Shape((2, 3)), [0, 1, 0, 1, 1, 0])
        assert reindex(f, [[0, 1], [0, 1, 2]]) == f

    def test_flip_involution(self):
        f = BinaryTensor(Shape((2, 3)), [0, 1, 0, 1, 1, 0])
        assert flip(flip(f)) == f

    def test_reindex_permutes(self):
        f = BinaryTensor(Shape((2, 2)), [0, 1, 1, 1])
        g = reindex(f, [[1, 0], [0, 1]])
        assert list(g.bits) == [1, 1, 0, 1]

    def test_rejects_non_permutation(self):
        f = BinaryTensor(Shape((2, 2)), [0, 1, 1, 1])
        with pytest.raises(ValueError):
            reindex(f, [[0, 0], [0, 1]])
        with pytest.raises(ValueError):
            reindex(f, [[0, 1]])

    def test_reindex_of_direct_sum_is_direct_sum(self):
        # Brute-force membership on (2,2,2): the image must be one of the
        # sixteen materialized canonical direct sums.
        sh = Shape((2, 2, 2))
        members = {materialize(ds) for ds in DirectSum.enumerate_all(sh)}
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = DirectSum.random(sh, rng)
            perms = [rng.permutation(n).tolist() for n in sh.dims]
            assert reindex(materialize(ds), perms) in members

    @given(st.data())
    @settings(max_examples=40)
    def test_distance_preserved(self, data):
        shape = data.draw(shapes())
        f = data.draw(tensors(shape))
        g = data.draw(tensors(shape))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(n).tolist() for n in shape.dims]
        assert distance(f, g) == distance(reindex(f, perms), reindex(g, perms))
        assert distance(f, g) == distance(flip(f), flip(g))


class TestTextFormat:
    def test_golden(self):
        f = BinaryTensor(Shape((2, 2)), [0, 1, 1, 0])
        assert tensor_to_text(f) == "shape 2 2\n0110\n"

    def test_body_is_one_character_per_bit(self):
        # Pinned against the per-bit writer it replaced.
        rng = np.random.default_rng(22)
        for dims in [(1,), (7,), (1, 5), (3, 1, 4), (1, 1, 1), (2, 1, 3, 1), (9, 11)]:
            sh = Shape(dims)
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            body = "".join("1" if b else "0" for b in f.bits)
            head = " ".join(str(n) for n in dims)
            assert tensor_to_text(f) == f"shape {head}\n{body}\n"

    def test_round_trip(self):
        for sh in small_shapes():
            rng = np.random.default_rng(sh.size)
            f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
            assert tensor_from_text(tensor_to_text(f)) == f

    @pytest.mark.parametrize("body", ["0112", "01/0", "01\x000", "01\u00e90", "0\u20ac10"])
    def test_bad_characters_message(self, body):
        # Characters below "0" wrap to large bytes and non-ASCII ones are
        # read as "?"; every one gets the same message.
        with pytest.raises(TensorFormatError, match="^bit string may contain only 0 and 1$"):
            tensor_from_text(f"shape 2 2\n{body}\n")

    @pytest.mark.parametrize("text", [
        "",
        "shape 2 2\n0110",          # missing trailing newline is fine; this is
        "shape two 2\n0110\n",      # checked below, bad token here
        "shape 2 2\n011\n",         # wrong bit count
        "shape 2 2\n01102\n",       # bad character and wrong count
        "shape 2 2\n0112\n",        # bad character
        "shape 2 2\n0110\n\n",      # extra blank line
        "shape  2 2\n0110\n",       # doubled space
        "shape 02 2\n0110\n",       # leading zero
        "shapes 2 2\n0110\n",       # wrong keyword
        "shape 2 2 0110\n",         # single line
    ])
    def test_rejects_malformed(self, text):
        if text == "shape 2 2\n0110":
            assert tensor_from_text(text) == BinaryTensor(Shape((2, 2)), [0, 1, 1, 0])
            return
        with pytest.raises(TensorFormatError):
            tensor_from_text(text)


class TestTensorValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            BinaryTensor(Shape((2, 2)), [0, 1, 1])

    def test_non_bits(self):
        with pytest.raises(ValueError):
            BinaryTensor(Shape((2,)), [0, 2])

    @pytest.mark.parametrize("bits", [
        np.array([256, 1]), np.array([-255, 1]), [256, 1], np.array([0.5, 1.0]),
    ], ids=["uint8-wrap", "negative-wrap", "list-overflow", "fraction"])
    def test_entries_checked_before_cast(self, bits):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BinaryTensor(Shape((2,)), bits)

    def test_immutable(self):
        f = BinaryTensor(Shape((2,)), [0, 1])
        with pytest.raises((AttributeError, ValueError)):
            f.bits[0] = 1

    @pytest.mark.parametrize("make", [
        lambda: np.zeros(4, dtype=np.uint8),
        lambda: np.zeros((2, 2), dtype=np.uint8),
        lambda: bytearray(4),
        lambda: np.zeros(6, dtype=np.uint8)[1:5],
    ], ids=["flat", "nd", "bytearray", "slice"])
    def test_owns_its_bits(self, make):
        # Writing to the array the tensor was built from must not reach it.
        src = make()
        f = BinaryTensor(Shape((2, 2)), src)
        h = hash(f)
        np.asarray(src).reshape(-1)[0] = 1
        assert f.value((0, 0)) == 0
        assert hash(f) == h
        assert f == BinaryTensor.zeros(Shape((2, 2)))

    def test_every_producer_is_read_only(self):
        sh = Shape((3, 1, 2))
        rng = np.random.default_rng(9)
        f = BinaryTensor(sh, rng.integers(0, 2, sh.size))
        ds = DirectSum.random(sh, rng)
        made = [
            f,
            BinaryTensor.zeros(sh),
            BinaryTensor.from_function(sh, lambda p: p[0] ^ p[2]),
            ds.materialize(),
            materialize(ds),
            flip(f),
            reindex(f, [[2, 0, 1], [0], [1, 0]]),
            tensor_from_text(tensor_to_text(f)),
        ]
        for g in made:
            assert not g.bits.flags.writeable
            with pytest.raises(ValueError):
                g.bits[0] = 1
        for c in ds.components:
            assert not c.flags.writeable
