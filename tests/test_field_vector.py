"""Tests for vectorized GF(p) arithmetic (repro.field.vector)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.field.solinas import P
from repro.field.vector import (
    from_field_array,
    to_field_array,
    vadd,
    vmul,
    vmul_scalar,
    vneg,
    vsub,
)

residues = st.integers(min_value=0, max_value=P - 1)
vectors = st.lists(residues, min_size=1, max_size=64)

#: Values near every carry/borrow boundary of the limb arithmetic.
EDGES = [
    0,
    1,
    2,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    (1 << 63) - 1,
    1 << 63,
    P - 1,
    P - 2,
    P - (1 << 32),
    P - (1 << 32) + 1,
]


class TestConversions:
    def test_roundtrip(self):
        arr = to_field_array(EDGES)
        assert from_field_array(arr) == EDGES

    def test_reduces_on_input(self):
        arr = to_field_array([P, P + 5, -1])
        assert from_field_array(arr) == [0, 5, P - 1]

    def test_dtype(self):
        assert to_field_array([1, 2]).dtype == np.uint64


class TestToFieldMatrix:
    def test_matches_per_row_oracle_int_lists(self):
        from repro.field.vector import to_field_matrix

        rows = [[0, 1, -1, P - 1], [P, P + 5, -(P - 1), 7]]
        want = np.stack([to_field_array(row) for row in rows])
        got = to_field_matrix(rows)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_uint64_rows_canonicalized_exactly(self):
        from repro.field.vector import to_field_matrix

        # Residues >= 2**63 must survive: an unsafe int64 cast would
        # wrap them negative and corrupt the canonical value.
        row = np.array([P - 1, 1, P, np.uint64(2**64 - 1)], dtype=np.uint64)
        want = np.stack([to_field_array([int(v) for v in row])])
        assert np.array_equal(to_field_matrix([row]), want)

    def test_big_python_ints_fall_back_exactly(self):
        from repro.field.vector import to_field_matrix

        rows = [[2**100, -(2**80), 3]]
        want = np.stack([to_field_array(rows[0])])
        assert np.array_equal(to_field_matrix(rows), want)


class TestEdgeMatrix:
    """Exhaustive pairwise edge-value checks for every operation."""

    def setup_method(self):
        pairs = [(a, b) for a in EDGES for b in EDGES]
        self.a = to_field_array([p[0] for p in pairs])
        self.b = to_field_array([p[1] for p in pairs])
        self.ia = [p[0] for p in pairs]
        self.ib = [p[1] for p in pairs]

    def test_vadd(self):
        want = [(x + y) % P for x, y in zip(self.ia, self.ib)]
        assert from_field_array(vadd(self.a, self.b)) == want

    def test_vsub(self):
        want = [(x - y) % P for x, y in zip(self.ia, self.ib)]
        assert from_field_array(vsub(self.a, self.b)) == want

    def test_vmul(self):
        want = [x * y % P for x, y in zip(self.ia, self.ib)]
        assert from_field_array(vmul(self.a, self.b)) == want
        # Same-shape operands take the compiled path whenever it loads.
        taken = native.mul_reduce(self.a, self.b) is not None
        assert taken == native.available()

    def test_vneg(self):
        want = [(-x) % P for x in self.ia]
        assert from_field_array(vneg(self.a)) == want


class TestHypothesisVectors:
    @settings(max_examples=50)
    @given(data=vectors)
    def test_add_matches_scalar(self, data):
        a = to_field_array(data)
        b = to_field_array(list(reversed(data)))
        want = [(x + y) % P for x, y in zip(data, reversed(data))]
        assert from_field_array(vadd(a, b)) == want

    @settings(max_examples=50)
    @given(data=vectors)
    def test_mul_matches_scalar(self, data):
        a = to_field_array(data)
        b = to_field_array(list(reversed(data)))
        want = [x * y % P for x, y in zip(data, reversed(data))]
        assert from_field_array(vmul(a, b)) == want

    @settings(max_examples=50)
    @given(data=vectors, scalar=residues)
    def test_mul_scalar(self, data, scalar):
        a = to_field_array(data)
        want = [x * scalar % P for x in data]
        assert from_field_array(vmul_scalar(a, scalar)) == want
        # A broadcast scalar takes the compiled path whenever it loads.
        s = np.broadcast_to(np.uint64(scalar), a.shape)
        assert (native.mul_reduce(a, s) is not None) == native.available()

    @settings(max_examples=50)
    @given(data=vectors)
    def test_sub_add_roundtrip(self, data):
        a = to_field_array(data)
        b = to_field_array(list(reversed(data)))
        assert from_field_array(vadd(vsub(a, b), b)) == data

    @settings(max_examples=30)
    @given(data=vectors)
    def test_results_canonical(self, data):
        a = to_field_array(data)
        b = to_field_array(list(reversed(data)))
        for out in (vadd(a, b), vsub(a, b), vmul(a, b), vneg(a)):
            assert all(v < P for v in from_field_array(out))


class TestBroadcasting:
    def test_vmul_broadcasts(self):
        a = to_field_array(list(range(12))).reshape(3, 4)
        row = to_field_array([5, 6, 7, 8]).reshape(1, 4)
        out = vmul(a, row)
        assert out.shape == (3, 4)
        assert int(out[2, 3]) == 11 * 8 % P

    def test_vmul_scalar_does_not_materialize(self):
        """The scalar operand is a zero-stride broadcast view."""
        a = to_field_array(EDGES)
        want = [x * 12345 % P for x in EDGES]
        assert from_field_array(vmul_scalar(a, 12345)) == want
        # Scalars are reduced mod p first.
        assert from_field_array(vmul_scalar(a, P + 2)) == [
            x * 2 % P for x in EDGES
        ]


class TestOutParameter:
    """In-place variants: `out=` may alias the operands."""

    def setup_method(self):
        pairs = [(a, b) for a in EDGES for b in EDGES]
        self.a = to_field_array([p[0] for p in pairs])
        self.b = to_field_array([p[1] for p in pairs])

    @pytest.mark.parametrize("op", [vadd, vsub, vmul])
    def test_fresh_out_matches_pure(self, op):
        want = op(self.a, self.b)
        out = np.empty_like(self.a)
        result = op(self.a, self.b, out=out)
        assert result is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("op", [vadd, vsub, vmul])
    def test_out_aliases_first_operand(self, op):
        want = op(self.a, self.b)
        x = self.a.copy()
        op(x, self.b, out=x)
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("op", [vadd, vsub, vmul])
    def test_out_aliases_second_operand(self, op):
        want = op(self.a, self.b)
        y = self.b.copy()
        op(self.a, y, out=y)
        assert np.array_equal(y, want)

    @pytest.mark.parametrize("op", [vadd, vsub, vmul])
    def test_out_aliases_both_operands(self, op):
        want = op(self.a, self.a)
        x = self.a.copy()
        op(x, x, out=x)
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("op", [vadd, vsub, vmul])
    def test_out_aliases_through_distinct_view_objects(self, op):
        """Aliasing must be detected by memory, not object identity:
        x[:] is a different ndarray object over the same buffer."""
        want = op(self.a, self.a)
        x = self.a.copy()
        op(x, x[:], out=x)
        assert np.array_equal(x, want)
        y = self.a.copy()
        op(y[:], y, out=y[:])
        assert np.array_equal(y, want)

    def test_vmul_scalar_out(self):
        want = vmul_scalar(self.a, 99991)
        x = self.a.copy()
        assert vmul_scalar(x, 99991, out=x) is x
        assert np.array_equal(x, want)

    def test_accumulation_loop_stays_canonical(self):
        """The usage pattern of the loop kernel: acc reused in place."""
        acc = self.a.copy()
        term = np.empty_like(acc)
        total = [int(v) for v in self.a]
        for scalar in (P - 1, 1 << 32, 3):
            vmul(self.b, np.broadcast_to(np.uint64(scalar), self.b.shape),
                 out=term)
            vadd(acc, term, out=acc)
            total = [
                (t + int(y) * scalar) % P for t, y in zip(total, self.b)
            ]
        assert from_field_array(acc) == total

    def test_reduce_wide_out(self):
        from repro.field.vector import _mul_wide, _reduce_wide

        hi, lo = _mul_wide(self.a, self.b)
        want = _reduce_wide(hi, lo)
        out = np.empty_like(lo)
        assert _reduce_wide(hi, lo, out=out) is out
        assert np.array_equal(out, want)
        # out aliasing lo (the staged executor's fold does this)
        hi2, lo2 = _mul_wide(self.a, self.b)
        _reduce_wide(hi2, lo2, out=lo2)
        assert np.array_equal(lo2, want)


@pytest.mark.skipif(not native.available(), reason="no C compiler")
class TestCompiledMultiplyReduce:
    """``native.mul_reduce`` (behind ``vmul``) against big-int products,
    on the two layouts it takes, and declining every other layout."""

    VALUES = [0, 1, P - 1, (1 << 32) - 1, (1 << 32) + 1]

    def setup_method(self):
        pairs = [(a, b) for a in self.VALUES for b in self.VALUES]
        self.ia = [a for a, _ in pairs]
        self.ib = [b for _, b in pairs]
        self.a = to_field_array(self.ia)
        self.b = to_field_array(self.ib)
        self.want = [x * y % P for x, y in zip(self.ia, self.ib)]

    @pytest.mark.parametrize("alias", ["a", "b"])
    def test_out_aliases_either_input(self, alias):
        a, b = self.a.copy(), self.b.copy()
        out = a if alias == "a" else b
        assert native.mul_reduce(a, b, out=out) is out
        assert from_field_array(out) == self.want

    def test_operand_broadcast_along_leading_axes(self):
        rows = to_field_array(self.VALUES * 3).reshape(3, 1, 5)
        table = to_field_array(self.VALUES)
        want = [[[x * y % P for x, y in zip(self.VALUES, self.VALUES)]]] * 3
        for b in (
            table,  # fewer dimensions
            table[np.newaxis, np.newaxis, :],  # size-1 leading axes
            np.broadcast_to(table, (3, 1, 5)),  # zero-stride leading axis
        ):
            for x, y in ((rows, b), (b, rows)):  # either operand order
                out = native.mul_reduce(x, y)
                assert out is not None and out.shape == (3, 1, 5)
                assert out.tolist() == want

    def test_broadcast_out_aliasing_the_full_operand(self):
        rows = to_field_array(self.VALUES * 4).reshape(4, 5)
        spectrum = rows[-1:]  # one row broadcast over the others
        want = [
            [x * y % P for x, y in zip(self.VALUES, self.VALUES)]
        ] * 3
        assert native.mul_reduce(rows[:-1], spectrum, out=rows[:-1]) is not None
        assert rows[:-1].tolist() == want

    def test_other_layouts_declined(self):
        grid = to_field_array(self.ia).reshape(5, 5)
        declined = [
            (grid[:, ::2], grid[:, ::2].copy()),  # strided operand
            (grid.T, grid),  # Fortran order
            (grid, grid[:, :1]),  # broadcast along a trailing axis
            (grid.astype(np.int64), grid),  # wrong dtype
        ]
        for x, y in declined:
            assert native.mul_reduce(x, y) is None
        # An out that overlaps an operand without coinciding with it.
        flat = self.a.copy()
        assert native.mul_reduce(flat[1:], flat[:-1], out=flat[:-1]) is None
        # vmul still returns the exact products on a declined layout.
        want = [x * y % P for x, y in zip(self.ia[1:], self.ia[:-1])]
        flat = self.a.copy()
        vmul(flat[1:], flat[:-1], out=flat[:-1])
        assert from_field_array(flat[:-1]) == want

    def test_empty(self):
        empty = np.empty((0, 4), dtype=np.uint64)
        assert vmul(empty, empty).shape == (0, 4)
