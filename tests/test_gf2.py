"""Unit and property tests for the GF(2) linear-algebra layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauth.errors import DimensionError, UnsupportedSizeError
from qauth.gf2 import (
    BitMatrix,
    BitWord,
    DEFAULT_PRIMITIVE_POLY,
    GF2m,
    linear_byte_tables,
    linear_table,
    mat_vec_mul,
)

words = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda v: BitWord(v, n)
    )
)


class TestBitWord:
    def test_bit_order_index_zero_is_first(self):
        w = BitWord.from_str("1101")
        assert [w[0], w[1], w[2], w[3]] == [1, 1, 0, 1]
        assert str(w) == "1101"
        assert list(w) == [1, 1, 0, 1]

    def test_from_bits_roundtrip(self):
        bits = [1, 0, 0, 1, 1]
        assert list(BitWord.from_bits(bits)) == bits

    def test_weight_and_support(self):
        w = BitWord.from_str("01101")
        assert w.value.bit_count() == 3
        assert [j for j in range(len(w)) if w[j]] == [1, 2, 4]

    def test_max_len_guard(self):
        with pytest.raises(UnsupportedSizeError):
            BitWord(0, 1025)

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            BitWord(8, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            BitWord(5, 3)[3]

    @given(words)
    def test_weight_counts_ones(self, w):
        assert w.value.bit_count() == sum(w)


def identity(n):
    return BitMatrix(tuple(1 << i for i in range(n)), n)


class TestBitMatrix:
    def test_identity_rank(self):
        assert len(identity(5).row_reduce().rows) == 5

    def test_from_rows_and_entry(self):
        # rows 101 and 011, column 0 first
        m = BitMatrix((0b101, 0b110), 3)
        assert [[(row >> j) & 1 for j in range(3)] for row in m.rows] == [
            [1, 0, 1],
            [0, 1, 1],
        ]
        assert str(m) == "101\n011"

    def test_row_reduce_idempotent(self):
        m = BitMatrix((0b011, 0b101, 0b110), 3)
        r = m.row_reduce()
        assert r.row_reduce() == r
        assert len(r.rows) == 2  # third row is the sum of the first two

    def test_mat_vec_mul_identity(self):
        v = BitWord.from_str("10110").value
        assert mat_vec_mul(identity(5), v) == v

    @pytest.mark.parametrize("v", [-1, 1 << 5])
    def test_mat_vec_mul_rejects_vectors_outside_the_columns(self, v):
        with pytest.raises(DimensionError):
            mat_vec_mul(identity(5), v)

    @given(st.integers(1, 8), st.data())
    def test_mat_vec_mul_linear(self, n, data):
        rows = tuple(
            data.draw(st.integers(0, (1 << n) - 1)) for _ in range(3)
        )
        m = BitMatrix(rows, n)
        u = data.draw(st.integers(0, (1 << n) - 1))
        v = data.draw(st.integers(0, (1 << n) - 1))
        assert mat_vec_mul(m, u ^ v) == mat_vec_mul(m, u) ^ mat_vec_mul(m, v)


columns_lists = st.lists(st.integers(0, (1 << 64) - 1), max_size=20)


def _image(columns, v):
    """The XOR of ``columns[j]`` over the set bits j of v, bit by bit."""
    image = 0
    for j, column in enumerate(columns):
        if (v >> j) & 1:
            image ^= column
    return image


class TestLinearTables:
    @given(columns_lists, st.data())
    @settings(max_examples=40, deadline=None)
    def test_linear_table_is_the_xor_of_the_selected_columns(self, columns, data):
        table = linear_table(columns)
        assert len(table) == 1 << len(columns)
        if len(columns) <= 10:
            words = range(len(table))
        else:
            words = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=64))
        for v in words:
            assert table[v] == _image(columns, v), v

    @given(columns_lists, st.data())
    def test_byte_tables_sum_to_the_image(self, columns, data):
        tables = linear_byte_tables(columns)
        assert len(tables) == (len(columns) + 7) // 8
        assert all(len(table) == 256 for table in tables)
        word = data.draw(st.integers(0, (1 << len(columns)) - 1))
        image = 0
        for table, byte in zip(tables, word.to_bytes(len(tables), "little")):
            image ^= table[byte]
        assert image == _image(columns, word)


class TestGF2m:
    @pytest.mark.parametrize("w", [2, 3, 4, 6, 7, 8])
    def test_field_axioms_spot(self, w):
        field = GF2m(w, DEFAULT_PRIMITIVE_POLY[w])
        order = field.order
        # multiplicative group is cyclic of size 2^w - 1
        seen = set()
        x = 1
        for _ in range(order):
            seen.add(x)
            x = field.mul(x, 2)  # alpha
        assert len(seen) == order
        for a in range(1, min(order + 1, 40)):
            assert sum(field.mul(a, b) == 1 for b in range(1, order + 1)) == 1
        # the zero-absorbing tables make 0 absorb without a branch
        assert field._log[0] == 2 * order
        for a in range(order + 1):
            assert field.mul(0, a) == field.mul(a, 0) == 0

    def test_non_primitive_poly_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 has order-5 roots, not primitive
        with pytest.raises(ValueError):
            GF2m(4, 0b11111)

    @given(st.sampled_from([3, 4, 6]), st.data())
    @settings(max_examples=50)
    def test_pow_consistent_with_mul(self, w, data):
        # a^k by repeated mul equals alpha^(k·log a) read from the tables
        field = GF2m(w, DEFAULT_PRIMITIVE_POLY[w])
        a = data.draw(st.integers(1, field.order))
        k = data.draw(st.integers(0, 10))
        acc = 1
        for _ in range(k):
            acc = field.mul(acc, a)
        assert acc == field._exp[field._log[a] * k % field.order]

    def test_default_polys_cover_6_and_7(self):
        assert DEFAULT_PRIMITIVE_POLY[6] == 0b1000011
        assert DEFAULT_PRIMITIVE_POLY[7] == 0b10001001
