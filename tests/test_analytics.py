"""Tests for the exact closed-form probability layer and rendering."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauth.analytics import (
    _decode_terms,
    p_dec,
    p_f_no_message,
    p_f_prime,
    render_fixed,
    render_scientific,
    table1,
    table_to_csv,
)
from qauth.codes import make_hamming_7_4, make_repetition
from qauth.errors import DimensionError
from reference_model import (
    factored_p_dec,
    factored_p_f_prime,
    p_forge_given_i,
    p_weight_le_t_given_i,
    p_x,
)

# (n, t) of the 8 BCH codes of the security table
GRID_NT = [(63, 1), (63, 2), (63, 10), (63, 13), (127, 1), (127, 2), (127, 15), (127, 23)]


class TestNoMessage:
    def test_single_qubit(self):
        assert p_f_no_message(1) == Fraction(3, 4)

    def test_exact_power(self):
        assert p_f_no_message(63) == Fraction(3**63, 4**63)

    def test_rendered_values(self):
        assert render_scientific(p_f_no_message(63)) == "1.3e-08"
        assert render_scientific(p_f_no_message(127)) == "1.4e-16"

    def test_strictly_decreasing_in_n(self):
        values = [p_f_no_message(n) for n in range(1, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_the_sum_over_basis_differences(self, n):
        # each of the 2^n difference patterns d reads the forged word
        # exactly with probability 2^-|d|: sum_d 2^(n - |d|) / 4^n
        total = sum(1 << (n - d.bit_count()) for d in range(1 << n))
        assert p_f_no_message(n) == Fraction(total, 4**n)

    def test_rejects_zero(self):
        with pytest.raises(DimensionError):
            p_f_no_message(0)


class TestBasisMatchDistribution:
    def test_examples(self):
        assert p_x(1, 0) == Fraction(1, 2)
        assert p_x(4, 2) == Fraction(6, 16)

    @pytest.mark.parametrize("n", [1, 3, 7, 63, 127])
    def test_normalization(self, n):
        assert sum(p_x(n, i) for i in range(n + 1)) == 1

    def test_range_check(self):
        with pytest.raises(DimensionError):
            p_x(4, 5)


class TestWeightGivenMatches:
    def test_saturated_region(self):
        assert p_weight_le_t_given_i(5, 2, 5) == 1
        assert p_weight_le_t_given_i(5, 2, 3) == 1

    def test_direct_example(self):
        assert p_weight_le_t_given_i(3, 1, 0) == Fraction(4, 8)

    def test_brute_force_small(self):
        # i matches out of n: the n-i mismatched readouts flip fairly
        n, t = 6, 2
        for i in range(n + 1):
            miss = n - i
            good = sum(
                1 for e in range(1 << miss) if e.bit_count() <= t
            )
            assert p_weight_le_t_given_i(n, t, i) == Fraction(good, 1 << miss)


class TestDecodeProbability:
    def test_single_qubit(self):
        assert p_dec(1, 0) == Fraction(3, 4)

    def test_rep3(self):
        assert p_dec(3, 1) == Fraction(27, 32)

    def test_factored_form_consistency(self):
        # the one integer term list against the product of Fraction factors
        pairs = [(n, t) for n in range(1, 41) for t in range(n)] + GRID_NT
        for n, t in pairs:
            assert p_dec(n, t) == factored_p_dec(n, t), (n, t)
            assert p_f_prime(n, t) == factored_p_f_prime(n, t), (n, t)

    def test_term_list_term_by_term(self):
        # the O(n) recurrence against a_i = C(n,i)·sum_{h<=t} C(n-i,h)·2^i
        pairs = [(n, t) for n in range(1, 41) for t in range(n)]
        pairs += [(n, t) for n in (63, 127) for t in (0, n - 1)] + GRID_NT
        for n, t in pairs:
            expected = [
                comb(n, i) * sum(comb(n - i, h) for h in range(t + 1)) << i
                for i in range(n + 1)
            ]
            assert _decode_terms(n, t) == expected, (n, t)

    @pytest.mark.parametrize("n", [63, 127])
    def test_strictly_increasing_in_t(self, n):
        values = [p_dec(n, t) for t in (1, 2, 10, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounded_below_by_all_match(self):
        # decoding certainly succeeds when every basis matched
        for n, t in [(7, 1), (63, 10)]:
            assert p_dec(n, t) >= Fraction(3, 4) ** n


class TestForgeProbabilities:
    def test_residual_single_miss(self):
        assert p_forge_given_i(5, 2, 2) == Fraction(1, 2)

    def test_example(self):
        assert p_forge_given_i(3, 1, 0) == Fraction(1, 4)
        assert p_forge_given_i(63, 10, 0) == Fraction(1, 2**53)

    def test_saturated_region_rejected(self):
        with pytest.raises(DimensionError):
            p_forge_given_i(5, 2, 3)

    def test_single_qubit_total(self):
        assert p_f_prime(1, 0) == Fraction(5, 8)

    @pytest.mark.parametrize("n,t", [(7, 1), (15, 2), (63, 10), (127, 23)])
    def test_tail_lower_bound(self, n, t):
        from math import comb

        tail = sum(Fraction(comb(n, i), 2**n) for i in range(n - t, n + 1))
        assert p_f_prime(n, t) >= tail

    @given(st.integers(2, 24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_probability_range(self, n, data):
        t = data.draw(st.integers(0, n - 1))
        for p in (p_dec(n, t), p_f_prime(n, t)):
            assert 0 <= p <= 1


class TestRendering:
    def test_two_sig_digits(self):
        assert render_scientific(Fraction(3, 4)) == "7.5e-01"
        assert render_scientific(Fraction(1, 1)) == "1.0e+00"
        assert render_scientific(Fraction(0)) == "0"

    def test_half_to_even(self):
        assert render_scientific(Fraction(125, 1000)) == "1.2e-01"
        assert render_scientific(Fraction(135, 1000)) == "1.4e-01"

    def test_carry_into_next_decade(self):
        assert render_scientific(Fraction(996, 1000)) == "1.0e+00"

    def test_fixed_point(self):
        assert render_fixed(Fraction(127, 120)) == "1.06"
        assert render_fixed(Fraction(3, 1)) == "3.00"


class TestTable:
    def test_security_row_small_code(self):
        (row,) = table1([make_repetition(3)])
        assert row.p_f == Fraction(27, 64)
        assert row.p_dec == Fraction(27, 32)
        assert row.key_overhead == 3

    def test_key_overhead(self):
        (row,) = table1([make_hamming_7_4()])
        assert row.key_overhead == Fraction(7, 4)

    def test_csv_shape(self):
        rows = table1([make_repetition(3), make_hamming_7_4()])
        csv_text = table_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "code,n,m,t,p_f,p_dec,p_f_prime,key_overhead"
        assert len(lines) == 3
        assert lines[1].startswith("rep3,3,1,1,4.2e-01,")

    def test_json_exact_roundtrip(self):
        import json

        rows = table1([make_repetition(3)])
        data = json.loads(json.dumps([row.to_json_dict(exact=True) for row in rows]))
        exact = data[0]["p_f_exact"]
        assert Fraction(int(exact["numerator"]), int(exact["denominator"])) == (
            Fraction(27, 64)
        )
