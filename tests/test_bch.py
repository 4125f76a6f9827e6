"""Tests for BCH construction and the algebraic decoder.

The syndrome-table decoder is the algebraic decoder's oracle: for
designed distance 2t+1 both are the same bounded-distance map.  Codes
with more than 24 checks have no table; there the oracle is
``ReferenceBchDecoder``, the general (all 2t steps) Berlekamp-Massey
decoder over field tables of its own.
"""

import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauth import analytics, cli
from qauth.adversary import (
    ABORT,
    RESEND_UNCORRECTED,
    InterceptResendStrategy,
    NoMessageStrategy,
)
from qauth.bch import (
    BchAlgebraicDecoder,
    bch_field,
    bch_generator_poly,
    column_syndromes,
)
from qauth.codes import LinearCode, build_bch, syndrome_table_decoder
from qauth.errors import UnsupportedSizeError
from qauth.gf2 import BitWord, DEFAULT_PRIMITIVE_POLY, GF2m
from qauth.verify import monte_carlo

# (w, t) -> (n, m) for the standard parameter grid
GRID = {
    (6, 1): (63, 57),
    (6, 2): (63, 51),
    (6, 10): (63, 18),
    (6, 13): (63, 10),
    (7, 1): (127, 120),
    (7, 2): (127, 113),
    (7, 15): (127, 36),
    (7, 23): (127, 22),
}


def _mask(positions):
    return sum(1 << j for j in positions)


def _syndrome_lanes(decoder, word):
    """[S_1, .., S_2t]: the byte lanes of ``decoder.syndromes(word)``."""
    return list(decoder.syndromes(word).to_bytes(2 * decoder.t, "little"))


@pytest.fixture(scope="module")
def grid_codes():
    return {wt: build_bch(*wt) for wt in GRID}


class TestConstruction:
    @pytest.mark.parametrize("wt,nm", sorted(GRID.items()))
    def test_dimensions(self, grid_codes, wt, nm):
        code = grid_codes[wt]
        assert (code.n, code.m) == nm
        assert code.t == wt[1]

    @pytest.mark.parametrize("w,t", [(4, 1), (4, 2), (5, 3)])
    def test_small_fields(self, w, t):
        code = build_bch(w, t)
        assert code.n == (1 << w) - 1
        assert len(code.generator.row_reduce().rows) == code.m

    def test_generator_poly_divides_xn_plus_1(self):
        # long division over GF(2) on packed ints: bit i = coefficient of x^i
        g = bch_generator_poly(GF2m(6, DEFAULT_PRIMITIVE_POLY[6]), 10)
        rem, deg = (1 << 63) | 1, g.bit_length() - 1
        while rem.bit_length() - 1 >= deg:
            rem ^= g << (rem.bit_length() - 1 - deg)
        assert rem == 0

    def test_generator_poly_has_designed_roots(self, grid_codes):
        # every row x^i·g(x) has alpha..alpha^(2t) as roots: S_1..S_2t = 0
        small = [build_bch(w, t) for w, t in [(3, 1), (4, 2), (5, 3), (5, 7)]]
        for code in small + list(grid_codes.values()):
            for row in code.generator.rows:
                assert not any(_syndrome_lanes(code.decoder, row)), code.name

    def test_generator_polys_match_lin_costello(self):
        # Lin & Costello, Error Control Coding, App. C, by (w, t); octal,
        # highest degree first, which is the packing bit i = coefficient of x^i
        table = {
            (4, 1): 0o23, (4, 2): 0o721, (4, 3): 0o2467,
            (5, 1): 0o45, (5, 2): 0o3551, (5, 3): 0o107657,
            (5, 5): 0o5423325, (5, 7): 0o313365047,
            (6, 1): 0o103, (6, 2): 0o12471, (6, 3): 0o1701317,
            (7, 1): 0o211, (7, 2): 0o41567,
        }
        for (w, t), g in table.items():
            assert bch_generator_poly(GF2m(w, DEFAULT_PRIMITIVE_POLY[w]), t) == g, (w, t)
            # build_bch spans the code with the shifts of this g
            code = build_bch(w, t)
            assert code.m == code.n - (g.bit_length() - 1), (w, t)
            assert all(code.is_codeword(g << i) for i in range(code.m)), (w, t)
            assert code.field_info["primitive_poly"] == DEFAULT_PRIMITIVE_POLY[w]

    def test_rejects_bad_w(self):
        with pytest.raises(UnsupportedSizeError):
            build_bch(9, 1)

    def test_rejects_degenerate_t(self):
        with pytest.raises(ValueError):
            build_bch(6, 0)

    def test_every_bch_code_decodes_algebraically(self, grid_codes):
        small = [build_bch(w, t) for w, t in [(3, 1), (4, 2), (5, 3)]]
        for code in small + list(grid_codes.values()):
            assert isinstance(code.decoder, BchAlgebraicDecoder), code.name

    def test_hamming_via_bch(self):
        # t=1 BCH of length 7 is the [7,4] Hamming code
        code = build_bch(3, 1)
        assert (code.n, code.m, code.t) == (7, 4, 1)
        assert code.weight_distribution() == [1, 0, 0, 7, 7, 0, 0, 1]


class TestDecoding:
    @pytest.mark.parametrize("wt", sorted(GRID))
    def test_roundtrip_within_t(self, grid_codes, wt):
        code = grid_codes[wt]
        rng = random.Random(2024)
        for _ in range(200):
            msg = BitWord(rng.getrandbits(code.m), code.m)
            cw = code.encode(msg)
            errors = rng.sample(range(code.n), rng.randint(0, code.t))
            received = cw ^ _mask(errors)
            ok, flips = code.decode(received)
            assert ok
            decoded = received ^ flips
            assert decoded == cw
            assert code.message_of(decoded) == msg
            assert flips == _mask(errors)

    def test_beyond_t_is_failure_or_codeword(self, grid_codes):
        code = grid_codes[(6, 2)]
        rng = random.Random(99)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            errors = rng.sample(range(code.n), 3)
            received = cw ^ _mask(errors)
            ok, flips = code.decode(received)
            outcomes[ok] += 1
            if ok:
                assert code.is_codeword(received ^ flips)
                assert flips.bit_count() <= code.t
        assert outcomes[False] > 0  # weight-3 errors mostly uncorrectable

    def test_algebraic_agrees_with_table_decoder(self, grid_codes):
        code = grid_codes[(6, 1)]
        table = syndrome_table_decoder(code.parity_check, code.t)
        rng = random.Random(5)
        for _ in range(200):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            errors = rng.sample(range(code.n), rng.randint(0, 1))
            received = cw ^ _mask(errors)
            assert code.decoder(received) == table(received)

    def test_random_words_decode_consistently(self, grid_codes):
        # on arbitrary words both are the same bounded-distance decoder
        code = grid_codes[(6, 1)]
        table = syndrome_table_decoder(code.parity_check, code.t)
        rng = random.Random(6)
        for _ in range(100):
            received = rng.getrandbits(63)
            ok, flips = code.decoder(received)
            assert (ok, flips) == table(received)
            if ok:
                assert code.is_codeword(received ^ flips)
                assert flips.bit_count() <= code.t

    def test_zero_word_decodes_clean(self, grid_codes):
        code = grid_codes[(7, 23)]
        assert code.decode(0) == (True, 0)

    def test_syndromes_of_codewords_vanish(self, grid_codes):
        code = grid_codes[(6, 10)]
        decoder = code.decoder
        assert isinstance(decoder, BchAlgebraicDecoder)
        rng = random.Random(11)
        for _ in range(20):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            assert not any(_syndrome_lanes(decoder, cw))


def _assert_decoders_agree(code, values):
    table = syndrome_table_decoder(code.parity_check, code.t)
    for received in values:
        assert code.decoder(received) == table(received), received


class TestAlgebraicMatchesTable:
    def test_every_word_of_bch_15_7_2(self):
        _assert_decoders_agree(build_bch(4, 2), range(1 << 15))

    @pytest.mark.parametrize("w", [4, 5])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_patterns_up_to_weight_t_plus_1(self, w, t):
        code = build_bch(w, t)
        rng = random.Random(1000 * w + t)
        cw = code.encode(BitWord(rng.randrange(1, 1 << code.m), code.m))
        patterns = (
            sum(1 << p for p in positions)
            for weight in range(t + 2)
            for positions in combinations(range(code.n), weight)
        )
        _assert_decoders_agree(code, (cw ^ e for e in patterns))


class ReferenceBchDecoder:
    """Syndromes, Berlekamp-Massey over all 2t steps, Chien search, re-check.

    The general algorithm: it uses neither S_2k = S_k^2 nor an early
    exit, so it checks both.  Its antilog/log lists are built here from
    ``field.primitive_poly`` by shift-and-reduce, so it shares no table
    with the decoder it checks, and its syndromes and Chien search are
    numpy reductions, not the decoder's byte lanes.
    """

    def __init__(self, field, t):
        self.t, self.n = t, field.order
        antilog, x = [], 1
        for _ in range(self.n):
            antilog.append(x)
            x <<= 1
            if x >> field.w:
                x ^= field.primitive_poly
        self._antilog = antilog
        self._log = {a: k for k, a in enumerate(antilog)}
        js = np.arange(self.n, dtype=np.int64)
        self._pow = np.array(
            [[self.alpha_pow(i * j) for j in range(self.n)] for i in range(1, 2 * t + 1)],
            dtype=np.int64,
        )
        ks = np.arange(1, 2 * t + 1, dtype=np.int64)
        self._neg_jk = (-np.outer(ks, js)) % self.n
        self._exp = np.array(antilog, dtype=np.int64)

    def alpha_pow(self, k):
        return self._antilog[k % self.n]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.alpha_pow(self._log[a] + self._log[b])

    def inv(self, a):
        return self.alpha_pow(-self._log[a])

    def syndromes(self, received):
        idx = [j for j in range(self.n) if (received >> j) & 1]
        if not idx:
            return [0] * (2 * self.t)
        return [int(s) for s in np.bitwise_xor.reduce(self._pow[:, idx], axis=1)]

    def berlekamp_massey(self, syndromes):
        c = [1] + [0] * (2 * self.t)
        b = [1] + [0] * (2 * self.t)
        big_l, shift, last_d = 0, 1, 1
        for step, s in enumerate(syndromes):
            d = s
            for i in range(1, big_l + 1):
                d ^= self.mul(c[i], syndromes[step - i])
            if d == 0:
                shift += 1
                continue
            coef = self.mul(d, self.inv(last_d))
            prev_c = c[:]
            for i in range(0, len(b) - shift):
                c[i + shift] ^= self.mul(coef, b[i])
            if 2 * big_l <= step:
                big_l = step + 1 - big_l
                b, last_d, shift = prev_c, d, 1
            else:
                shift += 1
        return c[: big_l + 1], big_l

    def __call__(self, received):
        syn = self.syndromes(received)
        if not any(syn):
            return True, 0
        locator, degree = self.berlekamp_massey(syn)
        if degree > self.t:
            return False, 0
        vals = np.full(self.n, locator[0], dtype=np.int64)
        for k in range(1, len(locator)):
            if locator[k]:
                logc = self._log[locator[k]]
                vals ^= self._exp[(logc + self._neg_jk[k - 1]) % self.n]
        roots = [int(j) for j in np.nonzero(vals == 0)[0]]
        if len(roots) != degree:
            return False, 0
        for i in range(2 * self.t):
            s = syn[i]
            for j in roots:
                s ^= self.alpha_pow((i + 1) * j)
            if s:
                return False, 0
        return True, _mask(roots)


class TestAlgebraicMatchesReference:
    # w = 8 fills the whole byte lane; (8, 1) is perfect, so every word
    # that is not a codeword reaches Chien search
    @pytest.mark.parametrize("wt", sorted(GRID) + [(5, 7), (8, 1), (8, 12)])
    def test_random_words_and_beyond_t_patterns(self, wt, monkeypatch):
        code = build_bch(*wt)
        decoder = code.decoder
        reference = ReferenceBchDecoder(decoder.field, code.t)
        # Chien search never reads the locator's constant term, so a
        # register that leaves it dirty still decodes every word right
        locators = []
        berlekamp_massey = decoder._berlekamp_massey

        def recorded(syn):
            locator = berlekamp_massey(syn)
            locators.append(locator)
            return locator

        monkeypatch.setattr(decoder, "_berlekamp_massey", recorded)
        rng = random.Random(4000 + 10 * wt[0] + wt[1])
        for k in range(2000):
            if k % 2:
                received = rng.getrandbits(code.n)
            else:
                cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
                received = cw ^ _mask(rng.sample(range(code.n), code.t + 1 + k % 3))
            assert decoder(received) == reference(received), received
        returned = [locator for locator in locators if locator is not None]
        assert returned and all(locator[0] == 1 for locator in returned)

    @pytest.mark.parametrize("wt", sorted(GRID) + [(5, 7), (8, 1), (8, 12)])
    def test_syndrome_lanes(self, wt):
        # lane k-1 is S_k, and the even lanes are the squares S_2k = S_k^2
        code, reference = _code_and_reference(*wt)
        decoder = code.decoder
        rng = random.Random(5000 + 10 * wt[0] + wt[1])
        for _ in range(300):
            word = rng.getrandbits(code.n)
            lanes = _syndrome_lanes(decoder, word)
            assert lanes == reference.syndromes(word), word
            for k in range(1, code.t + 1):
                assert lanes[2 * k - 1] == reference.mul(lanes[k - 1], lanes[k - 1])

    # A codeword of the supercode BCH(w, t'), t' < t, has S_1..S_(k-1) = 0
    # and S_k != 0 for some k > 2t'.  With t < k < 2t - 1, Berlekamp-Massey
    # sets L = k > t at step k - 1, before its last step, so it exits early.
    @pytest.mark.parametrize("wt,supercode", [((5, 7), (5, 5)), ((7, 23), (7, 15))])
    def test_locator_passing_t_early(self, wt, supercode):
        code, sup = build_bch(*wt), build_bch(*supercode)
        decoder = code.decoder
        rng = random.Random(17)
        word = sup.encode(BitWord(rng.randrange(1, 1 << sup.m), sup.m))
        lanes = _syndrome_lanes(decoder, word)
        k = next(i for i, s in enumerate(lanes, start=1) if s)
        assert code.t < k < 2 * code.t - 1
        assert decoder._berlekamp_massey(decoder.syndromes(word)) is None
        reference = ReferenceBchDecoder(decoder.field, code.t)
        assert decoder(word) == reference(word) == (False, 0)


class TestReciprocalField:
    """A BCH code over the reciprocal of the default primitive polynomial.

    Its rows are the shifts of the generator over that field, so it is
    another code with the same n and m; the first decode builds the
    decoder over the field the constructor resolved, not the default.
    """

    @staticmethod
    def _code(w, t, poly):
        g = bch_generator_poly(bch_field(w, poly), t)
        n = (1 << w) - 1
        m = n - (g.bit_length() - 1)
        field_info = {"w": w, "primitive_poly": poly}
        return LinearCode("x", [g << i for i in range(m)], n, t, field_info)

    def test_every_word_of_bch_15_7_2_matches_the_table(self):
        code = self._code(4, 2, 0b11001)
        assert code._decoder is None
        _assert_decoders_agree(code, range(1 << 15))
        assert code.decoder.field.primitive_poly == 0b11001

    def test_bch_63_18_matches_the_reference(self):
        code = self._code(6, 10, 0b1100001)
        assert (code.n, code.m) == (63, 18)
        assert code.decode(0) == (True, 0)
        decoder = code.decoder
        assert decoder.field.primitive_poly == 0b1100001
        reference = ReferenceBchDecoder(decoder.field, code.t)
        rng = random.Random(6310)
        for k in range(20000):
            if k % 2:
                received = rng.getrandbits(code.n)
            else:
                cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
                received = cw ^ _mask(rng.sample(range(code.n), k % (code.t + 4)))
            assert code.decode(received) == reference(received), received


class TestLocatorRegister:
    """The locator as read off the register, checked without Chien search."""

    @pytest.mark.parametrize("wt", sorted(GRID) + [(3, 1), (5, 7), (8, 1), (8, 12)])
    def test_locator_is_the_product_over_error_positions(self, wt):
        # for weight <= t, BM's locator is prod (1 + alpha^j x) over e
        code = build_bch(*wt)
        decoder = code.decoder
        reference = ReferenceBchDecoder(decoder.field, code.t)
        rng = random.Random(7000 + 10 * wt[0] + wt[1])
        for k in range(300):
            positions = rng.sample(range(code.n), k % (code.t + 1))
            expected = [1]
            for j in positions:
                root = reference.alpha_pow(j)
                expected = [
                    a ^ reference.mul(root, b)
                    for a, b in zip(expected + [0], [0] + expected)
                ]
            syn = decoder.syndromes(_mask(positions))
            assert list(decoder._berlekamp_massey(syn)) == expected, positions


@lru_cache(maxsize=None)
def _code_and_reference(w, t):
    code = build_bch(w, t)
    return code, ReferenceBchDecoder(code.decoder.field, t)


@given(data=st.data(), w=st.integers(3, 8))
@settings(max_examples=120, deadline=None)
def test_codeword_plus_error_decodes_as_the_reference(data, w):
    t = data.draw(st.integers(1, (1 << (w - 1)) - 1), label="t")
    code, reference = _code_and_reference(w, t)
    cw = code.encode(BitWord(data.draw(st.integers(0, (1 << code.m) - 1)), code.m))
    weight = data.draw(st.integers(0, t + 3), label="weight")
    positions = data.draw(
        st.lists(st.integers(0, code.n - 1), min_size=weight, max_size=weight,
                 unique=True),
        label="positions",
    )
    received = cw ^ _mask(positions)
    assert code.decoder(received) == reference(received)


class TestLazyTables:
    """Decoders and column tables wait for their first use.

    ``LinearCode.decoder`` builds a code's decoder, whole, on its first
    decode; a code's column tables are Bob's test, built on the first
    ``count_codewords``.  Resolving the grid and computing its table
    decodes nothing and tests no word, so it builds no decoder object
    and no column table: their memory and build time stay out of the
    start-up of runs that never need them.  The constructor checks a
    BCH code's rows with ``bch.column_syndromes``, so even it builds no
    decoder, and honest and no-message sessions, which never decode,
    build none either.
    """

    def test_table1_on_the_grid_builds_neither(self):
        codes = [cli.resolve_code(s) for s in cli.DEFAULT_TABLE_CODES]
        assert len(codes) == 8
        analytics.table1(codes)
        for code in codes:
            assert code._decoder is None, code.name
            assert code._column_tables is None, code.name

    def test_table1_on_the_grid_builds_no_multiplication_tables(self):
        # _mul, one translate table per exponent (twice round), is part
        # of the decoder, which the first decode builds whole
        codes = [cli.resolve_code(s) for s in cli.DEFAULT_TABLE_CODES]
        analytics.table1(codes)
        for code in codes:
            assert code._decoder is None, code.name
        code = codes[0]
        code.decode(0b11)
        assert len(code._decoder._mul) == 2 * code.n

    @pytest.mark.parametrize("selector", ["hamming74", "bch-31-6-7"])
    def test_monte_carlo_that_tests_a_readout_builds_column_tables(self, selector):
        # honest sessions test no word; intercept-resend, under either
        # policy, and no-message sessions count Bob's readouts a chunk
        # at a time with count_codewords
        honest = cli.resolve_code(selector)
        monte_carlo(honest, 50, 3)
        assert honest._column_tables is None
        message = BitWord(1, honest.m)
        for adversary in (
            InterceptResendStrategy(message, ABORT),
            InterceptResendStrategy(message, RESEND_UNCORRECTED),
            NoMessageStrategy(message),
        ):
            code = cli.resolve_code(selector)
            monte_carlo(code, 50, 3, adversary)
            assert code._column_tables is not None, adversary

    def test_sessions_that_never_decode_build_no_decoder_table(self):
        code = cli.resolve_code("bch-63-18")
        monte_carlo(code, 50, 3)
        monte_carlo(code, 50, 3, NoMessageStrategy(BitWord(1, code.m)))
        assert code._decoder is None

    def test_first_use_builds_them(self):
        code = build_bch(6, 10)
        assert code._decoder is None
        code.decode(0b111)  # three errors: Chien search finds them
        decoder = code._decoder
        assert isinstance(decoder, BchAlgebraicDecoder)
        assert code.decoder is decoder
        assert len(decoder._byte_rows) == (code.n + 7) // 8
        assert len(decoder._mul) == 2 * code.n
        assert len(decoder._chien_terms) == code.t
        assert code._column_tables is None
        assert code.is_codeword(0)
        assert code._column_tables is not None

    def test_column_syndromes_are_the_syndromes(self, grid_codes):
        # the constructor's row check reads the same linear map the tables hold
        rng = random.Random(17)
        for code in grid_codes.values():
            decoder = code.decoder
            words = [1 << j for j in range(code.n)]
            words += [rng.getrandbits(code.n) for _ in range(200)]
            assert column_syndromes(decoder.field, code.t, words) == [
                decoder.syndromes(word) for word in words
            ], code.name
