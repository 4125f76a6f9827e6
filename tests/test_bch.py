"""Tests for BCH construction and the algebraic decoder.

The syndrome-table decoder is the algebraic decoder's oracle: for
designed distance 2t+1 both are the same bounded-distance map.
"""

import random
from itertools import combinations

import pytest

from qauth.bch import (
    BchAlgebraicDecoder,
    bch_generator_poly,
    build_bch,
    make_bch_spec,
)
from qauth.codes import syndrome_table_decoder
from qauth.errors import UnsupportedSizeError
from qauth.gf2 import BitWord, GF2m, GF2Poly

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
        assert code.generator.rank() == code.m

    def test_generator_poly_divides_xn_plus_1(self):
        spec = make_bch_spec(6, 10)
        assert spec.generator_poly.divides(GF2Poly((1 << 63) | 1))

    def test_generator_poly_has_designed_roots(self):
        spec = make_bch_spec(5, 2)
        field = GF2m(5)
        for k in range(1, 2 * 2 + 1):
            assert field.poly_eval(spec.generator_poly, field.alpha_pow(k)) == 0

    def test_rejects_bad_w(self):
        with pytest.raises(UnsupportedSizeError):
            make_bch_spec(9, 1)

    def test_rejects_degenerate_t(self):
        with pytest.raises(ValueError):
            make_bch_spec(6, 0)

    def test_every_bch_code_decodes_algebraically(self, grid_codes):
        small = [build_bch(w, t) for w, t in [(3, 1), (4, 2), (5, 3)]]
        for code in small + list(grid_codes.values()):
            assert isinstance(code._decoder, BchAlgebraicDecoder), code.name

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
            res = code.decode(cw.flip(errors))
            assert res.ok
            assert res.codeword == cw
            assert res.message == msg
            assert res.corrected_positions == frozenset(errors)

    def test_beyond_t_is_failure_or_codeword(self, grid_codes):
        code = grid_codes[(6, 2)]
        rng = random.Random(99)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            errors = rng.sample(range(code.n), 3)
            res = code.decode(cw.flip(errors))
            outcomes[res.ok] += 1
            if res.ok:
                assert code.is_codeword(res.codeword)
                assert len(res.corrected_positions) <= code.t
        assert outcomes[False] > 0  # weight-3 errors mostly uncorrectable

    def test_algebraic_agrees_with_table_decoder(self, grid_codes):
        code = grid_codes[(6, 1)]
        table = syndrome_table_decoder(code.parity_check, code.t)
        rng = random.Random(5)
        for _ in range(200):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            errors = rng.sample(range(code.n), rng.randint(0, 1))
            received = cw.flip(errors)
            assert code._decoder(received) == table(received)

    def test_random_words_decode_consistently(self, grid_codes):
        # on arbitrary words both are the same bounded-distance decoder
        code = grid_codes[(6, 1)]
        table = syndrome_table_decoder(code.parity_check, code.t)
        rng = random.Random(6)
        for _ in range(100):
            received = BitWord(rng.getrandbits(63), 63)
            ok, positions = code._decoder(received)
            assert (ok, positions) == table(received)
            if ok:
                assert code.is_codeword(received.flip(positions))
                assert len(positions) <= code.t

    def test_zero_word_decodes_clean(self, grid_codes):
        code = grid_codes[(7, 23)]
        res = code.decode(BitWord.zeros(127))
        assert res.ok and res.corrected_positions == frozenset()

    def test_syndromes_of_codewords_vanish(self, grid_codes):
        code = grid_codes[(6, 10)]
        decoder = code._decoder
        assert isinstance(decoder, BchAlgebraicDecoder)
        rng = random.Random(11)
        for _ in range(20):
            cw = code.encode(BitWord(rng.getrandbits(code.m), code.m))
            assert not any(decoder.syndromes(cw))


def _assert_decoders_agree(code, values):
    table = syndrome_table_decoder(code.parity_check, code.t)
    for value in values:
        received = BitWord(value, code.n)
        assert code._decoder(received) == table(received), received


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
        _assert_decoders_agree(code, (cw.value ^ e for e in patterns))


def test_generator_poly_deterministic():
    field = GF2m(6)
    assert bch_generator_poly(field, 3) == bch_generator_poly(field, 3)
