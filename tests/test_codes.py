"""Tests for linear block codes and bounded-distance decoding."""

import itertools
import json
import random
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauth import bch, cli, codes
from qauth.codes import (
    SYNDROME_TABLE_MAX_PATTERNS,
    LinearCode,
    build_bch,
    load_code_spec,
    make_hamming_7_4,
    make_repetition,
    syndrome_table_decoder,
)
from qauth.bch import bch_generator_poly
from qauth.errors import (
    DimensionError,
    ParameterError,
    SpecError,
    UnsupportedSizeError,
)
from qauth.gf2 import DEFAULT_PRIMITIVE_POLY, BitMatrix, BitWord, GF2m, mat_vec_mul
from reference_model import table_decoder


@pytest.fixture(scope="module")
def rep3():
    return make_repetition(3)


@pytest.fixture(scope="module")
def rep5():
    return make_repetition(5)


@pytest.fixture(scope="module")
def rep11():
    return make_repetition(11)


@pytest.fixture(scope="module")
def ham(scope="module"):
    return make_hamming_7_4()


@pytest.fixture(scope="module")
def bch15_7_2():
    return build_bch(4, 2)


@pytest.fixture(scope="module")
def bch31_6_7():
    return build_bch(5, 7)


@pytest.fixture(scope="module")
def random60_30():
    # 30 checks, but only 1831 patterns of weight <= 2 to tabulate
    rng = random.Random(60)
    rows = [(1 << i) | (rng.getrandbits(30) << 30) for i in range(30)]
    return LinearCode("random60_30", rows, 60, 2)


@pytest.fixture(scope="module")
def short_hamming63():
    # the shortened Hamming [6, 3] code that tests/test_verify.py pins
    return LinearCode("short-hamming63", [0b110001, 0b101010, 0b011100], 6, 1)


SMALL_CODES = ["rep3", "rep5", "ham"]
EVERY_FAMILY = SMALL_CODES + [
    "short_hamming63", "random60_30", "bch15_7_2", "bch31_6_7",
]


@pytest.fixture
def code(request):
    return request.getfixturevalue(request.param)


class TestConstruction:
    def test_repetition_parameters(self, rep3, rep5):
        assert (rep3.n, rep3.m, rep3.t) == (3, 1, 1)
        assert (rep5.n, rep5.m, rep5.t) == (5, 1, 2)

    def test_hamming_parameters(self, ham):
        assert (ham.n, ham.m, ham.t) == (7, 4, 1)

    def test_repetition_rejects_even_length(self):
        with pytest.raises(ValueError):
            make_repetition(4)

    @pytest.mark.parametrize("code", EVERY_FAMILY, indirect=True)
    def test_generator_checks_out(self, code):
        # G·Hᵀ = 0, both ranks full, and the pivot readout inverts encode
        assert all(code.is_codeword(row) for row in code.generator.rows)
        assert len(code.generator.row_reduce().rows) == code.m
        assert len(code.parity_check.row_reduce().rows) == code.n - code.m
        for i in range(code.m):
            unit = BitWord(1 << i, code.m)
            assert code.message_of(code.encode(unit)) == unit

    def test_dependent_rows_reduce_to_rank(self):
        # a spanning set with a dependent row yields m = rank, not an error
        code = LinearCode("dep", [0b011, 0b101, 0b110], 3, 0)
        assert code.m == 2
        assert len(code.generator.row_reduce().rows) == 2

    def test_a_negative_t_is_rejected(self):
        # the spec loader and every builder refuse it too; analytics.table1
        # would otherwise be the first to fail, long after the build
        with pytest.raises(ParameterError, match="t=-1 is negative"):
            LinearCode("x", [0b111], 3, -1)

    def test_a_row_wider_than_n_is_rejected(self):
        with pytest.raises(DimensionError, match="row 0x8 wider than 3 columns"):
            LinearCode("x", [0b1000], 3, 0)


class TestFieldCodesAreBch:
    """A code built over a field is checked to be BCH(w, t) before it decodes."""

    FIELD3 = GF2m(3, 0b1011)

    def test_rows_of_another_code_are_rejected(self):
        # the [7, 4] Hamming code holds codewords BCH(3, 2) decodes as errors
        with pytest.raises(ParameterError, match=r"not BCH\(w=3, t=2\), a \[7, 1\]"):
            LinearCode("x", [0b1011 << i for i in range(4)], 7, 2, self.FIELD3)

    @pytest.mark.parametrize("w, t, reversed_poly", [(4, 2, 0b11001), (6, 10, 0b1100001)])
    def test_rows_of_the_reversed_code_are_rejected(self, w, t, reversed_poly):
        # over the reciprocal polynomial, BCH(w, t) has the same n and m
        # but other codewords, so only the rows' remainders by g(x) tell
        # them apart
        code = build_bch(w, t)
        field = GF2m(w, reversed_poly)
        with pytest.raises(ParameterError, match=rf"\[{code.n}, {code.m}\] rows"):
            LinearCode("x", list(code.generator.rows), code.n, t, field)

    def test_rows_spanning_a_subcode_are_rejected(self):
        code = build_bch(4, 2)
        with pytest.raises(ParameterError, match=r"\[15, 6\] rows"):
            LinearCode("x", code.generator.rows[1:], 15, 2, code.field)

    def test_n_other_than_2_to_the_w_minus_1_is_rejected(self):
        with pytest.raises(ParameterError, match=r"\[8, 4\] rows"):
            LinearCode("x", [0b1011 << i for i in range(4)], 8, 1, self.FIELD3)

    @pytest.mark.parametrize("t", [0, 4])
    def test_t_outside_the_designed_range_is_rejected(self, t):
        with pytest.raises(ParameterError, match="designed t"):
            LinearCode("x", [0b1111111], 7, t, self.FIELD3)

    def test_fields_wider_than_a_byte_lane_are_unsupported(self):
        # x^9 + x^4 + 1 is primitive, but GF(2^9) elements overflow a byte lane
        field = GF2m(9, (1 << 9) | (1 << 4) | 1)
        with pytest.raises(UnsupportedSizeError, match=r"outside \[2, 8\]"):
            LinearCode("x", [(1 << 511) - 1], 511, 1, field)

    @pytest.mark.parametrize("w", [0, 1, 9])
    def test_no_field_is_built_for_an_unsupported_exponent(
        self, w, tmp_path, monkeypatch
    ):
        # a spec's w is checked before its field table is built
        def no_field(*args):
            raise AssertionError(f"GF2m{args} built for w={w}")

        monkeypatch.setattr(codes, "GF2m", no_field)
        spec = {"name": "x", "n": 1, "m": 1, "t": 1, "generator_rows": ["1"],
                "field": {"w": w, "primitive_poly": (1 << w) | 1}}
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(UnsupportedSizeError, match=r"outside \[2, 8\]"):
            load_code_spec(path)

    def test_the_cyclic_hamming_code_is_bch_3_1(self):
        code = LinearCode("x", [0b1011 << i for i in range(4)], 7, 1, self.FIELD3)
        assert code.decode(0b1011 ^ 0b100) == (True, 0b100)


class TestOneReduction:
    """A code's G, H, message columns and decoder come from one row reduction."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        row_reduce = BitMatrix.row_reduce

        def counted(matrix):
            calls.append(matrix)
            return row_reduce(matrix)

        monkeypatch.setattr(BitMatrix, "row_reduce", counted)
        return calls

    def test_constructor_reduces_once(self, reductions):
        LinearCode("hamming74", [0b0110001, 0b1010010, 0b1100100, 0b1111000], 7, 1)
        assert len(reductions) == 1
        field = GF2m(4, DEFAULT_PRIMITIVE_POLY[4])
        g = bch_generator_poly(field, 2)
        LinearCode("bch-15-7-2", [g << i for i in range(7)], 15, 2, field)
        assert len(reductions) == 2

    def test_loading_a_spec_reduces_once(self, ham, tmp_path, reductions):
        path = tmp_path / "code.json"
        for code in (ham, build_bch(4, 2)):
            path.write_text(json.dumps(code.to_spec_dict()))
            del reductions[:]
            load_code_spec(path)
            assert len(reductions) == 1, code.name

    def test_code_build_reduces_once(self, reductions, capsys):
        # the ranks it prints are m and n - m, not two more reductions
        assert cli.main(["code", "build", "--bch", "4", "2"]) == 0
        assert len(reductions) == 1
        assert capsys.readouterr().out == (
            "bch-15-7-2: n=15 m=7 t=2 rank(G)=7 rank(H)=8\n"
        )


class TestEncoding:
    def test_hamming_weight_distribution(self, ham):
        assert ham.weight_distribution() == [1, 0, 0, 7, 7, 0, 0, 1]

    @pytest.mark.parametrize(
        "code", SMALL_CODES + ["bch15_7_2", "bch31_6_7"], indirect=True
    )
    def test_weight_distribution_counts_every_codeword(self, code):
        # the Gray-code walk against encoding each message from scratch
        counts = [0] * (code.n + 1)
        for k in range(1 << code.m):
            counts[code.encode(BitWord(k, code.m)).bit_count()] += 1
        assert code.weight_distribution() == counts
        assert len(set(code.codewords())) == 1 << code.m

    def test_weight_distribution_past_m_20_is_unsupported(self):
        code = build_bch(5, 1)  # [31, 26]: 2^26 codewords
        with pytest.raises(UnsupportedSizeError, match="m <= 20"):
            code.weight_distribution()

    def test_repetition_codewords(self, rep3):
        assert set(rep3.codewords()) == {0, 0b111}

    def test_encode_zero_is_zero(self, ham):
        assert ham.encode(BitWord.zeros(4)) == 0

    def test_encode_length_check(self, ham):
        with pytest.raises(DimensionError):
            ham.encode(BitWord(0, 3))

    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_encode_linear(self, code):
        for a, b in itertools.product(range(1 << code.m), repeat=2):
            u, v, w = (BitWord(x, code.m) for x in (a, b, a ^ b))
            assert code.encode(w) == code.encode(u) ^ code.encode(v)

    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_min_distance_supports_t(self, code):
        dist = code.weight_distribution()
        d_min = next(w for w in range(1, code.n + 1) if dist[w])
        assert d_min >= 2 * code.t + 1

    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_message_of_inverts_encode(self, code):
        for k in range(1 << code.m):
            msg = BitWord(k, code.m)
            assert code.message_of(code.encode(msg)) == msg


def _decoded(code, received):
    """(ok, the codeword ``decode`` corrects ``received`` to)."""
    ok, flips = code.decode(received)
    return ok, received ^ flips


class TestDecoding:
    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_roundtrip_within_t(self, code):
        for k in range(1 << code.m):
            msg = BitWord(k, code.m)
            cw = code.encode(msg)
            for weight in range(code.t + 1):
                for positions in itertools.combinations(range(code.n), weight):
                    e = sum(1 << j for j in positions)
                    ok, flips = code.decode(cw ^ e)
                    decoded = cw ^ e ^ flips
                    assert ok
                    assert decoded == cw
                    assert code.message_of(decoded) == msg
                    assert flips == e

    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_bounded_distance_contract(self, code):
        # on any input: failure that flips nothing, or a codeword within
        # distance t
        for received in range(1 << code.n):
            ok, codeword = _decoded(code, received)
            if ok:
                assert code.is_codeword(codeword)
                assert (received ^ codeword).bit_count() <= code.t
            else:
                assert codeword == received

    def test_decode_length_check(self, ham):
        with pytest.raises(DimensionError):
            ham.decode(1 << 7)

    @pytest.mark.parametrize(
        "code",
        ["ham", "short_hamming63", "random60_30", "bch15_7_2", "rep3", "rep11"],
        indirect=True,
    )
    def test_words_outside_n_bits_are_rejected(self, code):
        # -2^n would index a word table from its end
        for word in (-1, -(1 << code.n), 1 << code.n, (1 << 200) | 1):
            with pytest.raises(DimensionError):
                code.decode(word)
            with pytest.raises(DimensionError):
                code.is_codeword(word)

    def test_out_of_range_first_decode_leaves_the_map_intact(self):
        code = make_repetition(5)  # its decode map is not built yet
        for word in (1 << 5, -1, -(1 << 5)):
            with pytest.raises(DimensionError):
                code.decode(word)
        assert code.decode(0b00011) == (True, 0b00011)
        assert code.decode(0b11100) == (True, 0b00011)
        with pytest.raises(DimensionError):
            code.decode(1 << 5)  # now past the end of the built map

    def test_syndrome_table_is_bounded_by_its_pattern_count(self):
        # rep19 has 18 checks, within that bound, but 2^18 patterns of
        # weight <= 9, beyond SYNDROME_TABLE_MAX_PATTERNS = 2^16; the
        # table is built by the first decode, so that is where it fails
        assert SYNDROME_TABLE_MAX_PATTERNS < 1 << 18
        code = make_repetition(19)
        with pytest.raises(UnsupportedSizeError, match="error patterns"):
            code.decode(0)

    def test_majority_vote(self, rep3):
        for received, bit in (("110", 1), ("100", 0)):
            ok, codeword = _decoded(rep3, BitWord.from_str(received).value)
            assert ok and rep3.message_of(codeword) == BitWord(bit, 1)


def _word_table_code(name):
    """A syndrome-table code: a code selector, or one of the codes below."""
    if name == "short-hamming63":
        return LinearCode(name, [0b110001, 0b101010, 0b011100], 6, 1)
    if name == "random-10-6":
        # the [10, 6] code tests/test_verify.py pins: seed 43, d = 3
        randomness = random.Random(43)
        return LinearCode(name, [randomness.getrandbits(10) for _ in range(6)], 10, 1)
    if name == "short-hamming17-12":
        # H = [A | I_5], A's columns the first 12 five-bit values of weight
        # >= 2: 17 distinct nonzero columns, so d = 3, and 14 of the 32
        # syndromes are no pattern of weight <= 1, so some decodes fail
        columns = [v for v in range(32) if v.bit_count() >= 2][:12]
        rows = [(1 << i) | (v << 12) for i, v in enumerate(columns)]
        return LinearCode(name, rows, 17, 1)
    return cli.resolve_code(name)


def _reference_decode(codewords, t, received):
    """(True, received ^ c) for the codeword c within distance t, else (False, 0)."""
    near = [c for c in codewords if (received ^ c).bit_count() <= t]
    assert len(near) <= 1  # 2t < d: at most one codeword is that close
    return (True, received ^ near[0]) if near else (False, 0)


# every syndrome-table code with n <= 16 that the suite builds, and one
# with n = 17, whose 2^17 words exceed the bound: it keeps the byte tables
WORD_TABLE_CODES = [f"rep{n}" for n in range(3, 17, 2)] + [
    "hamming74", "short-hamming63", "random-10-6", "short-hamming17-12",
]


@pytest.mark.parametrize("name", WORD_TABLE_CODES)
def test_decode_matches_the_reference(name):
    code = _word_table_code(name)
    codewords = list(code.codewords())
    rng = random.Random(17)
    words = (
        range(1 << code.n)
        if 1 << code.n <= SYNDROME_TABLE_MAX_PATTERNS
        else [rng.getrandbits(code.n) for _ in range(500)]
    )
    for received in words:
        assert code.decode(received) == _reference_decode(
            codewords, code.t, received
        ), received


# codes small enough to decode every word: each decodes by its decode
# map, built from its family's decoder (Berlekamp-Massey for BCH codes)
FAST_PATH_CODES = [f"rep{n}" for n in range(3, 13, 2)] + [
    "hamming74", "bch-7-4-1", "bch-15-11-1", "bch-15-7-2", "bch-15-5-3",
]


@pytest.mark.parametrize("name", FAST_PATH_CODES)
def test_decode_is_the_syndrome_table_on_every_word(name):
    code = cli.resolve_code(name)
    table = table_decoder(code)
    for word in range(1 << code.n):
        assert code.decode(word) == table(word), word


@st.composite
def _decodable_code(draw):
    """Random rows of n <= 12 bits, at the t their minimum distance corrects."""
    n = draw(st.integers(1, 12), label="n")
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    weights = LinearCode("random", rows, n, 0).weight_distribution()
    d = next(w for w in range(1, n + 1) if weights[w])
    return LinearCode("random", rows, n, (d - 1) // 2)


@given(code=_decodable_code())
@settings(max_examples=60, deadline=None)
def test_decode_is_the_syndrome_table_on_random_codes(code):
    table = table_decoder(code)
    for word in range(1 << code.n):
        assert code.decode(word) == table(word), (code.generator.rows, word)


def _counting(build, calls):
    """``build``, whose decoders append every word they decode to ``calls``."""

    def counted_build(*args):
        decoder = build(*args)

        def counted(word):
            calls.append(word)
            return decoder(word)

        return counted

    return counted_build


class TestDecodeMapByCoset:
    """One map rule for every code with n <= 16, of either family.

    ``LinearCode.decoder`` decodes one leader per syndrome coset with the
    code's own decoder and lays the answers out by word; no code with
    n >= 17 builds a map.
    """

    @pytest.mark.parametrize(
        "name", ["rep15", "hamming74", "bch-7-4-1", "bch-15-7-2", "bch-15-5-3"]
    )
    def test_one_decoder_call_per_coset(self, name, monkeypatch):
        calls = []
        monkeypatch.setattr(
            codes, "syndrome_table_decoder", _counting(syndrome_table_decoder, calls)
        )
        monkeypatch.setattr(
            bch, "BchAlgebraicDecoder", _counting(bch.BchAlgebraicDecoder, calls)
        )
        code = cli.resolve_code(name)
        cosets = 1 << (code.n - code.m)
        code.decoder  # builds the decoder and the map, decoding no word of its own
        assert len(calls) == cosets
        # one leader of each coset: their syndromes are every syndrome
        syndromes = sorted(mat_vec_mul(code.parity_check, w) for w in calls)
        assert syndromes == list(range(cosets))
        assert len(code._decode_map) == 1 << code.n
        for word in range(0, 1 << code.n, 97):
            code.decode(word)
        assert len(calls) == cosets  # the map answers every later word

    @pytest.mark.parametrize("name", ["rep15", "hamming74", "bch-15-7-2"])
    def test_first_decode_reads_its_own_map(self, name, monkeypatch):
        calls = []
        monkeypatch.setattr(
            codes, "syndrome_table_decoder", _counting(syndrome_table_decoder, calls)
        )
        monkeypatch.setattr(
            bch, "BchAlgebraicDecoder", _counting(bch.BchAlgebraicDecoder, calls)
        )
        code = cli.resolve_code(name)
        assert code.decode(0) == (True, 0)
        assert len(calls) == 1 << (code.n - code.m)  # the leaders, and no more

    @pytest.mark.parametrize("name", ["hamming74", "rep17", "bch-15-7-2", "bch-31-6-7"])
    def test_h_columns_are_computed_once(self, name, monkeypatch):
        # a table code's decoder and its map share H's n columns; a BCH
        # code needs them only for its map, its decoder reads bch.syndrome_columns
        calls = []

        def counted(matrix, v):
            calls.append(v)
            return mat_vec_mul(matrix, v)

        monkeypatch.setattr(codes, "mat_vec_mul", counted)
        code = _word_table_code(name)
        code.decode(0)
        needed = code.field is None or code._decode_map is not None
        assert calls == ([1 << j for j in range(code.n)] if needed else [])

    @pytest.mark.parametrize("name", ["rep17", "short-hamming17-12", "bch-31-6-7"])
    def test_no_map_past_n_16(self, name):
        code = _word_table_code(name)
        code.decode(0)
        assert code._decoder is not None
        assert code._decode_map is None


class TestSerialization:
    @pytest.mark.parametrize(
        "code", SMALL_CODES + ["bch15_7_2", "bch31_6_7", "random60_30"], indirect=True
    )
    def test_spec_roundtrip(self, code, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(code.to_spec_dict()))
        loaded = load_code_spec(path)
        assert loaded.generator == code.generator
        assert loaded.parity_check == code.parity_check
        assert (loaded.n, loaded.m, loaded.t) == (code.n, code.m, code.t)
        # the reloaded decoder is the same decoder and behaves identically
        assert type(loaded.decoder) is type(code.decoder)
        rng = random.Random(code.n)
        values = (
            range(0, 1 << code.n, 7)
            if code.n <= 15
            else [rng.getrandbits(code.n) for _ in range(2000)]
        )
        for received in values:
            assert loaded.decode(received) == code.decode(received)

    def test_a_full_code_has_no_parity_rows(self, tmp_path):
        # an [n, n] code has no checks, so H has no rows and every word is
        # a codeword that decodes to itself
        code = LinearCode("full3", [1, 2, 4], 3, 0)
        spec = code.to_spec_dict()
        assert spec["parity_rows"] == []
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        loaded = load_code_spec(path)
        assert loaded.parity_check.rows == code.parity_check.rows == ()
        assert [loaded.decode(w) for w in range(8)] == [(True, 0)] * 8
        assert loaded.count_codewords(bytes(range(8)), 1) == 8

    def test_t_beyond_the_minimum_distance_is_rejected(self, ham, tmp_path):
        # d = 3 corrects one error; with t = 2 the tables of p_dec and
        # p_f_prime would describe a code that does not exist
        spec = ham.to_spec_dict()
        spec["t"] = 2
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError, match="minimum distance 3"):
            load_code_spec(path)

    def test_distance_is_checked_before_the_table_is_built(self, tmp_path):
        # rep19 at t = 10 would tabulate more patterns than the table bound;
        # the error names the distance, so the table was never started
        assert sum(comb(19, h) for h in range(11)) > SYNDROME_TABLE_MAX_PATTERNS
        spec = {"name": "rep19", "n": 19, "m": 1, "t": 10,
                "generator_rows": [format((1 << 19) - 1, "x")]}
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError, match="minimum distance 19"):
            load_code_spec(path)

    @pytest.mark.parametrize("row", ["-7", "0x7", " 7 ", "+7", "7_0", "", "f"])
    def test_malformed_rows_name_the_file(self, row, tmp_path):
        # only hex digits, as code build --out writes them, and at most n bits wide
        spec = {"name": "rep3", "n": 3, "m": 1, "t": 1, "generator_rows": [row]}
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError, match=re.escape(str(path))):
            load_code_spec(path)

    @pytest.mark.parametrize("code", SMALL_CODES, indirect=True)
    def test_unedited_specs_pass_the_distance_check(self, code, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(code.to_spec_dict()))
        assert load_code_spec(path).t == code.t

    @pytest.mark.parametrize("text", [
        "[]",
        '{"name": "x", "n": 3, "m": 1, "t": 1, "generator_rows": ["7"], "field": 5}',
        '{"name": "rep3", "n": 3,',
    ], ids=["spec-not-object", "field-not-object", "spec-not-json"])
    def test_non_object_is_rejected(self, text, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(text)
        with pytest.raises(SpecError):
            load_code_spec(path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:-1] + [rows[-1] ^ 1],
        lambda rows: rows[:-1] + [rows[0]],
    ], ids=["row-outside-the-code", "rows-span-less"])
    def test_bch_spec_with_other_rows_is_rejected(self, bch15_7_2, tmp_path, edit):
        # a row that g(x) does not divide is not in the code; multiples
        # of g(x) spanning fewer than m dimensions are a subcode
        spec = bch15_7_2.to_spec_dict()
        rows = [int(r, 16) for r in spec["generator_rows"]]
        spec["generator_rows"] = [format(r, "x") for r in edit(rows)]
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError):
            load_code_spec(path)

    def test_bch_spec_with_edited_t_is_rejected(self, bch15_7_2, tmp_path):
        # BCH(w=4, t=3) is a [15, 5] code, so these rows cannot be it
        spec = bch15_7_2.to_spec_dict()
        spec["t"] = 3
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecError):
            load_code_spec(path)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_syndrome_zero_iff_codeword_hamming(data):
    code = make_hamming_7_4()
    word = data.draw(st.integers(0, (1 << 7) - 1))
    in_code = any(word == c for c in code.codewords())
    assert code.is_codeword(word) == in_code


def _agrees_with_zero_syndrome(code, word):
    assert code.is_codeword(word) == (mat_vec_mul(code.parity_check, word) == 0), (
        code.name, word,
    )


@st.composite
def _any_code(draw):
    """A code with no structure: pivots anywhere, zero and repeated columns.

    Some draws are the whole space (m = n), a single row, or no row at
    all (m = 0).  t = 0, so the constructor checks no minimum distance.
    """
    n = draw(st.integers(1, 40), label="n")
    shapes = ["random", "whole space", "single row"]
    shape = draw(st.sampled_from(shapes), label="shape")
    if shape == "whole space":
        return LinearCode("any", [(1 << j) ^ draw(st.integers(0, (1 << j) - 1))
                                  for j in range(n)], n, 0)
    count = 1 if shape == "single row" else draw(st.integers(1, n + 2), label="rows")
    kept = draw(st.integers(0, (1 << n) - 1), label="kept columns")  # the rest are 0
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    rows = [r & kept for r in rows]
    for _ in range(draw(st.integers(0, 3), label="copies")):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [r & ~(1 << b) | (r >> a & 1) << b for r in rows]  # column b := a
    return LinearCode("any", rows, n, 0)


@given(code=_any_code(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_is_codeword_is_zero_syndrome_on_any_code(code, data):
    words = data.draw(st.lists(st.integers(0, (1 << code.n) - 1), max_size=8))
    messages = data.draw(st.lists(st.integers(0, (1 << code.m) - 1), max_size=8))
    flip = 1 << data.draw(st.integers(0, code.n - 1), label="flipped position")
    codewords = [code.encode(BitWord(k, code.m)) for k in messages]
    for codeword in codewords:
        assert code.is_codeword(codeword)
    for word in words + codewords + [c ^ flip for c in codewords]:
        _agrees_with_zero_syndrome(code, word)


def _check_codewords_and_neighbours(code, seed):
    rng = random.Random(seed)
    for _ in range(200):
        codeword = code.encode(BitWord(rng.getrandbits(code.m), code.m))
        assert code.is_codeword(codeword)
        flipped = codeword ^ 1 << rng.randrange(code.n)
        for word in (codeword, flipped, rng.getrandbits(code.n)):
            _agrees_with_zero_syndrome(code, word)


@pytest.mark.parametrize(
    "name", WORD_TABLE_CODES + [f"bch-{n}-{m}" for n, m in cli.BCH_PARAMS]
)
def test_is_codeword_is_zero_syndrome_on_pinned_codes(name):
    _check_codewords_and_neighbours(_word_table_code(name), 23)


@pytest.mark.parametrize(
    "code", ["random60_30", "bch15_7_2", "bch31_6_7"], indirect=True
)
def test_is_codeword_is_zero_syndrome_on_fixture_codes(code):
    _check_codewords_and_neighbours(code, 29)


def _slots(words, size):
    return b"".join(word.to_bytes(size, "little") for word in words)


def _check_count_codewords(code, words, rng):
    """count_codewords is the zero-syndrome test, slot by slot, at every slot size.

    H·w = 0 is the reference, independent of the re-encode tables that
    ``count_codewords`` and ``is_codeword`` share.  Slot sizes run from
    ceil(n/8) to ceil(3n/8) bytes; a bit at or past n in any one slot
    raises.
    """
    n = code.n
    flags = [mat_vec_mul(code.parity_check, word) == 0 for word in words]
    for size in range((n + 7) // 8, (3 * n + 7) // 8 + 1):
        assert code.count_codewords(_slots(words, size), size) == sum(flags), size
        for word, flag in zip(words, flags):
            assert code.count_codewords(_slots([word], size), size) == flag
        for _ in range(3 if 8 * size > n else 0):
            bad = list(words)
            bad[rng.randrange(len(bad))] |= 1 << rng.randrange(n, 8 * size)
            with pytest.raises(DimensionError):
                code.count_codewords(_slots(bad, size), size)


def _sample_words(code, rng, count):
    """Codewords, their one-bit neighbours and random words."""
    words = []
    for _ in range(count):
        codeword = code.encode(BitWord(rng.getrandbits(code.m), code.m))
        words += [codeword, codeword ^ 1 << rng.randrange(code.n),
                  rng.getrandbits(code.n)]
    return words


@pytest.mark.parametrize(
    "name", WORD_TABLE_CODES + [f"bch-{n}-{m}" for n, m in cli.BCH_PARAMS]
)
def test_count_codewords_is_is_codeword_on_pinned_codes(name):
    code = _word_table_code(name)
    rng = random.Random(31)
    _check_count_codewords(code, _sample_words(code, rng, 20), rng)


@pytest.mark.parametrize("code", EVERY_FAMILY, indirect=True)
def test_count_codewords_is_is_codeword_on_fixture_codes(code):
    rng = random.Random(37)
    _check_count_codewords(code, _sample_words(code, rng, 20), rng)


@given(code=_any_code(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_count_codewords_is_is_codeword_on_any_code(code, data):
    words = data.draw(st.lists(st.integers(0, (1 << code.n) - 1), min_size=1,
                               max_size=8))
    messages = data.draw(st.lists(st.integers(0, (1 << code.m) - 1), max_size=8))
    words += [code.encode(BitWord(k, code.m)) for k in messages]
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    _check_count_codewords(code, words, rng)


def test_count_codewords_slots_must_hold_n_bits(ham):
    assert ham.count_codewords(b"", 1) == 0
    with pytest.raises(DimensionError):
        ham.count_codewords(bytes(3), 2)  # not a whole number of slots
    code = build_bch(6, 1)  # n = 63: 8 bytes a word
    with pytest.raises(DimensionError):
        code.count_codewords(bytes(7), 7)
