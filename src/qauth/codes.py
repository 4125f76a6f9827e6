"""Binary linear block codes C[n, m, t]: encoding, syndromes, decoding.

The message-to-codeword map is c = k·G with a public G kept in reduced
row echelon form, so the message is read back off the pivot columns.
Decoding is bounded-distance, with one decoder per code family, which
``LinearCode.decoder`` chooses and builds whole on the code's first
decode, so a code that never decodes builds none: BCH codes (those
built over a field) decode algebraically (see the bch module), every
other code by syndrome lookup table.  For n <= 16 it then runs that
syndrome table once on every received word, the whole decode map,
which ``decode`` indexes.  Every decoder returns ``(ok, flips)``:
``flips`` is an int with bit j set for each position j to flip, and 0
when ``ok`` is False.

Inside this layer an n-bit word (codeword, received word, flip mask) is
an int, bit j the symbol at position j; ``BitWord`` carries only the
m-bit messages, whose length the int alone cannot give.
"""

from __future__ import annotations

import json
from itertools import accumulate, combinations
from math import comb
from operator import xor
from string import hexdigits
from typing import Callable, Iterator, Optional

from . import bch
from .errors import DimensionError, ParameterError, SpecError, UnsupportedSizeError
from .gf2 import DEFAULT_PRIMITIVE_POLY, BitMatrix, BitWord, linear_byte_tables, mat_vec_mul

# Patterns of weight <= t a syndrome table may enumerate: 2^16 builds in
# under a second (rep17); a random [45, 21] code at t = 6 would need 9.5M.
# It also bounds the 2^n received words a code may tabulate (n <= 16).
SYNDROME_TABLE_MAX_PATTERNS = 1 << 16
WEIGHT_ENUM_MAX_M = 20


# received word -> (success, mask of the positions to flip)
Decoder = Callable[[int], tuple[bool, int]]


class LinearCode:
    """A binary [n, m] code correcting t errors, with public G and H.

    Built from any rows that span it, in one pass: G is their reduced
    row echelon form, whose pivots are the message columns, and H has
    one row per free column j, with bit j set and bit p set for each
    pivot p whose row of G holds j.  A code over a field (any
    ``field_info`` but None, which must hold w and primitive_poly) must
    be BCH(w, t): n = 2^w - 1, every row has zero syndromes S_1..S_2t,
    read off ``bch.column_syndromes`` so that no syndrome table is
    built, and m = n - |K| (the cyclotomic cosets of 1..2t), so the
    rows span that whole code.  It decodes by Berlekamp-Massey + Chien
    over that field.  Any other code must have a minimum distance that
    corrects t (checked for m <= WEIGHT_ENUM_MAX_M) and decodes by
    syndrome table.  The constructor builds no decoder: ``decoder``
    builds one on the first decode.
    """

    def __init__(
        self,
        name: str,
        rows: list[int],
        n: int,
        t: int,
        field_info: Optional[dict] = None,
    ):
        generator = BitMatrix(tuple(rows), n).row_reduce()
        pivots = tuple((r & -r).bit_length() - 1 for r in generator.rows)
        h_rows = []
        for j in range(n):
            if j in pivots:
                continue
            row = 1 << j
            for p, g_row in zip(pivots, generator.rows):
                if (g_row >> j) & 1:
                    row |= 1 << p
            h_rows.append(row)
        self.name, self.n, self.m, self.t = name, n, len(pivots), t
        self.field_info = field_info
        self.generator = generator  # m x n, reduced row echelon form
        self.parity_check = BitMatrix(tuple(h_rows or [0]), n)  # (n-m) x n
        self.message_columns = pivots
        self._column_tables = None  # built on the first count_codewords
        # the decoder, and for n <= 16 its decode map, wait for the first decode
        self._decoder: Optional[Decoder] = None
        self._decode_map: Optional[list[tuple[bool, int]]] = None
        self._field = None  # a BCH code's GF2m, set below
        if field_info is not None:
            try:
                w, poly = field_info["w"], field_info["primitive_poly"]
            except (KeyError, TypeError):
                raise ParameterError(
                    f"field_info {field_info!r} lacks w or primitive_poly"
                ) from None
            bch.check_bch_parameters(w, t)  # before a field table is built for w
            field = bch.bch_field(w, poly)
            bch_m = field.order - len(bch.cyclotomic_exponents(field.order, t))
            if (n, self.m) != (field.order, bch_m) or any(
                bch.column_syndromes(field, t, generator.rows)
            ):
                raise ParameterError(
                    f"[{n}, {self.m}] rows are not BCH(w={w}, t={t}), "
                    f"a [{field.order}, {bch_m}] code"
                )
            self._field = field
            return
        if self.m <= WEIGHT_ENUM_MAX_M:
            weights = self.weight_distribution()
            d = next((w for w in range(1, n + 1) if weights[w]), None)
            if d is not None and 2 * t + 1 > d:
                raise ParameterError(
                    f"t={t}, but its minimum distance {d} corrects at most "
                    f"{(d - 1) // 2} errors"
                )

    # -- encoding / verification -------------------------------------------

    def encode(self, message: BitWord) -> int:
        """The codeword of ``message``: the XOR of G's rows it selects."""
        if message.length != self.m:
            raise DimensionError(f"message length {message.length} != m={self.m}")
        acc = 0
        for i in range(self.m):
            if (message.value >> i) & 1:
                acc ^= self.generator.rows[i]
        return acc

    def is_codeword(self, word: int) -> bool:
        """Whether ``word`` is a codeword: Bob's test in ``protocol.bob_receive``.

        ``count_codewords`` on the one ceil(n/8)-byte slot that holds it.
        """
        if word < 0 or word >> self.n:
            raise DimensionError(f"word {word:#x} does not fit in n={self.n} bits")
        size = (self.n + 7) >> 3
        return self.count_codewords(word.to_bytes(size, "little"), size) == 1

    def count_codewords(self, words: bytes, size: int) -> int:
        """How many of the ``size``-byte slots of ``words`` hold a codeword.

        Each slot is one word, little-endian.  A codeword is the XOR of
        the rows of G whose pivots it holds, so each word is re-encoded
        from its pivot bits and compared with itself.  Byte column b of
        the words, ``words[b::size]``, holds byte b of every word, and
        each pivot byte's re-encode table is split into one
        ``bytes.translate`` table per output byte o, so byte o of every
        word's re-encoding XOR the word is the XOR of translated
        pivot-byte columns (and column o itself, when o holds no pivot).
        A word is a codeword iff all its output bytes are 0, so the
        columns are ORed and the zero bytes counted: O(pivot bytes x n/8)
        translates a batch, whatever the rate.  A slot holding a bit at
        or past n raises.  This is Bob's one test: Monte Carlo counts
        each chunk of readouts here, and ``is_codeword`` one word.
        """
        n = self.n
        if size < (n + 7) >> 3 or len(words) % size:
            raise DimensionError(
                f"{len(words)} bytes are not {size}-byte slots of n={n}-bit words"
            )
        count = len(words) // size
        past_n = (-1 << n) & ((1 << 8 * size) - 1)  # a slot's bits at or past n
        if past_n and int.from_bytes(words, "little") & int.from_bytes(
            past_n.to_bytes(size, "little") * count, "little"
        ):
            raise DimensionError(f"a word does not fit in n={n} bits")
        tables = self._column_tables
        if tables is None:
            tables = self._column_tables = self._build_column_tables()
        from_bytes = int.from_bytes
        diff = 0
        for terms in tables:
            column = 0
            for b, table in terms:
                column ^= from_bytes(words[b::size].translate(table), "little")
            diff |= column
        return diff.to_bytes(count, "little").count(0)

    def _build_column_tables(self) -> list[list[tuple[int, Optional[bytes]]]]:
        """Per output byte o: (b, translate table) per pivot byte b that reaches it.

        The table of b maps a word's byte b to byte o of its pivot bits'
        re-encoding (the XOR of their rows of G), XOR the byte itself
        when b = o; ``None`` translates nothing, so it stands for column
        o itself when o holds no pivot.
        """
        rows = [0] * self.n
        for p, row in zip(self.message_columns, self.generator.rows):
            rows[p] = row
        reencode = {
            b: linear_byte_tables(rows[8 * b : 8 * b + 8])[0]
            for b in sorted({p >> 3 for p in self.message_columns})
        }
        columns = []
        for o in range((self.n + 7) >> 3):
            terms = [] if o in reencode else [(o, None)]
            for b, table in reencode.items():
                own = 255 if b == o else 0
                column = bytes(table[v] >> 8 * o & 255 ^ v & own for v in range(256))
                if any(column):
                    terms.append((b, column))
            columns.append(terms)
        return columns

    def message_of(self, codeword: int) -> BitWord:
        """Project a codeword back to its message (pivot-column readout)."""
        return BitWord.from_bits((codeword >> j) & 1 for j in self.message_columns)

    # -- decoding ------------------------------------------------------------

    @property
    def decoder(self) -> Decoder:
        """The code's one decoder, chosen and built whole on the first call.

        A BCH code's is the algebraic decoder over its field; any other
        code's is its syndrome table and, for n <= 16, its decode map.
        """
        decoder = self._decoder
        if decoder is None:
            if self._field is not None:
                decoder = bch.BchAlgebraicDecoder(self._field, self.t)
            else:
                decoder = syndrome_table_decoder(self.parity_check, self.t)
                if 1 << self.n <= SYNDROME_TABLE_MAX_PATTERNS:
                    self._decode_map = list(map(decoder, range(1 << self.n)))
            self._decoder = decoder
        return decoder

    def decode(self, received: int) -> tuple[bool, int]:
        """(ok, flips): ``ok`` if a codeword lies within distance t.

        That codeword is ``received ^ flips``.  It is the transmitted
        one whenever the true error weight was <= t, and may be a
        miscorrection otherwise.  A failed decode flips nothing.  Once
        built, the decode map answers a word of at most n bits by one
        list index; any other word ends in the range check.
        """
        table = self._decode_map
        if table is not None and received >= 0:
            try:
                return table[received]
            except IndexError:
                pass
        if received < 0 or received >> self.n:
            raise DimensionError(f"word {received:#x} does not fit in n={self.n} bits")
        return (self._decoder or self.decoder)(received)

    # -- enumeration ----------------------------------------------------------

    def _check_enumerable(self) -> None:
        if self.m > WEIGHT_ENUM_MAX_M:
            raise UnsupportedSizeError(
                f"enumerating 2^{self.m} codewords exceeds the m <= "
                f"{WEIGHT_ENUM_MAX_M} bound"
            )

    def codewords(self) -> Iterator[int]:
        """All 2^m codewords, in Gray-code order.

        Each step XORs in one generator row, so no codeword is encoded
        from scratch.
        """
        self._check_enumerable()
        rows = self.generator.rows
        steps = (rows[(k & -k).bit_length() - 1] for k in range(1, 1 << self.m))
        return accumulate(steps, xor, initial=0)

    def weight_distribution(self) -> list[int]:
        """A_w for w = 0..n; sums to 2^m."""
        counts = [0] * (self.n + 1)
        for word in self.codewords():
            counts[word.bit_count()] += 1
        return counts

    # -- serialization ---------------------------------------------------------

    def to_spec_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "t": self.t,
            "generator_rows": [format(r, "x") for r in self.generator.rows],
            "parity_rows": [format(r, "x") for r in self.parity_check.rows],
            "field": self.field_info,
        }

    def save_spec(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_spec_dict(), fh, indent=2)
            fh.write("\n")


def syndrome_table_decoder(parity_check: BitMatrix, t: int) -> Decoder:
    """Bounded-distance decoding via a syndrome -> error-pattern table.

    The table holds every pattern of weight <= t; patterns of larger
    weight decode to whatever <= t pattern shares their syndrome
    (miscorrection) or to failure.  The decoder sums one byte table per
    received byte into the syndrome and looks it up; ``LinearCode``
    runs it once on every word of a code with n <= 16, the whole decode
    map (the standard array).
    """
    n = parity_check.ncols
    radius = min(t, n)  # no pattern weighs more than n, whatever t a spec holds
    patterns = sum(comb(n, h) for h in range(radius + 1))
    if patterns > SYNDROME_TABLE_MAX_PATTERNS:
        # a bound, not the count, which can run to hundreds of digits
        raise UnsupportedSizeError(
            f"at least 2^{patterns.bit_length() - 1} error patterns of weight "
            f"<= {t} exceed the syndrome-table bound ({SYNDROME_TABLE_MAX_PATTERNS})"
        )
    # columns[j] is the syndrome of a flip at position j
    columns = [mat_vec_mul(parity_check, 1 << j) for j in range(n)]
    # syndrome -> the decode result, built once: (True, error pattern)
    table = {0: (True, 0)}
    for w in range(1, radius + 1):
        for positions in combinations(range(n), w):
            pattern = syn = 0
            for p in positions:
                pattern |= 1 << p
                syn ^= columns[p]
            # weight-ordered fill: smallest pattern wins a syndrome collision
            table.setdefault(syn, (True, pattern))
    byte_tables = linear_byte_tables(columns)
    n_bytes = len(byte_tables)

    def decode(received: int) -> tuple[bool, int]:
        syn = 0
        for row, v in zip(byte_tables, received.to_bytes(n_bytes, "little")):
            syn ^= row[v]
        return table.get(syn, (False, 0))  # a constant: no tuple is built

    return decode


def make_repetition(n: int) -> LinearCode:
    """The [n, 1, (n-1)/2] repetition code; n must be odd so majority decides."""
    if n < 3 or n % 2 == 0:
        raise ParameterError(f"repetition length must be odd and >= 3, got {n}")
    t = (n - 1) // 2
    return LinearCode(f"rep{n}", [(1 << n) - 1], n, t)


def make_hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code in systematic form."""
    rows = [
        BitWord.from_str("1000110").value,
        BitWord.from_str("0100101").value,
        BitWord.from_str("0010011").value,
        BitWord.from_str("0001111").value,
    ]
    return LinearCode("hamming74", rows, 7, 1)


def build_bch(w: int, designed_t: int) -> LinearCode:
    """C[2^w - 1, m, t] over the default field, with the algebraic decoder."""
    bch.check_bch_parameters(w, designed_t)
    poly = DEFAULT_PRIMITIVE_POLY[w]
    g = bch.bch_generator_poly(bch.bch_field(w, poly), designed_t)
    n = (1 << w) - 1
    m = n - (g.bit_length() - 1)
    return LinearCode(
        f"bch-{n}-{m}-{designed_t}",
        [g << i for i in range(m)],
        n,
        designed_t,
        field_info={"w": w, "primitive_poly": poly},
    )


def _require(d: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in d]
    if missing:
        raise SpecError(f"{where} lacks {', '.join(missing)}")


def _count(d: dict, key: str, where: str, low: int = 0) -> int:
    """``d[key]``, which must be an int >= ``low`` (JSON true is not one)."""
    value = d[key]
    if type(value) is not int or value < low:
        raise SpecError(f"{where}: {key} must be an integer >= {low}, got {value!r}")
    return value


def _hex_rows(d: dict, key: str, n: int, where: str) -> list[int]:
    """``d[key]``'s rows: strings of hex digits only, as ``save_spec`` writes."""
    value = d[key]
    if not isinstance(value, list) or not all(
        isinstance(r, str) and r and set(r) <= set(hexdigits) for r in value
    ):
        raise SpecError(f"{where}: {key} must be a list of hex strings")
    rows = [int(r, 16) for r in value]
    for r in rows:
        if r >> n:
            raise SpecError(f"{where}: {key} row {r:x} is wider than n={n}")
    return rows


def load_code_spec(path) -> LinearCode:
    """Rebuild a code from the JSON spec written by ``save_spec``.

    ``name`` must be a string, n, m and t integers, a ``field`` other
    than absent or null an object whose w and primitive_poly are
    integers, and ``generator_rows`` a list of strings of
    hex digits, each at most n bits wide.  The rest is the
    ``LinearCode`` constructor's, built once: a spec with a ``field``
    must hold rows that span BCH(w, t), and one without a field must
    hold a t its minimum distance corrects (checked for m <=
    WEIGHT_ENUM_MAX_M).  Its ``ParameterError`` becomes a ``SpecError``;
    a w outside [2, 8] raises ``UnsupportedSizeError``.
    Any spec must hold the m its rows span, and its ``parity_rows``, when
    present, must be the rows of the H the constructor derives.
    Anything else raises ``SpecError``.
    """
    where = f"spec file {path}"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{where} is not readable UTF-8 text: {exc}") from None
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{where} is not JSON: {exc}") from None
    if not isinstance(d, dict):
        raise SpecError(f"{where} holds no JSON object")
    _require(d, ("name", "n", "m", "t", "generator_rows"), where)
    if not isinstance(d["name"], str):
        raise SpecError(f"{where}: name must be a string, got {d['name']!r}")
    n = _count(d, "n", where, low=1)
    m, t = _count(d, "m", where, low=1), _count(d, "t", where)
    rows = _hex_rows(d, "generator_rows", n, where)
    info = d.get("field")
    if info is not None:
        where_field = f"field of {where}"
        if not isinstance(info, dict):
            raise SpecError(f"{where_field} is not a JSON object")
        _require(info, ("w", "primitive_poly"), where_field)
        _count(info, "w", where_field)
        _count(info, "primitive_poly", where_field)
    try:
        code = LinearCode(d["name"], rows, n, t, field_info=info)
    except ParameterError as exc:
        raise SpecError(f"{where} says {exc}") from None
    if code.m != m:
        raise SpecError(f"{where} says m={m}, its rows span m={code.m}")
    if "parity_rows" in d and _hex_rows(d, "parity_rows", n, where) != list(
        code.parity_check.rows
    ):
        raise SpecError(f"{where}: parity_rows are not the H its generator_rows give")
    return code
