"""Bit-exact linear algebra over GF(2) and arithmetic in GF(2^w).

Words and matrix rows are bit-packed into Python ints.  Index 0 is the
leftmost / first-transmitted bit everywhere and maps to bit 0 (the LSB)
of the backing integer.  String renderings put index 0 first.  Every
lookup table of a GF(2)-linear map in qauth is a ``linear_table``.

Lengths are capped at MAX_LEN; the protocol needs n <= 127 and the cap
keeps enumeration oracles honest about their cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionError, ParameterError, UnsupportedSizeError

MAX_LEN = 1024

# Default primitive polynomials for GF(2^w), bit i = coefficient of x^i.
DEFAULT_PRIMITIVE_POLY = {
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    5: 0b100101,            # x^5 + x^2 + 1
    6: 0b1000011,           # x^6 + x + 1
    7: 0b10001001,          # x^7 + x^3 + 1
    8: 0b100011101,         # x^8 + x^4 + x^3 + x^2 + 1
}


def _check_len(n: int) -> None:
    if not 0 <= n <= MAX_LEN:
        raise UnsupportedSizeError(f"length {n} outside [0, {MAX_LEN}]")


@dataclass(frozen=True)
class BitWord:
    """Immutable fixed-length vector over GF(2).

    ``value`` bit j is the symbol at position j (position 0 first).
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        _check_len(self.length)
        if self.value < 0 or self.value >> self.length:
            raise DimensionError(
                f"value 0x{self.value:x} does not fit in {self.length} bits"
            )

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit symbols must be 0 or 1, got {b!r}")
            value |= b << n
            n += 1
        return cls(value, n)

    @classmethod
    def from_str(cls, s: str) -> "BitWord":
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def zeros(cls, n: int) -> "BitWord":
        return cls(0, n)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(f"bit index {j} out of range for length {self.length}")
        return (self.value >> j) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.length):
            yield v & 1
            v >>= 1

    def __str__(self) -> str:
        return "".join(str(b) for b in self)


@dataclass(frozen=True)
class BitMatrix:
    """Immutable dense matrix over GF(2); each row is a bit-packed int."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        _check_len(self.ncols)
        _check_len(len(self.rows))
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise DimensionError(f"row 0x{r:x} wider than {self.ncols} columns")

    def row_reduce(self) -> "BitMatrix":
        """Reduced row echelon form (zero rows dropped)."""
        rows = list(self.rows)
        reduced: list[int] = []
        for col in range(self.ncols):
            pivot = None
            for k, r in enumerate(rows):
                if (r >> col) & 1:
                    pivot = rows.pop(k)
                    break
            if pivot is None:
                continue
            reduced = [r ^ pivot if (r >> col) & 1 else r for r in reduced]
            rows = [r ^ pivot if (r >> col) & 1 else r for r in rows]
            reduced.append(pivot)
        return BitMatrix(tuple(reduced), self.ncols)

    def __str__(self) -> str:
        return "\n".join(str(BitWord(r, self.ncols)) for r in self.rows)


def mat_vec_mul(m: BitMatrix, v: int) -> int:
    """GF(2) product M·v, packed like v; with M = H this is the syndrome H·vᵀ."""
    if v < 0 or v >> m.ncols:
        raise DimensionError(f"vector {v:#x} does not fit in {m.ncols} columns")
    out = 0
    for i, r in enumerate(m.rows):
        out |= ((r & v).bit_count() & 1) << i
    return out


def linear_table(columns: list[int]) -> list[int]:
    """The 2^k-entry table of the GF(2)-linear map bit j -> ``columns[j]``.

    ``table[v]`` is the XOR of ``columns[j]`` over the set bits j of v,
    built by doubling: each column XORs into a copy of the table so far.
    """
    table = [0]
    for column in columns:
        table += [v ^ column for v in table]
    return table


def linear_byte_tables(columns: list[int]) -> list[list[int]]:
    """The ``linear_table`` of each 8 columns, zero-padded to 256 entries.

    A word's image is the XOR of ``tables[b][byte]`` over its
    little-endian bytes: one lookup per byte, not one parity per output bit.
    """
    columns = columns + [0] * (-len(columns) % 8)
    return [linear_table(columns[b : b + 8]) for b in range(0, len(columns), 8)]


# ---------------------------------------------------------------------------
# GF(2^w) with exp/log tables over a primitive polynomial.
# ---------------------------------------------------------------------------

class GF2m:
    """The field GF(2^w); elements are ints in [0, 2^w) in the alpha basis.

    The antilog/log tables absorb zero: ``_log[0]`` is 2·order, and
    ``_exp`` is 0 from index 2·order to 4·order, so
    ``_exp[_log[a] + _log[b]]`` is a·b for every a and b, zero included.
    """

    def __init__(self, w: int, primitive_poly: int):
        if not 1 <= w <= 16:
            raise UnsupportedSizeError(f"field exponent {w} outside [1, 16]")
        if primitive_poly.bit_length() - 1 != w:
            raise ParameterError(
                f"primitive polynomial 0b{primitive_poly:b} must have degree {w}"
            )
        self.w = w
        self.order = order = (1 << w) - 1  # size of the multiplicative group
        self.primitive_poly = primitive_poly
        exp = [0] * (4 * order + 1)
        log = [2 * order] + [0] * order
        x = 1
        for k in range(order):
            exp[k] = x
            log[x] = k
            x <<= 1
            if x >> w:
                x ^= primitive_poly
        # x must generate the whole multiplicative group: every power
        # distinct and the cycle closing exactly at 2^w - 1 steps
        if x != 1 or len(set(exp[:order])) != order:
            raise ParameterError(
                f"0b{primitive_poly:b} is not primitive over GF(2^{w})"
            )
        exp[order : 2 * order] = exp[:order]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def __repr__(self) -> str:
        return f"GF2m(w={self.w}, primitive_poly=0b{self.primitive_poly:b})"
