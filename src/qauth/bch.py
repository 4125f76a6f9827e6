"""Narrow-sense primitive binary BCH codes of length 2^w - 1.

The generator polynomial is g(x) = prod (x + alpha^k) over K, the union
of the cyclotomic cosets {k·2^i mod n} of k = 1..2t: the product of the
minimal polynomials of alpha..alpha^(2t), each taken once.  It is
multiplied out with the field's tables and packed into an int like the
generator rows (bit i = coefficient of x^i).  It is the one definition of
BCH(w, t): the code is the multiples of g below degree n, since
c(alpha^k) = 0 for k = 1..2t exactly when g divides c.
``codes.build_bch`` hands the m = n - deg g shifts x^i·g(x) to
``LinearCode``, whose constructor is the only check: it computes g
itself, and every row must leave ``poly_mod`` 0 with m = n - deg g, so
the rows span that whole code and no table is built.  Every BCH code
decodes with ``BchAlgebraicDecoder``, which ``LinearCode.decoder``
builds whole on the code's first decode: all 2t syndromes from one pass
of the byte tables of ``syndrome_columns``, already the int register
that binary (odd-step) Berlekamp-Massey runs on, one field element per
byte lane, 3t + 2 lanes wide with the locator at lane 3t - step (C·S
stays below lane 3t while L <= t); a Chien search with one byte lane per
position, one lookup per locator term in a ``gf2.linear_table``; the
roots come out as ``flips`` in one translate, each lane a binary digit.
It returns ``(ok, flips)`` like every decoder; for n <= 15 it runs once
per syndrome coset, to fill the code's decode map.  For designed
distance 2t+1 it is the same bounded-distance map as a syndrome table,
which the tests use as its oracle.
"""

from __future__ import annotations

from .errors import ParameterError, UnsupportedSizeError
from .gf2 import GF2m, linear_byte_tables, linear_table

# bytes.translate table: a Chien lane of 0 (a root) becomes the digit "1",
# any other lane "0", so int(lanes.translate(_ROOT_DIGITS), 2) is the mask
_ROOT_DIGITS = b"1" + b"0" * 255


def cyclotomic_exponents(order: int, designed_t: int) -> set[int]:
    """K: the union of the cyclotomic cosets {k·2^i mod n} of k = 1..2t."""
    exponents: set[int] = set()
    for k in range(1, 2 * designed_t + 1):
        while k not in exponents:
            exponents.add(k)
            k = 2 * k % order
    return exponents


def bch_generator_poly(field: GF2m, designed_t: int) -> int:
    """g(x) = prod (x + alpha^k) over the cyclotomic cosets of 1..2t."""
    coeffs = [1]  # GF(2^w) coefficients, lowest degree first
    for k in sorted(cyclotomic_exponents(field.order, designed_t)):
        root = field._exp[k]
        # (x + root)·g: x·g plus root·g
        coeffs = [a ^ field.mul(root, b) for a, b in zip([0] + coeffs, coeffs + [0])]
    if any(c > 1 for c in coeffs):
        raise AssertionError("coset product left the prime field")
    return sum(c << i for i, c in enumerate(coeffs))


def poly_mod(a: int, g: int) -> int:
    """a(x) mod g(x) over GF(2), both packed like g (bit i = coefficient of x^i)."""
    width = g.bit_length()
    while (shift := a.bit_length() - width) >= 0:
        a ^= g << shift
    return a


def check_bch_parameters(w: int, designed_t: int) -> None:
    """w in [2, 8], so that an element fits one byte lane, and 2t < 2^w - 1."""
    if not 2 <= w <= 8:
        raise UnsupportedSizeError(
            f"field exponent {w} outside [2, 8]: an element must fit one byte lane"
        )
    if not 1 <= designed_t < (1 << (w - 1)):
        raise ParameterError(f"designed t={designed_t} outside [1, {2 ** (w - 1) - 1}]")


def syndrome_columns(field: GF2m, t: int) -> list[int]:
    """Column j: S_1..S_2t of a flip at position j, S_k = alpha^(kj) in lane k-1."""
    n, exp = field.order, field._exp
    return [
        int.from_bytes(bytes(exp[k * j % n] for k in range(1, 2 * t + 1)), "little")
        for j in range(n)
    ]


class BchAlgebraicDecoder:
    """Bounded-distance decoder: syndromes, binary Berlekamp-Massey, Chien search.

    Elements are below 2^8, so each fits one byte lane, and field
    arithmetic is ``bytes.translate`` by ``_mul[log a]``, the table of
    b -> a·b, which multiplies every lane of a register by a at once.
    Syndromes and Chien search are GF(2)-linear, so both are table
    lookups: the syndromes one per byte of the word, and Chien search
    one per locator term.  Chien search keeps position j in byte lane j
    of one n-byte int; laid out big-endian, its roots become ``flips``
    in one translate.  ``__init__`` builds every table, so a decoder
    is whole once it exists; ``LinearCode.decoder`` builds it on the
    code's first decode, so a code that never decodes builds none.
    """

    def __init__(self, field: GF2m, t: int):
        self.field = field
        self.t = t
        self.n = n = field.order
        exp, log = field._exp, field._log
        self._byte_rows = linear_byte_tables(syndrome_columns(field, t))
        self._n_bytes = (n + 7) >> 3
        # _mul[k] is the bytes.translate table of b -> alpha^k·b, k < 2n:
        # indexed by exponent, twice round, so a Berlekamp-Massey step
        # finds the table of d / d_last by one index, log d + n - log d_last
        mul = [bytes(exp[k + j] for j in log).ljust(256, b"\0") for k in range(n)]
        self._mul = mul + mul
        # _chien_terms[k-1][c] is locator term k at every alpha^-j, times
        # coefficient c: lane j is c·alpha^(-jk).  Multiplying by c is
        # GF(2)-linear in c's bits, so each of the t tables is the
        # linear table of the w single-bit multiples.
        self._chien_terms = []
        for k in range(1, t + 1):
            lanes = bytes(exp[-j * k % n] for j in range(n))
            bit_multiples = [
                int.from_bytes(lanes.translate(mul[log[1 << i]]), "little")
                for i in range(field.w)
            ]
            self._chien_terms.append(linear_table(bit_multiples))
        # the locator's constant term, 1, in every lane
        self._ones = int.from_bytes(b"\1" * n, "little")

    def syndromes(self, received: int) -> int:
        """S_1..S_2t, S_k in byte lane k-1 of one int: one lookup per byte."""
        acc = 0
        for row, v in zip(self._byte_rows, received.to_bytes(self._n_bytes, "little")):
            acc ^= row[v]
        return acc

    def _berlekamp_massey(self, syn: int) -> bytes | None:
        """The error locator's coefficients, one byte each, or None once L > t.

        Binary form (Berlekamp 1968): S_2k = S_k^2 makes every
        even-indexed discrepancy zero, so only the t odd steps run.  The
        register length L never decreases, so L > t already means a
        locator the decoder rejects.  As in the reformulated algorithm
        of Sarwate & Shanbhag (2001), register X holds C·S from lane
        ``step`` up, so lane 0 is the discrepancy, and the locator C at
        lane 3t - step.  Y is X as it was at the last length change
        (lane 0 its discrepancy), first 1 + x·X.  X drops two lanes a
        step and Y none, which is the x^shift of
        C -= (d / d_last)·x^shift·B, so one translate of Y updates C and
        C·S at once.  ``inv_last`` is n - log d_last, which changes only
        at a length change, where d_last becomes that step's d.

        Lane 3t keeps the two apart, so C reads off clean: C·S's top
        coefficient is 2t - 1 + deg C <= 3t - 1 while L <= t, below C's
        constant term, and the early exit returns before any XOR with
        L > t.  C's top lane is 3t - step + L <= 3t + 1, as
        L <= step + 1, so 3t + 2 lanes hold X and Y.
        """
        mul, log = self._mul, self.field._log
        from_bytes, to_bytes = int.from_bytes, int.to_bytes
        n, t = self.n, self.t
        width = 3 * t + 2
        x = syn | 1 << 24 * t
        y = to_bytes(x << 8 | 1, width, "little")
        inv_last = n  # d_last is y[0], 1
        big_l = 0
        for step in range(0, 2 * t, 2):
            d = x & 255
            if d:
                log_d = log[d]
                fix = from_bytes(y.translate(mul[log_d + inv_last]), "little")
                if 2 * big_l <= step:
                    big_l = step + 1 - big_l
                    if big_l > t:
                        return None
                    y = to_bytes(x, width, "little")
                    inv_last = n - log_d
                x ^= fix
            x >>= 16
        return to_bytes(x >> 8 * t, big_l + 1, "little")

    def __call__(self, received: int) -> tuple[bool, int]:
        """(ok, flips); a locator of degree L <= t with L roots is ok.

        ``flips`` has bit j set for each root position j, and is 0 when
        the decode fails, which the count of zero Chien lanes tells
        before any root is read.  A zero syndrome gives L = 0 and no
        root, so a codeword decodes ok with flips 0.

        No syndrome re-check is needed after Chien search.  Say
        Berlekamp-Massey returns the shortest LFSR of S_1..S_2t, of
        length L <= t, and its locator has L distinct roots X_i^-1.
        Then S_k = sum Y_i X_i^k for k = 1..2t, for some Y_i.  The word
        is binary, so S_2k = S_k^2, which gives
        sum (Y_i + Y_i^2) (X_i^2)^k = 0 for k = 1..L; the X_i^2 are
        distinct and nonzero, so this Vandermonde system forces every
        Y_i into {0, 1}.  A Y_i of 0 would leave a shorter LFSR than the
        shortest one, so every Y_i is 1, and flipping the L positions
        cancels all 2t syndromes.
        """
        locator = self._berlekamp_massey(self.syndromes(received))
        if locator is None:
            return False, 0
        acc = self._ones
        for terms, coef in zip(self._chien_terms, locator[1:]):
            acc ^= terms[coef]
        values = acc.to_bytes(self.n, "big")  # byte n-1-j: locator(alpha^-j)
        if values.count(0) != len(locator) - 1:
            return False, 0
        return True, int(values.translate(_ROOT_DIGITS), 2)
