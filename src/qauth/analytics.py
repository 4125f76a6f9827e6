"""Closed-form security probabilities, evaluated exactly.

Everything here is arbitrary-precision rational arithmetic
(fractions.Fraction): the quantities of interest span dozens of orders
of magnitude, and floats would mask formula errors.  Rendering to a
fixed number of significant digits happens only at the output boundary
and rounds half-to-even.

Quantities (n qubits, t-error-correcting code):
  p_f_no_message(n) -- forge-from-scratch success, (3/4)^n
  p_dec(n, t)       -- Eve decodes the intercepted word, sum_i a_i / 4^n
  p_f_prime(n, t)   -- intercept-resend forgery success,
                       sum_i a_i * 2^-max(0, n-t-i) / 4^n

Both sums run over the number i of correct basis guesses, with one
integer term list a_i = C(n,i) * sum_{h<=t} C(n-i,h) * 2^i, so that
a_i / 4^n is P(i bases right and Eve's decode succeeds).  The list is
built by a recurrence in O(n) integer steps, not O(n·t) binomials.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .codes import LinearCode
from .errors import DimensionError


def _check_prob(p: Fraction) -> Fraction:
    if not 0 <= p <= 1:
        raise ValueError(f"probability out of range: {p}")
    return p


def p_f_no_message(n: int) -> Fraction:
    """Success of a forged transmission with a random basis guess: (3/4)^n.

    Per qubit: the guessed basis matches with probability 1/2 (the
    receiver then reads the intended bit), else the readout is a fair
    coin -- 1/2 + 1/2 * 1/2 = 3/4.
    """
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    return _check_prob(Fraction(3**n, 4**n))


def _decode_terms(n: int, t: int) -> list[int]:
    """a_i for i = 0..n, where a_i / 4^n = P(i bases right and Eve decodes).

    i of the n basis guesses are right with probability C(n, i) / 2^n;
    the n - i wrong ones each flip Eve's readout with probability 1/2,
    and the decode succeeds when at most t flip, which has probability
    B(n-i) / 2^(n-i), B(m) = sum_{h<=t} C(m, h).  For i >= n - t that
    is 1.

    The terms come out in O(n) integer steps over m = n - i = 0..n:
    B(0) = 1 and B(m+1) = 2·B(m) - C(m, t) (Pascal's rule summed over
    h <= t), with C(m, t) = C(m-1, t)·m / (m-t) from C(t, t) = 1, and
    C(n, i-1) = C(n, i)·i / (n-i+1) from C(n, n) = 1.
    """
    if not 0 <= t < n:
        raise DimensionError(f"t={t} outside [0, {n})")
    terms = []
    choose_n, partial, choose_t = 1, 1, 0  # C(n, n-m), B(m), C(m, t) at m = 0
    for m in range(n + 1):
        if m == t:
            choose_t = 1
        elif m > t:
            choose_t = choose_t * m // (m - t)
        terms.append(choose_n * partial << (n - m))
        partial = 2 * partial - choose_t
        choose_n = choose_n * (n - m) // (m + 1)
    terms.reverse()  # i = 0..n
    return terms


def p_dec(n: int, t: int) -> Fraction:
    """P(the eavesdropper's bounded-distance decode succeeds): sum a_i / 4^n.

    The paper's printed table uses a smaller expression, P(more than
    n - t bases guessed right), named ``table_p_dec`` in
    tests/test_acceptance.py; this function is pinned to the exhaustive
    decoder oracle instead.
    """
    return _check_prob(Fraction(sum(_decode_terms(n, t)), 4**n))


def p_f_prime(n: int, t: int) -> Fraction:
    """Intercept-resend forgery success: sum a_i * 2^-max(0, n-t-i) / 4^n.

    The model assumes that a successful decode corrects exactly t of
    the n - i wrong bases, so for i <= n-t-1 the residual n-t-i wrong
    bases must all read out favorably, each a fair coin: the factor
    2^-(n-t-i).  For i >= n-t acceptance is certain.  The paper's
    printed table uses a smaller expression, with the decode weight
    reduced to its h = 0 term and i = n-t left out, named
    ``table_p_f_prime`` in tests/test_acceptance.py.
    """
    total = sum(
        a << (n - max(0, n - t - i)) for i, a in enumerate(_decode_terms(n, t))
    )
    return _check_prob(Fraction(total, 8**n))


# ---------------------------------------------------------------------------
# Rendering and the security table.
# ---------------------------------------------------------------------------

def render_scientific(p: Fraction) -> str:
    """A probability p in [0, 1] at two significant digits, half-to-even."""
    if p == 0:
        return "0"
    exp = 0
    q = p
    while q < 1:
        q *= 10
        exp -= 1
    digits = round(q * 10)  # Fraction round is half-even
    if digits >= 100:  # rounding carried into a new decade
        digits //= 10
        exp += 1
    s = str(digits)
    return f"{s[0]}.{s[1:]}e{exp:+03d}"


def render_fixed(x: Fraction) -> str:
    """Fixed-point rendering at two decimals ('.' separator), half-to-even."""
    s = f"{round(x * 100):03d}"
    return f"{s[:-2]}.{s[-2:]}"


@dataclass(frozen=True)
class SecurityRow:
    """One code's security summary (the columns of the overview table)."""

    name: str
    n: int
    m: int
    t: int
    p_f: Fraction
    p_dec: Fraction
    p_f_prime: Fraction
    key_overhead: Fraction

    def rendered(self) -> dict:
        return {
            "code": self.name,
            "n": self.n,
            "m": self.m,
            "t": self.t,
            "p_f": render_scientific(self.p_f),
            "p_dec": render_scientific(self.p_dec),
            "p_f_prime": render_scientific(self.p_f_prime),
            "key_overhead": render_fixed(self.key_overhead),
        }

    def to_json_dict(self, exact: bool = False) -> dict:
        d = self.rendered()
        if exact:
            for key, value in (
                ("p_f", self.p_f),
                ("p_dec", self.p_dec),
                ("p_f_prime", self.p_f_prime),
                ("key_overhead", self.key_overhead),
            ):
                d[f"{key}_exact"] = {
                    "numerator": str(value.numerator),
                    "denominator": str(value.denominator),
                }
        return d


def table1(codes: Iterable[LinearCode]) -> list[SecurityRow]:
    """One row per code; the key overhead is the key bits per message bit, n/m."""
    return [
        SecurityRow(
            name=code.name,
            n=code.n,
            m=code.m,
            t=code.t,
            p_f=p_f_no_message(code.n),
            p_dec=p_dec(code.n, code.t),
            p_f_prime=p_f_prime(code.n, code.t),
            key_overhead=Fraction(code.n, code.m),
        )
        for code in codes
    ]


CSV_COLUMNS = ["code", "n", "m", "t", "p_f", "p_dec", "p_f_prime", "key_overhead"]


def table_to_csv(rows: Iterable[SecurityRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.rendered())
    return buf.getvalue()
