"""Narrow-sense primitive binary BCH codes of length 2^w - 1.

The generator polynomial is the lcm of the minimal polynomials of
alpha..alpha^(2t).  Every BCH code, short or long, decodes with
``BchAlgebraicDecoder``: it computes syndromes, runs Berlekamp-Massey
for the error locator, and locates roots by Chien search.  Syndrome and
Chien evaluations are vectorized with numpy so that long-code decoding
stays fast enough for large randomized test campaigns.  For designed
distance 2t+1 this is the same bounded-distance map as a syndrome
table, which the tests use as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import LinearCode, code_from_generator_rows
from .errors import ParameterError, UnsupportedSizeError
from .gf2 import (
    BitWord,
    DEFAULT_PRIMITIVE_POLY,
    GF2m,
    GF2Poly,
    minimal_polynomial,
    poly_lcm,
)


@dataclass(frozen=True)
class BchSpec:
    """Construction parameters of one BCH code."""

    w: int
    designed_t: int
    primitive_poly: int
    generator_poly: GF2Poly

    @property
    def n(self) -> int:
        return (1 << self.w) - 1

    @property
    def m(self) -> int:
        return self.n - self.generator_poly.degree()

    def generator_rows(self) -> list[int]:
        """The m shifts x^i·g(x), a basis of the code."""
        return [self.generator_poly.coeffs << i for i in range(self.m)]


def bch_generator_poly(field: GF2m, designed_t: int) -> GF2Poly:
    g = GF2Poly.one()
    seen: set[int] = set()
    for k in range(1, 2 * designed_t + 1):
        root = field.alpha_pow(k)
        if root in seen:
            continue
        mp = minimal_polynomial(field.element(root))
        # track the whole conjugacy class so each factor enters once
        c = root
        while c not in seen:
            seen.add(c)
            c = field.mul(c, c)
        g = poly_lcm(g, mp)
    return g


def make_bch_spec(
    w: int, designed_t: int, primitive_poly: int | None = None
) -> BchSpec:
    if not 2 <= w <= 8:
        raise UnsupportedSizeError(f"field exponent {w} outside [2, 8]")
    n = (1 << w) - 1
    if not 1 <= designed_t < (1 << (w - 1)):
        raise ParameterError(
            f"designed t={designed_t} outside [1, {(1 << (w - 1)) - 1}]"
        )
    poly = primitive_poly if primitive_poly is not None else DEFAULT_PRIMITIVE_POLY[w]
    field = bch_field(w, poly)
    g = bch_generator_poly(field, designed_t)
    spec = BchSpec(w=w, designed_t=designed_t, primitive_poly=poly, generator_poly=g)
    if spec.m <= 0:
        raise UnsupportedSizeError(
            f"BCH(w={w}, t={designed_t}) has no message bits (deg g = {g.degree()})"
        )
    # sanity: g must divide x^n + 1
    if not g.divides(GF2Poly((1 << n) | 1)):
        raise AssertionError("generator polynomial does not divide x^n + 1")
    return spec


@lru_cache(maxsize=None)
def bch_field(w: int, primitive_poly: int) -> GF2m:
    return GF2m(w, primitive_poly)


class BchAlgebraicDecoder:
    """Bounded-distance decoder: syndromes, Berlekamp-Massey, Chien search."""

    def __init__(self, field: GF2m, t: int):
        self.field = field
        self.t = t
        self.n = field.order
        n = self.n
        # pow_table[i-1, j] = alpha^(i*j), used for syndrome accumulation
        js = np.arange(n, dtype=np.int64)
        rows = []
        for i in range(1, 2 * t + 1):
            rows.append(
                np.array([field.alpha_pow(int(i * j)) for j in range(n)], dtype=np.int64)
            )
        self._pow = np.vstack(rows)
        # neg_jk[k-1, j] = (-j*k) mod n, log-domain offsets for Chien search
        ks = np.arange(1, 2 * t + 1, dtype=np.int64)
        self._neg_jk = (-np.outer(ks, js)) % n
        self._exp = np.array([field.alpha_pow(k) for k in range(n)], dtype=np.int64)

    def syndromes(self, received: BitWord) -> list[int]:
        idx = np.fromiter(
            (j for j in range(self.n) if (received.value >> j) & 1),
            dtype=np.int64,
        )
        if idx.size == 0:
            return [0] * (2 * self.t)
        cols = self._pow[:, idx]
        return list(np.bitwise_xor.reduce(cols, axis=1))

    def _berlekamp_massey(self, syndromes: list[int]) -> tuple[list[int], int]:
        field = self.field
        c = [1] + [0] * (2 * self.t)
        b = [1] + [0] * (2 * self.t)
        big_l, shift, last_d = 0, 1, 1
        for step, s in enumerate(syndromes):
            d = s
            for i in range(1, big_l + 1):
                if c[i] and syndromes[step - i]:
                    d ^= field.mul(c[i], syndromes[step - i])
            if d == 0:
                shift += 1
                continue
            coef = field.mul(d, field.inv(last_d))
            if 2 * big_l <= step:
                prev_c = c[:]
                for i in range(0, len(b) - shift):
                    if b[i]:
                        c[i + shift] ^= field.mul(coef, b[i])
                big_l = step + 1 - big_l
                b = prev_c
                last_d = d
                shift = 1
            else:
                for i in range(0, len(b) - shift):
                    if b[i]:
                        c[i + shift] ^= field.mul(coef, b[i])
                shift += 1
        return c[: big_l + 1], big_l

    def _chien_roots(self, locator: list[int]) -> list[int]:
        """Positions j with locator(alpha^-j) = 0."""
        n = self.n
        field = self.field
        vals = np.full(n, locator[0], dtype=np.int64)
        for k in range(1, len(locator)):
            if locator[k] == 0:
                continue
            logc = field.log(locator[k])
            vals ^= self._exp[(logc + self._neg_jk[k - 1]) % n]
        return [int(j) for j in np.nonzero(vals == 0)[0]]

    def __call__(self, received: BitWord) -> tuple[bool, frozenset[int]]:
        syn = self.syndromes(received)
        if not any(syn):
            return True, frozenset()
        locator, degree = self._berlekamp_massey(syn)
        if degree > self.t:
            return False, frozenset()
        roots = self._chien_roots(locator)
        if len(roots) != degree:
            return False, frozenset()
        # confirm the flips cancel every syndrome (rejects inconsistent locators)
        for i in range(2 * self.t):
            s = syn[i]
            for j in roots:
                s ^= self.field.alpha_pow((i + 1) * j)
            if s:
                return False, frozenset()
        return True, frozenset(roots)


def build_bch(
    w: int, designed_t: int, primitive_poly: int | None = None
) -> LinearCode:
    """Construct C[2^w - 1, m, t] as a LinearCode with the algebraic decoder."""
    spec = make_bch_spec(w, designed_t, primitive_poly)
    return code_from_generator_rows(
        f"bch-{spec.n}-{spec.m}-{designed_t}",
        spec.generator_rows(),
        spec.n,
        designed_t,
        field_info={"w": w, "primitive_poly": spec.primitive_poly},
    )
