"""Independent references the tests check the model against.

The factored form of the closed-form probabilities, one factor per
Fraction: ``analytics.p_dec`` and ``analytics.p_f_prime`` compute the
same sums as one integer term list, and must equal
sum_i p_x * p_weight_le_t_given_i (times p_forge_given_i below n - t).

The Born-rule oracle: the four BB84 states as amplitudes, whose
measurement probabilities the qubit simulator's readouts must follow.

The coverage law of a Monte Carlo interval: the successes k whose
Clopper-Pearson interval holds a given p, so a sampled interval test has
an exact counterpart that no change of the random stream re-rolls.

The syndrome table of any code, from H's columns: the decoder that the
algebraic decoder and every decode map must agree with.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from qauth.codes import syndrome_table_decoder
from qauth.errors import DimensionError
from qauth.gf2 import mat_vec_mul
from qauth.qsim import Basis
from qauth.verify import clopper_pearson

_NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def p_x(n, i):
    """P(exactly i of n independent fair basis guesses are correct)."""
    if not 0 <= i <= n:
        raise DimensionError(f"i={i} outside [0, {n}]")
    return Fraction(comb(n, i), 2**n)


def p_weight_le_t_given_i(n, t, i):
    """P(measurement-error weight <= t | exactly i bases matched).

    The n - i mismatched positions each flip independently with
    probability 1/2; with i >= n - t the weight cannot exceed t.
    Note C(n-i, n-i-h) = C(n-i, h).
    """
    if not 0 <= i <= n:
        raise DimensionError(f"i={i} outside [0, {n}]")
    if i >= n - t:
        return Fraction(1)
    miss = n - i
    return Fraction(sum(comb(miss, h) for h in range(t + 1)), 2**miss)


def p_forge_given_i(n, t, i):
    """P(receiver accepts | i matches and a successful t-position correction).

    Under the model's assumption that a successful decode corrects
    exactly t of the n - i wrong bases, n - t - i wrong bases remain and
    each must come out right as a fair coin: 2^-(n-t-i).
    """
    if not 0 <= i <= n - t - 1:
        raise DimensionError(
            f"i={i} outside [0, {n - t - 1}] (i >= n-t has probability 1)"
        )
    return Fraction(1, 2 ** (n - t - i))


def factored_p_dec(n, t):
    return sum(p_x(n, i) * p_weight_le_t_given_i(n, t, i) for i in range(n + 1))


def factored_p_f_prime(n, t):
    return sum(
        p_x(n, i)
        * p_weight_le_t_given_i(n, t, i)
        * (p_forge_given_i(n, t, i) if i < n - t else 1)
        for i in range(n + 1)
    )


@dataclass(frozen=True)
class StateVector:
    """Normalized single-qubit amplitudes (a0, a1)."""

    a0: complex
    a1: complex

    def __post_init__(self):
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: |a|^2 = {norm!r}")


def statevector_of(bit, basis):
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if basis is Basis.Z:
        return StateVector(1.0 + 0j, 0j) if bit == 0 else StateVector(0j, 1.0 + 0j)
    sign = 1.0 if bit == 0 else -1.0
    return StateVector(complex(_INV_SQRT2), complex(sign * _INV_SQRT2))


def born_probabilities(s, basis):
    """(p0, p1) of measuring ``s`` in ``basis``."""
    if basis is Basis.Z:
        p0 = abs(s.a0) ** 2
        p1 = abs(s.a1) ** 2
    else:
        p0 = abs(s.a0 + s.a1) ** 2 / 2.0
        p1 = abs(s.a0 - s.a1) ** 2 / 2.0
    return p0, p1


def covering_range(trials, p):
    """(lo, hi): the k in [lo, hi] are those whose interval of k successes holds p.

    Both ends of ``clopper_pearson(k, trials)`` rise with k, so its
    upper end reaches p from some k on and its lower end passes p from
    some later k on; the k in between form one range, and bisection
    finds each end.
    """

    def first(holds):
        """The least k in [0, trials + 1] with ``holds(k)``, which stays true."""
        lo, hi = 0, trials + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    low = first(lambda k: clopper_pearson(k, trials)[1] >= p)
    return low, first(lambda k: clopper_pearson(k, trials)[0] > p) - 1


def table_decoder(code):
    """The syndrome table of ``code``, built from H's n columns."""
    columns = [mat_vec_mul(code.parity_check, 1 << j) for j in range(code.n)]
    return syndrome_table_decoder(columns, code.t)
