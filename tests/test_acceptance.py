"""Acceptance suite: the quantitative and property criteria for the
security table, the code constructions, the oracles, and the simulator.

Criterion 1 checks the published security table. Its p_f column is the
model's (3/4)^n. Its p_dec and p_f' columns are not the model's
``analytics.p_dec``/``p_f_prime`` but two smaller sums, ``table_p_dec``
and ``table_p_f_prime`` below, which the model bounds from above. Four of
its p_dec cells are misprinted and are checked against the exact value of
the column's expression instead.
"""

import random
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from qauth import analytics
from qauth.adversary import NoMessageStrategy
from qauth.codes import build_bch, make_hamming_7_4, make_repetition
from qauth.errors import ProtocolViolationError
from qauth.gf2 import BitWord
from qauth.protocol import run_session
from qauth.qsim import Basis, measure, prepare
from qauth.rng import substream
from qauth.verify import (
    monte_carlo,
    oracle_intercept_resend,
    oracle_no_message,
    oracle_no_message_any_codeword,
    oracle_p_dec,
)
from reference_model import born_probabilities, p_forge_given_i, p_x, statevector_of

# (w, t) -> (n, m) and the published security-table entries
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
PUBLISHED_TABLE = {
    # (n, t): (p_f, p_dec, p_f_prime) at 2 significant digits
    (63, 1): ("1.3e-08", "4.1e-15", "2.8e-13"),
    (63, 2): ("1.3e-08", "4.4e-16", "5.5e-13"),
    (63, 10): ("1.3e-08", "3.1e-09", "3.2e-09"),
    (63, 13): ("1.3e-08", "3.7e-07", "3.7e-07"),
    (127, 1): ("1.4e-16", "3.0e-32", "2.4e-26"),
    (127, 2): ("1.4e-16", "5.0e-34", "4.8e-26"),
    (127, 15): ("1.4e-16", "1.0e-20", "1.1e-20"),
    (127, 23): ("1.4e-16", "1.8e-14", "1.8e-14"),
}
# The printed p_dec at t = 1, 2 falls as t grows (4.1e-15 -> 4.4e-16 at
# n = 63, 3.0e-32 -> 5.0e-34 at n = 127), which neither a decode
# probability nor table_p_dec can do. table_p_dec is exactly 2^-n at
# t = 1 and (n + 1)/2^n at t = 2; those rationals are checked instead.
# The n = 63 strings lie within rounding of 37 * 2^-53 and 4 * 2^-53,
# multiples of the double spacing below 1 that 1 - sum leaves in floats;
# the n = 127 strings fit no such pattern.
MISPRINTED_P_DEC = {
    (63, 1): Fraction(1, 2**63),  # printed 4.1e-15
    (63, 2): Fraction(64, 2**63),  # printed 4.4e-16
    (127, 1): Fraction(1, 2**127),  # printed 3.0e-32
    (127, 2): Fraction(128, 2**127),  # printed 5.0e-34
}


def table_p_dec(n, t):
    """The printed p_dec column: P(more than n - t bases guessed right).

    ``analytics.p_dec`` sums p_x(n, i) times a weight factor <= 1 over
    every i, with factor 1 for i > n - t, so it is never smaller.
    """
    return sum(p_x(n, i) for i in range(n - t + 1, n + 1))


def table_p_f_prime(n, t):
    """The printed p_f' column.

    ``analytics.p_f_prime`` has the same terms with two differences: its
    decode weight Σ_{h<=t} C(n-i, h) is reduced here to the h = 0 term, 1,
    and its tail also holds i = n - t. So it is never smaller.
    """
    return (
        sum(
            p_x(n, i)
            * Fraction(1, 2 ** (n - i))
            * p_forge_given_i(n, t, i)
            for i in range(n - t)
        )
        + table_p_dec(n, t)
    )


@pytest.fixture(scope="module")
def grid_codes():
    return {wt: build_bch(*wt) for wt in GRID}


@pytest.fixture(scope="module")
def small_codes():
    return [make_repetition(3), make_repetition(5), make_hamming_7_4()]


class TestCriterion1TableReproduction:
    """The published table vs. the expressions that produced it.

    p_f is the model's own (3/4)^n. The p_dec and p_f' columns are
    table_p_dec and table_p_f_prime, and the model's p_dec and p_f_prime
    bound them from above.
    """

    @pytest.mark.parametrize("n,t", sorted(PUBLISHED_TABLE))
    def test_p_f_column(self, n, t):
        assert analytics.render_scientific(analytics.p_f_no_message(n)) == (
            PUBLISHED_TABLE[(n, t)][0]
        )

    @pytest.mark.parametrize("n,t", sorted(PUBLISHED_TABLE))
    def test_p_dec_column(self, n, t):
        expected = table_p_dec(n, t)
        if (n, t) in MISPRINTED_P_DEC:
            assert expected == MISPRINTED_P_DEC[(n, t)]
        else:
            assert analytics.render_scientific(expected) == (
                PUBLISHED_TABLE[(n, t)][1]
            )
        assert analytics.p_dec(n, t) >= expected

    @pytest.mark.parametrize("n,t", sorted(PUBLISHED_TABLE))
    def test_p_f_prime_column(self, n, t):
        expected = table_p_f_prime(n, t)
        assert analytics.render_scientific(expected) == PUBLISHED_TABLE[(n, t)][2]
        assert analytics.p_f_prime(n, t) >= expected


class TestCriterion2BchConstruction:
    def test_all_eight_dimensions(self, grid_codes):
        for (w, t), (n, m) in GRID.items():
            code = grid_codes[(w, t)]
            assert (code.n, code.m, code.t) == (n, m, t)


class TestCriterion3FormulaVsOracle:
    def test_no_message_oracle_equals_weight_formula(self, small_codes):
        # the containment-table enumeration against the weight enumerator;
        # the paper's (3/4)^n leaves out the other codewords, so it is lower
        for code in small_codes:
            report = oracle_no_message(code)
            assert report.exact_value == oracle_no_message_any_codeword(code)
            assert report.formula_value == Fraction(3**code.n, 4**code.n)
            assert report.gap > 0

    def test_p_dec_oracle_gap_zero(self, small_codes):
        for code in small_codes:
            report = oracle_p_dec(code)
            assert report.equal and report.gap == 0


class TestCriterion4InterceptResendGapReport:
    def test_completes_and_reports_signed_gap(self):
        for code in (make_repetition(3), make_hamming_7_4()):
            report = oracle_intercept_resend(code)
            assert report.gap == report.exact_value - report.formula_value
            assert isinstance(report.gap, Fraction)

    def test_stable_across_repetition(self):
        code = make_repetition(3)
        assert oracle_intercept_resend(code) == oracle_intercept_resend(code)


class TestCriterion5StatisticalSoundness:
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("prep_basis", list(Basis))
    @pytest.mark.parametrize("meas_basis", list(Basis))
    def test_born_statistics_100k(self, bit, prep_basis, meas_basis):
        n = 100_000
        rng = substream(505, "born", bit, prep_basis.value, meas_basis.value)
        ones = sum(
            measure(prepare(bit, prep_basis), meas_basis, rng.getrandbits(1))
            for _ in range(n)
        )
        p0, p1 = born_probabilities(statevector_of(bit, prep_basis), meas_basis)
        if meas_basis is prep_basis:
            assert ones == (n if bit else 0)
        else:
            stat = chisquare([n - ones, ones], [n * p0, n * p1])
            assert stat.pvalue > 0.001

    def test_no_message_monte_carlo_1m(self):
        code = make_repetition(3)
        stats = monte_carlo(
            code, 1_000_000, 424242, adversary=NoMessageStrategy(BitWord(1, 1))
        )
        truth = oracle_no_message_any_codeword(code)
        assert truth == Fraction(28, 64)
        assert stats.ci_low <= truth <= stats.ci_high


class TestCriterion6ProtocolCompleteness:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: make_repetition(3),
            lambda: make_repetition(5),
            make_hamming_7_4,
            lambda: build_bch(6, 10),
        ],
        ids=["rep3", "rep5", "hamming74", "bch-63-18"],
    )
    def test_10k_honest_sessions(self, maker):
        code = maker()
        rng = random.Random(606)
        for trial in range(10_000):
            msg = BitWord(rng.getrandbits(code.m), code.m)
            record = run_session(
                msg, code, randomness=substream(606, code.name, trial)
            )
            assert record.accepted
            assert record.message == msg


class TestCriterion7NoCloningOpacity:
    def test_second_measurement_raises(self):
        handle = prepare(1, Basis.X)
        measure(handle, Basis.Z, 0)
        with pytest.raises(ProtocolViolationError):
            measure(handle, Basis.Z, 1)

    def test_interface_exposes_no_preparation_data(self):
        handle = prepare(1, Basis.X)
        public = [a for a in dir(handle) if not a.startswith("_")]
        assert public == ["consumed"]
        for probe in ("bit", "basis", "prep_bit", "prep_basis", "state"):
            with pytest.raises(AttributeError):
                getattr(handle, probe)
        # the name-mangled record is not reachable under its declared name
        with pytest.raises(AttributeError):
            getattr(handle, "__bit")


class TestCriterion8BchDecoderContract:
    @pytest.mark.parametrize("wt", sorted(GRID))
    def test_10k_roundtrips_zero_failures(self, grid_codes, wt):
        code = grid_codes[wt]
        rng = random.Random(808)
        failures = 0
        for _ in range(10_000):
            msg = BitWord(rng.getrandbits(code.m), code.m)
            cw = code.encode(msg)
            errors = rng.sample(range(code.n), rng.randint(0, code.t))
            e = sum(1 << j for j in errors)
            ok, flips = code.decode(cw ^ e)
            decoded = cw ^ e ^ flips
            if not (
                ok
                and decoded == cw
                and code.message_of(decoded) == msg
                and flips == e
            ):
                failures += 1
        assert failures == 0
