"""Tests for the enumeration oracles and Monte Carlo machinery."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from hashlib import blake2b
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qauth import analytics, qsim, rng, verify
from qauth.adversary import (
    ABORT,
    RESEND_UNCORRECTED,
    InterceptResendStrategy,
    NoMessageStrategy,
    act_on_channel,
)
from qauth.bch import BchAlgebraicDecoder
from qauth.cli import DEFAULT_TABLE_CODES, resolve_code
from qauth.codes import LinearCode, build_bch, make_hamming_7_4, make_repetition
from qauth.errors import ParameterError, UnsupportedSizeError
from qauth.gf2 import BitWord
from qauth.protocol import run_session
from qauth.rng import substream, trial_words
from qauth.verify import (
    CONFIDENCE,
    TrialStats,
    _acceptance,
    clopper_pearson,
    monte_carlo,
    oracle_intercept_resend,
    oracle_no_message,
    oracle_no_message_any_codeword,
    oracle_p_dec,
    _accepted,
    _intercepted,
    _CHUNK,
)
from reference_model import covering_range


@pytest.fixture(scope="module")
def rep3():
    return make_repetition(3)


@pytest.fixture(scope="module")
def rep5():
    return make_repetition(5)


@pytest.fixture(scope="module")
def ham():
    return make_hamming_7_4()


class TestNoMessageOracles:
    def test_rep3_exact_codeword(self, rep3):
        # (3/4)^3 is the exact-codeword event; the other codeword adds 1/64
        report = oracle_no_message(rep3)
        assert report.formula_value == Fraction(27, 64)
        assert report.exact_value == Fraction(7, 16)
        assert report.gap == Fraction(1, 64)

    def test_hamming_exact_codeword(self, ham):
        report = oracle_no_message(ham)
        assert report.formula_value == Fraction(3**7, 4**7)
        assert report.exact_value == oracle_no_message_any_codeword(ham)

    # every pinned code the containment table reaches (n <= 16)
    TABLE_CODES = [
        "rep3", "rep5", "rep7", "rep9", "rep11", "rep13", "rep15", "hamming74",
        "bch-7-4-1", "bch-15-7-2", "bch-15-11-1", "bch-15-5-3", "random-10-6",
    ]

    @pytest.mark.parametrize("selector", TABLE_CODES)
    def test_enumeration_equals_weight_distribution(self, selector):
        # the table sum against the weight-distribution sum, two independent
        # routes to the same acceptance probability
        code = _pinned_code(selector)
        assert oracle_no_message(code).exact_value == (
            oracle_no_message_any_codeword(code)
        )

    def test_matches_formula(self):
        # repN has weights 0 and n only: acceptance is (3^n + 1) / 4^n
        for n in range(3, 17, 2):
            assert oracle_no_message(make_repetition(n)).exact_value == (
                Fraction(3**n + 1, 4**n)
            )

    def test_rep3_any_codeword(self, rep3):
        assert oracle_no_message_any_codeword(rep3) == Fraction(28, 64)

    def test_hamming_any_codeword(self, ham):
        expected = Fraction(3, 4) ** 7 * (
            1 + 7 * Fraction(1, 3) ** 3 + 7 * Fraction(1, 3) ** 4 + Fraction(1, 3) ** 7
        )
        assert oracle_no_message_any_codeword(ham) == expected

    def test_any_at_least_exact(self):
        # every nonzero codeword adds acceptance beyond the exact-codeword event
        for selector in self.TABLE_CODES:
            code = _pinned_code(selector)
            assert code.m >= 1
            assert oracle_no_message(code).gap > 0, selector

    def test_size_bound(self):
        with pytest.raises(UnsupportedSizeError):
            oracle_no_message(make_repetition(17))


class TestAcceptanceTable:
    """Bob's acceptance on every mask, against a naive codeword count."""

    @pytest.mark.parametrize("selector", [
        "rep3", "rep5", "hamming74", "bch-7-4-1", "short-hamming63", "random-10-6",
    ])
    def test_every_mask_against_a_naive_count(self, selector):
        code = _pinned_code(selector)
        n = code.n
        codewords = list(code.codewords())
        accept = _acceptance(code)
        assert len(accept) == 1 << n
        for r in range(1 << n):
            inside = sum(1 for c in codewords if c & ~r == 0)
            assert accept[r] == inside << (n - r.bit_count()), r
        assert sum(accept) == 4**n * oracle_no_message_any_codeword(code)


class TestDecodeOracle:
    @pytest.mark.parametrize("maker", [
        lambda: make_repetition(3),
        lambda: make_repetition(5),
        make_hamming_7_4,
    ])
    def test_gap_is_zero(self, maker):
        report = oracle_p_dec(maker())
        assert report.equal
        assert report.gap == 0

    def test_rep3_value(self, rep3):
        assert oracle_p_dec(rep3).exact_value == Fraction(27, 32)

    def test_size_bound(self):
        with pytest.raises(UnsupportedSizeError):
            oracle_p_dec(make_repetition(13))


class TestInterceptResendOracle:
    def test_deterministic(self, rep3):
        a = oracle_intercept_resend(rep3)
        b = oracle_intercept_resend(rep3)
        assert a == b

    def test_gap_is_reported_signed(self, rep3, ham):
        for code in (rep3, ham):
            report = oracle_intercept_resend(code)
            assert report.gap == report.exact_value - report.formula_value
            assert report.gap != 0  # the closed form embeds a modeling assumption

    def test_abort_at_most_resend(self, rep3, ham):
        # rep3 and hamming74 are perfect, so only the imperfect codes can
        # make the inequality strict
        for code, strict in (
            (rep3, False),
            (ham, False),
            (_pinned_code("short-hamming63"), True),
            (_pinned_code("random-10-6"), True),
        ):
            abort = oracle_intercept_resend(code, ABORT).exact_value
            resend = oracle_intercept_resend(code, RESEND_UNCORRECTED).exact_value
            assert abort < resend if strict else abort == resend, code.name

    def test_policies_agree_on_perfect_code(self):
        # BCH[7,4] is the perfect Hamming code: every word decodes, so the
        # failure policy never applies (TestPinnedOracleValues pins the
        # imperfect short-hamming63, where the two differ)
        code = build_bch(3, 1)
        a = oracle_intercept_resend(code, ABORT).exact_value
        r = oracle_intercept_resend(code, RESEND_UNCORRECTED).exact_value
        assert a == r

    def test_size_bound(self, rep3):
        with pytest.raises(UnsupportedSizeError):
            oracle_intercept_resend(make_repetition(13))

    def test_invalid_policy_rejected(self, rep3):
        with pytest.raises(ParameterError):
            oracle_intercept_resend(rep3, "bogus")


class TestOracleEnumeration:
    """Each decoder-in-the-loop oracle decodes every (D, e ⊆ D) pair once.

    Readout e lies under the 2^(n-|e|) differences D that contain it, so
    it is decoded that many times, 3^n decodes in all.
    """

    @pytest.fixture
    def decoded(self, monkeypatch):
        words = Counter()
        decode = LinearCode.decode

        def recorded(code, received):
            words[received] += 1
            return decode(code, received)

        monkeypatch.setattr(LinearCode, "decode", recorded)
        return words

    @pytest.mark.parametrize("oracle", [
        oracle_p_dec,
        lambda code: oracle_intercept_resend(code, ABORT),
        lambda code: oracle_intercept_resend(code, RESEND_UNCORRECTED),
    ], ids=["p_dec", "ir_abort", "ir_resend_uncorrected"])
    @pytest.mark.parametrize("maker", [
        make_hamming_7_4, lambda: make_repetition(5),
    ], ids=["hamming74", "rep5"])
    def test_every_pair_is_decoded_once(self, oracle, maker, decoded):
        code = maker()
        oracle(code)
        n = code.n
        assert decoded == {e: 1 << (n - e.bit_count()) for e in range(1 << n)}
        assert sum(decoded.values()) == 3**n


@st.composite
def _generator_columns(draw):
    """(k, columns): n <= 9 columns of k bits, zero and repeated ones included."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    columns = st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)
    return k, draw(columns.filter(any))


def _code_of_columns(k, columns):
    """The code the k rows of these columns span, at t = (d - 1) // 2."""
    n = len(columns)
    rows = [
        sum(((c >> r) & 1) << j for j, c in enumerate(columns)) for r in range(k)
    ]
    weights = LinearCode("probe", rows, n, 0).weight_distribution()
    d = next(w for w in range(1, n + 1) if weights[w])
    return LinearCode(f"random-{n}", rows, n, (d - 1) // 2)


class TestIdentitiesOnRandomCodes:
    """Every oracle identity on random [n <= 9, m] codes, not a pinned list."""

    @given(_generator_columns())
    @example((3, [1, 2, 4]))  # m = n, t = 0
    @example((2, [0, 1, 2, 3]))  # a zero column
    @example((2, [1, 1, 2, 2, 3]))  # repeated columns
    @example((1, [1] * 9))  # rep9, t = 4
    @settings(max_examples=300, deadline=None)
    def test_oracle_identities(self, generator):
        code = _code_of_columns(*generator)
        assert oracle_p_dec(code).exact_value == analytics.p_dec(code.n, code.t)
        assert oracle_no_message(code).exact_value == (
            oracle_no_message_any_codeword(code)
        )
        abort = oracle_intercept_resend(code, ABORT).exact_value
        resend = oracle_intercept_resend(code, RESEND_UNCORRECTED).exact_value
        assert abort <= resend


def _pinned_code(selector):
    if selector == "short-hamming63":
        # shortened Hamming [6, 3]: 7 patterns of weight <= 1 fill 7 of its
        # 8 syndromes, so some decodes fail and the two policies differ
        return LinearCode(selector, [0b110001, 0b101010, 0b011100], 6, 1)
    if selector == "random-10-6":
        # a random imperfect [10, 6] code: seed 43 is the first whose six
        # 10-bit rows span six dimensions at d = 3 (the constructor checks
        # that t = 1 is corrected); 11 patterns of weight <= 1 fill 11 of
        # its 16 syndromes
        randomness = Random(43)
        rows = [randomness.getrandbits(10) for _ in range(6)]
        return LinearCode(selector, rows, 10, 1)
    return resolve_code(selector)


class TestPinnedOracleValues:
    """Exact oracle rationals; any change to the enumeration must keep them."""

    # perfect codes: no decode fails, so both policies give these values
    IR_VALUES = {
        "rep3": Fraction(37, 64),
        "rep5": Fraction(913, 2048),
        "rep7": Fraction(46085, 131072),
        "rep9": Fraction(2317217, 8388608),
        "rep11": Fraction(115817191, 536870912),
        "hamming74": Fraction(233, 1024),
        "bch-7-4-1": Fraction(233, 1024),
    }
    P_DEC_VALUES = {
        "rep3": Fraction(27, 32),
        "rep5": Fraction(459, 512),
        "rep7": Fraction(3807, 4096),
        "rep9": Fraction(124659, 131072),
        "rep11": Fraction(1012581, 1048576),
        "hamming74": Fraction(3645, 8192),
        "short-hamming63": Fraction(2187, 4096),
        "random-10-6": Fraction(255879, 1048576),
    }

    CASES = [
        (f"ir-{policy}", selector, value)
        for selector, value in IR_VALUES.items()
        for policy in (ABORT, RESEND_UNCORRECTED)
    ] + [
        (f"ir-{ABORT}", "short-hamming63", Fraction(545, 2048)),
        (f"ir-{RESEND_UNCORRECTED}", "short-hamming63", Fraction(285, 1024)),
        (f"ir-{ABORT}", "random-10-6", Fraction(11551, 131072)),
        (f"ir-{RESEND_UNCORRECTED}", "random-10-6", Fraction(1779, 16384)),
    ] + [("pdec", selector, value) for selector, value in P_DEC_VALUES.items()]

    @pytest.mark.parametrize(
        "oracle, selector, expected", CASES, ids=[f"{o}-{s}" for o, s, _ in CASES]
    )
    def test_exact_value(self, oracle, selector, expected):
        code = _pinned_code(selector)
        if oracle == "pdec":
            report = oracle_p_dec(code)
        else:
            report = oracle_intercept_resend(code, oracle.removeprefix("ir-"))
        assert report.exact_value == expected

    def test_random_code_is_a_10_6_code_at_distance_3(self):
        code = _pinned_code("random-10-6")
        assert (code.n, code.m, code.t) == (10, 6, 1)
        assert code.weight_distribution()[:4] == [1, 0, 0, 9]


class TestClopperPearson:
    def test_extremes(self):
        low, high = clopper_pearson(0, 100)
        assert low == 0.0 and 0 < high < 0.1
        low, high = clopper_pearson(100, 100)
        assert 0.9 < low < 1 and high == 1.0

    def test_half(self):
        low, high = clopper_pearson(500, 1000)
        assert low < 0.5 < high
        assert high - low < 0.1

    def test_interval_narrows(self):
        narrow = clopper_pearson(5000, 10000)
        wide = clopper_pearson(50, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    @pytest.mark.parametrize("trials", [1, 2, 7, 100, 10007])
    def test_equals_the_beta_quantiles(self, trials):
        # betaincinv(a, b, q) and beta.ppf(q, a, b) give the same floats
        from scipy.stats import beta

        alpha = 1 - CONFIDENCE
        for k in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
            low = beta.ppf(alpha / 2, k, trials - k + 1) if k else 0.0
            high = beta.ppf(1 - alpha / 2, k + 1, trials - k) if k < trials else 1.0
            assert clopper_pearson(k, trials) == (low, high), k

    def test_simulate_leaves_scipy_stats_unloaded(self, tmp_path):
        # the interval needs scipy.special only, which imports in about a
        # third of the time and half the memory of scipy.stats
        script = (
            "import sys; from qauth.cli import main; "
            f"rc = main(['simulate', 'honest', '--code', 'rep3', '--trials', '5', "
            f"'--out', {str(tmp_path / 'report.json')!r}]); "
            "print(rc, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(qsim.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "True", "False"]

    def test_importing_qauth_leaves_scipy_unloaded(self):
        # scipy.special takes half a second to import; only an interval
        # needs it.  numpy is a dependency of scipy and of the tests, not
        # of qauth.
        out = subprocess.run(
            [sys.executable, "-c",
             "import qauth, sys; print('scipy' in sys.modules, 'numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(qsim.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "False"]


class TestMonteCarlo:
    def test_reproducible(self, rep3):
        adversary = NoMessageStrategy(BitWord(1, 1))
        a = monte_carlo(rep3, 2000, 7, adversary=adversary)
        b = monte_carlo(rep3, 2000, 7, adversary=adversary)
        assert a == b

    def test_seed_changes_stream(self, rep3):
        adversary = NoMessageStrategy(BitWord(1, 1))
        a = monte_carlo(rep3, 2000, 7, adversary=adversary)
        b = monte_carlo(rep3, 2000, 8, adversary=adversary)
        assert a.successes != b.successes

    def test_honest_always_accepts(self, ham):
        stats = monte_carlo(ham, 500, 3)
        assert stats.successes == 500
        assert stats.estimate == 1

    def test_no_message_interval_covers_oracle(self, rep3):
        truth = oracle_no_message_any_codeword(rep3)  # 28/64
        stats = monte_carlo(
            rep3, 40000, 11, adversary=NoMessageStrategy(BitWord(1, 1))
        )
        assert stats.ci_low <= truth <= stats.ci_high

    def test_no_message_interval_exact_coverage(self, rep3):
        # test_no_message_interval_covers_oracle's law: P(the interval of
        # k ~ Binomial(40000, 7/16) holds 7/16) >= 0.99, summed exactly
        p = oracle_no_message_any_codeword(rep3)
        assert p == Fraction(7, 16)
        trials = 40000
        lo, hi = covering_range(trials, p)
        for k in (lo - 1, lo, hi, hi + 1):
            low, high = clopper_pearson(k, trials)
            assert (low <= p <= high) == (lo <= k <= hi), k
        # 16^T·P(k) in integers, each term from the last by its ratio
        term = comb(trials, lo) * 7**lo * 9 ** (trials - lo)
        covered = term
        for k in range(lo, hi):
            term = term * (trials - k) * 7 // ((k + 1) * 9)
            covered += term
        assert 100 * covered >= 99 * 16**trials

    def test_coverage_meta(self, rep3):
        # the 99% interval should cover the truth in nearly all repeats
        truth = oracle_no_message_any_codeword(rep3)
        adversary = NoMessageStrategy(BitWord(1, 1))
        runs = [monte_carlo(rep3, 800, seed, adversary=adversary) for seed in range(40)]
        covered = sum(stats.ci_low <= truth <= stats.ci_high for stats in runs)
        assert covered >= 38

    def test_exact_coverage(self, rep3):
        # test_coverage_meta's law: P(the interval of k ~ Binomial(800, p)
        # holds p), summed exactly over every k
        p = oracle_no_message_any_codeword(rep3)
        assert p == Fraction(7, 16)
        trials = 800
        intervals = (clopper_pearson(k, trials) for k in range(trials + 1))
        covered = sum(
            comb(trials, k) * 7**k * 9 ** (trials - k)
            for k, (low, high) in enumerate(intervals)
            if low <= p <= high
        )
        assert Fraction(covered, 16**trials) >= Fraction(99, 100)

    @pytest.mark.parametrize("selector, policy", [
        ("hamming74", ABORT),
        ("short-hamming63", ABORT),
        ("short-hamming63", RESEND_UNCORRECTED),
    ])
    def test_intercept_resend_interval_covers_oracle(self, selector, policy):
        # forge is the one rule both engines run, so the exhaustive oracle
        # is its independent check; a 1 - 1e-6 Clopper-Pearson interval
        # misses the truth once in a million runs of a correct kernel
        from scipy.stats import beta

        code = _pinned_code(selector)
        truth = oracle_intercept_resend(code, policy).exact_value
        trials, alpha = 20000, 1e-6
        adversary = InterceptResendStrategy(BitWord(1, code.m), policy)
        k = monte_carlo(code, trials, 2024, adversary=adversary).successes
        low = beta.ppf(alpha / 2, k, trials - k + 1) if k else 0.0
        high = beta.ppf(1 - alpha / 2, k + 1, trials - k) if k < trials else 1.0
        assert low <= truth <= high, (k, float(truth))

    def test_json_fields(self, rep3):
        stats = monte_carlo(rep3, 50, 1)
        d = stats.to_json_dict()
        assert set(d) == {
            "trials", "successes", "estimate", "ci_low", "ci_high",
            "confidence", "seed",
        }


KERNEL_CODES = ["rep3", "rep5", "hamming74", "bch-15-7-2", "bch-31-6-7", "bch-63-18"]
KERNEL_MODES = {
    "honest": lambda m: None,
    "no-message-zero": lambda m: NoMessageStrategy(BitWord.zeros(m)),
    "no-message-nonzero": lambda m: NoMessageStrategy(BitWord(1, m)),
    "ir-abort": lambda m: InterceptResendStrategy(BitWord(1, m), ABORT),
    "ir-resend-uncorrected": lambda m: InterceptResendStrategy(
        BitWord(1, m), RESEND_UNCORRECTED
    ),
}


def _reference_stats(code, trials, seed, adversary, message):
    """monte_carlo's result, computed with qubit-handle sessions."""
    successes = sum(
        run_session(
            message, code, adversary=adversary, randomness=substream(seed, "trial", i)
        ).accepted
        for i in range(trials)
    )
    return TrialStats.of(successes, trials, seed)


def _reads(adversary):
    """Monte Carlo runs ``adversary`` through ``_intercepted``."""
    return adversary is not None and adversary.reads


def _kernel(adversary):
    """The kernel that counts ``adversary``'s sessions, as monte_carlo picks it."""
    return _intercepted if _reads(adversary) else _accepted


def _bits(adversary, n):
    """A trial word's width: 2n honest, 3n no-message, 4n when Eve reads."""
    return (2 if adversary is None else 4 if adversary.reads else 3) * n


def _word(n, *fields):
    """The n-bit fields side by side, the first lowest: one trial word."""
    return sum(field << n * i for i, field in enumerate(fields))


class _CountingStream:
    """A stream that records the width of every draw."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = []

    def getrandbits(self, k):
        self.draws.append(k)
        return self.stream.getrandbits(k)


def _count_against_run_session(code, adversary, trials, seed):
    """The sessions run_session accepts on trials 0..trials-1, checked
    trial by trial against the kernel on each trial's word.

    run_session draws exactly the word's bits on the trial's stream,
    Bob's coins only if something is sent, and monte_carlo counts the
    same sessions.
    """
    message = BitWord.zeros(code.m)
    forged = None if adversary is None else code.encode(adversary.forged_message)
    kernel, bits = _kernel(adversary), _bits(adversary, code.n)
    accepted = 0
    for trial, word in enumerate(trial_words(seed, 0, trials, bits)):
        stream = _CountingStream(substream(seed, "trial", trial))
        record = run_session(message, code, adversary=adversary, randomness=stream)
        assert kernel(code, adversary, forged, [word]) == record.accepted, trial
        transcript = record.adversary_transcript
        sent = transcript is None or transcript["resent"]
        assert sum(stream.draws) == bits - (0 if sent else code.n), trial
        accepted += record.accepted
    assert monte_carlo(code, trials, seed, adversary=adversary) == (
        TrialStats.of(accepted, trials, seed)
    )
    return accepted


class TestWordKernel:
    """monte_carlo's word-level sessions are run_session's sessions."""

    TRIALS = 200
    SEED = 4242

    @pytest.fixture(scope="class", params=KERNEL_CODES)
    def kernel_code(self, request):
        return resolve_code(request.param)

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    def test_each_trial_matches_run_session(self, kernel_code, mode):
        adversary = KERNEL_MODES[mode](kernel_code.m)
        _count_against_run_session(kernel_code, adversary, self.TRIALS, self.SEED)

    @pytest.mark.parametrize("mode", ["honest", "no-message-zero", "no-message-nonzero"])
    def test_n_255_matches_run_session(self, mode):
        # a no-message word (3n = 765 bits) leaves block 0, and its
        # 96-byte slot is wider than any struct int
        code = resolve_code("bch-255-247-1")
        adversary = KERNEL_MODES[mode](code.m)
        accepted = _count_against_run_session(code, adversary, 3000, 77)
        if adversary is None:
            assert accepted == 3000
        else:  # some sessions pass, so the check compares accepted ones too
            assert 0 < accepted < 3000

    def test_builds_no_qubit_handles(self, ham, monkeypatch):
        def refuse(*args):
            raise AssertionError("monte_carlo prepared a qubit handle")

        monkeypatch.setattr(qsim.QubitHandle, "__init__", refuse)
        adversary = InterceptResendStrategy(BitWord(1, ham.m))
        assert monte_carlo(ham, 100, 1, adversary=adversary).trials == 100


class _ForgeSpy:
    """A strategy that runs another's ``forge`` and records each call's
    (x_E, m_E, x_E')."""

    act = act_on_channel

    def __init__(self, strategy):
        self.strategy = strategy
        self.name = strategy.name
        self.forged_message = strategy.forged_message
        self.reads = strategy.reads
        self.calls = []

    def forge(self, code, x_e, m_e):
        forgery = self.strategy.forge(code, x_e, m_e)
        self.calls.append((x_e, m_e, forgery[2]))
        return forgery


class TestEveSeesRunSessionsWords:
    """Under intercept-resend, monte_carlo hands ``forge`` the x_E and
    m_E of run_session's transcript, trial by trial, and gets its x_E'.

    At n = 255 a trial's 4n bits span two blocks: x_E, Eve's coins and
    Bob's coins straddle bit 512.
    """

    TRIALS = 200
    SEED = 515

    @pytest.mark.parametrize("policy", [ABORT, RESEND_UNCORRECTED])
    @pytest.mark.parametrize(
        "selector", ["hamming74", "bch-31-6-7", "bch-127-22", "bch-255-239-2"]
    )
    def test_forge_inputs_match_the_transcript(self, selector, policy):
        code = resolve_code(selector)
        strategy = InterceptResendStrategy(BitWord(1, code.m), policy)
        spy = _ForgeSpy(strategy)
        stats = monte_carlo(code, self.TRIALS, self.SEED, adversary=spy)
        records = [
            run_session(BitWord.zeros(code.m), code, strategy,
                        randomness=substream(self.SEED, "trial", trial))
            for trial in range(self.TRIALS)
        ]
        assert [
            tuple(None if word is None else format(word, "x") for word in call)
            for call in spy.calls
        ] == [
            tuple(record.adversary_transcript[key] for key in ("x_E", "m_E", "x_E_prime"))
            for record in records
        ]
        forged = code.encode(strategy.forged_message)
        words = trial_words(self.SEED, 0, self.TRIALS, 4 * code.n)
        assert [_intercepted(code, strategy, forged, [word]) for word in words] == [
            record.accepted for record in records
        ]
        assert stats.successes == sum(record.accepted for record in records)


class ScriptedStream:
    """A stream whose bits are the queued n-bit words, low bit first.

    The words form one little-endian bit stream, so a draw of j·n bits
    takes the next j words, the first lowest.
    """

    def __init__(self, n, *words):
        assert all(0 <= word < 1 << n for word in words), (n, words)
        self.n = n
        self.words = list(words)

    def getrandbits(self, k):
        count, rest = divmod(k, self.n)
        assert not rest and count <= len(self.words), (k, self.words)
        drawn, self.words = self.words[:count], self.words[count:]
        return _word(self.n, *drawn)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _kernel_law(code, strategy, key=0, message=None):
    """P(a session accepts) under ``key``, by enumerating its draws.

    The session is the kernel, where Alice sends the zero codeword (a
    one-word chunk, the draws as the word's n-bit fields), or with
    ``message`` the reference ``run_session`` on a scripted stream,
    where she sends its codeword c; Eve sends the codeword of her
    message.
    The draws are the key, every x_E, Eve's coin word (if she reads)
    over the readouts c ^ e with e ⊆ D = key ^ x_E, and Bob's coin word
    over the subsets of R = key ^ x_E'.  Every other coin bit is the
    complement of the bit its qubit was prepared in, so a coin read at a
    matched position flips that bit.  A session that reads only the
    coins of mismatched positions sees 2^(n - |D|) Eve words and
    2^(n - |R|) Bob words alike in each case, which is its weight.  R is
    the session's own: a first run records x_E'.  A session whose
    forgery is dropped is a reject, even when Bob's coins would read
    the forgery, and ``run_session`` leaves Bob's word undrawn.
    """
    n = code.n
    mask = (1 << n) - 1
    sent = 0 if message is None else code.encode(message)
    forged = code.encode(strategy.forged_message)
    bob_fill = mask ^ forged
    recorder = _ForgeSpy(strategy)
    reads = strategy.reads
    kernel = _kernel(strategy)

    def session(*draws):
        """The verdict on these draws, and the words a stream left undrawn."""
        if message is None:
            return kernel(code, recorder, forged, [_word(n, *draws)]), None
        stream = ScriptedStream(n, *draws)
        return run_session(message, code, recorder, randomness=stream).accepted, stream.words

    total = 0
    for x_e in range(1 << n):
        d = key ^ x_e
        for e in _submasks(d) if reads else [None]:
            # c ^ e on D, ~c off it
            draws = [key, x_e] + ([sent ^ e ^ mask & ~d] if reads else [])
            session(*draws, bob_fill)
            resend_bases = recorder.calls[-1][2]
            if resend_bases is None:  # nothing arrives: a reject
                accepted, left = session(*draws, forged)  # coins reading the forgery
                assert not accepted
                assert left == (None if message is None else [forged])  # Bob drew nothing
                continue
            r = key ^ resend_bases
            weight = (n - d.bit_count() if reads else 0) + n - r.bit_count()
            for b in _submasks(r):
                accepted, left = session(*draws, b | bob_fill & ~r)
                if accepted:
                    total += 1 << weight
                assert not left
    return Fraction(total, 1 << ((3 if reads else 2) * n))


class TestKernelLaw:
    """The kernel's exact law, enumerated over its draws, is the oracles'.

    The Monte Carlo intervals check the same law only statistically and
    re-roll with every stream change; this checks it exactly, with the
    BCH decoder in the loop on bch-7-4-1.  run_session's law at a
    nonzero message is the same, since Bob accepts any codeword.
    """

    CODES = ["rep3", "rep5", "hamming74", "bch-7-4-1"]

    @pytest.mark.parametrize("selector", CODES + ["rep7", "rep9"])
    def test_no_message(self, selector):
        code = resolve_code(selector)
        strategy = NoMessageStrategy(BitWord(1, code.m))
        assert _kernel_law(code, strategy) == oracle_no_message(code).exact_value

    @pytest.mark.parametrize("policy", [ABORT, RESEND_UNCORRECTED])
    @pytest.mark.parametrize("selector", CODES)
    def test_intercept_resend(self, selector, policy):
        code = resolve_code(selector)
        strategy = InterceptResendStrategy(BitWord(1, code.m), policy)
        assert _kernel_law(code, strategy) == (
            oracle_intercept_resend(code, policy).exact_value
        )

    @pytest.mark.parametrize("selector", ["hamming74", "bch-7-4-1", "rep7"])
    def test_no_message_at_a_nonzero_key(self, selector):
        code = resolve_code(selector)
        strategy = NoMessageStrategy(BitWord(1, code.m))
        assert _kernel_law(code, strategy, key=0b1011001) == (
            oracle_no_message(code).exact_value
        )

    @pytest.mark.parametrize("policy", [ABORT, RESEND_UNCORRECTED])
    @pytest.mark.parametrize("selector", ["hamming74", "bch-7-4-1"])
    def test_intercept_resend_at_a_nonzero_key(self, selector, policy):
        code = resolve_code(selector)
        strategy = InterceptResendStrategy(BitWord(1, code.m), policy)
        assert _kernel_law(code, strategy, key=0b1011001) == (
            oracle_intercept_resend(code, policy).exact_value
        )

    # These codes are perfect, so every decode succeeds and abort runs
    # resend_uncorrected's sessions; at n = 7 that repeat costs 3 s a code.
    @pytest.mark.parametrize("selector, policy", [
        (selector, policy)
        for selector in CODES
        for policy in (None, ABORT, RESEND_UNCORRECTED)
        if policy != ABORT or selector in ("rep3", "rep5")
    ])
    def test_reference_engine_at_a_nonzero_message(self, selector, policy):
        # Alice sends a nonzero codeword through qubit handles, Eve forges 0
        code = resolve_code(selector)
        forged_message = BitWord.zeros(code.m)
        if policy is None:
            strategy = NoMessageStrategy(forged_message)
            truth = oracle_no_message(code)
        else:
            strategy = InterceptResendStrategy(forged_message, policy)
            truth = oracle_intercept_resend(code, policy)
        law = _kernel_law(code, strategy, message=BitWord(1, code.m))
        assert law == truth.exact_value

    @pytest.mark.parametrize("key", [0, 0b101101])
    @pytest.mark.parametrize("policy", [ABORT, RESEND_UNCORRECTED])
    def test_intercept_resend_on_a_non_perfect_code(self, policy, key):
        # some decodes of short-hamming63 fail, so abort sends nothing on
        # them (and Bob draws nothing), and its law is below resend's
        code = _pinned_code("short-hamming63")
        assert not all(code.decode(e)[0] for e in range(1 << code.n))
        strategy = InterceptResendStrategy(BitWord(1, code.m), policy)
        assert _kernel_law(code, strategy, key=key) == (
            oracle_intercept_resend(code, policy).exact_value
        )

    def test_algebraic_decoder_in_the_loop(self):
        assert isinstance(resolve_code("bch-7-4-1").decoder, BchAlgebraicDecoder)

    @pytest.mark.parametrize("key", range(8))
    def test_every_key_at_n_3(self, rep3, key):
        # the law does not depend on the key, under any attack
        assert _kernel_law(rep3, NoMessageStrategy(BitWord(1, 1)), key) == (
            oracle_no_message(rep3).exact_value
        )
        for policy in (ABORT, RESEND_UNCORRECTED):
            strategy = InterceptResendStrategy(BitWord(1, 1), policy)
            assert _kernel_law(rep3, strategy, key) == (
                oracle_intercept_resend(rep3, policy).exact_value
            )


class TestBatchIndependence:
    """Sessions run side by side count as the same sessions run one by one."""

    SELECTORS = ["rep3", "hamming74", "short-hamming63", "bch-15-7-2",
                 "bch-31-6-7", "bch-63-18", "bch-127-22"]

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    @pytest.mark.parametrize("selector", SELECTORS)
    def test_a_batch_is_the_sum_of_its_streams(self, selector, mode):
        code = _pinned_code(selector)
        adversary = KERNEL_MODES[mode](code.m)
        forged = None if adversary is None else code.encode(adversary.forged_message)
        kernel, bits = _kernel(adversary), _bits(adversary, code.n)
        words = trial_words(12, 0, 150, bits)
        assert kernel(code, adversary, forged, words) == sum(
            kernel(code, adversary, forged, [word]) for word in words
        )
        # and each word is its stream's first bits
        assert words == [substream(12, "trial", i).getrandbits(bits) for i in range(150)]
        assert kernel(code, adversary, forged, []) == 0

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    @pytest.mark.parametrize("selector", ["rep3", "hamming74"])
    def test_past_one_chunk_matches_run_session(self, selector, mode):
        code = resolve_code(selector)
        adversary = KERNEL_MODES[mode](code.m)
        trials = _CHUNK + 3
        assert monte_carlo(code, trials, 77, adversary=adversary) == (
            _reference_stats(code, trials, 77, adversary, BitWord.zeros(code.m))
        )


def _count_hashes(monkeypatch):
    """A list that gets one entry per BLAKE2b hash ``rng`` makes."""
    hashes = []

    def counted(data):
        hashes.append(data)
        return blake2b(data)

    monkeypatch.setattr(rng, "blake2b", counted)
    return hashes


class TestOneHashPerTrial:
    """A session reads only its trial's block 0 digest.

    It draws at most four n-bit words, and 4n <= 512 for n <= 128:
    ``substream`` hashes block 0 for a session on a stream, and
    ``trial_words`` hashes it for a rule that reads.
    """

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    @pytest.mark.parametrize("selector", DEFAULT_TABLE_CODES)
    def test_word_session_stays_in_block_0(self, selector, mode, monkeypatch):
        code = resolve_code(selector)
        adversary = KERNEL_MODES[mode](code.m)
        hashes = _count_hashes(monkeypatch)
        monte_carlo(code, 20, 5, adversary=adversary)
        assert hashes == [
            f"5/trial/{trial}".encode() + bytes(8) for trial in range(20)
        ]

    @pytest.mark.parametrize("policy", [ABORT, RESEND_UNCORRECTED])
    def test_n_255_hashes_two_blocks_a_trial(self, policy, monkeypatch):
        code = resolve_code("bch-255-239-2")
        adversary = InterceptResendStrategy(BitWord(1, code.m), policy)
        hashes = _count_hashes(monkeypatch)
        monte_carlo(code, 20, 5, adversary=adversary)
        assert sorted(hashes) == sorted(
            f"5/trial/{trial}".encode() + block.to_bytes(8, "little")
            for trial in range(20)
            for block in (0, 1)
        )

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    def test_hash_count_at_n_255(self, mode, monkeypatch):
        # honest words (2n = 510 bits) stay in block 0; 3n and 4n leave it
        code = resolve_code("bch-255-247-1")
        adversary = KERNEL_MODES[mode](code.m)
        hashes = _count_hashes(monkeypatch)
        monte_carlo(code, 20, 5, adversary=adversary)
        assert sorted(hashes) == sorted(
            f"5/trial/{trial}".encode() + block.to_bytes(8, "little")
            for trial in range(20)
            for block in ((0,) if adversary is None else (0, 1))
        )


def _session_draws(code, adversary, stream):
    """run_session's draw widths on ``stream``, read from its bits.

    It draws a word at a time: the key, then x_E and Eve's coins under
    an attack that reads them, then Bob's coins unless a failed decode
    aborts the send.
    """
    n = code.n
    if adversary is None:
        return [n] * 2
    if not adversary.reads:
        return [n] * 3
    key, x_e, coins = (stream.getrandbits(n) for _ in range(3))
    ok, _ = code.decode(qsim.measure_word(0, key ^ x_e, coins))
    if ok or adversary.on_decode_failure == RESEND_UNCORRECTED:
        return [n] * 4
    return [n] * 3


class TestOneDrawPerSession:
    """monte_carlo takes a trial's words in one draw.

    Honest and no-message trials draw 2n and 3n bits once on each
    trial's stream; a rule that reads takes one ``trial_words`` call of
    4n bits a trial a chunk, and no stream.  These are the bits
    run_session draws a word at a time.
    """

    @pytest.mark.parametrize("mode", list(KERNEL_MODES))
    @pytest.mark.parametrize("selector", DEFAULT_TABLE_CODES + ["rep3", "hamming74"])
    def test_draw_widths(self, selector, mode, monkeypatch):
        code = resolve_code(selector)
        adversary = KERNEL_MODES[mode](code.m)
        for trial in range(20):
            expected = _session_draws(code, adversary, substream(6, "trial", trial))
            stream = _CountingStream(substream(6, "trial", trial))
            run_session(BitWord.zeros(code.m), code, adversary, randomness=stream)
            assert stream.draws == expected, trial
        streams, calls = [], []

        def counted(*path):
            streams.append((path, _CountingStream(substream(*path))))
            return streams[-1][1]

        def recorded(*args):
            calls.append(args)
            return trial_words(*args)

        monkeypatch.setattr(verify, "substream", counted)
        monkeypatch.setattr(verify, "trial_words", recorded)
        monte_carlo(code, 20, 6, adversary=adversary)
        bits = _bits(adversary, code.n)
        drawn = [(path, stream.draws) for path, stream in streams]
        if _reads(adversary):
            assert (drawn, calls) == ([], [(6, 0, 20, bits)])
        else:
            assert (drawn, calls) == ([((6, "trial", i), [bits]) for i in range(20)], [])

    @pytest.mark.parametrize("selector", ["bch-15-7-2", "bch-63-18"])
    def test_abort_after_a_failed_decode_draws_once(self, selector):
        # nothing arrives: Bob draws nothing, and rejects whatever his
        # word holds, even coins that read the forgery
        code = resolve_code(selector)
        n = code.n
        adversary = InterceptResendStrategy(BitWord(1, code.m), ABORT)
        forged = code.encode(adversary.forged_message)
        aborted = 0
        for trial, word in enumerate(trial_words(8, 0, 40, 4 * n)):
            stream = _CountingStream(substream(8, "trial", trial))
            record = run_session(BitWord.zeros(code.m), code, adversary, randomness=stream)
            assert _intercepted(code, adversary, forged, [word]) == record.accepted
            if stream.draws == [n] * 3:
                aborted += 1
                assert not record.accepted
                reading = word & ((1 << 3 * n) - 1) | forged << 3 * n
                assert not _intercepted(code, adversary, forged, [reading])
            else:
                assert stream.draws == [n] * 4, trial
        assert aborted > 0


class TestChecksUnderOptimize:
    def test_invariants_hold_under_dash_o(self):
        # python -O strips asserts; these checks must survive it.
        script = (
            "from fractions import Fraction\n"
            "from qauth import analytics, codes, verify\n"
            "bch_15_7 = codes.build_bch(4, 2)\n"
            "cases = [\n"
            "    lambda: verify.TrialStats(10, 9, 0.0, 0.5, seed=0),\n"
            "    lambda: analytics._check_prob(Fraction(3, 2)),\n"
            "    lambda: codes.LinearCode('x', list(bch_15_7.generator.rows), 15, 2,\n"
            "                             {'w': 4, 'primitive_poly': 0b11001}),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "        print('accepted')\n"
            "    except ValueError:\n"
            "        print('rejected')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(qsim.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["rejected"] * 3
