"""Ground-truth engines: exhaustive oracles and Monte Carlo estimation.

The oracles recompute attack probabilities for small codes by complete
enumeration, the yardstick for both the closed-form analytics and the
simulator.  Both attack oracles read Bob's acceptance from one table
indexed by the mask on which his bases miss the key.  The
decoder-in-the-loop oracles decode once per (basis difference, readout)
pair, 3^n calls of ``LinearCode.decode`` under one bound, n <= 12,
walking the readouts (the submasks of each difference) inline; each
call is one index into the code's decode map.  Each sums an integer
numerator over a power of 2, so each result is one exact
``Fraction``.  Monte Carlo runs each trial on the first bits of its
stream, as ints, which ``monte_carlo`` alone derives: the same session
as ``protocol.run_session`` on that stream, with each attack's pure
``forge`` rule in the loop.  Honest and no-message sessions take 2n
and 3n bits; no-message ones run side by side on packed words.
Intercept-resend, where Eve decodes every readout, runs one session at
a time on 4n bits a trial, which ``rng.trial_words`` hashes for a whole
chunk.  Either way Bob's readouts are counted in one
``LinearCode.count_codewords`` call a chunk.
It reports exact (Clopper-Pearson) confidence intervals, since true
probabilities near 0 or 1 are common here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from struct import pack
from typing import Optional

from . import analytics
from .adversary import ABORT, RESEND_UNCORRECTED, decode_failure_policy
from .codes import SYNDROME_TABLE_MAX_PATTERNS, LinearCode
from .errors import ParameterError, UnsupportedSizeError
# monte_carlo does not call run_session, the qubit-handle session its
# kernel is tested against; bench/spans.py traces it as verify.run_session.
from .protocol import run_session  # noqa: F401
from .qsim import measure_word
from .rng import substream, trial_words

DECODE_ORACLE_MAX_N = 12  # each decoder-in-the-loop oracle decodes 3^n pairs
CONFIDENCE = 0.99  # of every Monte Carlo interval
_CHUNK = 4096  # Monte Carlo sessions run side by side; no result depends on it


@dataclass(frozen=True)
class OracleReport:
    """Enumerated ground truth next to a closed-form value."""

    name: str
    exact_value: Fraction
    formula_value: Fraction

    @property
    def gap(self) -> Fraction:
        return self.exact_value - self.formula_value

    @property
    def equal(self) -> bool:
        return self.gap == 0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "exact_value": str(self.exact_value),
            "formula_value": str(self.formula_value),
            "equal": self.equal,
            "gap": str(self.gap),
        }


# ---------------------------------------------------------------------------
# Bob's acceptance table and the no-message oracles.
# ---------------------------------------------------------------------------

def _acceptance(code: LinearCode) -> list[int]:
    """``accept[r]`` = 2^n · P(Bob accepts | his bases miss exactly on r).

    His coins pass iff they flip one of the inside[r] codewords c ⊆ r,
    counted by the subset-sum (zeta) transform in n·2^(n-1) additions.
    Like every 2^n-entry table, it is bounded by SYNDROME_TABLE_MAX_PATTERNS.
    """
    n = code.n
    if 1 << n > SYNDROME_TABLE_MAX_PATTERNS:
        raise UnsupportedSizeError(
            f"n={n}: 2^{n} acceptance-table masks exceed {SYNDROME_TABLE_MAX_PATTERNS}"
        )
    inside = [0] * (1 << n)
    for c in code.codewords():
        inside[c] = 1
    for j in range(n):
        bit = 1 << j
        for r in range(1 << n):
            if r & bit:
                inside[r] += inside[r ^ bit]
    return [count << (n - r.bit_count()) for r, count in enumerate(inside)]


def oracle_no_message(code: LinearCode) -> OracleReport:
    """Enumerated no-message acceptance next to the closed form (3/4)^n.

    The forger's bases miss the key on a uniform mask D, so acceptance
    is the mean of ``_acceptance`` over D, an integer over 4^n.  It must
    equal ``oracle_no_message_any_codeword``; (3/4)^n is the
    exact-codeword event alone, so the gap is positive.
    """
    n = code.n
    return OracleReport(
        f"p_f[{code.name}]",
        Fraction(sum(_acceptance(code)), 4**n),
        analytics.p_f_no_message(n),
    )


def oracle_no_message_any_codeword(code: LinearCode) -> Fraction:
    """P(receiver accepts at all): any codeword passes the syndrome test.

    Each measured bit independently equals the forger's intended bit
    with probability 3/4, so acceptance is sum_w A_w (1/4)^w (3/4)^(n-w)
    over the weight distribution A.
    """
    n = code.n
    weights = code.weight_distribution()
    total = sum(a_w * 3 ** (n - w) for w, a_w in enumerate(weights))
    return Fraction(total, 4**n)


# ---------------------------------------------------------------------------
# Intercept-resend oracles (decoder in the loop).
# ---------------------------------------------------------------------------

def _check_decode_walk(code: LinearCode) -> None:
    if code.n > DECODE_ORACLE_MAX_N:
        raise UnsupportedSizeError(
            f"n={code.n}: 3^{code.n} decodes exceed the decode-oracle "
            f"enumeration bound (n <= {DECODE_ORACLE_MAX_N})"
        )


def oracle_p_dec(code: LinearCode) -> OracleReport:
    """P(the eavesdropper's decode recovers the transmitted codeword).

    Enumerates every basis-difference pattern D and every readout on the
    mismatched positions, running the real decoder; an event counts only
    when the decoded codeword is the transmitted one (a miscorrection is
    not a correct decode).  Contract: equals p_dec(n, t) exactly.

    The zero codeword is sent, so readout e decodes correctly iff the
    decoder flips exactly e.  Each (D, e) pair has probability
    2^-n * 2^-|D|, so the sum is an integer over 2^(2n).
    """
    _check_decode_walk(code)
    n = code.n
    decode = code.decode
    hits = 0
    for d in range(1 << n):
        weight = 1 << (n - d.bit_count())
        e = d
        while True:  # every submask e of d, from d itself down to 0
            ok, flips = decode(e)
            if ok and flips == e:
                hits += weight
            if not e:
                break
            e = (e - 1) & d
    return OracleReport(
        f"p_dec[{code.name}]", Fraction(hits, 4**n), analytics.p_dec(n, code.t)
    )


def oracle_intercept_resend(
    code: LinearCode, on_decode_failure: str = ABORT
) -> OracleReport:
    """Exact intercept-resend forgery probability vs. the closed form.

    Full enumeration over the basis-difference pattern D, the
    eavesdropper's readout e (decoder in the loop, miscorrections
    included), and the receiver's readout under the any-codeword
    acceptance rule.  The zero codeword is sent, so the readout errs
    exactly on e, uniform over the submasks of D.  After decoding she
    flips her basis guess at the corrected positions (a failed decode
    flips nothing, and under abort sends nothing), leaving residual
    mismatch R = D xor flips, on which the receiver accepts with
    probability ``accept[R]`` / 2^n (see ``_acceptance``).  With (D, e)
    at probability 2^-n * 2^-|D|, each D adds its readouts' ``accept``
    sum times 2^(n-|D|) to an integer over 2^(3n).  Equality with
    p_f_prime is NOT expected; the signed gap is the result.  The cost
    is 3^n decodes plus the table.
    """
    resend = decode_failure_policy(on_decode_failure) == RESEND_UNCORRECTED
    _check_decode_walk(code)
    n = code.n
    accept = _acceptance(code)
    decode = code.decode
    total = 0
    for d in range(1 << n):
        given_d = 0
        e = d
        while True:  # every submask e of d, as in oracle_p_dec
            ok, flips = decode(e)
            if ok or resend:
                given_d += accept[d ^ flips]
            if not e:
                break
            e = (e - 1) & d
        total += given_d << (n - d.bit_count())
    return OracleReport(
        f"p_f_prime[{code.name}:{on_decode_failure}]",
        Fraction(total, 8**n),
        analytics.p_f_prime(n, code.t),
    )


# ---------------------------------------------------------------------------
# Monte Carlo with exact confidence intervals.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialStats:
    """Acceptance frequency with a Clopper-Pearson confidence interval."""

    trials: int
    successes: int
    ci_low: float
    ci_high: float
    seed: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    def __post_init__(self) -> None:
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise ValueError(
                f"estimate {self.estimate} outside its interval "
                f"[{self.ci_low}, {self.ci_high}]"
            )

    @classmethod
    def of(cls, successes: int, trials: int, seed: int) -> "TrialStats":
        low, high = clopper_pearson(successes, trials)
        return cls(trials, successes, low, high, seed)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "estimate": str(self.estimate),
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": CONFIDENCE,
            "seed": self.seed,
        }


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact two-sided interval: quantiles of beta distributions.

    ``betaincinv(a, b, q)`` is the q-quantile of Beta(a, b), the same
    float as ``scipy.stats.beta.ppf(q, a, b)`` at a fraction of the cost
    and of the import.
    """
    # half a second to import; only intervals need it
    from scipy.special import betaincinv

    alpha = 1.0 - CONFIDENCE
    low = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, alpha / 2)
    )
    high = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1 - alpha / 2)
    )
    return low, high


_STRUCT_INTS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct's little-endian unsigned ints


def _slot(bits: int) -> int:
    """Bytes a slot gives a ``bits``-bit word.

    That is ceil(bits/8), widened to a struct int width (1, 2, 4 or 8
    bytes) where one holds it, so ``struct`` packs a whole chunk in one
    call.  No result depends on the slot size.
    """
    size = (bits + 7) >> 3
    return size if size > 8 else 1 << (size - 1).bit_length()


def _pack(words: list[int], size: int) -> bytes:
    """The words side by side in ``size``-byte little-endian slots."""
    code = _STRUCT_INTS.get(size)
    if code is None:
        return b"".join(map(int.to_bytes, words, repeat(size), repeat("little")))
    return pack(f"<{len(words)}{code}", *words)


def _repeated(word: int, size: int, count: int) -> int:
    """``word`` in each of ``count`` slots of ``size`` bytes."""
    return int.from_bytes(word.to_bytes(size, "little") * count, "little")


def _accepted(
    code: LinearCode, adversary, forged: Optional[int], words: list[int]
) -> int:
    """How many honest or no-message sessions Bob accepts, one per word.

    Alice sends the zero codeword, and ``forged`` is Eve's, as an int.
    A word is the first 2n bits of its trial's stream when honest, 3n
    under attack, cut into n-bit fields in draw order as in
    ``_intercepted``: the key, then x_E under attack, then Bob's coins,
    the bits ``protocol.run_session`` draws on that stream.

    A rule that does not read always sends and acts bit by bit on x_E,
    so its sessions run side by side: the words sit in the slots of one
    int, the keys, the x_E and the coin words are three masked shifts of
    it, ``forge`` runs once on all the slots, and Bob's readouts are
    counted in one ``count_codewords``.
    """
    count = len(words)
    if adversary is None:  # every basis matched: Bob reads Alice's codeword
        return count
    n = code.n
    size = _slot(3 * n)
    packed = int.from_bytes(_pack(words, size), "little")
    ones = _repeated((1 << n) - 1, size, count)
    key = packed & ones
    x_e = packed >> n & ones
    coins = packed >> 2 * n & ones  # Bob's, since Eve does not read
    bases = adversary.forge(code, x_e, None)[2]
    readout = measure_word(_repeated(forged, size, count), key ^ bases, coins)
    return code.count_codewords(readout.to_bytes(size * count, "little"), size)


def _intercepted(
    code: LinearCode, adversary, forged: int, words: list[int]
) -> int:
    """How many sessions Bob accepts when Eve reads, one per 4n-bit word.

    A word is the first 4n bits of its trial's stream, cut into n-bit
    fields in draw order: the key, x_E, Eve's coins and Bob's coins, the
    bits ``protocol.run_session`` draws on that stream.  Eve's readout
    of the zero codeword is her coin wherever her basis misses the key;
    ``forge`` decodes it, and a session whose forgery is dropped is a
    reject, with no readout.  The sessions run one at a time, since each
    readout is decoded on its own, and Bob's readouts are counted in one
    ``count_codewords``.
    """
    n = code.n
    mask = (1 << n) - 1
    forge = adversary.forge
    readouts = []
    for word in words:
        key = word & mask
        x_e = word >> n & mask
        bases = forge(code, x_e, word >> 2 * n & (key ^ x_e))[2]
        if bases is not None:  # else nothing arrives: Bob rejects
            readouts.append(measure_word(forged, key ^ bases, word >> 3 * n))
    size = _slot(n)
    return code.count_codewords(_pack(readouts, size), size)


def monte_carlo(
    code: LinearCode, trials: int, seed: int, adversary=None
) -> TrialStats:
    """Acceptance frequency over independent simulated sessions.

    Alice sends the zero message.  Trial i is one session on the first
    bits of ``substream(seed, "trial", i)``, with one coin word per
    readout, so results are bit-reproducible for a fixed seed regardless
    of scheduling, and equal to running ``protocol.run_session`` on the
    same streams.  Only this function derives those bits: 2n a trial
    when honest and 3n under a rule that does not read, in one draw
    each, or 4n under a rule that reads, from one ``trial_words`` call
    a chunk.  The trials run ``_CHUNK`` at a time; no result depends on
    that size.  An adversary is an object with ``forged_message``,
    ``reads`` and ``forge(code, x_E, m_E)``, as in the adversary module;
    ``run_session`` runs the same ``forge`` through its ``act``.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    n = code.n
    forged = None
    if adversary is not None:
        forged = code.encode(adversary.forged_message)
    reads = adversary is not None and adversary.reads
    kernel = _intercepted if reads else _accepted
    bits = (2 if adversary is None else 4 if reads else 3) * n
    successes = 0
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        if reads:
            words = trial_words(seed, start, stop, bits)
        else:
            words = [substream(seed, "trial", i).getrandbits(bits)
                     for i in range(start, stop)]
        successes += kernel(code, adversary, forged, words)
    return TrialStats.of(successes, trials, seed)
