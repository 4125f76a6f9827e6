"""Tests for the no-message and intercept-resend strategies.

Each test drives a strategy through ``act`` on a channel of qubit
handles, or calls its pure rule ``forge(code, x_E, m_E)`` directly.
"""

import random

import pytest

from qauth.adversary import (
    ABORT,
    RESEND_UNCORRECTED,
    InterceptResendStrategy,
    NoMessageStrategy,
)
from qauth.codes import make_hamming_7_4, make_repetition
from qauth.errors import DimensionError
from qauth.gf2 import BitWord
from qauth.protocol import SecretKey, alice_send, bob_receive
from qauth.qsim import channel_send
from qauth.rng import substream


class _FixedBits(random.Random):
    """Returns scripted getrandbits values first, then falls back to PRNG."""

    def __new__(cls, *script, seed=0):
        return super().__new__(cls)

    def __init__(self, *script, seed=0):
        super().__init__(seed)
        self._script = list(script)

    def getrandbits(self, k):
        if self._script:
            return self._script.pop(0)
        return super().getrandbits(k)


def _tap(code, message, key_bits):
    """A channel carrying Alice's qubits for ``message`` under ``key_bits``."""
    return channel_send(alice_send(message, SecretKey(key_bits), code))


def _hex(bits):
    return format(BitWord.from_str(bits).value, "x")


@pytest.fixture
def ham():
    return make_hamming_7_4()


@pytest.fixture
def rep3():
    return make_repetition(3)


class TestNoMessage:
    def test_forgery_structure(self, ham):
        strategy = NoMessageStrategy(BitWord.from_str("1010"))
        tap = _tap(ham, BitWord.from_str("1011"), BitWord.from_str("0110100"))
        transcript = strategy.act(tap, ham, random.Random(4))
        assert len(tap.deliver()) == 7
        assert transcript["m_E"] is None and transcript["resent"]
        assert transcript["x_E_prime"] == transcript["x_E"]
        assert transcript["corrected_positions"] == []

    def test_wrong_message_length(self, ham):
        tap = _tap(ham, BitWord(0, 4), BitWord(0, 7))
        with pytest.raises(DimensionError):
            NoMessageStrategy(BitWord(0, 3)).act(tap, ham, random.Random(0))

    def test_basis_guess_uniform(self, rep3):
        strategy = NoMessageStrategy(BitWord(1, 1))
        rng = random.Random(10)
        counts = [0, 0, 0]
        samples = 6000
        for _ in range(samples):
            tap = _tap(rep3, BitWord(0, 1), BitWord(0, 3))
            transcript = strategy.act(tap, rep3, rng)
            x_e = int(transcript["x_E"], 16)
            assert transcript["m_E"] is None and not transcript["decode_success"]
            assert transcript["corrected_positions"] == []
            assert int(transcript["x_E_prime"], 16) == x_e
            for j in range(3):
                counts[j] += x_e >> j & 1
        for c in counts:
            assert abs(c / samples - 0.5) < 0.05

    def test_matching_guess_forges_successfully(self, rep3):
        # when Eve's basis guess equals Bob's key, her codeword is read exactly
        key_bits = BitWord.from_str("101")
        strategy = NoMessageStrategy(BitWord(1, 1))
        tap = _tap(rep3, BitWord(0, 1), key_bits)
        transcript = strategy.act(tap, rep3, _FixedBits(key_bits.value))
        assert transcript["x_E"] == _hex("101")
        received = bob_receive(tap.deliver(), key_bits, rep3, random.Random(1))
        assert received == BitWord(1, 1)


class TestInterceptResend:
    def test_correct_guess_succeeds_always(self, ham):
        # x_E = x_AB: every basis matches, decode is clean, forgery lands
        key_bits = BitWord.from_str("0110100")
        forged = BitWord.from_str("0011")
        strategy = InterceptResendStrategy(forged)
        tap = _tap(ham, BitWord.from_str("1011"), key_bits)
        transcript = strategy.act(tap, ham, _FixedBits(key_bits.value))
        assert transcript["decode_success"]
        assert transcript["corrected_positions"] == []
        assert transcript["m_E"] == format(ham.encode(BitWord.from_str("1011")), "x")
        assert transcript["x_E_prime"] == _hex("0110100")
        assert bob_receive(tap.deliver(), key_bits, ham, random.Random(3)) == forged

    def test_transcript_invariants_on_true_decode(self, ham):
        # whenever Eve decodes to the true codeword: corrections sit on
        # mismatched-basis positions, and each one repairs her key
        rng = random.Random(77)
        message = BitWord.from_str("1100")
        true_cw = ham.encode(message)
        strategy = InterceptResendStrategy(BitWord(1, 4))
        checked = 0
        for _ in range(300):
            key = rng.getrandbits(7)
            tap = _tap(ham, message, BitWord(key, 7))
            tr = strategy.act(tap, ham, rng)
            flips = sum(1 << j for j in tr["corrected_positions"])
            if not (tr["decode_success"] and int(tr["m_E"], 16) ^ flips == true_cw):
                continue
            checked += 1
            mismatched = key ^ int(tr["x_E"], 16)
            assert (flips & ~mismatched) == 0
            assert (key ^ int(tr["x_E_prime"], 16)).bit_count() == (
                mismatched.bit_count() - flips.bit_count()
            )
        assert checked > 50  # the slice is common for random keys

    def test_miscorrection_is_followed(self, rep3):
        # Alice sends 000; Eve guesses every basis wrong (x_E = 0b111) and
        # happens to read 0b110: the decoder "corrects" bit 0 toward 111
        # and Eve proceeds with the wrong codeword rather than learning
        # she failed
        strategy = InterceptResendStrategy(BitWord(0, 1))
        ok, flips, x_e_prime = strategy.forge(rep3, 0b111, 0b110)
        assert ok
        assert flips == 1 << 0
        assert x_e_prime == 0b110

    def test_abort_policy_drops_transmission(self):
        # BCH[15,7,2] is not perfect, so Eve's decode can genuinely fail
        from qauth.codes import build_bch

        code = build_bch(4, 2)
        strategy = InterceptResendStrategy(BitWord(0, 7), on_decode_failure=ABORT)
        rng = random.Random(13)
        saw_abort = False
        for _ in range(300):
            key_bits = BitWord(rng.getrandbits(15), 15)
            tap = _tap(code, BitWord(0, 7), key_bits)
            transcript = strategy.act(tap, code, rng)
            delivered = tap.deliver()
            if not transcript["resent"]:
                saw_abort = True
                assert delivered == []
                assert transcript["x_E_prime"] is None
        assert saw_abort

    def test_readout_draws_one_coin_word(self, ham):
        # act draws x_E, then one 7-bit coin word for Eve's readout; the
        # no-message forger draws x_E alone
        for strategy, words in ((InterceptResendStrategy(BitWord(1, 4)), 2),
                                (NoMessageStrategy(BitWord(1, 4)), 1)):
            for trial in range(20):
                tap = _tap(ham, BitWord(trial % 16, 4), BitWord(trial, 7))
                rng, shadow = substream(21, trial), substream(21, trial)
                transcript = strategy.act(tap, ham, rng)
                assert int(transcript["x_E"], 16) == shadow.getrandbits(7)
                shadow.getrandbits(7 * (words - 1))
                assert rng.getrandbits(64) == shadow.getrandbits(64)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            InterceptResendStrategy(BitWord(0, 4), on_decode_failure="retry")

    def test_resend_uncorrected_keeps_guess(self):
        from qauth.codes import build_bch

        code = build_bch(4, 2)
        strategy = InterceptResendStrategy(
            BitWord(0, 7), on_decode_failure=RESEND_UNCORRECTED
        )
        rng = random.Random(17)
        saw_failure = False
        for _ in range(300):
            key_bits = BitWord(rng.getrandbits(15), 15)
            tap = _tap(code, BitWord(0, 7), key_bits)
            tr = strategy.act(tap, code, rng)
            assert len(tap.deliver()) == 15 and tr["resent"]
            if not tr["decode_success"]:
                saw_failure = True
                assert tr["x_E_prime"] == tr["x_E"]
                assert tr["corrected_positions"] == []
        assert saw_failure

    def test_wrong_qubit_count_rejected(self, ham):
        strategy = InterceptResendStrategy(BitWord(0, 4))
        for handles in ([], alice_send(BitWord(0, 1), SecretKey(BitWord(0, 3)),
                                       make_repetition(3))):
            with pytest.raises(DimensionError):
                strategy.act(channel_send(handles), ham, random.Random(0))
        tap = _tap(ham, BitWord(0, 4), BitWord(0, 7))
        with pytest.raises(DimensionError):
            InterceptResendStrategy(BitWord(0, 3)).act(tap, ham, random.Random(0))


class TestTranscript:
    def test_json_shape(self, rep3):
        # the scripted miscorrection, run on qubit handles: Alice's 000 in
        # Z bases, Eve's guess 111, her coin word 011 (coins 1, 1, 0)
        strategy = InterceptResendStrategy(BitWord(0, 1))
        tap = _tap(rep3, BitWord(0, 1), BitWord.from_str("000"))
        d = strategy.act(tap, rep3, _FixedBits(0b111, 0b011))
        assert d == {
            "x_E": _hex("111"),
            "m_E": _hex("110"),
            "decode_success": True,
            "corrected_positions": [2],
            "x_E_prime": _hex("110"),
            "resent": True,
        }
