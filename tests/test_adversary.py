"""Tests for the no-message and intercept-resend strategies."""

import random

import pytest

from qauth.adversary import (
    ABORT,
    RESEND_UNCORRECTED,
    AdversaryTranscript,
    InterceptResendStrategy,
    NoMessageStrategy,
)
from qauth.codes import make_hamming_7_4, make_repetition
from qauth.errors import DimensionError
from qauth.gf2 import BitWord
from qauth.protocol import SecretKey, alice_send, bob_receive
from qauth.qsim import channel_send


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


@pytest.fixture
def ham():
    return make_hamming_7_4()


@pytest.fixture
def rep3():
    return make_repetition(3)


class TestNoMessage:
    def test_forgery_structure(self, ham):
        strategy = NoMessageStrategy(BitWord.from_str("1010"))
        handles, transcript = strategy.forge(ham, random.Random(4))
        assert len(handles) == 7
        assert transcript.x_e.length == 7
        assert transcript.m_e is None and transcript.resent

    def test_wrong_message_length(self, ham):
        with pytest.raises(DimensionError):
            NoMessageStrategy(BitWord(0, 3)).forge(ham, random.Random(0))

    def test_basis_guess_uniform(self, rep3):
        strategy = NoMessageStrategy(BitWord(1, 1))
        rng = random.Random(10)
        counts = [0, 0, 0]
        samples = 6000
        for _ in range(samples):
            _, transcript = strategy.forge(rep3, rng)
            for j in range(3):
                counts[j] += transcript.x_e[j]
        for c in counts:
            assert abs(c / samples - 0.5) < 0.05

    def test_matching_guess_forges_successfully(self, rep3):
        # when Eve's basis guess equals Bob's key, her codeword is read exactly
        key_bits = BitWord.from_str("101")
        strategy = NoMessageStrategy(BitWord(1, 1))
        handles, transcript = strategy.forge(rep3, _FixedBits(key_bits.value))
        assert transcript.x_e == key_bits
        outcome = bob_receive(handles, key_bits, rep3, random.Random(1))
        assert outcome.accepted and outcome.message == BitWord(1, 1)


class TestInterceptResend:
    def _intercepted(self, code, message, key_bits):
        key = SecretKey(key_bits)
        return alice_send(message, key, code)

    def test_correct_guess_succeeds_always(self, ham):
        # x_E = x_AB: every basis matches, decode is clean, forgery lands
        key_bits = BitWord.from_str("0110100")
        forged = BitWord.from_str("0011")
        strategy = InterceptResendStrategy(forged)
        intercepted = self._intercepted(ham, BitWord.from_str("1011"), key_bits)
        handles, transcript = strategy.attack(
            intercepted, ham, _FixedBits(key_bits.value)
        )
        assert transcript.decode_success
        assert transcript.flips == 0
        assert transcript.x_e_prime == key_bits
        outcome = bob_receive(handles, key_bits, ham, random.Random(3))
        assert outcome.accepted and outcome.message == forged

    def test_transcript_invariants_on_true_decode(self, ham):
        # whenever Eve decodes to the true codeword: corrections sit on
        # mismatched-basis positions, and each one repairs her key
        rng = random.Random(77)
        message = BitWord.from_str("1100")
        true_cw = ham.encode(message)
        checked = 0
        for _ in range(300):
            key_bits = BitWord(rng.getrandbits(7), 7)
            intercepted = self._intercepted(ham, message, key_bits)
            strategy = InterceptResendStrategy(BitWord(1, 4))
            _, tr = strategy.attack(intercepted, ham, rng)
            if not (tr.decode_success and (tr.m_e.value ^ tr.flips == true_cw)):
                continue
            checked += 1
            mismatched = key_bits.value ^ tr.x_e.value
            assert (tr.flips & ~mismatched) == 0
            assert (key_bits.value ^ tr.x_e_prime.value).bit_count() == (
                mismatched.bit_count() - tr.flips.bit_count()
            )
        assert checked > 50  # the slice is common for random keys

    def test_miscorrection_is_followed(self, rep3):
        # Alice sends 000; Eve guesses every basis wrong and happens to read
        # 110: the decoder "corrects" toward 111 and Eve proceeds with the
        # wrong codeword rather than learning she failed
        key_bits = BitWord.from_str("000")
        intercepted = self._intercepted(rep3, BitWord(0, 1), key_bits)
        strategy = InterceptResendStrategy(BitWord(0, 1))
        rng = _FixedBits(0b111, 1, 1, 0)  # x_E guess, then Eve's three readouts
        handles, tr = strategy.attack(intercepted, rep3, rng)
        assert tr.x_e == BitWord.from_str("111")
        assert tr.m_e == BitWord.from_str("110")
        assert tr.decode_success
        assert tr.flips == 1 << 2
        assert tr.x_e_prime == BitWord.from_str("110")

    def test_abort_policy_drops_transmission(self):
        # BCH[15,7,2] is not perfect, so Eve's decode can genuinely fail
        from qauth.bch import build_bch

        code = build_bch(4, 2)
        strategy = InterceptResendStrategy(BitWord(0, 7), on_decode_failure=ABORT)
        rng = random.Random(13)
        saw_abort = False
        for _ in range(300):
            key_bits = BitWord(rng.getrandbits(15), 15)
            tap = channel_send(self._intercepted(code, BitWord(0, 7), key_bits))
            transcript = strategy.act(tap, code, rng)
            delivered = tap.deliver()
            if not transcript["resent"]:
                saw_abort = True
                assert delivered == []
                assert transcript["x_E_prime"] is None
        assert saw_abort

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            InterceptResendStrategy(BitWord(0, 4), on_decode_failure="retry")

    def test_resend_uncorrected_keeps_guess(self):
        from qauth.bch import build_bch

        code = build_bch(4, 2)
        strategy = InterceptResendStrategy(
            BitWord(0, 7), on_decode_failure=RESEND_UNCORRECTED
        )
        rng = random.Random(17)
        saw_failure = False
        for _ in range(300):
            key_bits = BitWord(rng.getrandbits(15), 15)
            intercepted = self._intercepted(code, BitWord(0, 7), key_bits)
            handles, tr = strategy.attack(intercepted, code, rng)
            assert handles is not None and tr.resent
            if not tr.decode_success:
                saw_failure = True
                assert tr.x_e_prime == tr.x_e
                assert tr.flips == 0
        assert saw_failure

    def test_wrong_qubit_count_rejected(self, ham):
        with pytest.raises(DimensionError):
            InterceptResendStrategy(BitWord(0, 4)).attack([], ham, random.Random(0))


class TestTranscript:
    def test_json_shape(self):
        tr = AdversaryTranscript(
            x_e=BitWord.from_str("101"),
            m_e=BitWord.from_str("111"),
            decode_success=True,
            flips=0b101,
            x_e_prime=BitWord.from_str("000"),
            resent=True,
        )
        d = tr.to_json_dict()
        assert d["corrected_positions"] == [0, 2]
        assert d["decode_success"] is True
        assert set(d) == {
            "x_E", "m_E", "decode_success", "corrected_positions",
            "x_E_prime", "resent",
        }
