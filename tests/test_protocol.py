"""Tests for Alice/Bob procedures, key lifecycle, and full sessions."""

import random

import pytest

from qauth.adversary import NoMessageStrategy
from qauth.codes import make_hamming_7_4, make_repetition
from qauth.errors import DimensionError, KeyReuseError
from qauth.gf2 import BitWord
from qauth.protocol import (
    SecretKey,
    alice_send,
    bob_receive,
    keygen,
    run_session,
)
from qauth.qsim import Basis, measure, prepare
from qauth.rng import substream


@pytest.fixture
def rep3():
    return make_repetition(3)


@pytest.fixture
def ham():
    return make_hamming_7_4()


class TestKeygen:
    def test_length(self):
        assert keygen(7, random.Random(0)).n == 7

    def test_single_use(self, rep3):
        key = keygen(3, random.Random(0))
        alice_send(BitWord(1, 1), key, rep3)
        with pytest.raises(KeyReuseError):
            alice_send(BitWord(1, 1), key, rep3)

    def test_consume_marks_used(self):
        key = SecretKey(BitWord.from_str("101"))
        assert not key.used
        key.consume()
        assert key.used
        with pytest.raises(KeyReuseError):
            key.consume()

    def test_repr_hides_bits(self):
        key = SecretKey(BitWord.from_str("111"))
        assert "111" not in repr(key)

    def test_bits_unbiased(self):
        rng = random.Random(314)
        n, samples = 63, 4000
        counts = [0] * n
        for _ in range(samples):
            bits = keygen(n, rng).peek()
            for j in range(n):
                counts[j] += bits[j]
        for c in counts:
            assert abs(c / samples - 0.5) < 0.05

    def test_zero_length_rejected(self):
        with pytest.raises(DimensionError):
            keygen(0, random.Random(0))


class TestAliceSend:
    def test_all_z_key(self, rep3):
        key = SecretKey(BitWord.from_str("000"))
        qubits = alice_send(BitWord(1, 1), key, rep3)
        assert [measure(q, Basis.Z, 0) for q in qubits] == [1, 1, 1]

    def test_all_x_key(self, rep3):
        key = SecretKey(BitWord.from_str("111"))
        qubits = alice_send(BitWord(0, 1), key, rep3)
        assert [measure(q, Basis.X, 1) for q in qubits] == [0, 0, 0]

    def test_codeword_under_mixed_key(self, ham):
        msg = BitWord.from_str("1011")
        key = SecretKey(BitWord.from_str("0101101"))
        qubits = alice_send(msg, key, ham)
        cw = ham.encode(msg)
        bases = [Basis.Z if b == 0 else Basis.X for b in BitWord.from_str("0101101")]
        measured = [measure(q, b, j % 2) for j, (q, b) in enumerate(zip(qubits, bases))]
        assert measured == [(cw >> j) & 1 for j in range(7)]

    def test_dimension_checks(self, ham):
        with pytest.raises(DimensionError):
            alice_send(BitWord(0, 3), SecretKey(BitWord.zeros(7)), ham)
        with pytest.raises(DimensionError):
            alice_send(BitWord(0, 4), SecretKey(BitWord.zeros(6)), ham)


class TestBobReceive:
    def test_honest_accepts_exact_message(self, ham):
        rng = random.Random(1)
        for k in range(16):
            msg = BitWord(k, 4)
            key = keygen(7, rng)
            bits = key.peek()
            assert bob_receive(alice_send(msg, key, ham), bits, ham, rng) == msg

    def test_wrong_key_length_raises(self, ham):
        qubits = alice_send(BitWord(0, 4), keygen(7, random.Random(2)), ham)
        with pytest.raises(DimensionError, match="key length 3 != n=7"):
            bob_receive(qubits, BitWord(0, 3), ham, random.Random(2))

    def test_wrong_qubit_count_rejected(self, ham):
        key = keygen(7, random.Random(2))
        received = bob_receive(
            [prepare(0, Basis.Z)] * 6, key.peek(), ham, random.Random(2)
        )
        assert received is None

    def test_readout_draws_one_coin_word(self, ham):
        # every basis matches, so Bob reads the prepared bits, and still
        # draws exactly one n-bit coin word; nothing when nothing arrives
        for trial in range(20):
            key = keygen(7, substream(12, "key", trial))
            msg = BitWord(trial % 16, 4)
            bits = key.peek()
            rng, shadow = substream(12, trial), substream(12, trial)
            assert bob_receive(alice_send(msg, key, ham), bits, ham, rng) == msg
            shadow.getrandbits(7)
            assert rng.getrandbits(64) == shadow.getrandbits(64)
            assert bob_receive([], bits, ham, rng) is None
            assert rng.getrandbits(64) == shadow.getrandbits(64)

    def test_single_flip_rejected(self, rep3):
        key = SecretKey(BitWord.from_str("000"))
        qubits = alice_send(BitWord(1, 1), key, rep3)
        qubits[1] = prepare(0, Basis.Z)  # flip one bit, same basis
        received = bob_receive(qubits, BitWord.from_str("000"), rep3, random.Random(0))
        assert received is None


class TestRunSession:
    @pytest.mark.parametrize("maker", [lambda: make_repetition(3), make_hamming_7_4])
    def test_honest_completeness(self, maker):
        code = maker()
        for trial in range(50):
            msg = BitWord(trial % (1 << code.m), code.m)
            record = run_session(
                msg, code, randomness=substream(7, "t", trial)
            )
            assert record.accepted
            assert record.message == msg
            assert not record.forged
            assert record.adversary is None

    def test_wrong_message_length_rejected(self, ham):
        # alice_send's check, which runs before the key is consumed
        with pytest.raises(DimensionError):
            run_session(BitWord(0, 3), ham, randomness=substream(7, "t", 0))

    def test_adversary_session_names_strategy(self, rep3):
        record = run_session(
            BitWord(0, 1),
            rep3,
            adversary=NoMessageStrategy(BitWord(1, 1)),
            randomness=substream(3, "a"),
        )
        assert record.adversary == "no-message"
        assert record.adversary_transcript is not None
        assert "x_E" in record.adversary_transcript

    def test_forged_iff_another_message_accepted(self, rep3):
        # Alice sends 0, Eve forges 1: a session is forged exactly when
        # Bob accepts Eve's message, and some of 200 sessions are
        adversary = NoMessageStrategy(BitWord(1, 1))
        records = [
            run_session(
                BitWord(0, 1), rep3, adversary=adversary,
                randomness=substream(31, "forged", trial),
            )
            for trial in range(200)
        ]
        assert any(record.forged for record in records)
        for record in records:
            assert record.forged == (record.message == BitWord(1, 1))
            assert record.accepted == (record.message is not None)

    def test_acceptance_depends_only_on_syndrome(self, rep3):
        # a forged codeword sent in Bob's exact bases is always accepted
        key = keygen(3, random.Random(9))
        eve_codeword = rep3.encode(BitWord(1, 1))
        bits = key.peek()
        qubits = [
            prepare((eve_codeword >> j) & 1, Basis.Z if bits[j] == 0 else Basis.X)
            for j in range(3)
        ]
        assert bob_receive(qubits, bits, rep3, random.Random(9)) == BitWord(1, 1)
