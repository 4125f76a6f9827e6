"""Tests for the BB84 prepare/measure layer and its opacity contract."""

import math
import random

import pytest

from qauth.errors import ProtocolViolationError
from qauth.qsim import (
    Basis,
    _basis_of,
    channel_send,
    measure,
    measure_word,
    prepare,
)
from qauth.rng import substream
from reference_model import StateVector, born_probabilities, statevector_of

ALL_STATES = [(bit, basis) for basis in Basis for bit in (0, 1)]


class TestMeasurement:
    @pytest.mark.parametrize("bit,basis", ALL_STATES)
    def test_matched_basis_deterministic(self, bit, basis):
        for coin in (0, 1) * 25:
            assert measure(prepare(bit, basis), basis, coin) == bit

    @pytest.mark.parametrize("bit,basis", ALL_STATES)
    def test_mismatched_basis_fair(self, bit, basis):
        other = Basis.X if basis is Basis.Z else Basis.Z
        rng = random.Random(123)
        n = 20000
        ones = sum(
            measure(prepare(bit, basis), other, rng.getrandbits(1)) for _ in range(n)
        )
        # 3 sigma around n/2 for a fair coin
        assert abs(ones - n / 2) < 3 * math.sqrt(n / 4)

    def test_second_measurement_fails(self):
        q = prepare(0, Basis.Z)
        measure(q, Basis.Z, 0)
        with pytest.raises(ProtocolViolationError):
            measure(q, Basis.X, 1)

    def test_consumed_flag(self):
        q = prepare(1, Basis.X)
        assert not q.consumed
        measure(q, Basis.Z, 0)
        assert q.consumed

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            prepare(2, Basis.Z)
        with pytest.raises(ValueError):
            prepare(0, "Z")
        with pytest.raises(ValueError):
            measure(prepare(0, Basis.Z), "Z", 0)

    @pytest.mark.parametrize("coin", [2, -1, None, 0.5])
    def test_coin_outside_bits_rejected(self, coin):
        q = prepare(0, Basis.Z)
        with pytest.raises(ValueError):
            measure(q, Basis.X, coin)
        assert not q.consumed


class TestMeasureWord:
    """``measure_word`` is qubit-by-qubit measurement on packed ints."""

    @pytest.mark.parametrize("n", [1, 3, 7, 63, 127])
    def test_matches_handles_bit_for_bit(self, n):
        words = random.Random(n)
        for trial in range(200):
            word, prep, meas = (words.getrandbits(n) for _ in range(3))
            by_handle, by_word = substream(n, trial), substream(n, trial)
            coins = by_handle.getrandbits(n)
            readout = 0
            for j in range(n):
                handle = prepare((word >> j) & 1, _basis_of((prep >> j) & 1))
                bit = measure(handle, _basis_of((meas >> j) & 1), coins >> j & 1)
                readout |= bit << j
            assert measure_word(word, prep ^ meas, by_word.getrandbits(n)) == readout
            assert by_word.getrandbits(64) == by_handle.getrandbits(64)

    @pytest.mark.parametrize("n, size", [(7, 1), (7, 4), (63, 24)])
    def test_side_by_side_words_read_out_alone(self, n, size):
        # one call on words packed in size-byte slots is one call per slot
        rng = random.Random(n + size)
        triples = [[rng.getrandbits(n) for _ in range(3)] for _ in range(20)]

        def packed(column):
            return sum(t[column] << 8 * size * i for i, t in enumerate(triples))

        readout = measure_word(packed(0), packed(1), packed(2))
        assert readout == sum(
            measure_word(*t) << 8 * size * i for i, t in enumerate(triples)
        )

    def test_readout_is_the_coin_not_bit_xor_coin(self):
        n = 64
        coins = random.Random(5).getrandbits(n)
        for word in (0, (1 << n) - 1):
            assert measure_word(word, (1 << n) - 1, coins) == coins

    def test_matched_positions_read_the_prepared_bit(self):
        # whatever the coin word, a matched position reads its bit of
        # the word; how many words a readout draws is tested where the
        # readouts draw them (bob_receive, act, verify.monte_carlo)
        n = 7
        rng = random.Random(9)
        for _ in range(50):
            word, mismatch, coins = (rng.getrandbits(n) for _ in range(3))
            assert measure_word(word, 0, coins) == word
            out = measure_word(word, mismatch, coins)
            assert out & ~mismatch == word & ~mismatch
            assert out & mismatch == coins & mismatch


class TestOpacity:
    def test_no_public_preparation_data(self):
        q = prepare(1, Basis.X)
        exposed = [a for a in dir(q) if not a.startswith("_")]
        assert exposed == ["consumed"]
        for name in ("bit", "basis", "prep_bit", "prep_basis", "value"):
            with pytest.raises(AttributeError):
                getattr(q, name)

    def test_repr_leaks_nothing(self):
        reprs = {repr(prepare(bit, basis)).split(" at ")[0] for bit, basis in ALL_STATES}
        # identical prefix for all four states: nothing state-dependent shown
        assert len(reprs) == 1
        assert "bit" not in reprs.pop().lower().replace("qubit", "")


class TestStateVector:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1.0, 1.0)

    def test_plus_state(self):
        s = statevector_of(0, Basis.X)
        assert s.a0 == pytest.approx(1 / math.sqrt(2))
        assert s.a1 == pytest.approx(1 / math.sqrt(2))

    def test_minus_state(self):
        s = statevector_of(1, Basis.X)
        assert s.a1 == pytest.approx(-1 / math.sqrt(2))

    @pytest.mark.parametrize("bit,basis", ALL_STATES)
    @pytest.mark.parametrize("meas", list(Basis))
    def test_born_rule_matches_model(self, bit, basis, meas):
        p0, p1 = born_probabilities(statevector_of(bit, basis), meas)
        assert p0 + p1 == pytest.approx(1.0)
        if meas is basis:
            assert (p0, p1) == pytest.approx((1.0, 0.0) if bit == 0 else (0.0, 1.0))
        else:
            assert (p0, p1) == pytest.approx((0.5, 0.5))

    @pytest.mark.parametrize("bit,basis", ALL_STATES)
    @pytest.mark.parametrize("meas", list(Basis))
    def test_measure_distribution_chi2(self, bit, basis, meas):
        # the readout is a function of its coin, so its law under a fair
        # coin is enumerated exactly: each coin value weighs 1/2, and the
        # chi-squared distance to Born's law is 0.  The coins' fairness is
        # tested on the stream itself (test_rng.py, and the 10^5-draw Born
        # test in test_acceptance.py).
        p0, p1 = born_probabilities(statevector_of(bit, basis), meas)
        ones = sum(measure(prepare(bit, basis), meas, coin) for coin in (0, 1))
        assert (1 - ones / 2, ones / 2) == pytest.approx((p0, p1))


class TestChannel:
    def test_in_order_delivery(self):
        handles = [prepare(b, Basis.Z) for b in (0, 1, 1, 0)]
        tap = channel_send(handles)
        assert tap.deliver() == handles

    def test_adversary_replacement(self):
        tap = channel_send([prepare(0, Basis.Z)])
        forged = [prepare(1, Basis.X)]
        tap.intercept()
        tap.replace(forged)
        assert tap.deliver() == forged

    def test_intercept_empties_channel(self):
        tap = channel_send([prepare(0, Basis.Z)])
        taken = tap.intercept()
        assert len(taken) == 1
        assert tap.deliver() == []

    def test_double_delivery_fails(self):
        tap = channel_send([])
        tap.deliver()
        with pytest.raises(ProtocolViolationError):
            tap.deliver()
