"""Tests for deterministic substream derivation."""

import hashlib

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

from qauth import rng
from qauth.rng import substream, trial_words


def test_same_path_same_stream():
    a = substream(42, "trial", 7)
    b = substream(42, "trial", 7)
    assert [a.getrandbits(32) for _ in range(5)] == [
        b.getrandbits(32) for _ in range(5)
    ]


def test_different_paths_differ():
    streams = [
        substream(42, "trial", 7),
        substream(42, "trial", 8),
        substream(42, "other", 7),
        substream(43, "trial", 7),
    ]
    first = [s.getrandbits(64) for s in streams]
    assert len(set(first)) == len(first)


def test_order_insensitive_to_interleaving():
    # drawing from one stream never perturbs another
    a = substream(1, "a")
    b = substream(1, "b")
    a_alone = [substream(1, "a").getrandbits(16) for _ in range(1)][0]
    b.getrandbits(16)
    assert a.getrandbits(16) == a_alone


@pytest.mark.parametrize("total", [511, 512, 513, 1500])
def test_chunking_invariance(total):
    # a then b bits are the low and high parts of one (a + b)-bit draw
    whole = substream(5, "chunk", total).getrandbits(total)
    for a in (0, 1, 63, total // 2, 511, 512, total - 1, total):
        if not 0 <= a <= total:
            continue
        s = substream(5, "chunk", total)
        low, high = s.getrandbits(a), s.getrandbits(total - a)
        assert low | high << a == whole


def test_zero_bits_consume_nothing():
    a, b = substream(8, "zero"), substream(8, "zero")
    assert a.getrandbits(0) == 0
    assert a.getrandbits(600) == b.getrandbits(600)
    assert a.getrandbits(0) == 0
    assert a.getrandbits(64) == b.getrandbits(64)


def test_negative_bits_rejected():
    s = substream(8, "negative")
    for k in (-1, -600):
        with pytest.raises(ValueError):
            s.getrandbits(k)


def test_blocks_are_blake2b_in_counter_mode():
    s = substream(3, "trial", 9)
    blocks = [
        hashlib.blake2b(b"3/trial/9" + b.to_bytes(8, "little")).digest()
        for b in range(3)
    ]
    assert s.getrandbits(1536) == int.from_bytes(b"".join(blocks), "little")


@pytest.mark.parametrize("seed", [0, -3, 2**70])
@pytest.mark.parametrize("bits", [1, 511, 512, 513, 1020, 1025])
def test_trial_words_are_each_trials_first_bits(seed, bits):
    assert trial_words(seed, 5, 12, bits) == [
        substream(seed, "trial", i).getrandbits(bits) for i in range(5, 12)
    ]
    assert trial_words(seed, 7, 7, bits) == []


def test_trial_words_past_block_37():
    # block 37's first byte is b"%", which the path's %-format must escape
    bits = 38 * 512 + 1
    assert trial_words(4, 0, 2, bits) == [
        substream(4, "trial", i).getrandbits(bits) for i in range(2)
    ]


def test_trial_words_rejects_negative_bits():
    with pytest.raises(ValueError):
        trial_words(1, 0, 3, -1)


@pytest.mark.parametrize("n, blocks", [(7, 1), (63, 1), (127, 1), (128, 1), (255, 2)])
def test_trial_words_hash_each_block_once(monkeypatch, n, blocks):
    # one hash a trial while a session's four words fit block 0
    hashes = []

    def counted(data):
        hashes.append(data)
        return hashlib.blake2b(data)

    monkeypatch.setattr(rng, "blake2b", counted)
    trial_words(9, 3, 8, 4 * n)
    assert sorted(hashes) == sorted(
        f"9/trial/{i}".encode() + block.to_bytes(8, "little")
        for i in range(3, 8)
        for block in range(blocks)
    )


WORDS, WIDTH = 20_000, 127


def _bit_matrix(seed):
    """WORDS draws of WIDTH bits as rows of 0/1, bit j in column j."""
    s = substream(seed, "bits")
    raw = b"".join(s.getrandbits(WIDTH).to_bytes(16, "little") for _ in range(WORDS))
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(WORDS, 16)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :WIDTH]


def test_bit_frequency_per_position_chi2():
    ones = _bit_matrix(2024).sum(axis=0, dtype=np.int64)
    # a fair bit at each position: each position's 1-dof statistic, and
    # their sum, chi-squared with WIDTH degrees of freedom
    stats = (2 * ones - WORDS) ** 2 / WORDS
    assert chi2.sf(stats.sum(), WIDTH) > 0.001
    assert chi2.sf(stats.max(), 1) > 1e-6


def test_adjacent_bits_independent():
    # consecutive bits of the stream, inside a word and across two,
    # fall in the four cells (earlier, later) uniformly
    bits = _bit_matrix(2025).ravel()
    pairs = bits[:-1] + 2 * bits[1:]
    cells = np.bincount(pairs, minlength=4)
    assert chisquare(cells).pvalue > 0.001
