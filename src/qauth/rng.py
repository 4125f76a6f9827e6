"""Deterministic substream derivation for reproducible experiments.

One root seed per run; every trial/qubit/party derives an independent
stream keyed by a path of labels, so results are bit-reproducible no
matter how the work is scheduled.

A stream is BLAKE2b (RFC 7693) in counter mode: block b is the 512-bit
digest of the path's bytes followed by b as 8 little-endian bytes, and
the stream hands out the blocks' bits low bit first, across block
boundaries.  Readouts draw one coin word each, so a session draws at
most four n-bit words (the key, Eve's bases and two coin words), and for
n <= 128 the block 0 hash that ``substream`` makes serves the whole trial.
``trial_words`` hands out the first bits of many trials' streams at
once, hashing their blocks in ``map`` pipelines with no ``Stream`` per
trial; each trial's bits are a pure function of its path and block.
Monte Carlo kernels take those first bits as ints, which only
``verify.monte_carlo`` derives: one draw on each trial's ``substream``
when honest or no-message, ``trial_words`` under intercept-resend.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import repeat
from operator import methodcaller

_BLOCK_BITS = 512
_BLOCK_0 = bytes(8)  # block index 0, 8 bytes little-endian
_from_bytes = int.from_bytes
_digest = methodcaller("digest")


class Stream:
    """The bits of blake2b(path ‖ b) for b = 0, 1, ..., low bit first."""

    __slots__ = ("_path", "_block", "_bits", "_count")

    def __init__(self, path: bytes):
        self._path = path
        self._block = 1
        self._bits = _from_bytes(blake2b(path + _BLOCK_0).digest(), "little")
        self._count = _BLOCK_BITS  # unread bits left in self._bits

    def getrandbits(self, k: int) -> int:
        """The next k bits as an int, the first bit drawn lowest."""
        count = self._count - k  # unread bits left after this draw
        bits = self._bits
        if count < 0 or k < 0:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            path, block = self._path, self._block
            while count < 0:
                digest = blake2b(path + block.to_bytes(8, "little")).digest()
                bits |= _from_bytes(digest, "little") << (count + k)
                count += _BLOCK_BITS
                block += 1
            self._block = block
        self._bits = bits >> k
        self._count = count
        return bits & ((1 << k) - 1)


def substream(seed: int, *path) -> Stream:
    """An independent ``Stream`` keyed by (seed, *path).

    The key is ``str(int(seed))``, then ``/`` and ``str(part)`` for each
    part, as UTF-8 bytes; the first block is hashed here.
    """
    key = str(int(seed))
    for part in path:
        key += "/" + str(part)
    return Stream(key.encode())


def trial_words(seed: int, start: int, stop: int, bits: int) -> list[int]:
    """``substream(seed, "trial", i).getrandbits(bits)``, i in range(start, stop).

    The paths are built as ``substream`` builds them, and each trial's
    ceil(bits/512) blocks are hashed here, one ``map`` pipeline per
    block over the whole range, with no ``Stream`` per trial.
    """
    path = str(int(seed)).encode() + b"/trial/%d"  # %d formats i as str(i)
    blocks = [
        # the block's 8 bytes follow the path, escaped for %-formatting
        map(_digest, map(blake2b, map(
            (path + block.to_bytes(8, "little").replace(b"%", b"%%")).__mod__,
            range(start, stop),
        )))
        for block in range(max(1, -(-bits // _BLOCK_BITS)))
    ]
    digests = blocks[0] if len(blocks) == 1 else map(b"".join, zip(*blocks))
    return list(map(((1 << bits) - 1).__and__,
                    map(_from_bytes, digests, repeat("little"))))
