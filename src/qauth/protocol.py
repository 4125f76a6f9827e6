"""The authenticated-message protocol: Alice, Bob, and full sessions.

Alice encodes an m-bit message to an n-bit codeword c_A and prepares
qubit j as c_A[j] in the Z basis when key bit j is 0, in the X basis
when it is 1.  Bob measures with the same key, accepts iff the measured
word has zero syndrome, and reads the message off the codeword's
systematic positions (the channel is noiseless, so an unperturbed word
is exactly c_A).  A session ends in one outcome: Bob accepts a message
or rejects, which ``bob_receive`` returns as None.  Keys are hard
single-use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import LinearCode
from .errors import DimensionError, KeyReuseError
from .gf2 import BitWord
from .qsim import QubitHandle, _basis_of, channel_send, measure, prepare
from .rng import Stream


class SecretKey:
    """An n-bit shared key, consumable exactly once."""

    def __init__(self, bits: BitWord):
        self._bits = bits
        self._used = False

    @property
    def n(self) -> int:
        return self._bits.length

    @property
    def used(self) -> bool:
        return self._used

    def consume(self) -> BitWord:
        if self._used:
            raise KeyReuseError("secret key already used by a session")
        self._used = True
        return self._bits

    def peek(self) -> BitWord:
        """Read without consuming; for the holder's own bookkeeping only."""
        return self._bits

    def __repr__(self) -> str:  # never prints the bits
        state = "used" if self._used else "fresh"
        return f"<SecretKey n={self.n} {state}>"


def keygen(n: int, randomness: Stream) -> SecretKey:
    if n < 1:
        raise DimensionError(f"key length must be >= 1, got {n}")
    return SecretKey(BitWord(randomness.getrandbits(n), n))


def alice_send(
    message: BitWord, key: SecretKey, code: LinearCode
) -> list[QubitHandle]:
    """Encode and prepare the n qubits; consumes the key."""
    if message.length != code.m:
        raise DimensionError(
            f"message length {message.length} != m={code.m}"
        )
    if key.n != code.n:
        raise DimensionError(f"key length {key.n} != n={code.n}")
    bits = key.consume()
    codeword = code.encode(message)
    return [
        prepare((codeword >> j) & 1, _basis_of(bits[j])) for j in range(code.n)
    ]


def bob_receive(
    qubits: Sequence[QubitHandle],
    key_bits: BitWord,
    code: LinearCode,
    randomness: Stream,
) -> Optional[BitWord]:
    """Measure with the shared key; the accepted message, or None.

    The readout draws one n-bit coin word, and a qubit j prepared in
    the other basis reads bit j of it.  Bob accepts iff the measured
    word has zero syndrome, and then returns the message it encodes; a
    rejection is None.  A wrong qubit count is treated as tampering and
    rejected outright, before any draw.
    """
    if key_bits.length != code.n:
        raise DimensionError(f"key length {key_bits.length} != n={code.n}")
    if len(qubits) != code.n:
        return None
    coins = randomness.getrandbits(code.n)
    m_b = 0
    for j in range(code.n):
        basis = _basis_of(key_bits[j])
        m_b |= measure(qubits[j], basis, coins >> j & 1) << j
    if not code.is_codeword(m_b):
        return None
    return code.message_of(m_b)


@dataclass(frozen=True)
class SessionRecord:
    """Auditable result of one session; never contains keys or qubit state.

    ``message`` is what Bob accepted, or None on a rejection.
    """

    message: Optional[BitWord]
    forged: bool
    adversary: Optional[str]
    adversary_transcript: Optional[dict]

    @property
    def accepted(self) -> bool:
        return self.message is not None


def run_session(
    message: BitWord,
    code: LinearCode,
    adversary=None,
    *,
    randomness: Stream,
) -> SessionRecord:
    """One end-to-end session: keygen, Alice, channel (+ Eve), Bob.

    ``adversary`` is any object with ``name`` and
    ``act(tap, code, randomness) -> transcript-dict-or-None``; it works
    on the channel tap between Alice and Bob.  ``randomness`` is the
    session's one stream, drawn a word at a time: the key, then Eve's
    bases x_E and her coin word (one per readout), then Bob's coin word
    unless nothing arrives.
    """
    key = keygen(code.n, randomness)
    key_bits = key.peek()
    tap = channel_send(alice_send(message, key, code))
    transcript = None
    adversary_name = None
    if adversary is not None:
        adversary_name = adversary.name
        transcript = adversary.act(tap, code, randomness)
    received = bob_receive(tap.deliver(), key_bits, code, randomness)
    forged = (
        received is not None and adversary is not None and received != message
    )
    return SessionRecord(
        message=received,
        forged=forged,
        adversary=adversary_name,
        adversary_transcript=transcript,
    )
