"""Eve's strategies against the channel: no-message and intercept-resend.

Both strategies see only public data (the code) and the opaque channel
interface; intercepted qubits can be touched only through ``measure``.
Each strategy acts twice over: ``act`` on a channel of qubit handles
(the reference session), and ``forgery_bases`` on packed words (the
Monte Carlo kernel), where Alice's qubits are reachable only through a
readout callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from .codes import LinearCode
from .errors import DimensionError
from .gf2 import BitWord
from .qsim import ChannelTap, QubitHandle, _basis_of, measure, prepare

ABORT = "abort"
RESEND_UNCORRECTED = "resend_uncorrected"


def _prepare_word(word: int, bases: BitWord) -> list[QubitHandle]:
    return [
        prepare((word >> j) & 1, _basis_of(bases[j])) for j in range(bases.length)
    ]


@dataclass(frozen=True)
class AdversaryTranscript:
    """Audit record of one attack attempt; never includes x_AB."""

    x_e: BitWord
    m_e: Optional[BitWord]
    decode_success: bool
    flips: int  # bit j set for each position the decode corrected
    x_e_prime: Optional[BitWord]
    resent: bool

    def to_json_dict(self) -> dict:
        return {
            "x_E": self.x_e.to_hex(),
            "m_E": self.m_e.to_hex() if self.m_e is not None else None,
            "decode_success": self.decode_success,
            "corrected_positions": [
                j for j in range(self.x_e.length) if self.flips >> j & 1
            ],
            "x_E_prime": (
                self.x_e_prime.to_hex() if self.x_e_prime is not None else None
            ),
            "resent": self.resent,
        }


class NoMessageStrategy:
    """Forge from scratch: random basis guess x_E, no interception."""

    name = "no-message"

    def __init__(self, forged_message: BitWord):
        self.forged_message = forged_message

    def forge(self, code: LinearCode, randomness: Random) -> tuple[
        list[QubitHandle], AdversaryTranscript
    ]:
        if self.forged_message.length != code.m:
            raise DimensionError(
                f"forged message length {self.forged_message.length} != m={code.m}"
            )
        x_e = BitWord(randomness.getrandbits(code.n), code.n)
        c_e = code.encode(self.forged_message)
        transcript = AdversaryTranscript(
            x_e=x_e,
            m_e=None,
            decode_success=False,
            flips=0,
            x_e_prime=None,
            resent=True,
        )
        return _prepare_word(c_e, x_e), transcript

    def act(self, tap: ChannelTap, code: LinearCode, randomness: Random) -> dict:
        tap.intercept()  # anything of Alice's in flight is discarded
        handles, transcript = self.forge(code, randomness)
        tap.replace(handles)
        return transcript.to_json_dict()

    def forgery_bases(
        self, code: LinearCode, read: Callable[[int], int], randomness: Random
    ) -> Optional[int]:
        """Word-level ``act``: Alice's qubits go unread, x_E is the answer."""
        return randomness.getrandbits(code.n)


class InterceptResendStrategy:
    """Measure with a guessed key, decode, correct the guess, resend.

    Eve measures qubit j in the basis given by her uniformly random
    guess x_E, bounded-distance decodes the measured word, flips x_E at
    the corrected positions to get x_E', and resends her own codeword in
    the x_E' bases.  If decoding fails she follows ``on_decode_failure``:
    ``abort`` (drop the transmission, Bob rejects on qubit count) or
    ``resend_uncorrected`` (send the forgery under the unmodified x_E).
    """

    name = "intercept-resend"

    def __init__(self, forged_message: BitWord, on_decode_failure: str = ABORT):
        if on_decode_failure not in (ABORT, RESEND_UNCORRECTED):
            raise ValueError(
                f"on_decode_failure must be '{ABORT}' or '{RESEND_UNCORRECTED}'"
            )
        self.forged_message = forged_message
        self.on_decode_failure = on_decode_failure

    def attack(
        self,
        intercepted: list[QubitHandle],
        code: LinearCode,
        randomness: Random,
    ) -> tuple[Optional[list[QubitHandle]], AdversaryTranscript]:
        if self.forged_message.length != code.m:
            raise DimensionError(
                f"forged message length {self.forged_message.length} != m={code.m}"
            )
        if len(intercepted) != code.n:
            raise DimensionError(
                f"expected {code.n} intercepted qubits, got {len(intercepted)}"
            )
        n = code.n
        x_e = BitWord(randomness.getrandbits(n), n)
        m_e = BitWord.from_bits(
            measure(intercepted[j], _basis_of(x_e[j]), randomness)
            for j in range(n)
        )
        ok, flips = code.decode(m_e.value)
        bases = self._resend_bases(x_e.value, ok, flips)
        x_e_prime = None if bases is None else BitWord(bases, n)
        transcript = AdversaryTranscript(
            x_e=x_e,
            m_e=m_e,
            decode_success=ok,
            flips=flips,
            x_e_prime=x_e_prime,
            resent=bases is not None,
        )
        if x_e_prime is None:
            return None, transcript
        return _prepare_word(code.encode(self.forged_message), x_e_prime), transcript

    def _resend_bases(self, x_e: int, ok: bool, flips: int) -> Optional[int]:
        """The bases to resend under after a decode, or None to drop.

        A successful decode flips x_E at the corrected positions; a failed
        one (whose ``flips`` is 0) keeps x_E or drops the transmission,
        per ``on_decode_failure``.
        """
        if ok or self.on_decode_failure == RESEND_UNCORRECTED:
            return x_e ^ flips
        return None

    def act(self, tap: ChannelTap, code: LinearCode, randomness: Random) -> dict:
        intercepted = tap.intercept()
        handles, transcript = self.attack(intercepted, code, randomness)
        tap.replace(handles if handles is not None else [])
        return transcript.to_json_dict()

    def forgery_bases(
        self, code: LinearCode, read: Callable[[int], int], randomness: Random
    ) -> Optional[int]:
        """Word-level ``attack``: the bases of the forgery, or None to drop.

        ``read(x_E)`` is Eve's readout of Alice's qubits measured in the
        bases of her random guess x_E.
        """
        x_e = randomness.getrandbits(code.n)
        ok, flips = code.decode(read(x_e))
        return self._resend_bases(x_e, ok, flips)
