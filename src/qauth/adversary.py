"""Eve's strategies against the channel: no-message and intercept-resend.

Both strategies see only public data (the code) and what the engine
running them hands over.  Each writes its attack once, as a pure rule
``forge(code, x_E, m_E) -> (decode_success, flips, x_E')``: x_E is her
uniformly random basis guess, m_E her readout of Alice's qubits in
those bases (None for a strategy whose ``reads`` is False), and x_E' is
the basis word the forgery is sent under, or None when nothing is sent.
``act`` runs ``forge`` on a channel of qubit handles (the reference
session), drawing x_E and then, if she reads, one n-bit coin word for
the handles it measures.  ``verify.monte_carlo`` runs the same
``forge`` on words, with the same bits.  A rule that reads runs once
per session, one session at a time, since each readout is decoded on
its own; x_E and her coins are fields of the trial's first 4n stream
bits.  A rule that does not read runs once on many sessions' x_E side
by side, each in its own slot of one int, so it must act bit by bit on
x_E and always send: x_E' is never None.
"""

from __future__ import annotations

from typing import Optional

from .codes import LinearCode
from .errors import DimensionError, ParameterError
from .gf2 import BitWord
from .qsim import ChannelTap, _basis_of, measure, prepare
from .rng import Stream

ABORT = "abort"
RESEND_UNCORRECTED = "resend_uncorrected"

# (decode_success, flips, x_E'); flips has bit j set for each position
# the decode corrected, and x_E' is None when nothing is sent
Forgery = tuple[bool, int, Optional[int]]


def decode_failure_policy(on_decode_failure: str) -> str:
    """``on_decode_failure`` itself, if it names a policy."""
    if on_decode_failure not in (ABORT, RESEND_UNCORRECTED):
        raise ParameterError(
            f"on_decode_failure must be '{ABORT}' or '{RESEND_UNCORRECTED}', "
            f"got {on_decode_failure!r}"
        )
    return on_decode_failure


def _hex(word: Optional[int]) -> Optional[str]:
    return None if word is None else format(word, "x")


def act_on_channel(strategy, tap: ChannelTap, code: LinearCode,
                   randomness: Stream) -> dict:
    """Run ``strategy.forge`` on the qubit handles in flight on ``tap``.

    Eve takes Alice's handles and draws x_E; if she reads, she draws one
    n-bit coin word and measures handle j in the basis bit j of x_E
    selects, reading bit j of the coins when that is the other basis.
    She puts her forged codeword back under x_E' (nothing when x_E' is
    None).  Returns the transcript as a JSON dict of hex words; it never
    includes Bob's key.
    """
    intercepted = tap.intercept()
    if strategy.forged_message.length != code.m:
        raise DimensionError(
            f"forged message length {strategy.forged_message.length} != m={code.m}"
        )
    x_e = randomness.getrandbits(code.n)
    m_e = None
    if strategy.reads:
        if len(intercepted) != code.n:
            raise DimensionError(
                f"expected {code.n} intercepted qubits, got {len(intercepted)}"
            )
        coins = randomness.getrandbits(code.n)
        m_e = 0
        for j, handle in enumerate(intercepted):
            basis = _basis_of(x_e >> j & 1)
            m_e |= measure(handle, basis, coins >> j & 1) << j
    ok, flips, x_e_prime = strategy.forge(code, x_e, m_e)
    handles = []
    if x_e_prime is not None:
        forged = code.encode(strategy.forged_message)
        handles = [prepare(forged >> j & 1, _basis_of(x_e_prime >> j & 1))
                   for j in range(code.n)]
    tap.replace(handles)
    return {
        "x_E": _hex(x_e),
        "m_E": _hex(m_e),
        "decode_success": ok,
        "corrected_positions": [
            j for j in range(flips.bit_length()) if flips >> j & 1
        ],
        "x_E_prime": _hex(x_e_prime),
        "resent": x_e_prime is not None,
    }


class NoMessageStrategy:
    """Forge from scratch: random basis guess x_E, Alice's qubits unread."""

    name = "no-message"
    reads = False

    def __init__(self, forged_message: BitWord):
        self.forged_message = forged_message

    def forge(self, code: LinearCode, x_e: int, m_e: None) -> Forgery:
        return False, 0, x_e

    act = act_on_channel


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
    reads = True

    def __init__(self, forged_message: BitWord, on_decode_failure: str = ABORT):
        self.forged_message = forged_message
        self.on_decode_failure = decode_failure_policy(on_decode_failure)

    def forge(self, code: LinearCode, x_e: int, m_e: int) -> Forgery:
        ok, flips = code.decode(m_e)
        # a failed decode flips nothing: x_E is resent as is, or dropped
        if ok or self.on_decode_failure == RESEND_UNCORRECTED:
            return ok, flips, x_e ^ flips
        return ok, flips, None

    act = act_on_channel
