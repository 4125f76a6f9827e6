"""Minimal quantum layer for BB84-style prepare-and-measure.

Only the four BB84 states ever occur and there is no entanglement, so a
qubit is stored as its hidden (basis, bit) record: measuring in the
preparation basis is deterministic, in the conjugate basis a fair coin.

No-cloning is modeled by opaque measure-once handles: the preparation
record is readable only by the measurement engine, and a handle is
consumed by its first measurement.  A readout of n qubits draws one
n-bit coin word, and a qubit j measured in the conjugate basis reads
bit j of it: ``measure`` takes that coin bit, and ``measure_word`` reads
out a whole word of qubits packed into one int, which Monte Carlo uses
instead of one handle per qubit.  It acts bit by bit, so one call reads
out many sessions' words, side by side in one int.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .errors import ProtocolViolationError


class Basis(Enum):
    """The computational basis Z = {|0>, |1>} or diagonal basis X = {|+>, |->}."""

    Z = "Z"
    X = "X"


def _basis_of(key_bit: int) -> Basis:
    """Key bit 0 selects Z, key bit 1 selects X."""
    return Basis.Z if key_bit == 0 else Basis.X


class QubitHandle:
    """Opaque, measure-once reference to a prepared qubit.

    The preparation record is private to this module; protocol parties
    and adversaries interact with a handle only through ``measure``.
    """

    __slots__ = ("__basis", "__bit", "__consumed")

    def __init__(self, bit: int, basis: Basis):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if not isinstance(basis, Basis):
            raise ValueError(f"basis must be a Basis, got {basis!r}")
        self.__basis = basis
        self.__bit = bit
        self.__consumed = False

    @property
    def consumed(self) -> bool:
        return self.__consumed

    def _measure(self, basis: Basis, coin: int) -> int:
        if self.__consumed:
            raise ProtocolViolationError("qubit already measured (no-cloning)")
        self.__consumed = True
        if basis is self.__basis:
            return self.__bit
        return coin

    def __repr__(self) -> str:  # never leaks the preparation record
        state = "consumed" if self.__consumed else "fresh"
        return f"<QubitHandle {state} at {id(self):#x}>"


def measure_word(word: int, mismatch: int, coins: int) -> int:
    """Read out n qubits prepared as ``word``, packed into one int.

    Bit j of ``mismatch`` says qubit j is measured in the conjugate of
    its preparation basis; it reads bit j of the readout's coin word
    ``coins`` (the coin itself, not the bit XOR the coin).  Every other
    qubit reads its bit of ``word``.  This is measuring the qubits one
    by one with ``measure``, each given its bit of ``coins``.
    """
    return (word & ~mismatch) | (coins & mismatch)


def prepare(bit: int, basis: Basis) -> QubitHandle:
    return QubitHandle(bit, basis)


def measure(handle: QubitHandle, basis: Basis, coin: int) -> int:
    """Measure once: the prepared bit on a matched basis, else ``coin``.

    ``coin`` is the qubit's bit of its readout's coin word, a fair coin.
    """
    if not isinstance(basis, Basis):
        raise ValueError(f"basis must be a Basis, got {basis!r}")
    if coin not in (0, 1):
        raise ValueError(f"coin must be 0 or 1, got {coin!r}")
    return handle._measure(basis, coin)


# ---------------------------------------------------------------------------
# Channel with adversary interposition.
# ---------------------------------------------------------------------------

class ChannelTap:
    """Ordered, noiseless delivery with an interposition point.

    An adversary sitting on the channel may take the in-flight handles
    (``intercept``) and install replacements (``replace``); the receiver
    then collects whatever is in flight with ``deliver``.
    """

    def __init__(self, handles: Iterable[QubitHandle]):
        self._payload: list[QubitHandle] = list(handles)
        self._delivered = False

    def intercept(self) -> list[QubitHandle]:
        """Remove and return the in-flight handles."""
        taken, self._payload = self._payload, []
        return taken

    def replace(self, handles: Iterable[QubitHandle]) -> None:
        self._payload = list(handles)

    def deliver(self) -> list[QubitHandle]:
        if self._delivered:
            raise ProtocolViolationError("channel already delivered")
        self._delivered = True
        return list(self._payload)


def channel_send(handles: Sequence[QubitHandle]) -> ChannelTap:
    return ChannelTap(handles)
