"""Simulation and exact security analysis of a quantum message-
authentication protocol: classical messages are encoded with a binary
linear code and transmitted as BB84 states under a shared basis key.

Subpackages by layer:
  gf2        bit-packed GF(2) linear algebra and GF(2^w) fields
  codes      linear block codes, syndrome decoding
  bch        primitive BCH construction and algebraic decoding
  qsim       measure-once BB84 qubit simulator
  protocol   Alice/Bob procedures and full sessions
  adversary  no-message and intercept-resend attacks
  analytics  exact closed-form attack probabilities
  verify     exhaustive oracles and Monte Carlo estimation
  cli        batch command-line interface
"""

from .gf2 import BitMatrix, BitWord
from .codes import LinearCode, build_bch, make_hamming_7_4, make_repetition
from .qsim import Basis, QubitHandle, measure, prepare
from .protocol import SecretKey, keygen, run_session
from .adversary import InterceptResendStrategy, NoMessageStrategy
from .analytics import p_dec, p_f_no_message, p_f_prime, table1
from .verify import monte_carlo, oracle_p_dec

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitWord",
    "LinearCode",
    "make_hamming_7_4",
    "make_repetition",
    "build_bch",
    "Basis",
    "QubitHandle",
    "measure",
    "prepare",
    "SecretKey",
    "keygen",
    "run_session",
    "InterceptResendStrategy",
    "NoMessageStrategy",
    "p_dec",
    "p_f_no_message",
    "p_f_prime",
    "table1",
    "monte_carlo",
    "oracle_p_dec",
    "__version__",
]
