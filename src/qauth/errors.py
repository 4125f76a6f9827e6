"""Exception types shared across the package."""


class QauthError(Exception):
    """Base class for package errors."""


class DimensionError(QauthError, ValueError):
    """Operands have incompatible lengths or shapes."""


class UnsupportedSizeError(QauthError, ValueError):
    """Requested parameters exceed a documented size bound."""


class ParameterError(QauthError, ValueError):
    """A parameter lies outside its valid range (e.g. an even repetition length)."""


class SpecError(QauthError, ValueError):
    """A code-spec file is malformed or disagrees with the code it names."""


class KeyReuseError(QauthError, RuntimeError):
    """A single-use secret key was presented twice."""


class ProtocolViolationError(QauthError, RuntimeError):
    """Quantum-semantics contract broken (e.g. measuring a consumed qubit)."""
