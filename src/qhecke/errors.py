"""Exception types shared across the package."""


class QheckeError(Exception):
    """Base class for all package errors."""


class NonUnitError(QheckeError):
    """A coefficient is not invertible: zero, or not a unit +-z^k of Z[z, 1/z]."""


class PoleError(QheckeError):
    """An Appell-Lerch denominator vanishes identically at the given arguments."""


class NonConvergentError(QheckeError):
    """An infinite sum or product does not stabilize below the requested order."""


class UndefinedResidueError(QheckeError):
    """Kronecker's F(n) requested at a residue class where it is not defined."""


class BFileError(QheckeError):
    """Malformed OEIS b-file."""

    def __init__(self, message, lineno=None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno
