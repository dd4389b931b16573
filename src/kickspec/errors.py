"""Exception hierarchy.

Two families matter to callers: ``UsageError`` (bad inputs, maps to CLI
exit code 2) and ``NumericalError`` (a solver or certified bound could not
be honoured, exit code 3).
"""

from __future__ import annotations


class KickspecError(Exception):
    """Base class for all package errors."""


class UsageError(KickspecError):
    """Invalid argument, parameter or input data."""


class NumericalError(KickspecError):
    """A numerical kernel failed or violated its accuracy contract."""


# -- usage / validation ------------------------------------------------------

class InvalidDimension(UsageError):
    pass


class InvalidParams(UsageError):
    pass


class NotCoprime(UsageError):
    pass


class KindMismatch(UsageError):
    pass


class WrongKind(UsageError):
    pass


class EmptySpectrum(UsageError):
    pass


class NonPositiveSample(UsageError):
    pass


class TooFewSamples(UsageError):
    pass


class CenterOutOfRange(UsageError):
    pass


class DegenerateAlphas(UsageError):
    pass


class UnknownCheck(UsageError):
    pass


class MalformedSpectrumFile(UsageError):
    """A spectrum CSV has a row or header line that does not parse."""


# -- numerical ---------------------------------------------------------------

class NonUnitary(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass
