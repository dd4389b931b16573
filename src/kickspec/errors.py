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


class InvalidParams(UsageError):
    """A parameter, config value or argument combination that cannot be used."""


class MalformedSpectrumFile(UsageError):
    """A spectrum CSV the acceptance rule refuses, or whose points, where read, do not parse."""


class NumericalError(KickspecError):
    """A numerical kernel failed or violated its accuracy contract."""
