"""Exception hierarchy.

Every bad input raises DomainError (CLI exit code 2) and every numerical
failure raises NumericalError (CLI exit code 3).  The message names the
check that failed.
"""


class KickedTopError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KickedTopError):
    """Input outside the documented domain of an operation."""


class NumericalError(KickedTopError):
    """A numerical computation failed or produced unusable output."""
