"""Exception hierarchy shared by all substrand modules."""


class SubstrandError(Exception):
    """Base class for all errors raised by substrand."""


class InputError(SubstrandError, ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedInputError(SubstrandError):
    """Raised for well-formed inputs outside the supported scope.

    Example: requesting the invariant splitting of a substitution that is
    not irreducible Pisot.
    """
