"""Exception types shared across the package."""


class SvpforgeError(Exception):
    """Base class for all package-specific errors."""


class CspParseError(SvpforgeError):
    """Malformed CSP text.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CspValidationError(SvpforgeError):
    """Structurally invalid CSP data (out-of-range indices, bad arity, ...)."""


class BudgetExceededError(SvpforgeError):
    """An exhaustive operation would exceed its configured work budget."""


class ProfileError(SvpforgeError):
    """Invalid or inconsistent reduction parameters."""


class DisperserCertificationError(SvpforgeError):
    """No bi-regular graph of the asked shape passes disperser certification."""


class RegularizeError(SvpforgeError):
    """The instance cannot be regularized with the given parameters."""


class WitnessNotFoundError(SvpforgeError):
    """No short coefficient vector exists in the searched space."""
