"""Exception types shared across the library."""


class UsageError(Exception):
    """The command line asks for what no command takes (exit 64).  It is
    defined here, not in ``cli``, so that ``commands`` raises the class
    that ``cli.main`` catches also when ``cli`` runs as ``__main__``."""


class PosetError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(PosetError):
    """The given cover relation induces x < x for some element."""


class DuplicateLabel(PosetError):
    """Element labels of a finite poset must be distinct."""


class ForeignElement(PosetError):
    """An element payload does not belong to the presentation it was used with."""


class EmptyFamily(PosetError):
    """Directed families must be nonempty."""


class ScopeUnsupported(PosetError):
    """The requested check scope is not available for this presentation kind."""


class SizeLimit(PosetError):
    """Exhaustive enumeration was requested beyond the supported size."""


class NotApproximable(PosetError):
    """The element has no approximants (nothing is way-below it), so the
    kernel is undefined there."""


class NoInfimumError(PosetError):
    """The requested infimum does not exist in the searchable carrier."""


class PreconditionUnverified(PosetError):
    """A construction requires order axioms that are neither certified for
    the presentation kind nor verifiable by exhaustion."""


class UnknownName(PosetError):
    """No catalog entry with the given name."""


class ParseError(PosetError):
    """Input text could not be parsed; carries a line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(PosetError):
    """Input parsed but failed semantic validation."""
