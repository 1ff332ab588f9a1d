"""Exception types shared across the package."""


class CwlabError(Exception):
    """Base class for all cwlab errors."""


class InvalidArgument(CwlabError, ValueError):
    """A parameter outside the domain of the function it is passed to."""


class NotPrime(CwlabError):
    """A field characteristic that is not prime."""


class BudgetExceeded(CwlabError):
    """Work past a stated cap or budget."""


class DegreeTooLarge(BudgetExceeded):
    """A field past the size cap."""


class DivisionByZero(CwlabError):
    """Zero inverted, or raised to a negative power."""


class NotASubfield(CwlabError):
    """An embedding between fields that do not nest."""


class ExprSyntaxError(CwlabError):
    """Expression syntax error; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(CwlabError):
    """An expression names an undeclared variable."""


class GeneratorInPrimeField(CwlabError):
    """The generator symbol g over a prime field."""


class ArityMismatch(CwlabError):
    """Polynomials, points or subspaces in different numbers of variables."""


class ZeroPolynomial(CwlabError):
    """The zero polynomial where a nonzero one is needed."""


class AmbientMismatch(CwlabError):
    """A subspace outside the system's space."""


class DependentBasis(CwlabError):
    """Subspace rows that are linearly dependent."""


class FullSpace(CwlabError):
    """The full space where a proper subspace is needed."""


class EmptySet(CwlabError):
    """An empty point set where points are needed."""


class WrongFieldSize(CwlabError):
    """A field outside a law's domain."""


class FieldTooSmall(CwlabError):
    """A field too small for a construction."""


class NotHomogeneous(CwlabError):
    """A polynomial that is not a nonzero form."""


class InsufficientExtensions(CwlabError):
    """Too few extension counts for an estimate."""


class FormatError(CwlabError):
    """Input file error; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
