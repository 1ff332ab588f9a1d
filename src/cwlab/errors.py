"""Exception types shared across the package."""


class CwlabError(Exception):
    """Base class for all cwlab errors."""


class InvalidArgument(CwlabError, ValueError):
    """A parameter outside the domain of the function it is passed to."""


class NotPrime(CwlabError):
    pass


class DegreeTooLarge(CwlabError):
    pass


class DivisionByZero(CwlabError):
    pass


class NotADivisor(CwlabError):
    pass


class NotASubfield(CwlabError):
    pass


class ExprSyntaxError(CwlabError):
    """Expression syntax error; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(CwlabError):
    pass


class GeneratorInPrimeField(CwlabError):
    pass


class ArityMismatch(CwlabError):
    pass


class ZeroPolynomial(CwlabError):
    pass


class AmbientMismatch(CwlabError):
    pass


class DependentBasis(CwlabError):
    pass


class BudgetExceeded(CwlabError):
    pass


class FullSpace(CwlabError):
    pass


class EmptySet(CwlabError):
    pass


class WrongFieldSize(CwlabError):
    pass


class FieldTooSmall(CwlabError):
    pass


class NotHomogeneous(CwlabError):
    pass


class InsufficientExtensions(CwlabError):
    pass


class FormatError(CwlabError):
    """Input file error; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
