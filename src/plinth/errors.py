"""Exception types shared across the package."""


class PlinthError(Exception):
    """Base class for all package-specific errors."""


class DegreeMismatch(PlinthError):
    pass


class NotTransitive(PlinthError):
    pass


class NotInvariant(PlinthError):
    pass


class TooLarge(PlinthError):
    pass


class IndexTooLarge(PlinthError):
    pass


class DegreeOverflow(PlinthError):
    pass


class NotCartesian(PlinthError):
    pass


class NotDecompositionPreserving(PlinthError):
    pass


class NonSelfPaired(PlinthError):
    pass


class NotVertexTransitive(PlinthError):
    pass


class NotSimple(PlinthError):
    """A graph given with a loop."""


class NotRegular(PlinthError):
    """A graph whose vertices do not all have the same valency."""


class GeneratorNotAutomorphism(PlinthError):
    pass


class TooManyComponents(PlinthError):
    pass


class ProjectionUnsupported(PlinthError):
    pass


class NotXSubgroup(PlinthError):
    pass


class UnsupportedFlavor(PlinthError):
    pass


class UnsupportedField(PlinthError):
    pass


class Unrecognized(PlinthError):
    pass


class ParseError(PlinthError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NotBijection(PlinthError):
    pass


class OutOfRange(PlinthError):
    """An argument outside the range a routine takes: a point beyond the
    degree, a k that ``is_k_transitive`` does not test, or a graph with
    no vertex to read a valency from."""


class ConstructionFailed(PlinthError):
    pass


class Mismatch(PlinthError):
    pass


class SearchBudgetExceeded(PlinthError):
    pass


class IoError(PlinthError):
    pass
