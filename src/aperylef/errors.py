"""Exception hierarchy shared across the package."""


class AperyError(Exception):
    """Base class for all library errors."""


class EmptyInput(AperyError):
    """A required input, such as the generators or the quotient-chain
    steps, was not supplied."""


class ConflictingInput(AperyError):
    """Two command-line inputs that exclude each other were both given."""


class GcdNotOne(AperyError):
    """The generators do not generate a numerical semigroup (gcd != 1)."""


class InvalidGenerator(AperyError):
    """A generator is not a positive integer."""


class NotInSemigroup(AperyError):
    """A value queried for order/representations is not a semigroup element."""


class DegreeOutOfRange(AperyError):
    """A graded map was requested outside the algebra's degree range."""


class NotApplicable(AperyError):
    """The requested structural construction does not apply to this input."""


class NotCI(AperyError):
    """A complete-intersection-only operation was called on a non-CI algebra."""


class NotGorenstein(AperyError):
    """A Gorenstein-only operation was called on a non-Gorenstein algebra."""


class NotGorensteinAtStep(AperyError):
    """A quotient-chain step reached a non-Gorenstein intermediate algebra."""


class DependentBasis(AperyError):
    """Monomials passed as a basis are linearly dependent in the quotient."""


class SizeLimit(AperyError):
    """An exact computation exceeded its configured size cap."""


class DegreeTooSmall(AperyError):
    """The degree-based criterion needs all generator degrees >= 2."""


class PolyParseError(AperyError):
    """The polynomial text did not match the expected grammar."""


class InvalidDualGenerator(AperyError):
    """A polynomial that is zero, not homogeneous, or of degree 0 where a
    positive degree is required presents no algebra."""


class InvalidStep(AperyError):
    """A quotient-chain step names no variable of the algebra or a power below 1."""


class InvalidSeed(AperyError):
    """The APERY_SEED environment variable is not an integer."""


class InvalidOutputPath(AperyError):
    """An output path given on the command line cannot be opened."""


class InternalFault(AperyError):
    """An invariant the library guarantees was found broken: a bug, not bad input."""
