"""Exception hierarchy shared by all modules."""


class McdeformError(Exception):
    """Base class for every error raised by this package."""


class DocumentSyntaxError(McdeformError):
    """Input text is not well-formed JSON."""


class SchemaError(McdeformError):
    """Well-formed JSON that does not conform to a document schema."""


class AxiomViolation(McdeformError):
    """A parsed object fails its structural axioms; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report if report is not None else []


class DifferentialNotSquareZero(McdeformError):
    """d∘d is nonzero on some basis vector."""


class DegreeWindowViolation(McdeformError):
    """A map or structure constant targets a degree outside the window."""


class WindowTooSmall(McdeformError):
    """The requested degree window cannot hold the construction."""


class TargetMismatch(McdeformError):
    """Two morphisms that must share a target do not."""


class NotInjective(McdeformError):
    """A map required to be injective has a nontrivial kernel."""


class DegreeMismatch(McdeformError):
    """An element has the wrong homogeneous degree for the operation."""


class BaseMismatch(McdeformError):
    """Two elements live over different coefficient algebras."""


class NotVerifiedMC(McdeformError):
    """Operation requires a verified Maurer-Cartan element."""


class NotVerifiedTriple(McdeformError):
    """Operation requires a verified Maurer-Cartan triple."""


class NotInFiberProduct(McdeformError):
    """h(l) ≠ g(n); carries the difference element."""

    def __init__(self, message, difference=None):
        super().__init__(message)
        self.difference = difference


class InconsistentInput(McdeformError):
    """Inputs that must agree (e.g. a class and its cocycle) do not."""


class InvalidInput(McdeformError):
    """Inputs violate a precondition that the operation cannot repair."""


class ResourceLimitExceeded(McdeformError):
    """An input exceeds a guard: MCDEFORM_MAX_DIM, or the int digit limit."""


class MissingDocument(McdeformError):
    """A CLI command is missing a required document argument."""
