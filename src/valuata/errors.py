"""Exception types shared across the package.

Two families matter to callers.  Precision errors mean the inputs were
truncated too aggressively to certify an answer; rerun with more precision.
Math-assert errors mean a theorem-backed identity failed at runtime, which
indicates a bug somewhere, never a property of the input.
"""


class ValuataError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ValuataError):
    """Caller violated a precondition (wrong field, wrong kind of element)."""


class InsufficientPrecisionError(ValuataError):
    """The requested answer cannot be certified from truncated data."""


class ZeroToPrecisionError(InsufficientPrecisionError):
    """An element has no visible terms but is not known to be exactly zero.

    ``bound`` is the exponent below which the element is known to vanish.
    The message names it, formatted here rather than in ``__str__``, so that
    a bound too long to print still leaves a message to print.
    """

    def __init__(self, bound):
        try:
            known = f"only v >= {bound} is known"
        except (UsageError, ValueError):
            known = "its bound is too long to print"
        super().__init__(f"zero to working precision: {known}")
        self.bound = bound


class TrivialExtensionError(UsageError):
    """Operation refused because the defining equation splits already."""


class FixedElementError(UsageError):
    """The Galois difference of the element vanishes (element lies in the base)."""


class NotAGeneratorError(UsageError):
    """Conjugates are not pairwise distinct to working precision."""


class MathAssertError(ValuataError):
    """A mathematically guaranteed identity failed; exit code 2 in the CLI."""


class NoImprovementError(MathAssertError):
    """An improvement step did not strictly raise the valuation."""


class MismatchError(MathAssertError):
    """Two independent routes to the same quantity disagree."""


class ResidualAlphaComponentError(MathAssertError):
    """A Galois-symmetric product kept a visible generator component."""


class ConstructionAssertError(MathAssertError):
    """An intermediate object violates the identity it was built to satisfy."""


class IdentityViolatedError(MathAssertError):
    """A trace or norm identity evaluated to the wrong value."""


class InequalityViolatedError(MathAssertError):
    """A guaranteed valuation inequality failed on a sample."""
