"""Exception types shared across the package."""


class CmexpandError(Exception):
    """Base class for all library errors."""


class NotRational(CmexpandError):
    """A surd with a nonzero irrational part was asked for its rational value."""


class DegenerateParams(CmexpandError):
    """Family parameters make the defining denominator vanish."""


class BranchUndefined(CmexpandError):
    """A complex power has no principal-branch value (zero base, non-integer exponent)."""


class NonConvergent(CmexpandError):
    """The signed ladder cannot reach the target from the current estimate."""


class PrecisionExhausted(CmexpandError):
    """A sign decision stayed undecided at the maximum bracket precision."""


class InsufficientTerms(CmexpandError):
    """An expansion does not contain a single full block to regroup."""


class InvalidIndices(CmexpandError):
    """Identity indices outside the identity's domain."""


class EmptySystem(CmexpandError):
    """A mass ledger with no mass anywhere."""


class NoBracketCluster(CmexpandError):
    """No positive-mass cluster exists on the target side of the estimate."""


class BFileError(CmexpandError):
    """Base class for b-file ingestion problems."""


class ParseError(BFileError):
    """Malformed b-file line; the message carries the line number."""


class NonConsecutiveIndex(BFileError):
    """b-file indices skip or repeat."""


class UnknownFamily(CmexpandError):
    """A catalog entry names a family the verifier cannot recompute."""


class MalformedCatalog(CmexpandError):
    """A catalog document or entry lacks a required field."""


class BudgetExceeded(CmexpandError):
    """An untrusted input asks for more terms or bits than its documented limit."""


class TargetSyntaxError(CmexpandError):
    """Target expression failed to parse; `position` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RangeError(CmexpandError):
    """Target value falls outside the unit interval."""
