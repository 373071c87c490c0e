"""Exception hierarchy shared by all orlicz_lab modules."""

__all__ = [
    "OrliczLabError",
    "InputError",
    "InvalidSchedule",
    "SpaceMismatch",
    "NumericFailure",
    "CrossCheckFailure",
    "WitnessNotFound",
    "EmptyScenarioSet",
    "BracketInvalid",
    "NotAMember",
    "TruncationTooSmall",
    "HypothesisViolation",
    "BoundViolation",
    "CertificateError",
]


class OrliczLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OrliczLabError):
    """Malformed user input (spec strings, CSV/JSON files, bad arguments)."""


class InvalidSchedule(InputError):
    """Piecewise slope schedule violates monotonicity or positivity."""


class SpaceMismatch(InputError):
    """Random variables defined on different finite spaces were combined."""


class NumericFailure(OrliczLabError):
    """A numeric routine could not complete (overflow, bracket failure)."""


class CrossCheckFailure(OrliczLabError):
    """Two independent computations of the same quantity disagree."""


class WitnessNotFound(OrliczLabError):
    """No Delta_2-failure witness below the scanning cap (semi-decision)."""


class EmptyScenarioSet(InputError):
    """A scenario evaluation was requested with no densities."""


class BracketInvalid(OrliczLabError):
    """A bisection bracket does not satisfy the required endpoint conditions."""


class NotAMember(OrliczLabError):
    """Membership in the counterexample set failed.

    Carries a Farkas-type infeasibility certificate in ``certificate``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class TruncationTooSmall(OrliczLabError):
    """No admissible selection exists within the current truncation."""


class HypothesisViolation(OrliczLabError):
    """An input family does not satisfy the documented preconditions."""


class BoundViolation(OrliczLabError):
    """A certified per-term bound failed on input; carries the index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CertificateError(OrliczLabError):
    """A supplied membership certificate does not verify."""
