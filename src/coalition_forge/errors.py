"""Exception and warning types shared across the package.

Every error raised by this package derives from CoalitionForgeError.
ValidationError covers malformed or out-of-domain inputs (the CLI maps
these to exit code 2); NumericalError covers root-finding and generator
failures. Warnings flag computations that proceed but whose guarantees
are weakened.
"""

from __future__ import annotations


class CoalitionForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(CoalitionForgeError):
    """Input is malformed, inconsistent, or outside an operation's domain."""


class NegativeEntry(ValidationError):
    """A probability vector contains a negative entry."""


class SumOutOfTolerance(ValidationError):
    """A probability vector does not sum to 1 within tolerance."""

    def __init__(self, actual_sum: float, tol: float):
        self.actual_sum = actual_sum
        self.tol = tol
        super().__init__(
            f"entries sum to {actual_sum!r}, outside 1 +/- {tol!r}"
        )


class TooFewStates(ValidationError):
    """A probability vector has fewer than two outcome states."""


class NonPositiveWager(ValidationError):
    """A player's wager is zero or negative."""


class DimensionMismatch(ValidationError):
    """Forecast length does not match the rule or event space."""


class LogOfZero(ValidationError):
    """Logarithmic score requested for a zero-probability observed state."""


class OutOfDomain(ValidationError):
    """A scalar argument falls outside a generator's open domain."""


class UnboundedRule(ValidationError):
    """The rule has no finite score range, so it cannot be normalized."""


class UnsupportedRule(ValidationError):
    """The operation is not defined for this rule kind."""


class UnsupportedMechanism(ValidationError):
    """The operation is not defined for this mechanism kind."""


class DegenerateBelief(ValidationError):
    """A member belief puts zero probability on a state the rule cannot score."""


class MissingReport(ValidationError):
    """A player has no submitted report where one is required."""

    def __init__(self, player_index: int):
        # player_index is 0-based; messages are 1-based like all user-facing text
        self.player_index = player_index
        super().__init__(f"player {player_index + 1} has no report")


class SinglePlayer(ValidationError):
    """The competitive mechanism needs at least two players."""


class InvalidCoalition(ValidationError):
    """Coalition indices are out of range, repeated, or too few."""


class FractionOutOfRange(ValidationError):
    """A coalition wager fraction is outside (0, 1] or yields fewer than 2 members."""


class PaymentOverflow(ValidationError):
    """Payments at the players' wagers sum past the float range."""


class ScenarioError(ValidationError):
    """A scenario file is malformed; the message carries the field path."""

    def __init__(self, field_path: str, detail: str):
        self.field_path = field_path
        self.detail = detail
        super().__init__(f"{field_path}: {detail}")


class NumericalError(CoalitionForgeError):
    """A numerical procedure failed to produce a trustworthy result."""


class NoConvergence(NumericalError):
    """Root search exhausted its iteration budget above tolerance."""


class NonMonotoneGenerator(NumericalError):
    """A generator's derivative is not strictly increasing where required."""


class CoalitionForgeWarning(UserWarning):
    """Base class for the package's warnings: a computation proceeds on an
    input that withdraws one of its guarantees."""


class CoalitionIsEveryoneWarning(CoalitionForgeWarning):
    """The coalition holds the whole market; competitive surplus is identically zero."""


class OrderingViolationWarning(CoalitionForgeWarning):
    """A coalition member directly precedes another; the sequential dominance
    guarantee is withdrawn, though the computation proceeds."""
