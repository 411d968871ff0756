"""Exception taxonomy shared by all somborlab modules.

Every error raised on bad user input derives from :class:`ValidationError`,
which the CLI maps to exit code 2. Verification *verdicts* (a theorem failing
on some instance) are never exceptions; they travel inside report objects.
"""


class SomborlabError(Exception):
    """Base class for all somborlab errors."""


class ValidationError(SomborlabError):
    """Input violates a documented precondition."""


# -- degree-sequence realizability ------------------------------------------

class UnrealizableError(ValidationError):
    """Sequence is not realizable by a connected simple graph."""


class OddSumError(UnrealizableError):
    pass


class TooSparseError(UnrealizableError):
    """Degree sum below 2(n-1): no connected realization."""


class NotGraphicalError(UnrealizableError):
    """Erdos-Gallai inequalities violated."""


class DegreeTooLargeError(UnrealizableError):
    """Some entry exceeds n-1."""


# -- degree-sequence text grammar --------------------------------------------

class SequenceSyntaxError(ValidationError):
    pass


class NonPositiveEntryError(ValidationError):
    pass


# -- constructor preconditions -----------------------------------------------

class NotTreeSequenceError(ValidationError):
    pass


class NotUnicyclicSequenceError(ValidationError):
    pass


class NotBicyclicSequenceError(ValidationError):
    pass


class MinDegreeNotOneError(ValidationError):
    pass


class TriangleInfeasibleError(ValidationError):
    pass


class InfeasibleCaseError(ValidationError):
    pass


class TooFewUnitsError(ValidationError):
    pass


# -- alpha / objective pairing -----------------------------------------------

class AlphaZeroError(ValidationError):
    pass


class AlphaNotFiniteError(ValidationError):
    """alpha is NaN or infinite: every comparison would be vacuous."""


class AlphaDegenerateError(ValidationError):
    """alpha = 1: every graph in Gamma(pi) has the same index value."""


class AlphaNotAboveOneError(ValidationError):
    pass


class UnsupportedObjectiveError(ValidationError):
    pass


class UnsupportedCyclomaticError(ValidationError):
    pass


class UnsupportedCError(ValidationError):
    pass


# -- graph-level ---------------------------------------------------------------

class GraphStructureError(ValidationError):
    """Malformed Graph construction (loops, duplicates, bad labels)."""


class DisconnectedError(ValidationError):
    pass


class AcyclicError(ValidationError):
    """Reduction of a tree would delete every vertex."""


class TooLargeError(ValidationError):
    """Instance exceeds a configured desk-scale cap."""


class LengthMismatchError(ValidationError):
    pass


# -- graph6 --------------------------------------------------------------------

class Graph6Error(ValidationError):
    pass


class MalformedHeaderError(Graph6Error):
    pass


class Graph6LengthError(Graph6Error, LengthMismatchError):
    """Data bytes inconsistent with the declared vertex count."""


# -- resource budget -----------------------------------------------------------

class TimeBudgetExceededError(SomborlabError):
    """Cooperative deadline expired; carries partial statistics."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
