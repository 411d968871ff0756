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

class MinDegreeNotOneError(ValidationError):
    pass


class InfeasibleCaseError(ValidationError):
    """The BFS fill did not place every vertex at its degree in pi."""


# -- alpha / objective pairing -----------------------------------------------

class AlphaZeroError(ValidationError):
    pass


class AlphaNotFiniteError(ValidationError):
    """alpha is NaN or infinite: every comparison would be vacuous."""


class FunctionNotFiniteError(ValidationError):
    """f is NaN or infinite at a grid point: every comparison there is vacuous."""


class FunctionUnderflowError(ValidationError):
    """h_alpha is 0.0 or subnormal at a grid point, though positive in exact
    arithmetic: the grid check cannot resolve its sign there."""


class GridResolutionError(ValidationError):
    """h_alpha with alpha != 1 has a strict grid cell whose delta lies within
    its tolerance. The exact delta there is not 0, but floats cannot decide
    its sign, so no verdict would rest on the function. A delta past its
    tolerance is decided, and failing a verdict there is a counterexample."""


class ExtremumResolutionError(ValidationError):
    """A value lies within REL_TOL of an extremum it does not equal: of
    SO_alpha over Gamma(pi), or of Theorem 3's pair of extrema. Floats cannot
    decide which class attains the extremum, or whether one extremum is
    strictly larger, so a verdict would turn on rounding, not on a
    counterexample."""


class AlphaDegenerateError(ValidationError):
    """alpha = 1: every graph in Gamma(pi) has the same index value."""


class UnsupportedObjectiveError(ValidationError):
    pass


class UnsupportedCyclomaticError(ValidationError):
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


class EmptySweepError(ValidationError):
    """A verify sweep whose range holds nothing to check; it would pass vacuously."""


class CapsSyntaxError(ValidationError):
    """SOMBOR_CAPS names an unknown cap or gives a non-integer value."""


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
