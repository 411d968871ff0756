"""Exception taxonomy shared by all somborlab modules.

Every error raised on bad user input derives from :class:`ValidationError`,
which the CLI maps to exit code 2; its message names the check that failed.
Verification *verdicts* (a theorem failing on some instance) are never
exceptions; they travel inside report objects.
"""


class SomborlabError(Exception):
    """Base class for all somborlab errors."""


class ValidationError(SomborlabError):
    """Input violates a documented precondition."""


class UnrealizableError(ValidationError):
    """Sequence is not realizable by a connected simple graph: odd degree sum,
    d1 > n-1, degree sum below 2(n-1), or an Erdos-Gallai inequality fails."""


class GridResolutionError(ValidationError):
    """h_alpha with alpha != 1 has a strict grid cell whose delta lies within
    its tolerance. The exact delta there is not 0, but floats cannot decide
    its sign, so no verdict would rest on the function. A delta past its
    tolerance is decided, and failing a verdict there is a counterexample."""


class ExtremumResolutionError(ValidationError):
    """Floats cannot separate two values: a second JDM of Gamma(pi) whose
    SO_alpha equals the extremum or lies within REL_TOL of it, or Theorem 3's
    two extrema within REL_TOL of each other. Distinct JDMs may round to one
    float, so a verdict on which class attains the extremum, or on whether
    one extremum is strictly larger, would turn on rounding, not on a
    counterexample."""


class TimeBudgetExceededError(SomborlabError):
    """Cooperative deadline expired; carries partial statistics."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
