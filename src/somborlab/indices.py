"""Degree-based index evaluation and bivariate-function classification.

The central quantity is the general Sombor index: the sum over edges of
(d(u)^2 + d(v)^2)^alpha, alpha != 0; alpha = 0.5 is the plain Sombor index.
More generally, any symmetric bivariate f on positive reals induces a
connectivity function M_f(G) = sum over edges of f(d(u), d(v)).

A symmetric f is *escalating* (resp. *de-escalating*) when

    delta = f(x1,x2) + f(y1,y2) - f(y1,x2) - f(x1,y2)  >= 0   (resp. <= 0)

for all x1 >= y1 >= 1, x2 >= y2 >= 1, strictly when x1 > y1 and x2 > y2.
For h_alpha(x,y) = (x^2+y^2)^alpha this is decided analytically by the sign
regime of alpha (`classify_alpha`); `check_escalating` certifies the same
statement on a finite integer grid, which covers every degree pair arising at
desk scale. alpha = 1 is degenerate: x^2 + y^2 is additively separable, so
delta vanishes identically and neither strict verdict applies.

`check_good_escalating` certifies the stronger conditions behind the
majorization monotonicity result: positive and convex first-argument partials
(closed forms below) plus a three-term shift inequality on the grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import AlphaNotFiniteError, AlphaZeroError, DisconnectedError, ValidationError
from .graphs import Graph, is_connected

#: comparisons of delta against 0, relative to the summed term magnitudes
REL_TOL = 1e-9

#: default grid bound; covers all degree pairs at desk scale (d <= n-1 <= 11)
DEFAULT_GRID_MAX = 20


class AlphaRegime(enum.Enum):
    DE_ESCALATING = "de-escalating"   # 0 < alpha < 1
    ESCALATING = "escalating"         # alpha > 1 or alpha < 0
    DEGENERATE = "degenerate"         # alpha = 1


def _check_alpha(alpha: float) -> None:
    if alpha == 0:
        raise AlphaZeroError("alpha must be nonzero")
    if not math.isfinite(alpha):
        raise AlphaNotFiniteError(f"alpha must be finite, got {alpha!r}")


def classify_alpha(alpha: float) -> AlphaRegime:
    """Analytic regime of h_alpha; alpha = 0 and non-finite alpha are rejected."""
    _check_alpha(alpha)
    if alpha == 1:
        return AlphaRegime.DEGENERATE
    if 0 < alpha < 1:
        return AlphaRegime.DE_ESCALATING
    return AlphaRegime.ESCALATING


def sombor_value(a: int, b: int, alpha: float) -> float:
    return (a * a + b * b) ** alpha


@dataclass(frozen=True)
class BivariateFunction:
    """Symmetric positive-domain function: the built-in h_alpha or a callable.

    Custom callables have their symmetry spot-checked on a small integer grid
    at construction (callables are opaque; this is a sanity check, not a proof).
    """

    kind: str
    alpha: float | None = None
    fn: object = field(default=None, compare=False)
    name: str = ""

    @classmethod
    def sombor(cls, alpha: float) -> "BivariateFunction":
        _check_alpha(alpha)
        return cls(kind="sombor", alpha=float(alpha), name=f"h_{alpha:g}")

    @classmethod
    def custom(cls, fn, name: str = "custom") -> "BivariateFunction":
        for x in (1, 2, 3, 5, 8):
            for y in (1, 2, 4, 7):
                a, b = fn(x, y), fn(y, x)
                if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL):
                    raise ValidationError(
                        f"{name} is not symmetric: f({x},{y})={a!r} != f({y},{x})={b!r}"
                    )
        return cls(kind="custom", fn=fn, name=name)

    def __call__(self, x: float, y: float) -> float:
        if self.kind == "sombor":
            return (x * x + y * y) ** self.alpha
        return self.fn(x, y)  # type: ignore[operator]


def edge_pair_counts(g: Graph) -> list[tuple[tuple[int, int], int]]:
    counts: dict[tuple[int, int], int] = {}
    degs = g.degrees
    for u, v in g.edges:
        a, b = degs[u], degs[v]
        key = (a, b) if a >= b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def connectivity_function(g: Graph, f: BivariateFunction) -> float:
    """M_f(g), summed over the multiset of edge degree pairs in sorted order.

    The sorted aggregation makes the float result a function of the degree-pair
    multiset alone, so isomorphic graphs get bit-identical values.
    """
    if not is_connected(g):
        raise DisconnectedError("connectivity functions are defined on connected graphs")
    return math.fsum(cnt * f(a, b) for (a, b), cnt in edge_pair_counts(g))


def sombor_general(g: Graph, alpha: float) -> float:
    """General Sombor index SO_alpha(g); alpha = 0.5 is the Sombor index."""
    _check_alpha(alpha)
    if not is_connected(g):
        raise DisconnectedError("SO_alpha is defined on connected graphs")
    return math.fsum(
        cnt * sombor_value(a, b, alpha) for (a, b), cnt in edge_pair_counts(g)
    )


# -- finite-grid certification ---------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Integer quadruple domain: B >= x1 >= y1 >= 1, B >= x2 >= y2 >= 1."""

    max_value: int = DEFAULT_GRID_MAX

    def __post_init__(self) -> None:
        if self.max_value < 3:
            raise ValidationError(f"grid bound must be >= 3, got {self.max_value}")


@dataclass(frozen=True)
class Counterexample:
    x1: int
    y1: int
    x2: int
    y2: int
    delta: float
    reason: str


@dataclass(frozen=True)
class EscalationReport:
    function: str
    grid_max: int
    verdict: str                       # "escalating" | "de-escalating" | "neither"
    counterexamples: tuple[Counterexample, ...]
    cells_checked: int
    max_abs_delta: float


def _table(f, bound: int) -> list[list[float]]:
    """t[x][y] = f(x, y) for 1 <= x, y <= bound; index 0 is padding, never read."""
    return [[]] + [[0.0] + [f(x, y) for y in range(1, bound + 1)]
                   for x in range(1, bound + 1)]


def check_escalating(f: BivariateFunction, grid: GridSpec | None = None,
                     max_counterexamples: int = 10) -> EscalationReport:
    """Certify inequality-(2) behaviour of f on the grid.

    escalating:    delta >= 0 everywhere, delta > 0 on strict cells
    de-escalating: delta <= 0 everywhere, delta < 0 on strict cells
    neither:       otherwise (counterexamples tagged with what they break)

    f is evaluated once per grid point (B^2 calls) and each quadruple reads the
    table. Counterexamples are the first `max_counterexamples` found in grid
    order (x1, y1, x2, y2 ascending, x1 outermost): failures of the escalating
    verdict first, then those of the de-escalating verdict.
    """
    grid = grid or GridSpec()
    bound = grid.max_value
    t = _table(f, bound)
    esc_bad: list[Counterexample] = []
    de_bad: list[Counterexample] = []
    esc_fails = de_fails = 0
    cells = 0
    max_abs = 0.0
    for x1 in range(1, bound + 1):
        row_x1 = t[x1]
        for y1 in range(1, x1 + 1):
            row_y1 = t[y1]
            strict1 = x1 > y1
            for x2 in range(1, bound + 1):
                t1, t3 = row_x1[x2], row_y1[x2]
                cells += x2
                for y2 in range(1, x2 + 1):
                    t2, t4 = row_y1[y2], row_x1[y2]
                    delta = t1 + t2 - t3 - t4
                    tol = REL_TOL * (abs(t1) + abs(t2) + abs(t3) + abs(t4))
                    a = abs(delta)
                    if a > max_abs:
                        max_abs = a
                    strict = strict1 and x2 > y2
                    reason = None
                    if delta < -tol:
                        reason = "sign"
                    elif strict and delta <= tol:
                        reason = "strictness"
                    if reason is not None:
                        esc_fails += 1
                        if len(esc_bad) < max_counterexamples:
                            esc_bad.append(Counterexample(x1, y1, x2, y2, delta, reason))
                    reason = None
                    if delta > tol:
                        reason = "sign"
                    elif strict and delta >= -tol:
                        reason = "strictness"
                    if reason is not None:
                        de_fails += 1
                        if len(de_bad) < max_counterexamples:
                            de_bad.append(Counterexample(x1, y1, x2, y2, delta, reason))
    if not esc_fails:
        verdict, examples = "escalating", ()
    elif not de_fails:
        verdict, examples = "de-escalating", ()
    else:
        verdict = "neither"
        examples = tuple((esc_bad + de_bad)[:max_counterexamples])
    return EscalationReport(f.name, bound, verdict, examples, cells, max_abs)


@dataclass(frozen=True)
class GoodEscalatingReport:
    alpha: float
    grid_max: int
    holds: bool
    failed_condition: str | None       # "escalating" | "first-partial" | ...
    counterexamples: tuple[Counterexample, ...]
    cells_checked: int


def first_partial(x: float, y: float, alpha: float) -> float:
    """d/dx of (x^2+y^2)^alpha."""
    return 2 * x * alpha * (x * x + y * y) ** (alpha - 1)


def second_partial(x: float, y: float, alpha: float) -> float:
    """d^2/dx^2 of (x^2+y^2)^alpha."""
    s = x * x + y * y
    return 2 * alpha * s ** (alpha - 2) * (s + 2 * x * x * (alpha - 1))


def _three_term_failures(t: list[list[float]], bound: int,
                         max_counterexamples: int) -> tuple[list[Counterexample], int]:
    """Three-term shift failures in grid order, stopping at `max_counterexamples`.

    `t` is the (bound+1)-table of h. Returns the failures and the number of
    cells examined up to and including the last one checked.
    """
    bad: list[Counterexample] = []
    cells = 0
    for x1 in range(2, bound + 1):
        row_next, row_x1 = t[x1 + 1], t[x1]
        for y1 in range(2, x1 + 1):
            row_y1 = t[y1]
            lhs_c, rhs_c = row_next[y1 - 1], row_x1[y1]
            for x2 in range(1, bound + 1):
                lhs_a, rhs_a = row_next[x2], row_x1[x2]
                for y2 in range(1, x2 + 1):
                    cells += 1
                    lhs = lhs_a + row_next[y2] + lhs_c
                    rhs = rhs_a + row_y1[y2] + rhs_c
                    tol = REL_TOL * (abs(lhs) + abs(rhs))
                    if lhs - rhs <= tol:
                        bad.append(Counterexample(x1, y1, x2, y2, lhs - rhs, "three-term"))
                        if len(bad) >= max_counterexamples:
                            return bad, cells
    return bad, cells


def check_good_escalating(alpha: float, grid: GridSpec | None = None,
                          max_counterexamples: int = 10) -> GoodEscalatingReport:
    """Certify that h_alpha is a good escalating function on the grid.

    Requires, in order: non-negative and escalating (per `check_escalating`),
    first partial > 0 and second partial >= 0 at every grid point, and the
    three-term shift inequality

        h(x1+1,x2) + h(x1+1,y2) + h(x1+1,y1-1) > h(x1,x2) + h(y1,y2) + h(x1,y1)

    for all x1 >= y1 >= 2, x2 >= y2 >= 1 within the bound.

    h is evaluated once per grid point: the three-term check reads a table over
    1..B+1, since it looks up x1+1. Counterexamples are the first
    `max_counterexamples` found in grid order (x1, y1, x2, y2 ascending, x1
    outermost) of the first condition that fails.
    """
    if alpha == 0:
        raise AlphaZeroError("alpha must be nonzero")
    grid = grid or GridSpec()
    bound = grid.max_value
    h = BivariateFunction.sombor(alpha)
    cells = 0

    esc = check_escalating(h, grid)
    cells += esc.cells_checked
    if esc.verdict != "escalating":
        bad = esc.counterexamples[:max_counterexamples]
        return GoodEscalatingReport(alpha, bound, False, "escalating", bad, cells)

    bad = []
    for x in range(1, bound + 1):
        for y in range(1, bound + 1):
            cells += 1
            if h(x, y) < 0:
                bad.append(Counterexample(x, 0, y, 0, h(x, y), "negative-value"))
            elif first_partial(x, y, alpha) <= 0:
                bad.append(Counterexample(x, 0, y, 0, first_partial(x, y, alpha),
                                          "first-partial"))
            elif second_partial(x, y, alpha) < -REL_TOL:
                bad.append(Counterexample(x, 0, y, 0, second_partial(x, y, alpha),
                                          "second-partial"))
            if len(bad) >= max_counterexamples:
                break
        if bad:
            break
    if bad:
        return GoodEscalatingReport(alpha, bound, False, bad[0].reason,
                                    tuple(bad[:max_counterexamples]), cells)

    bad, three_term_cells = _three_term_failures(_table(h, bound + 1), bound,
                                                 max_counterexamples)
    cells += three_term_cells
    if bad:
        return GoodEscalatingReport(alpha, bound, False, "three-term",
                                    tuple(bad), cells)
    return GoodEscalatingReport(alpha, bound, True, None, (), cells)
