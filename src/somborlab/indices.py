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

Grid certification is exact and single-pass. f is evaluated once per grid
point, and a NaN or infinite value, or an h_alpha value that underflows to 0.0
or a subnormal, is a validation error rather than a verdict. Every report is
bit for bit the one that evaluating each cell's definition in order would
give; a bound only skips a cell's tolerance computation where it proves the
outcome, and tests compare against that per-call definition.
"""

from __future__ import annotations

import enum
import math
import sys
from operator import sub
from typing import NamedTuple

from .errors import (
    AlphaNotFiniteError,
    AlphaZeroError,
    DisconnectedError,
    FunctionNotFiniteError,
    FunctionUnderflowError,
    ValidationError,
)
from .graphs import Graph, _Value, is_connected

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


class BivariateFunction(_Value):
    """Symmetric positive-domain function: the built-in h_alpha or a callable.

    Custom callables have their symmetry spot-checked on a small integer grid
    at construction (callables are opaque; this is a sanity check, not a proof).
    A NaN or infinite value there raises `FunctionNotFiniteError`. `fn` takes
    no part in equality or hashing.
    """

    kind: str
    alpha: float | None
    fn: object
    name: str

    def __init__(self, kind: str, alpha: float | None = None, fn: object = None,
                 name: str = "") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "name", name)

    def _key(self) -> tuple:
        return (self.kind, self.alpha, self.name)

    def __repr__(self) -> str:
        return (f"BivariateFunction(kind={self.kind!r}, alpha={self.alpha!r}, "
                f"fn={self.fn!r}, name={self.name!r})")

    @classmethod
    def sombor(cls, alpha: float) -> "BivariateFunction":
        _check_alpha(alpha)
        return cls(kind="sombor", alpha=float(alpha), name=f"h_{alpha:g}")

    @classmethod
    def custom(cls, fn, name: str = "custom") -> "BivariateFunction":
        for x in (1, 2, 3, 5, 8):
            for y in (1, 2, 4, 7):
                a, b = fn(x, y), fn(y, x)
                for (p, q), v in (((x, y), a), ((y, x), b)):
                    if not math.isfinite(v):
                        raise FunctionNotFiniteError(f"{name}({p}, {q}) = {v!r} is not finite")
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


def check_no_underflow(pairs, alphas) -> None:
    """The grid's rule on an SO_alpha sum: no h_alpha term may be 0.0 or subnormal.

    `pairs` are edge degree pairs ((x, y), count). Such a term carries no
    information, so graphs would tie at 0.0; `FunctionUnderflowError` is
    raised instead. For alpha > 0 every term is at least 2^alpha > 1; for
    alpha < 0 the smallest term is that of the most negative alpha at the
    largest x^2 + y^2, so one term is checked per call.
    """
    low = min(alphas, default=0.0)
    if low >= 0 or not pairs:
        return
    top = max(x * x + y * y for (x, y), _ in pairs)
    v = top ** low
    if v < sys.float_info.min:
        raise FunctionUnderflowError(
            f"h_{low:g} = {v!r} at x^2 + y^2 = {top} is below the normal float "
            f"range; use a smaller |alpha|"
        )


def sombor_general(g: Graph, alpha: float) -> float:
    """General Sombor index SO_alpha(g); alpha = 0.5 is the Sombor index.

    An h_alpha term that underflows raises `FunctionUnderflowError`.
    """
    _check_alpha(alpha)
    if not is_connected(g):
        raise DisconnectedError("SO_alpha is defined on connected graphs")
    pairs = edge_pair_counts(g)
    check_no_underflow(pairs, (alpha,))
    return math.fsum(cnt * sombor_value(a, b, alpha) for (a, b), cnt in pairs)


# -- finite-grid certification ---------------------------------------------------

class GridSpec(_Value):
    """Integer quadruple domain: B >= x1 >= y1 >= 1, B >= x2 >= y2 >= 1."""

    max_value: int

    def __init__(self, max_value: int = DEFAULT_GRID_MAX) -> None:
        if max_value < 3:
            raise ValidationError(f"grid bound must be >= 3, got {max_value}")
        object.__setattr__(self, "max_value", max_value)

    def _key(self) -> tuple:
        return (self.max_value,)

    def __repr__(self) -> str:
        return f"GridSpec(max_value={self.max_value!r})"


class Counterexample(NamedTuple):
    x1: int
    y1: int
    x2: int
    y2: int
    delta: float
    reason: str


class EscalationReport(NamedTuple):
    function: str
    grid_max: int
    verdict: str                       # "escalating" | "de-escalating" | "neither"
    counterexamples: tuple[Counterexample, ...]
    cells_checked: int
    max_abs_delta: float


def _table(f: BivariateFunction, bound: int) -> list[list[float]]:
    """t[x][y] = f(x, y) for 1 <= x, y <= bound; index 0 is padding, never read.

    Every entry must be finite. h_alpha entries must also be normal floats:
    h_alpha > 0, so 0.0 or a subnormal there is underflow, and the grid
    inequalities cannot be resolved from it. A custom f may be 0 or subnormal.
    """
    span = range(1, bound + 1)
    t = [[]] + [[0.0] + [f(x, y) for y in span] for x in span]
    for x in span:
        for y in span:
            v = t[x][y]
            if not math.isfinite(v):
                raise FunctionNotFiniteError(f"{f.name}({x}, {y}) = {v!r} is not finite")
            if f.kind == "sombor" and v < sys.float_info.min:
                raise FunctionUnderflowError(
                    f"{f.name}({x}, {y}) = {v!r} is below the normal float range; "
                    f"use a smaller |alpha| or grid bound"
                )
    return t


def _block_cells(bound: int) -> list[tuple[int, int]]:
    """(x2, y2) of every cell of one (x1, y1) block, in grid order."""
    return [(x2, y2) for x2 in range(1, bound + 1) for y2 in range(1, x2 + 1)]


def check_escalating(f: BivariateFunction, grid: GridSpec | None = None,
                     max_counterexamples: int = 10) -> EscalationReport:
    """Certify inequality-(2) behaviour of f on the grid.

    escalating:    delta >= 0 everywhere, delta > 0 on strict cells
    de-escalating: delta <= 0 everywhere, delta < 0 on strict cells
    neither:       otherwise (counterexamples tagged with what they break)

    A cell fails the de-escalating verdict when delta > tol, the escalating
    verdict when delta < -tol, and, when neither holds on a strict cell
    (x1 > y1 and x2 > y2), both verdicts with reason "strictness". Here
    delta = t1 + t2 - t3 - t4 and tol = REL_TOL * (|t1| + |t2| + |t3| + |t4|),
    each evaluated in that order.

    Single exact pass: f is evaluated once per grid point (a NaN or infinite
    value raises `FunctionNotFiniteError`; an h_alpha value of 0.0 or a
    subnormal raises `FunctionUnderflowError`). Each (x1, y1) block computes
    the delta of every cell, which gives max_abs_delta exactly. The exact tol
    of each cell is skipped only in a block whose extreme deltas clear a
    bound proven to lie on the right side of every tol in the block. So the
    report equals, field for field and bit for bit, that of evaluating the
    definition cell by cell.

    Counterexamples are the first `max_counterexamples` found in grid order
    (x1, y1, x2, y2 ascending, x1 outermost): failures of the escalating
    verdict first, then those of the de-escalating verdict.
    """
    grid = grid or GridSpec()
    bound = grid.max_value
    t = _table(f, bound)
    a = [[abs(v) for v in row] for row in t]
    a_max = [max(row[1:], default=0.0) for row in a]
    a_min = [min(row[1:], default=0.0) for row in a]
    span = range(1, bound + 1)
    block = _block_cells(bound)
    strict = [(x2, y2) for x2, y2 in block if y2 < x2]     # when x1 > y1
    # one kept example records that a verdict failed, even when none is asked for
    keep = max(max_counterexamples, 1)
    esc_bad: list[Counterexample] = []
    de_bad: list[Counterexample] = []
    hi = lo = 0.0
    for x1 in span:
        rx = t[x1]
        for y1 in range(1, x1 + 1):
            ry = t[y1]
            if y1 < x1:
                ds = [rx[x2] + ry[y2] - ry[x2] - rx[y2] for x2, y2 in strict]
                ns = [rx[x2] + ry[x2] - ry[x2] - rx[x2] for x2 in span]
            else:
                ds = []
                ns = [rx[x2] + rx[y2] - rx[x2] - rx[y2] for x2, y2 in block]
            n_lo, n_hi = min(ns), max(ns)
            d_lo, d_hi = (min(ds), max(ds)) if ds else (n_lo, n_hi)
            hi = max(hi, d_hi, n_hi)
            lo = min(lo, d_lo, n_lo)
            if len(esc_bad) >= keep and len(de_bad) >= keep:
                continue
            # Rounding is monotone, so a tol sum taken in the cell's order over
            # the two rows' largest (smallest) |t| is at least (at most) every
            # tol in the block, with no slack.
            ub = REL_TOL * (a_max[x1] + a_max[y1] + a_max[y1] + a_max[x1])
            lb = REL_TOL * (a_min[x1] + a_min[y1] + a_min[y1] + a_min[x1])
            if -lb <= n_lo and n_hi <= lb:      # no non-strict cell fails
                if not ds:
                    continue
                if d_lo > ub:                   # on every strict cell delta > tol
                    need = keep - len(de_bad)
                    de_bad += [Counterexample(x1, y1, x2, y2, delta, "sign")
                               for (x2, y2), delta in zip(strict[:need], ds)]
                    continue
                if d_hi < -ub:                  # on every strict cell delta < -tol
                    need = keep - len(esc_bad)
                    esc_bad += [Counterexample(x1, y1, x2, y2, delta, "sign")
                                for (x2, y2), delta in zip(strict[:need], ds)]
                    continue
            ax, ay = a[x1], a[y1]
            for x2, y2 in block:
                delta = rx[x2] + ry[y2] - ry[x2] - rx[y2]
                tol = REL_TOL * (ax[x2] + ay[y2] + ay[x2] + ax[y2])
                if delta > tol:
                    esc_reason, de_reason = None, "sign"
                elif delta < -tol:
                    esc_reason, de_reason = "sign", None
                elif y1 < x1 and y2 < x2:
                    esc_reason = de_reason = "strictness"
                else:
                    continue
                if esc_reason and len(esc_bad) < keep:
                    esc_bad.append(Counterexample(x1, y1, x2, y2, delta, esc_reason))
                if de_reason and len(de_bad) < keep:
                    de_bad.append(Counterexample(x1, y1, x2, y2, delta, de_reason))
    if not esc_bad:
        verdict, examples = "escalating", ()
    elif not de_bad:
        verdict, examples = "de-escalating", ()
    else:
        verdict = "neither"
        examples = tuple((esc_bad + de_bad)[:max_counterexamples])
    cells = len(block) ** 2
    return EscalationReport(f.name, bound, verdict, examples, cells, max(hi, -lo))


class GoodEscalatingReport(NamedTuple):
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
    cells examined up to and including the last one checked. A cell fails when
    lhs - rhs <= tol = REL_TOL * (|lhs| + |rhs|). The exact tol of each cell
    is skipped only in an (x1, y1) block whose smallest lhs - rhs exceeds a
    bound proven to be at least every tol in the block.
    """
    block = _block_cells(bound)
    bad: list[Counterexample] = []
    blocks_done = 0
    for x1 in range(2, bound + 1):
        row_next, row_x1 = t[x1 + 1], t[x1]
        for y1 in range(2, x1 + 1):
            row_y1 = t[y1]
            lhs_c, rhs_c = row_next[y1 - 1], row_x1[y1]
            lhs = [row_next[x2] + row_next[y2] + lhs_c for x2, y2 in block]
            rhs = [row_x1[x2] + row_y1[y2] + rhs_c for x2, y2 in block]
            # monotone rounding: this tol over the largest |lhs|, |rhs| is at
            # least every tol in the block. A gap of inf - inf is NaN and never
            # fails; `not >` sends a block whose min() came out NaN to the
            # exact check.
            ub = REL_TOL * (max(map(abs, lhs)) + max(map(abs, rhs)))
            if not min(map(sub, lhs, rhs)) > ub:
                for k, (x2, y2) in enumerate(block):
                    gap = lhs[k] - rhs[k]
                    if gap <= REL_TOL * (abs(lhs[k]) + abs(rhs[k])):
                        bad.append(Counterexample(x1, y1, x2, y2, gap, "three-term"))
                        if len(bad) >= max_counterexamples:
                            return bad, blocks_done * len(block) + k + 1
            blocks_done += 1
    return bad, blocks_done * len(block)


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
    h = BivariateFunction.sombor(alpha)     # rejects zero and non-finite alpha
    grid = grid or GridSpec()
    bound = grid.max_value
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
