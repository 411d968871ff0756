"""Bivariate functions and their certification on a finite degree grid.

A symmetric bivariate f on positive reals induces a connectivity function
M_f(G) = sum over edges of f(d(u), d(v)); h_alpha(x,y) = (x^2+y^2)^alpha gives
the general Sombor index. Evaluating them, and the alpha rule, live in
`sombor`; this module holds `BivariateFunction` and the grid certification.

A symmetric f is *escalating* (resp. *de-escalating*) when

    delta = f(x1,x2) + f(y1,y2) - f(y1,x2) - f(x1,y2)  >= 0   (resp. <= 0)

for all x1 >= y1 >= 1, x2 >= y2 >= 1, strictly when x1 > y1 and x2 > y2. For
h_alpha(x,y) = (x^2+y^2)^alpha this is decided analytically by the sign regime
of alpha (the alpha rule in `sombor`); `check_escalating` certifies the same
statement on a finite integer grid, which covers every degree pair arising at
desk scale. alpha = 1 is degenerate: x^2 + y^2 is additively separable, so
delta vanishes identically and neither strict verdict applies.

`check_good_escalating` certifies the stronger conditions behind the
majorization monotonicity result: rising, convex first-argument differences
plus a three-term shift inequality, all read off one table of f.

`check_escalating` evaluates f once per grid point. A NaN or infinite value,
an h_alpha value that underflows to 0.0 or a subnormal, and a strict cell of
h_alpha, alpha != 1, whose |delta| is within its tolerance are validation
errors, not verdicts; a float table whose 4 max|f| overflows raises
`OverflowError`. Every report is bit for bit the one that evaluating each
cell's definition in order would give; tests compare against it. A table is
*exact* when its values are all ints or Fractions, or all integer-valued ints
or floats below 2^51: its sums are exact, and its checks take tolerance 0. In
exact arithmetic a cell's delta is the sum of the unit mixed differences in
its rectangle, so a table whose units all clear C times their corners' |t|
(C = 4 REL_TOL + 2^-46, 0 if exact), with one sign, gets its verdict in O(B^2)
and its max_abs_delta from the few blocks a rounding bound cannot rule out; an
exact table whose units are all 0 has a closed-form report. Any other table is
evaluated cell by cell in O(B^4). Proofs are at `check_escalating`.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from operator import gt, lt
from typing import NamedTuple

from ._value import _Value, _as_int
from .errors import (
    FunctionNotFiniteError,
    FunctionUnderflowError,
    GridResolutionError,
    ValidationError,
)
from .sombor import REL_TOL, _check_alpha, alpha_key

#: counterexamples a report keeps, the first in grid order
MAX_COUNTEREXAMPLES = 10
#: default grid bound; covers all degree pairs at desk scale (d <= n-1 <= 11)
DEFAULT_GRID_MAX = 20
#: the default alphas of Proposition 1: both sides of 0 and 1, and alpha = 1
DEFAULT_PROP1_ALPHAS = (-3.0, -1.0, -0.1, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 2.0, 5.0)

#: C of the unit certificate of `check_escalating`: 4 REL_TOL plus rounding
_C = 4 * REL_TOL + 2.0 ** -46
#: c * u of the block slack c * u * (a[x1] + a[y1]) of `check_escalating`, u = 2^-53
_CU = 16 * 2.0 ** -53
#: smallest subnormal; added to the slack so that it stays a bound when it underflows
_TINY = 2.0 ** -1074


def _exact(rows) -> bool:
    """Whether the values of `rows` form an exact table (module docstring)."""
    vs = [x for row in rows for x in row]
    ratio = getattr(sys.modules.get("fractions"), "Fraction", int)  # none if not loaded
    return all(isinstance(x, (int, ratio)) for x in vs) or all(
        type(x) in (int, float) and abs(x) < 2.0 ** 51 and float(x).is_integer() for x in vs)


class BivariateFunction(_Value):
    """Symmetric positive-domain function: the built-in h_alpha or a callable.

    Custom callables have their symmetry spot-checked on a small integer grid
    at construction, with == where the values are exact (callables are opaque;
    this is a sanity check, not a proof). A NaN or infinite value there raises
    `FunctionNotFiniteError`. `fn` takes no part in equality or hashing.
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
        alpha = float(alpha)
        return cls(kind="sombor", alpha=alpha, name=f"h_{alpha_key(alpha)}")

    @classmethod
    def custom(cls, fn, name: str = "custom") -> "BivariateFunction":
        for x in (1, 2, 3, 5, 8):
            for y in (1, 2, 4, 7):
                a, b = fn(x, y), fn(y, x)
                exact = _exact([(a, b)])
                for (p, q), v in (((x, y), a), ((y, x), b)):
                    if not (exact or math.isfinite(v)):
                        raise FunctionNotFiniteError(f"{name}({p}, {q}) = {v!r} is not finite")
                if not (a == b if exact else math.isclose(a, b, rel_tol=REL_TOL)):
                    raise ValidationError(
                        f"{name} is not symmetric: f({x},{y})={a!r} != f({y},{x})={b!r}"
                    )
        return cls(kind="custom", fn=fn, name=name)

    def __call__(self, x: float, y: float) -> float:
        if self.kind == "sombor":
            return (x * x + y * y) ** self.alpha
        return self.fn(x, y)  # type: ignore[operator]


# -- finite-grid certification ---------------------------------------------------

class GridSpec(_Value):
    """Integer quadruple domain: B >= x1 >= y1 >= 1, B >= x2 >= y2 >= 1."""

    max_value: int

    def __init__(self, max_value: int = DEFAULT_GRID_MAX) -> None:
        max_value = _as_int(max_value, "grid bound")
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


def _table(f: BivariateFunction, rows: int, cols: int | None = None) -> list[list[float]]:
    """t[x][y] = f(x, y) for 1 <= x <= rows, 1 <= y <= cols (default: rows).

    Index 0 is padding, never read. Every entry must be finite, and an h_alpha
    entry normal: h_alpha > 0, so 0.0 or a subnormal there is underflow, and
    the grid inequalities cannot be resolved from it (a custom f may be 0 or
    subnormal). h_alpha rows use the expression of `BivariateFunction.__call__`.
    """
    xs, ys = range(1, rows + 1), range(1, (cols or rows) + 1)
    sombor = f.kind == "sombor"
    if sombor:
        alpha = f.alpha
        t = [[(x * x + y * y) ** alpha for y in ys] for x in xs]
    else:
        t = [[f(x, y) for y in ys] for x in xs]
    exact = not sombor and _exact(t)        # finite, past the float range too
    for x, row in zip(xs, () if exact else t):
        if all(map(math.isfinite, row)) and not (sombor and min(row) < sys.float_info.min):
            continue
        for y, v in zip(ys, row):
            if not math.isfinite(v):
                raise FunctionNotFiniteError(f"{f.name}({x}, {y}) = {v!r} is not finite")
            if sombor and v < sys.float_info.min:
                raise FunctionUnderflowError(
                    f"{f.name}({x}, {y}) = {v!r} is below the normal float range; "
                    f"use a smaller |alpha| or grid bound"
                )
    return [[]] + [[0.0] + row for row in t]


def _block_cells(bound: int) -> list[tuple[int, int]]:
    """(x2, y2) of every cell of one (x1, y1) block, in grid order."""
    return [(x2, y2) for x2 in range(1, bound + 1) for y2 in range(1, x2 + 1)]


def _deltas(rx: list[float], ry: list[float],
            cells: list[tuple[int, int]]) -> list[float]:
    """Deltas of block rows rx, ry at `cells`, in the definition's operand order:
    the one delta expression of the grid."""
    return [rx[x2] + ry[y2] - ry[x2] - rx[y2] for x2, y2 in cells]


def _unit_sign(v: list[list[float]], a_max: list[float], exact: bool) -> int | None:
    """The sign every unit mixed difference of rows v clears, or None.

    1 (-1) when every computed unit is above (below) C (0 if exact) times each
    |t| at its four corners, 0 when the table is exact and every unit is 0. A
    row of units that clears C times its two rows' largest |t| (`a_max`, one
    entry per row of v) clears each corner's.
    """
    units = [[a - b - c + d for a, b, c, d in zip(hi[1:], hi, lo[1:], lo)]
             for lo, hi in zip(v, v[1:])]
    first = units[0][0]
    if not first:
        return 0 if exact and not any(map(any, units)) else None
    sign, above, extreme = (1, gt, min) if first > 0 else (-1, lt, max)
    c = 0 if exact else sign * _C
    for row, lo, hi, a_lo, a_hi in zip(units, v, v[1:], a_max, a_max[1:]):
        if above(extreme(row), c * max(a_lo, a_hi)):
            continue
        for corners in (lo, hi):
            bar = [c * abs(x) for x in corners]
            if not (all(map(above, row, bar)) and all(map(above, row, bar[1:]))):
                return None
    return sign


def _max_abs_delta(t: list[list[float]], a_max: list[float],
                   block: list[tuple[int, int]], deadline, exact: bool) -> float:
    """max |delta| over the grid of a table whose units all have one sign:
    block (x1, y1) is evaluated only if |R[x1] - R[y1]| plus the slack (0 for
    an exact table) reaches the best |delta| so far."""
    bound = len(t) - 1
    r = [0.0] + [row[bound] - row[1] for row in t[1:]]
    best = abs(_deltas(t[bound], t[1], [(bound, 1)])[0])
    for x1 in range(1, bound + 1):
        if deadline is not None:
            deadline.check()
        rx, ax = r[x1], a_max[x1]
        ups = [abs(rx - ry) + (0 if exact else _CU * (ax + ay) + _TINY)
               for ry, ay in zip(r[1:x1 + 1], a_max[1:x1 + 1])]
        if max(ups) < best:
            continue
        for y1, up in enumerate(ups, 1):
            if up >= best:
                best = max(best, max(map(abs, _deltas(t[x1], t[y1], block))))
    return best


def _strict_examples(t: list[list[float]], bound: int,
                     count: int) -> list[Counterexample]:
    """The first `count` strict cells in grid order, as strictness failures."""
    cells = islice(((x1, y1, x2, y2) for x1 in range(2, bound + 1) for y1 in range(1, x1)
                    for x2 in range(2, bound + 1) for y2 in range(1, x2)), count)
    return [Counterexample(x1, y1, x2, y2, _deltas(t[x1], t[y1], [(x2, y2)])[0], "strictness")
            for x1, y1, x2, y2 in cells]


def check_escalating(f: BivariateFunction, grid: GridSpec | None = None,
                     deadline=None) -> EscalationReport:
    """Certify inequality-(2) behaviour of f on the grid.

    escalating:    delta >= 0 everywhere, delta > 0 on strict cells
    de-escalating: delta <= 0 everywhere, delta < 0 on strict cells
    neither:       otherwise (counterexamples tagged with what they break)

    A cell fails the de-escalating verdict when delta > tol, the escalating
    verdict when delta < -tol, and, when neither holds on a strict cell
    (x1 > y1 and x2 > y2), both verdicts with reason "strictness". Here
    delta = t1 + t2 - t3 - t4 and tol = REL_TOL * (|t1| + |t2| + |t3| + |t4|),
    each evaluated in that order, or tol = 0 for an exact table (below). The
    report equals, field for field and bit for bit, that of evaluating this
    definition cell by cell; tests compare against that per-call definition.

    f is evaluated once per grid point (a NaN or infinite value raises
    `FunctionNotFiniteError`; an h_alpha value of 0.0 or a subnormal raises
    `FunctionUnderflowError`; a float table whose 4 max|t| overflows raises
    `OverflowError`, since a sum of four of its values need not be finite).
    The table is certified from its units
    Delta(i, j) = t[i+1][j+1] - t[i+1][j] - t[i][j+1] + t[i][j], 1 <= i, j < B,
    computed in that order; in exact arithmetic on the table's values a
    cell's delta is their sum over y1 <= i < x1, y2 <= j < x2. With u = 2^-53,
    gamma_3 = 3u / (1 - 3u) and m a unit's largest |t| at its four corners:

    - Non-strict cells (x1 = y1 or x2 = y2) never fail: their delta
      ((t1 + t2) - t1) - t2, or t1 and t2 swapped, is 0 exactly, and computed
      it is at most 2u (|t1| + |t2|)(1 + O(u)) (a sum with a subnormal result
      is exact), about 10^6 times below its tol.
    - Verdict in O(B^2): if every computed Delta > C m, C = 4 REL_TOL + 2^-46,
      every strict cell has delta > tol: the verdict is "escalating", with no
      example. The cell's largest-|t| corner M is a corner of one of the four
      units at the corners of its rectangle, whose m >= M, and every unit is
      positive in exact arithmetic, so the exact delta is at least that
      unit's. 2^-46 exceeds 8 gamma_3 + 5u C, the rounding of the
      computed Delta (4 gamma_3 m), of the cell's delta (4 gamma_3 M), of its
      tol (4 REL_TOL M (1 + 4u) at most) and of C m. Where m < 2^-1024 every
      sum is exact and C > 4 REL_TOL settles it. Every Delta < -C m gives
      "de-escalating" the same way.
    - max_abs_delta, one bound per block: when every unit has one sign, block
      (x1, y1)'s exact extreme is its cell (B, 1), whose delta is
      R[x1] - R[y1], R[x] = t[x][B] - t[x][1]. Every computed |delta| of the
      block is at most |fl(R[x1] - R[y1])| + 11u (a[x1] + a[y1]), a[x] the
      largest |t| of row x (5u from the cell's rounding, 4u from R's, 2u from
      the bound's own), within the slack 16u (a[x1] + a[y1]) + 2^-1074. From
      the computed |delta| of cell (B, 1, B, 1), only a block whose bound
      reaches the best value so far is evaluated whole.
    - Exact tables (all ints or Fractions, or all integer-valued ints or
      floats below 2^51) have exact sums: C = 0, tol = 0 and slack 0 decide as
      above; if every Delta is 0, so is every delta, and the report is
      closed-form: "neither", every strict cell failing on strictness, 0.0,
      unless f is an h_alpha with alpha != 1, which is refused.

    Any other table is evaluated cell by cell. `cells_checked` counts cells
    certified, not deltas computed. An h_alpha with alpha != 1 raises
    `GridResolutionError` at the first strict cell whose |delta| <= tol, the
    one cell floats cannot decide: its exact delta is not 0, but its sign is
    lost to rounding. A delta past tol keeps its sign, so a cell failing a
    verdict on sign is a counterexample, which the caller weighs against the
    regime. `deadline`, any object with a `check()` method, is checked once
    per x1 row.

    Counterexamples are the first `MAX_COUNTEREXAMPLES` found in grid order
    (x1, y1, x2, y2 ascending, x1 outermost): failures of the escalating
    verdict first, then those of the de-escalating verdict.
    """
    grid = grid or GridSpec()
    return _escalation(f, _table(f, grid.max_value), deadline)


def _escalation(f: BivariateFunction, t: list[list[float]], deadline) -> EscalationReport:
    """`check_escalating` on f's table t of `_table`, read to its last row."""
    bound = len(t) - 1
    a_max = [max(map(abs, row[1:]), default=0.0) for row in t]
    v = [row[1:] for row in t[1:]]                          # rows without padding
    exact = _exact(v)
    top = max(a_max)
    if not exact and not math.isfinite(4 * top):
        raise OverflowError(f"4 max|{f.name}| = {4 * top!r} is past the float range")
    block = _block_cells(bound)
    cells = len(block) ** 2
    sign = _unit_sign(v, a_max[1:], exact)
    if sign:
        verdict = "escalating" if sign > 0 else "de-escalating"
        return EscalationReport(f.name, bound, verdict, (), cells,
                                _max_abs_delta(t, a_max, block, deadline, exact))
    # an h_alpha with alpha != 1 has delta != 0 at every strict cell
    refuse = f.kind == "sombor" and f.alpha != 1
    if sign == 0 and not refuse:       # every delta is exactly 0
        esc_bad = _strict_examples(t, bound, MAX_COUNTEREXAMPLES)
        de_bad = list(esc_bad)
        max_abs = 0.0
    else:
        esc_bad, de_bad = [], []
        hi = lo = 0.0
        rel = 0 if exact else REL_TOL
        a = [[abs(v) for v in row] for row in t]
        for x1 in range(1, bound + 1):
            if deadline is not None:
                deadline.check()
            rx, ax = t[x1], a[x1]
            for y1 in range(1, x1 + 1):
                ry, ay = t[y1], a[y1]
                ds = _deltas(rx, ry, block)
                hi = max(hi, max(ds))
                lo = min(lo, min(ds))
                for (x2, y2), delta in zip(block, ds):
                    tol = rel * (ax[x2] + ay[y2] + ay[x2] + ax[y2])
                    if delta > tol:
                        esc_reason, de_reason = None, "sign"
                    elif delta < -tol:
                        esc_reason, de_reason = "sign", None
                    elif y1 < x1 and y2 < x2:
                        if refuse:
                            raise GridResolutionError(
                                f"grid cannot resolve h_alpha at alpha = {f.alpha!r}: "
                                f"strict cell ({x1}, {y1}, {x2}, {y2}) has delta = "
                                f"{delta!r} within its tolerance; use an alpha farther "
                                f"from 0 and 1")
                        esc_reason = de_reason = "strictness"
                    else:
                        continue
                    if esc_reason and len(esc_bad) < MAX_COUNTEREXAMPLES:
                        esc_bad.append(Counterexample(x1, y1, x2, y2, delta, esc_reason))
                    if de_reason and len(de_bad) < MAX_COUNTEREXAMPLES:
                        de_bad.append(Counterexample(x1, y1, x2, y2, delta, de_reason))
        max_abs = max(hi, -lo)
    if not esc_bad:
        verdict, examples = "escalating", ()
    elif not de_bad:
        verdict, examples = "de-escalating", ()
    else:
        verdict = "neither"
        examples = tuple((esc_bad + de_bad)[:MAX_COUNTEREXAMPLES])
    return EscalationReport(f.name, bound, verdict, examples, cells, max_abs)


class GoodEscalatingReport(NamedTuple):
    function: str
    grid_max: int
    holds: bool
    # "escalating" | "first-difference" | "second-difference" | "three-term" | None
    failed_condition: str | None
    counterexamples: tuple[Counterexample, ...]
    cells_checked: int


def _difference_failures(t: list[list[float]], bound: int,
                         rel: float) -> tuple[list[Counterexample], int]:
    """First- and second-difference failures in grid order, x outermost.

    `t` is the table of f over rows 1..bound+1. Point (x, y) fails when
    d1 = t[x+1][y] - t[x][y] <= rel * (|t[x+1][y]| + |t[x][y]|), or else,
    for x >= 2, when d2 = t[x+1][y] - 2 t[x][y] + t[x-1][y] is below
    -rel * (|t[x+1][y]| + 2 |t[x][y]| + |t[x-1][y]|). Like
    `_three_term_failures`, the scan stops once it holds `MAX_COUNTEREXAMPLES`
    failures and returns them with the number of points examined.
    """
    bad: list[Counterexample] = []
    cells = 0
    for x in range(1, bound + 1):
        lo, mid, hi = t[x - 1], t[x], t[x + 1]
        for y in range(1, bound + 1):
            cells += 1
            d1 = hi[y] - mid[y]
            if d1 <= rel * (abs(hi[y]) + abs(mid[y])):
                bad.append(Counterexample(x, 0, y, 0, d1, "first-difference"))
            elif x > 1 and (d2 := hi[y] - 2 * mid[y] + lo[y]) < -rel * (
                    abs(hi[y]) + 2 * abs(mid[y]) + abs(lo[y])):
                bad.append(Counterexample(x, 0, y, 0, d2, "second-difference"))
            else:
                continue
            if len(bad) >= MAX_COUNTEREXAMPLES:
                return bad, cells
    return bad, cells


def _three_term_failures(t: list[list[float]], bound: int,
                         rel: float) -> tuple[list[Counterexample], int]:
    """Three-term shift failures in grid order, stopping at `MAX_COUNTEREXAMPLES`.

    `t` is the table of f over rows 1..bound+1. Returns the failures and the
    number of cells examined up to and including the last one checked. A cell
    fails when lhs - rhs <= tol = rel * (|lhs| + |rhs|).
    """
    block = _block_cells(bound)
    bad: list[Counterexample] = []
    cells = 0
    for x1 in range(2, bound + 1):
        row_next, row_x1 = t[x1 + 1], t[x1]
        for y1 in range(2, x1 + 1):
            row_y1 = t[y1]
            lhs_c, rhs_c = row_next[y1 - 1], row_x1[y1]
            for x2, y2 in block:
                cells += 1
                lhs = row_next[x2] + row_next[y2] + lhs_c
                rhs = row_x1[x2] + row_y1[y2] + rhs_c
                gap = lhs - rhs
                if gap <= rel * (abs(lhs) + abs(rhs)):
                    bad.append(Counterexample(x1, y1, x2, y2, gap, "three-term"))
                    if len(bad) >= MAX_COUNTEREXAMPLES:
                        return bad, cells
    return bad, cells


def check_good_escalating(f: BivariateFunction,
                          grid: GridSpec | None = None) -> GoodEscalatingReport:
    """Certify that f is a good escalating function on the grid.

    Requires, in order: escalating (per `check_escalating`), a positive first
    difference and a nonnegative second difference in the first argument at
    every grid point (`_difference_failures`), and the three-term shift

        f(x1+1,x2) + f(x1+1,y2) + f(x1+1,y1-1) > f(x1,x2) + f(y1,y2) + f(x1,y1)

    for all x1 >= y1 >= 2, x2 >= y2 >= 1 within the bound, within REL_TOL for a
    float table. On integer degrees the differences are the discrete first and
    second partials, and an exact table (module docstring) decides them exactly.

    f is evaluated once per point of rows 1..B+1 and columns 1..B, all that
    the conditions read; a float table whose 6 max|f| overflows raises
    `OverflowError`, as a shift sums six values. Escalation reads rows 1..B.
    Counterexamples are the first `MAX_COUNTEREXAMPLES` found in grid order
    (x1, y1, x2, y2 ascending, x1 outermost; a difference failure at point
    (x, y) is the cell (x, 0, y, 0)) of the first condition that fails.
    """
    grid = grid or GridSpec()
    bound = grid.max_value
    t = _table(f, bound + 1, bound)
    esc = _escalation(f, t[:bound + 1], None)
    cells = esc.cells_checked
    if esc.verdict != "escalating":
        return GoodEscalatingReport(f.name, bound, False, "escalating",
                                    esc.counterexamples, cells)
    rel = 0 if _exact(row[1:] for row in t[1:]) else REL_TOL
    top = max(max(map(abs, row[1:])) for row in t[1:])
    if rel and not math.isfinite(6 * top):        # an exact table needs no float
        raise OverflowError(f"6 max|{f.name}| = {6 * top!r} is past the float range")
    bad, checked = _difference_failures(t, bound, rel)
    cells += checked
    if not bad:
        bad, checked = _three_term_failures(t, bound, rel)
        cells += checked
    if bad:
        return GoodEscalatingReport(f.name, bound, False, bad[0].reason, tuple(bad), cells)
    return GoodEscalatingReport(f.name, bound, True, None, (), cells)
