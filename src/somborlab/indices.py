"""Bivariate functions and their certification on a finite degree grid.

A symmetric bivariate f on positive reals induces a connectivity function
M_f(G) = sum over edges of f(d(u), d(v)); h_alpha(x,y) = (x^2+y^2)^alpha gives
the general Sombor index. Evaluating them, and the alpha rule, live in
`sombor`; this module holds `BivariateFunction` and the grid certification.

A symmetric f is *escalating* (resp. *de-escalating*) when

    delta = f(x1,x2) + f(y1,y2) - f(y1,x2) - f(x1,y2)  >= 0   (resp. <= 0)

for all x1 >= y1 >= 1, x2 >= y2 >= 1, strictly when x1 > y1 and x2 > y2.
For h_alpha(x,y) = (x^2+y^2)^alpha this is decided analytically by the sign
regime of alpha (`sombor.classify_alpha`); `check_escalating` certifies the same
statement on a finite integer grid, which covers every degree pair arising at
desk scale. alpha = 1 is degenerate: x^2 + y^2 is additively separable, so
delta vanishes identically and neither strict verdict applies.

`check_good_escalating` certifies the stronger conditions behind the
majorization monotonicity result: positive and convex first-argument partials
(closed forms below) plus a three-term shift inequality on the grid.

`check_escalating` evaluates f once per grid point. A NaN or infinite value,
an h_alpha value that underflows to 0.0 or a subnormal, and an h_alpha
(alpha != 1) none of whose deltas clears its tolerance are validation errors,
not verdicts; values so large that 4 max|f| overflows raise `OverflowError`.
Every report is bit for bit the one that evaluating each cell's definition
in order would give; tests compare against that definition.
`check_escalating` is O(B^3), not O(B^4): in exact arithmetic
delta(x2, y2) = D[x2] - D[y2] with D = t[x1] - t[y1], so one scan over D and
a rounding bound settle a whole (x1, y1) block, and only the blocks the bound
cannot settle, or that may hold max_abs_delta, are evaluated cell by cell.
A non-strict cell (x1 = y1 or x2 = y2) of a float table never fails, so a
block x1 = y1 needs no evaluation of its own (proof at `check_escalating`).
A table of non-floats has no rounding bound and is evaluated cell by cell.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from operator import sub
from typing import NamedTuple

from ._value import _Value
from .errors import (
    FunctionNotFiniteError,
    FunctionUnderflowError,
    GridResolutionError,
    ValidationError,
)
from .sombor import REL_TOL, _check_alpha

#: default grid bound; covers all degree pairs at desk scale (d <= n-1 <= 11)
DEFAULT_GRID_MAX = 20
#: the default alphas of Proposition 1: both sides of 0 and 1, and alpha = 1
DEFAULT_PROP1_ALPHAS = (-3.0, -1.0, -0.1, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 2.0, 5.0)

#: c * u of the rounding bound E = c * u * S of `check_escalating`, u = 2^-53
_CU = 16 * 2.0 ** -53
#: smallest subnormal; added to E so that E stays an upper bound when it underflows
_TINY = 2.0 ** -1074


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
                if not math.isclose(a, b, rel_tol=REL_TOL):
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


def _deltas(rx: list[float], ry: list[float],
            cells: list[tuple[int, int]]) -> list[float]:
    """Deltas of block rows rx, ry at `cells`, in the definition's operand order:
    the one delta expression of the grid."""
    return [rx[x2] + ry[y2] - ry[x2] - rx[y2] for x2, y2 in cells]


def _exact_extremes(rx: list[float], ry: list[float],
                    cells: list[tuple[int, int]]) -> tuple[float, float]:
    """Smallest and largest delta of block rows rx, ry at `cells`."""
    ds = _deltas(rx, ry, cells)
    return min(ds), max(ds)


def _sign_failures(x1: int, y1: int, rx: list[float], ry: list[float],
                   cells: list[tuple[int, int]]) -> list[Counterexample]:
    """Sign counterexamples at `cells` of block (x1, y1)."""
    return [Counterexample(x1, y1, x2, y2, delta, "sign")
            for (x2, y2), delta in zip(cells, _deltas(rx, ry, cells))]


def _spread(d: list[float]) -> tuple[float, float]:
    """Min and max over k < j of the rounded d[j] - d[k], by prefix max and min
    scans. h_alpha's rows are monotone, and for a monotone d the steps give the
    same two values (rounding is monotone) without the scans' per-element max
    and min calls."""
    steps = list(map(sub, d[1:], d))
    lo, hi = min(steps), max(steps)
    if lo >= 0:
        return lo, d[-1] - d[0]
    if hi <= 0:
        return d[-1] - d[0], hi
    return (min(map(sub, d[1:], accumulate(d, max))),
            max(map(sub, d[1:], accumulate(d, min))))


def check_escalating(f: BivariateFunction, grid: GridSpec | None = None,
                     max_counterexamples: int = 10,
                     deadline=None) -> EscalationReport:
    """Certify inequality-(2) behaviour of f on the grid.

    escalating:    delta >= 0 everywhere, delta > 0 on strict cells
    de-escalating: delta <= 0 everywhere, delta < 0 on strict cells
    neither:       otherwise (counterexamples tagged with what they break)

    A cell fails the de-escalating verdict when delta > tol, the escalating
    verdict when delta < -tol, and, when neither holds on a strict cell
    (x1 > y1 and x2 > y2), both verdicts with reason "strictness". Here
    delta = t1 + t2 - t3 - t4 and tol = REL_TOL * (|t1| + |t2| + |t3| + |t4|),
    each evaluated in that order. The report equals, field for field and bit
    for bit, that of evaluating this definition cell by cell; tests compare
    against that per-call definition.

    f is evaluated once per grid point (a NaN or infinite value raises
    `FunctionNotFiniteError`; an h_alpha value of 0.0 or a subnormal raises
    `FunctionUnderflowError`; a table whose 4 max|t| overflows raises
    `OverflowError`, since a sum of four of its values need not be finite).
    A table holding a non-float (an int or Fraction from a custom f) has no
    rounding bound, and every block of it is evaluated cell by cell. A float
    table is settled block by block:

    - Non-strict cells (x1 = y1 or x2 = y2) never fail: their reads t1, t2,
      t1, t2 give delta = ((t1 + t2) - t1) - t2, or t1 and t2 swapped, which
      is 0 exactly. A float sum or difference with a subnormal result is
      exact, so a nonzero delta needs rounding in the normal range, at
      relative error at most u = 2^-53 per operation: |delta| <=
      2u (|t1| + |t2|)(1 + O(u)). That is about 10^6 times below
      tol = REL_TOL (2|t1| + 2|t2|), and below the block's E. So a block
      x1 = y1, with no strict cell, has p_lo = p_hi = 0.
    - Identity: in a strict block (y1 < x1), exactly,
      delta(x2, y2) = D[x2] - D[y2] with D = t[x1] - t[y1], so one prefix
      max/min scan of D gives the approximate extremes p_lo, p_hi in O(B).
    - Bound: by recursive summation (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., 4.2) a computed delta and a computed
      D[x2] - D[y2] differ by at most E = c u S,
      S = 2 (a_max[x1] + a_max[y1]), with c = 5 + O(u); c = 16 also covers
      the rounding of E and p +- E. E = 0 when all values are integer-valued
      floats below 2^51, where every sum is exact.
    - Fast branches: p_lo - E > ub (p_hi + E < -ub), ub being at least every
      tol of the block, proves that every strict cell fails the de-escalating
      (escalating) verdict on sign; only the examples kept are evaluated.
      Once all examples are kept, m + E <= lb (m below) proves that no cell
      fails on sign. Any other block is evaluated cell by cell.
    - Exact max: max_abs_delta comes from computed deltas only. With E = 0
      a settled block's p_lo, p_hi are its exact extremes; otherwise it is
      deferred with its largest |delta|, over all of its cells, in
      [m - E, m + E], m = max(p_hi, -p_lo), and evaluated whole after the
      scan only if m + E reaches the best proven lower bound.

    `cells_checked` counts cells certified, not deltas computed. An h_alpha
    with alpha != 1 none of whose cells fails on sign raises
    `GridResolutionError` (at alpha = 1 every delta is exactly 0 and the
    verdict is "neither"). `deadline`, any object with a `check()` method, is
    checked once per x1 row.

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
    v = [row[1:] for row in t]                              # rows without padding
    top = max(a_max)
    if not math.isfinite(4 * top):
        raise OverflowError(f"4 max|{f.name}| = {4 * top!r} is past the float range")
    bounded = all(type(x) is float for row in v for x in row)
    if bounded and top < 2.0 ** 51 and all(x.is_integer() for row in v for x in row):
        cu = tiny = 0.0                 # every sum of these floats is exact
    else:
        cu, tiny = _CU, _TINY
    # one kept example records that a verdict failed, even when none is asked for
    keep = max(max_counterexamples, 1)
    # an h_alpha (alpha != 1) that resolves no cell is a validation error
    track = f.kind == "sombor" and f.alpha != 1
    signed = False                     # some cell fails a verdict on sign
    esc_bad: list[Counterexample] = []
    de_bad: list[Counterexample] = []
    hi = lo = 0.0
    deferred: list[tuple[float, float, int, int]] = []   # (m + E, m - E, x1, y1)
    for x1 in span:
        if deadline is not None:
            deadline.check()
        rx, vx, ax = t[x1], v[x1], a[x1]
        for y1 in range(1, x1 + 1):
            ry, ay = t[y1], a[y1]
            if bounded:
                # every strict delta lies in [p_lo - err, p_hi + err], and every
                # non-strict one in [-err, err]; a block x1 = y1 has no strict cell
                p_lo, p_hi = _spread(list(map(sub, vx, v[y1]))) if y1 < x1 else (0.0, 0.0)
                err = cu * (2 * (a_max[x1] + a_max[y1])) + tiny
                m = max(p_hi, -p_lo)
                collecting = len(esc_bad) < keep or len(de_bad) < keep
                # Rounding is monotone, so a tol sum taken in the cell's order
                # over the two rows' largest |t| is at least every tol in the
                # block, with no slack.
                ub = REL_TOL * (a_max[x1] + a_max[y1] + a_max[y1] + a_max[x1])
                if y1 == x1 or not (collecting or track and not signed):
                    settled = True              # no cell fails, or none is sought
                elif p_lo - err > ub:           # on every strict cell delta > tol
                    signed = settled = True
                    if len(de_bad) < keep:
                        de_bad += _sign_failures(x1, y1, rx, ry, strict[:keep - len(de_bad)])
                elif p_hi + err < -ub:          # on every strict cell delta < -tol
                    signed = settled = True
                    if len(esc_bad) < keep:
                        esc_bad += _sign_failures(x1, y1, rx, ry, strict[:keep - len(esc_bad)])
                else:
                    # with every example kept, only a sign failure is sought,
                    # and no |delta| above the block's smallest tol (the same
                    # sum over the rows' smallest |t|) means none
                    lb = REL_TOL * (a_min[x1] + a_min[y1] + a_min[y1] + a_min[x1])
                    settled = not collecting and m + err <= lb
                if settled:
                    if err:
                        deferred.append((m + err, m - err, x1, y1))
                    else:                       # p_lo, p_hi are the exact extremes
                        hi = max(hi, p_hi)
                        lo = min(lo, p_lo)
                    continue
            ds = _deltas(rx, ry, block)
            hi = max(hi, max(ds))
            lo = min(lo, min(ds))
            for (x2, y2), delta in zip(block, ds):
                tol = REL_TOL * (ax[x2] + ay[y2] + ay[x2] + ax[y2])
                if delta > tol:
                    esc_reason, de_reason = None, "sign"
                    signed = True
                elif delta < -tol:
                    esc_reason, de_reason = "sign", None
                    signed = True
                elif y1 < x1 and y2 < x2:
                    esc_reason = de_reason = "strictness"
                else:
                    continue
                if esc_reason and len(esc_bad) < keep:
                    esc_bad.append(Counterexample(x1, y1, x2, y2, delta, esc_reason))
                if de_reason and len(de_bad) < keep:
                    de_bad.append(Counterexample(x1, y1, x2, y2, delta, de_reason))
    # A deferred block's largest |delta| lies in [m - E, m + E]; one whose
    # upper end stays below the best proven lower end cannot hold the maximum.
    best = max([hi, -lo] + [low for _, low, _, _ in deferred])
    for up, _, x1, y1 in deferred:
        if up >= best:
            d_lo, d_hi = _exact_extremes(t[x1], t[y1], block)
            hi = max(hi, d_hi)
            lo = min(lo, d_lo)
    max_abs = max(hi, -lo)
    if track and not signed:       # every strict cell failed on strictness alone
        raise GridResolutionError(
            f"grid cannot resolve h_alpha at alpha = {f.alpha!r}: no delta on the "
            f"grid clears its tolerance (max |delta| = {max_abs!r}); use an alpha "
            f"farther from 0 and 1"
        )
    if not esc_bad:
        verdict, examples = "escalating", ()
    elif not de_bad:
        verdict, examples = "de-escalating", ()
    else:
        verdict = "neither"
        examples = tuple((esc_bad + de_bad)[:max_counterexamples])
    cells = len(block) ** 2
    return EscalationReport(f.name, bound, verdict, examples, cells, max_abs)


class GoodEscalatingReport(NamedTuple):
    alpha: float
    grid_max: int
    holds: bool
    # "escalating" | "first-partial" | "second-partial" | "three-term" | None
    failed_condition: str | None
    counterexamples: tuple[Counterexample, ...]
    cells_checked: int


def first_partial(x: float, y: float, alpha: float) -> float:
    """d/dx of (x^2+y^2)^alpha."""
    return 2 * x * alpha * (x * x + y * y) ** (alpha - 1)


def second_partial(x: float, y: float, alpha: float) -> float:
    """d^2/dx^2 of (x^2+y^2)^alpha."""
    s = x * x + y * y
    return 2 * alpha * s ** (alpha - 2) * (s + 2 * x * x * (alpha - 1))


def _partial_failures(alpha: float, bound: int,
                      max_counterexamples: int) -> tuple[list[Counterexample], int]:
    """First- and second-partial failures in grid order, x outermost.

    A point fails when the first partial is <= 0, or else when the second is
    below -REL_TOL. Like `_three_term_failures`, the scan stops once it holds
    `max_counterexamples` failures (after the first when that is 0) and
    returns them with the number of points examined.
    """
    bad: list[Counterexample] = []
    cells = 0
    for x in range(1, bound + 1):
        for y in range(1, bound + 1):
            cells += 1
            d1 = first_partial(x, y, alpha)
            if d1 <= 0:
                bad.append(Counterexample(x, 0, y, 0, d1, "first-partial"))
            else:
                d2 = second_partial(x, y, alpha)
                if d2 >= -REL_TOL:
                    continue
                bad.append(Counterexample(x, 0, y, 0, d2, "second-partial"))
            if len(bad) >= max_counterexamples:
                return bad, cells
    return bad, cells


def _three_term_failures(t: list[list[float]], bound: int,
                         max_counterexamples: int) -> tuple[list[Counterexample], int]:
    """Three-term shift failures in grid order, stopping at `max_counterexamples`.

    `t` is the (bound+1)-table of h. Returns the failures and the number of
    cells examined up to and including the last one checked. A cell fails when
    lhs - rhs <= tol = REL_TOL * (|lhs| + |rhs|).
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
                if gap <= REL_TOL * (abs(lhs) + abs(rhs)):
                    bad.append(Counterexample(x1, y1, x2, y2, gap, "three-term"))
                    if len(bad) >= max_counterexamples:
                        return bad, cells
    return bad, cells


def check_good_escalating(alpha: float, grid: GridSpec | None = None,
                          max_counterexamples: int = 10) -> GoodEscalatingReport:
    """Certify that h_alpha is a good escalating function on the grid.

    Requires, in order: positive and escalating (per `check_escalating`, whose
    table rejects an h value below the normal float range), first partial > 0
    and second partial >= 0 at every grid point, and the three-term shift
    inequality

        h(x1+1,x2) + h(x1+1,y2) + h(x1+1,y1-1) > h(x1,x2) + h(y1,y2) + h(x1,y1)

    for all x1 >= y1 >= 2, x2 >= y2 >= 1 within the bound.

    h is evaluated twice per grid point: once by `check_escalating`, and once
    for the three-term check's table over 1..B+1, since it looks up x1+1.
    Counterexamples are the first `max_counterexamples` found in grid order
    (x1, y1, x2, y2 ascending, x1 outermost) of the first condition that fails.
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

    bad, checked = _partial_failures(alpha, bound, max_counterexamples)
    cells += checked
    if not bad:
        bad, checked = _three_term_failures(_table(h, bound + 1), bound,
                                            max_counterexamples)
        cells += checked
    if bad:
        return GoodEscalatingReport(alpha, bound, False, bad[0].reason,
                                    tuple(bad[:max_counterexamples]), cells)
    return GoodEscalatingReport(alpha, bound, True, None, (), cells)
