"""SO_alpha evaluation and escalating/de-escalating certification."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from somborlab import (
    AlphaRegime,
    BivariateFunction,
    Graph,
    GridSpec,
    check_escalating,
    check_good_escalating,
    classify_alpha,
    connectivity_function,
    enumerate_gamma,
    generate_c_cyclic_sequences,
    sombor_general,
)
from somborlab import cli, indices
from somborlab.errors import GridResolutionError, TimeBudgetExceededError, ValidationError
from somborlab.indices import (
    DEFAULT_GRID_MAX,
    DEFAULT_PROP1_ALPHAS,
    MAX_COUNTEREXAMPLES,
    REL_TOL,
    Counterexample,
    EscalationReport,
    GoodEscalatingReport,
    _table,
    _three_term_failures,
)
from somborlab.oracle import Deadline

K2 = Graph(2, [(0, 1)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_sombor_hand_values():
    assert math.isclose(sombor_general(K2, 0.5), math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(sombor_general(STAR4, 0.5), 3 * math.sqrt(10), rel_tol=1e-12)
    assert sombor_general(K3, 1.0) == 24.0


def test_sombor_rejects_bad_inputs():
    with pytest.raises(ValidationError, match=r"^alpha must be nonzero$"):
        sombor_general(K3, 0.0)
    with pytest.raises(ValidationError, match=r"^SO_alpha is defined on connected graphs$"):
        sombor_general(Graph(4, [(0, 1), (2, 3)]), 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_rejected(alpha):
    message = f"^alpha must be finite, got {alpha!r}$"
    with pytest.raises(ValidationError, match=message):
        sombor_general(K3, alpha)
    with pytest.raises(ValidationError, match=message):
        BivariateFunction.sombor(alpha)
    with pytest.raises(ValidationError, match=message):
        classify_alpha(alpha)


def test_connectivity_function_examples():
    add = BivariateFunction.custom(lambda x, y: x + y, name="x+y")
    assert connectivity_function(K3, add) == 12.0
    mul = BivariateFunction.custom(lambda x, y: x * y, name="xy")
    assert connectivity_function(P3, mul) == 4.0
    h = BivariateFunction.sombor(0.5)
    assert connectivity_function(STAR4, h) == sombor_general(STAR4, 0.5)
    # int and Fraction terms are summed exactly: an fsum rounds 3 * 10^20 + 9
    big = BivariateFunction.custom(lambda x, y: 10 ** 20 + x * y, name="big")
    assert connectivity_function(STAR4, big) == 3 * 10 ** 20 + 9
    third = BivariateFunction.custom(lambda x, y: Fraction(x * y, 3), name="third")
    assert connectivity_function(P3, third) == Fraction(4, 3)
    # float terms keep their correctly rounded fsum
    tenth = BivariateFunction.custom(lambda x, y: 0.1 * (x + y), name="tenth")
    assert connectivity_function(K3, tenth) == math.fsum([0.1 * 4] * 3) == 1.2000000000000002


def test_custom_function_symmetry_is_spot_checked():
    # asymmetric at any scale: values below REL_TOL are compared relatively
    # too, and exact values exactly: 1 in 3 * 10^12 is within REL_TOL
    for fn in (lambda x, y: x - y, lambda x, y: 1e-12 * x,
               lambda x, y: 10 ** 12 * (x + y) + x * y + (1 if x > y else 0),
               lambda x, y: Fraction(10 ** 12) + (x > y)):
        with pytest.raises(ValidationError, match="not symmetric"):
            BivariateFunction.custom(fn, name="asym")
    # a float value keeps the relative comparison
    BivariateFunction.custom(lambda x, y: 1.0 + 1e-12 * (x > y))


def test_classify_alpha():
    assert classify_alpha(0.5) is AlphaRegime.DE_ESCALATING
    assert classify_alpha(2) is AlphaRegime.ESCALATING
    assert classify_alpha(-1) is AlphaRegime.ESCALATING
    assert classify_alpha(1) is AlphaRegime.DEGENERATE
    with pytest.raises(ValidationError, match=r"^alpha must be nonzero$"):
        classify_alpha(0)


def test_delta_hand_cells():
    h2 = BivariateFunction.sombor(2)
    delta = h2(2, 2) + h2(1, 1) - h2(1, 2) - h2(2, 1)
    assert delta == 18.0
    h05 = BivariateFunction.sombor(0.5)
    delta = h05(2, 2) + h05(1, 1) - h05(1, 2) - h05(2, 1)
    assert math.isclose(delta, math.sqrt(8) + math.sqrt(2) - 2 * math.sqrt(5),
                        rel_tol=1e-12)
    assert delta < 0
    h1 = BivariateFunction.sombor(1)
    for cell in [(3, 1, 2, 1), (5, 2, 4, 3), (2, 2, 2, 2)]:
        x1, y1, x2, y2 = cell
        assert h1(x1, x2) + h1(y1, y2) - h1(y1, x2) - h1(x1, y2) == 0.0


def test_check_escalating_regimes_small_grid():
    grid = GridSpec(8)
    for a in (0.25, 0.5, 0.75):
        report = check_escalating(BivariateFunction.sombor(a), grid)
        assert report.verdict == "de-escalating" and not report.counterexamples
    for a in (-1, -0.5, 1.5, 2, 3):
        report = check_escalating(BivariateFunction.sombor(a), grid)
        assert report.verdict == "escalating" and not report.counterexamples
    report = check_escalating(BivariateFunction.sombor(1), grid)
    assert report.verdict == "neither"
    assert report.max_abs_delta == 0.0
    assert report.cells_checked == (8 * 9 // 2) ** 2


def test_check_escalating_neither_for_mixed_function():
    # x*y is escalating; a sign flip around a threshold breaks both verdicts
    f = BivariateFunction.custom(
        lambda x, y: (x * y) if (x + y) % 2 == 0 else -(x * y), name="mixed"
    )
    report = check_escalating(f, GridSpec(5))
    assert report.verdict == "neither"
    assert 0 < len(report.counterexamples) <= 10


def _mixed(x, y):
    return (x * y) if (x + y) % 2 == 0 else -(x * y)


def _near_tol(x, y):
    # deltas and shift gaps of the order of REL_TOL: outcomes turn on the exact tol
    return 1 + 1e-10 * x * y


def _near_ub(x, y):
    # every unit mixed difference is 4e-9 = 4 REL_TOL, below C times its
    # corners' |t| (each above 1), so the certificate fails and the per-cell
    # loop decides unit cells that sit within rounding of their tol
    return 1 + 4e-9 * x * y


def _near_ub_negative(x, y):
    return 1 - 4e-9 * x * y


def _tied(x, y):
    # every block (x1, 1) with x1 >= 8 has the same largest |delta| in exact
    # arithmetic; only the rounding of (x + y) / 3 tells the computed ones apart
    return 0.1 * min(x, 8) * min(y, 8) + (x + y) / 3


def _wavy(x, y):
    # units of both signs and rows that are not monotone: the per-cell loop
    return math.sin(x) * math.sin(y) + 1e-3 * (x + y)


#: h_alpha whose every delta lies within its tol: the grid resolves no cell
UNRESOLVABLE_ALPHAS = (1e-12, 1.0000000001, 1e-300, -1e-300)


def _grid_cells(bound, y1_min):
    for x1 in range(y1_min, bound + 1):
        for y1 in range(y1_min, x1 + 1):
            for x2 in range(1, bound + 1):
                for y2 in range(1, x2 + 1):
                    yield x1, y1, x2, y2


def _rel_tol(f, rows, cols):
    """The tolerance factor of f's table over rows x cols: 0 for an exact
    table (all ints or Fractions, or all integer-valued ints or floats below
    2^51), REL_TOL for any other."""
    values = [f(x, y) for x in range(1, rows + 1) for y in range(1, cols + 1)]
    exact = all(isinstance(v, (int, Fraction)) for v in values) or all(
        type(v) in (int, float) and abs(v) < 2 ** 51 and v == int(v) for v in values)
    return 0 if exact else REL_TOL


def _reference_escalating(f, bound, max_counterexamples=10):
    """The module docstring's definition, calling f four times at every cell."""
    esc_bad, de_bad = [], []
    cells, max_abs = 0, 0.0
    rel = _rel_tol(f, bound, bound)
    for x1, y1, x2, y2 in _grid_cells(bound, 1):
        cells += 1
        t1, t2, t3, t4 = f(x1, x2), f(y1, y2), f(y1, x2), f(x1, y2)
        delta = t1 + t2 - t3 - t4
        tol = rel * (abs(t1) + abs(t2) + abs(t3) + abs(t4))
        max_abs = max(max_abs, abs(delta))
        strict = x1 > y1 and x2 > y2
        if delta < -tol:
            esc_bad.append(Counterexample(x1, y1, x2, y2, delta, "sign"))
        elif strict and delta <= tol:
            esc_bad.append(Counterexample(x1, y1, x2, y2, delta, "strictness"))
        if delta > tol:
            de_bad.append(Counterexample(x1, y1, x2, y2, delta, "sign"))
        elif strict and delta >= -tol:
            de_bad.append(Counterexample(x1, y1, x2, y2, delta, "strictness"))
    if not esc_bad:
        verdict, examples = "escalating", ()
    elif not de_bad:
        verdict, examples = "de-escalating", ()
    else:
        verdict = "neither"
        examples = tuple((esc_bad + de_bad)[:max_counterexamples])
    return EscalationReport(f.name, bound, verdict, examples, cells, max_abs)


def _reference_three_term(f, bound, max_counterexamples):
    bad, cells = [], 0
    rel = _rel_tol(f, bound + 1, bound)
    for x1, y1, x2, y2 in _grid_cells(bound, 2):
        cells += 1
        lhs = f(x1 + 1, x2) + f(x1 + 1, y2) + f(x1 + 1, y1 - 1)
        rhs = f(x1, x2) + f(y1, y2) + f(x1, y1)
        if lhs - rhs <= rel * (abs(lhs) + abs(rhs)):
            bad.append(Counterexample(x1, y1, x2, y2, lhs - rhs, "three-term"))
            if len(bad) >= max_counterexamples:
                break
    return bad, cells


def first_partial(x, y, alpha):
    """d/dx of (x^2+y^2)^alpha."""
    return 2 * x * alpha * (x * x + y * y) ** (alpha - 1)


def second_partial(x, y, alpha):
    """d^2/dx^2 of (x^2+y^2)^alpha."""
    s = x * x + y * y
    return 2 * alpha * s ** (alpha - 2) * (s + 2 * x * x * (alpha - 1))


def _reference_good_escalating(alpha, bound):
    """The closed-form reference: h_alpha's `check_escalating` report, then
    the partials at every grid point, then the per-call three-term shift;
    each pass stops at its MAX_COUNTEREXAMPLES-th failure."""
    h = BivariateFunction.sombor(alpha)
    esc = check_escalating(h, GridSpec(bound))
    cells = esc.cells_checked
    if esc.verdict != "escalating":
        return GoodEscalatingReport(h.name, bound, False, "escalating",
                                    esc.counterexamples, cells)
    # every failing grid point with its 1-based position in grid order
    points = [(x, y) for x in range(1, bound + 1) for y in range(1, bound + 1)]
    failures = []
    for i, (x, y) in enumerate(points, 1):
        if first_partial(x, y, alpha) <= 0:
            failures.append((i, Counterexample(x, 0, y, 0, first_partial(x, y, alpha),
                                               "first-partial")))
        elif second_partial(x, y, alpha) < -REL_TOL:
            failures.append((i, Counterexample(x, 0, y, 0, second_partial(x, y, alpha),
                                               "second-partial")))
    if failures:
        failures = failures[:MAX_COUNTEREXAMPLES]
        cells += failures[-1][0] if len(failures) == MAX_COUNTEREXAMPLES else len(points)
        return GoodEscalatingReport(h.name, bound, False, failures[0][1].reason,
                                    tuple(c for _, c in failures), cells)
    cells += len(points)
    bad, three_term_cells = _reference_three_term(h, bound, MAX_COUNTEREXAMPLES)
    cells += three_term_cells
    if bad:
        return GoodEscalatingReport(h.name, bound, False, "three-term", tuple(bad), cells)
    return GoodEscalatingReport(h.name, bound, True, None, (), cells)


def _failing_points(report):
    """A good escalating report without its deltas, "-partial" read as "-difference"."""
    def reason(r):
        return r and r.replace("-partial", "-difference")
    return (report.function, report.grid_max, report.holds, reason(report.failed_condition),
            [(*c[:4], reason(c.reason)) for c in report.counterexamples], report.cells_checked)


def _assert_good_escalating_matches_reference(alpha, bound):
    """check_good_escalating(h_alpha) fails where the closed-form reference
    does, with as many cells checked, or raises the same GridResolutionError.
    Its escalating and three-term deltas are the reference's bit for bit, its
    difference deltas the per-call differences of h."""
    h = BivariateFunction.sombor(alpha)
    try:
        want = _reference_good_escalating(alpha, bound)
    except GridResolutionError as exc:
        with pytest.raises(GridResolutionError) as got:
            check_good_escalating(h, GridSpec(bound))
        assert str(got.value) == str(exc)
        return
    got = check_good_escalating(h, GridSpec(bound))
    assert _failing_points(got) == _failing_points(want)
    per_call = {"first-difference": lambda x, y: h(x + 1, y) - h(x, y),
                "second-difference": lambda x, y: h(x + 1, y) - 2 * h(x, y) + h(x - 1, y)}
    want_deltas = [per_call[c.reason](c.x1, c.x2) if c.reason in per_call else w.delta
                   for c, w in zip(got.counterexamples, want.counterexamples)]
    assert [_bits(c.delta) for c in got.counterexamples] == list(map(_bits, want_deltas))


def _bits(v):
    # type and exact bits: == would equate 0.0 with -0.0 and 1 with 1.0
    return type(v).__name__, float(v).hex()


def _report_bits(report):
    return (_bits(report.max_abs_delta),
            [_bits(c.delta) for c in report.counterexamples])


def _reference_functions():
    # at alpha = 1 - 1e-8 and 1 + 3e-8, delta crosses tol inside the grid; at
    # -50, -10, 30 and 60, h spans a wide range along each row, so the units
    # near (1, 1) are far below the rounding of the large corners
    alphas = DEFAULT_PROP1_ALPHAS + (1 - 1e-8, 1 + 3e-8, -50.0, -10.0, 30.0, 60.0)
    functions = [BivariateFunction.sombor(a) for a in alphas]
    for fn, name in ((_mixed, "mixed"), (_near_tol, "near-tol"), (_near_ub, "near-ub"),
                     (_near_ub_negative, "near-ub-negative"), (_tied, "tied"),
                     (_wavy, "wavy")):
        functions.append(BivariateFunction.custom(fn, name=name))
    return functions


def _assert_grid_matches_reference(functions, bound):
    """check_escalating equals the per-call definition, bit for bit; an h_alpha
    (alpha != 1) raises where the definition has a strict cell within its tol,
    and fails the verdict its regime predicts nowhere else."""
    grid = GridSpec(bound)
    for f in functions:
        full = _reference_escalating(f, bound, 10 ** 9)
        expected = (classify_alpha(f.alpha).value
                    if f.kind == "sombor" and f.alpha != 1 else None)
        if expected:
            # a sign failure of the predicted verdict would be a counterexample
            # to Proposition 1; every counterexample is kept at this limit
            wrong = (lambda d: d < 0) if expected == "escalating" else (lambda d: d > 0)
            assert not [c for c in full.counterexamples
                        if c.reason == "sign" and wrong(c.delta)]
        unresolvable = expected is not None and any(
            c.reason == "strictness" for c in full.counterexamples)
        if f.kind == "sombor" and f.alpha in UNRESOLVABLE_ALPHAS:
            assert unresolvable
        if unresolvable:
            with pytest.raises(GridResolutionError, match="grid cannot resolve"):
                check_escalating(f, grid)
            continue
        got = check_escalating(f, grid)
        want = full._replace(counterexamples=full.counterexamples[:MAX_COUNTEREXAMPLES])
        assert got == want
        assert _report_bits(got) == _report_bits(want)


def test_grid_tables_match_per_call_definition():
    functions = _reference_functions()
    unresolvable = [BivariateFunction.sombor(a) for a in UNRESOLVABLE_ALPHAS]
    # the default bound, where the unit certificate settles every default
    # alpha but 1; every function there is in the slow test below
    picked = [f for f in functions if f.name in ("h_-3", "h_0.5", "h_2", "h_60", "near-ub")]
    _assert_grid_matches_reference(picked, DEFAULT_GRID_MAX)
    stopped = set()
    for bound in (3, 6, 9):
        _assert_grid_matches_reference(functions + unresolvable, bound)
        grid = GridSpec(bound)
        conditions = {}
        for a in (-1, 0.5, 1.5):
            _assert_good_escalating_matches_reference(a, bound)
            conditions[a] = check_good_escalating(BivariateFunction.sombor(a),
                                                  grid).failed_condition
        assert conditions == {-1: "first-difference", 0.5: "escalating", 1.5: None}
        # the shift inequality on every function, including those that fail it
        # and stop early, at MAX_COUNTEREXAMPLES failures
        all_cells = len(list(_grid_cells(bound, 2)))
        for f in functions:
            bad, cells = _three_term_failures(_table(f, bound + 1, bound), bound,
                                              _rel_tol(f, bound + 1, bound))
            want_bad, want_cells = _reference_three_term(f, bound, MAX_COUNTEREXAMPLES)
            assert (bad, cells) == (want_bad, want_cells)
            assert [_bits(c.delta) for c in bad] == [_bits(c.delta) for c in want_bad]
            if cells < all_cells:
                stopped.add(f.name)
    assert {"mixed", "near-tol", "near-ub", "near-ub-negative"} <= stopped


@pytest.mark.slow
def test_grid_default_bound_matches_per_call_definition():
    unresolvable = [BivariateFunction.sombor(a) for a in UNRESOLVABLE_ALPHAS]
    _assert_grid_matches_reference(_reference_functions() + unresolvable, DEFAULT_GRID_MAX)
    # the shift inequality of the good escalating alphas at the default bound
    for a in (1.1, 1.5, 2, 3, 5):
        h = BivariateFunction.sombor(a)
        bad, cells = _three_term_failures(_table(h, DEFAULT_GRID_MAX + 1, DEFAULT_GRID_MAX),
                                          DEFAULT_GRID_MAX,
                                          _rel_tol(h, DEFAULT_GRID_MAX + 1, DEFAULT_GRID_MAX))
        want_bad, want_cells = _reference_three_term(h, DEFAULT_GRID_MAX, MAX_COUNTEREXAMPLES)
        assert (bad, cells) == (want_bad, want_cells)
        assert [_bits(c.delta) for c in bad] == [_bits(c.delta) for c in want_bad]


#: largest magnitude drawn: 4 times it stays finite, as check_escalating requires
_WIDE = 2.0 ** 1020


@st.composite
def _symmetric_tables(draw):
    """(bound, t) with t[x, y] = t[y, x] for 1 <= x, y <= bound <= 8: every
    entry from one kind of value, or each from any kind."""
    bound = draw(st.integers(3, 8))
    base = draw(st.floats(-_WIDE, _WIDE))
    scale = draw(st.integers(-32, 32)) * REL_TOL / 4
    kinds = [
        st.sampled_from([0.0, -0.0]),
        st.floats(-2.0 ** -1022, 2.0 ** -1022),           # subnormals and zero
        st.floats(-_WIDE, _WIDE),                         # every magnitude and sign
        st.floats(-1, 1),                                 # rounding at every step
        st.integers(-64, 64).map(float),                  # exact arithmetic, E = 0
        # deltas near tol: REL_TOL-sized relative noise around one value
        st.integers(-16, 16).map(lambda k: base * (1 + k * REL_TOL / 8)),
    ]
    value = draw(st.sampled_from(kinds + [st.one_of(kinds)]))
    # separable: t = g[x] + g[y] has every delta 0 in exact arithmetic, so
    # rounding alone decides which cell, strict or not, holds max |delta|
    g = [draw(value) for _ in range(bound + 1)] if draw(st.booleans()) else None
    # a bilinear trend of about tol per cell: units on one side of their
    # threshold, as the unit certificate needs
    trend = draw(st.booleans())
    t = {}
    for x in range(1, bound + 1):
        for y in range(1, x + 1):
            v = g[x] + g[y] if g else draw(value)
            if trend:
                v += base * scale * x * y
            t[x, y] = t[y, x] = v
    return bound, t


#: g of a separable table t = g[x] + g[y] whose max |delta| lies only in a
#: block x1 = y1, by rounding alone
_G_DIAGONAL_MAX = (None, 0.1, 1.1, 1.1)


@settings(max_examples=200, deadline=None, database=None)
@given(_symmetric_tables())
@example((3, {(x, y): _G_DIAGONAL_MAX[x] + _G_DIAGONAL_MAX[y]
              for x in (1, 2, 3) for y in (1, 2, 3)}))
def test_grid_matches_per_call_definition_on_adversarial_tables(case):
    # the certificate evaluates non-strict cells only in the blocks its max
    # pass evaluates whole; zeros, subnormals, extreme magnitudes and
    # near-tol deltas must still give the definition's report bit for bit
    bound, t = case
    f = BivariateFunction("custom", fn=lambda x, y: t[x, y], name="table")
    _assert_grid_matches_reference([f], bound)


def _threshold_table(bound, base, s, g=None, noise=None):
    """t[x, y] = base + g[x] + g[y] + s x y (1 + noise[x, y]) for 1 <= y <= x <= bound,
    and its mirror: every unit mixed difference is about s."""
    t = {}
    for x in range(1, bound + 1):
        for y in range(1, x + 1):
            t[x, y] = t[y, x] = (base + (g[x] if g else 0.0) + (g[y] if g else 0.0)
                                 + s * x * y * (1 + (noise[x, y] if noise else 0.0)))
    return t


@st.composite
def _near_threshold_tables(draw):
    """(bound, t) for bound <= 8 from `_threshold_table` with s =
    (4 REL_TOL + k 2^-53) |base|: k near 0 puts the unit cells within rounding
    of their tol, k near 128 puts the units at the certificate's threshold
    C = 4 REL_TOL + 2^-46 times their corners' |t|."""
    bound = draw(st.integers(3, 8))
    base = draw(st.sampled_from([-1, 1])) * draw(st.floats(2.0 ** -900, _WIDE / 2))
    k = draw(st.one_of(st.integers(-16, 32), st.integers(112, 160)))
    s = draw(st.sampled_from([-1, 1])) * (4 * REL_TOL + k * 2.0 ** -53) * abs(base)
    g = [base * draw(st.integers(-8, 8)) * 2.0 ** -32 for _ in range(bound + 1)]
    noise = {(x, y): draw(st.integers(-4, 4)) * 2.0 ** -36
             for x in range(1, bound + 1) for y in range(1, x + 1)}
    return bound, _threshold_table(bound, base, s, g, noise)


def _record_unit_signs(monkeypatch):
    """What each grid's unit certificate returned, as a list that grows:
    1 or -1 when it proved the verdict, 0 for an exact zero, None otherwise."""
    signs = []
    unit_sign = indices._unit_sign

    def recorded(*args):
        signs.append(unit_sign(*args))
        return signs[-1]

    monkeypatch.setattr(indices, "_unit_sign", recorded)
    return signs


def test_grid_certificate_matches_per_call_definition_near_threshold(monkeypatch):
    signs = _record_unit_signs(monkeypatch)

    # the first example: units of exactly -4 REL_TOL clear 4 REL_TOL times
    # their corners' |t|, but unit cells whose delta rounds to within their
    # tol fail on strictness; the certificate must refuse the table. The
    # other two clear C = 4 REL_TOL + 2^-46 by far, of either sign, so the
    # assertion below does not rest on what the draws happen to be
    @settings(max_examples=150, deadline=None, database=None)
    @given(_near_threshold_tables())
    @example((3, _threshold_table(3, 1.0, -4 * REL_TOL)))
    @example((3, _threshold_table(3, 1.0, 8 * REL_TOL)))
    @example((3, _threshold_table(3, 1.0, -8 * REL_TOL)))
    def check(case):
        bound, t = case
        f = BivariateFunction("custom", fn=lambda x, y: t[x, y], name="table")
        _assert_grid_matches_reference([f], bound)

    check()
    # some tables took the certificate, of either sign, and some did not
    assert {1, -1, None} <= set(signs)


def test_grid_max_may_sit_off_the_extreme_cell(monkeypatch):
    # every unit clears the certificate, so in exact arithmetic cell
    # (3, 1, 3, 1) holds the largest delta, 1 - 1.2u, above (3, 1, 3, 2)'s
    # 1 - 1.3u. Computed, the first rounds to 1 - 2u and the second to 1:
    # max_abs_delta comes from the cells the max pass evaluates
    u = 2.0 ** -53
    values = {(1, 1): 0.0, (1, 2): 1.1 * u, (1, 3): 0.6 * u, (2, 2): 2.25 * u,
              (2, 3): 1.8 * u, (3, 3): 1.0}
    t = {**values, **{(y, x): v for (x, y), v in values.items()}}
    f = BivariateFunction("custom", fn=lambda x, y: t[x, y], name="table")
    signs = _record_unit_signs(monkeypatch)
    report = check_escalating(f, GridSpec(3))
    assert signs == [1]
    assert report.max_abs_delta == 1.0
    assert t[3, 3] + t[1, 1] - t[1, 3] - t[3, 1] == 1 - 2 * u
    _assert_grid_matches_reference([f], 3)


def _count_block_evaluations(monkeypatch):
    """Whole-block delta evaluations of the grid, the per-cell loop's and the
    max pass's, as a list that grows."""
    calls = []
    deltas = indices._deltas

    def counted(rx, ry, cells):
        if 2 * len(cells) == len(rx) * (len(rx) - 1):       # B (B + 1) / 2 cells
            calls.append(1)
        return deltas(rx, ry, cells)

    monkeypatch.setattr(indices, "_deltas", counted)
    return calls


def test_grid_exact_blocks_are_few(monkeypatch):
    # machine-independent work gate: every default alpha but 1 takes the unit
    # certificate, and its max pass evaluates one block whole, (B, 1); at
    # alpha = 1 every unit is exactly 0 and the report is closed-form. Exact
    # int and Fraction tables take the certificate too, with C = 0: the units
    # of 10^15 + xy are 1, far below 4 REL_TOL times their corners' |t|
    calls = _count_block_evaluations(monkeypatch)
    exact = {"xy": lambda x, y: x * y, "xy/7": lambda x, y: Fraction(x * y, 7),
             "10^15+xy": lambda x, y: 10 ** 15 + x * y}
    for bound in (DEFAULT_GRID_MAX, 40):
        counts = {}
        for a in DEFAULT_PROP1_ALPHAS:
            calls.clear()
            check_escalating(BivariateFunction.sombor(a), GridSpec(bound))
            counts[a] = len(calls)
        assert counts == {a: int(a != 1) for a in DEFAULT_PROP1_ALPHAS}, bound
        for name, fn in exact.items():
            calls.clear()
            report = check_escalating(BivariateFunction.custom(fn, name=name), GridSpec(bound))
            assert report.verdict == "escalating" and len(calls) == 1, (name, bound)
            assert report.max_abs_delta == fn(bound, bound) - fn(bound, 1) * 2 + fn(1, 1)


def _orthant_function(weights, u):
    """sum of w_ab ([x >= a][y >= b] + [x >= b][y >= a]) + u[x] + u[y], in ints:
    its unit Delta(i, j) is w_(i+1)(j+1) + w_(j+1)(i+1)."""
    def f(x, y):
        return sum(w * ((x >= a and y >= b) + (x >= b and y >= a))
                   for (a, b), w in weights.items()) + u[x] + u[y]
    return f


@st.composite
def _orthant_cases(draw):
    """(bound, weights, u): integer w_ab >= 0 for 1 <= a, b <= bound <= 8, zeros
    likely, and integer u up to 10^15 on 1..8, where the symmetry spot check reads."""
    bound = draw(st.integers(3, 8))
    w = st.one_of(st.just(0), st.integers(0, 3))
    weights = {(a, b): draw(w) for a in range(1, bound + 1) for b in range(1, bound + 1)}
    u = [0] + [draw(st.integers(-10 ** 15, 10 ** 15)) for _ in range(8)]
    return bound, weights, u


@settings(max_examples=150, deadline=None, database=None)
@given(_orthant_cases())
# every unit 1 under values near 10^15: within REL_TOL of their |t|
@example((4, {(a, b): int(a == b) for a in range(1, 5) for b in range(1, 5)},
          [0] + [10 ** 15] * 8))
def test_grid_exact_verdicts_on_orthant_functions(case):
    # ROADMAP item 1's integer escalating family: the verdict is "escalating"
    # exactly when every unit Delta(a - 1, b - 1) = w_ab + w_ba is positive,
    # and "neither" otherwise, with no tolerance between
    bound, weights, u = case
    f = BivariateFunction.custom(_orthant_function(weights, u), name="orthant")
    positive = all(weights[a, b] + weights[b, a] > 0
                   for a in range(2, bound + 1) for b in range(2, bound + 1))
    report = check_escalating(f, GridSpec(bound))
    assert report.verdict == ("escalating" if positive else "neither")
    _assert_grid_matches_reference([f], bound)


def test_exact_tables_take_no_tolerance():
    # deltas of 1 and 2 under values near 10^12, well within REL_TOL of them
    f = BivariateFunction.custom(lambda x, y: 10 ** 12 * (x + y) + x * y)
    report = check_escalating(f, GridSpec(4))
    assert (report.verdict, report.counterexamples, report.max_abs_delta) == \
        ("escalating", (), 9)
    g = BivariateFunction.custom(lambda x, y: 10 ** 12 + x * y * (x + y))
    assert check_good_escalating(g, GridSpec(8)).holds
    # the same values as floats below 2^51 are exact too
    h = BivariateFunction.custom(lambda x, y: 1e12 * (x + y) + x * y)
    assert check_escalating(h, GridSpec(4)) == report
    # at 2^51 and above a float table keeps its tolerance
    k = BivariateFunction.custom(lambda x, y: 2.0 ** 51 * (x + y) + x * y)
    assert check_escalating(k, GridSpec(4)).verdict == "neither"


@pytest.mark.parametrize("offset", [10 ** 15, 10 ** 400, Fraction(10 ** 400)],
                         ids=["int-1e15", "int-1e400", "fraction-1e400"])
def test_exact_tables_past_the_float_range(offset):
    # no exact comparison needs a float, so an exact table is checked past the
    # float range; a float table keeps its overflow test
    f = BivariateFunction.custom(lambda x, y: offset + x * y)
    report = check_escalating(f, GridSpec(4))
    assert (report.verdict, report.counterexamples, report.max_abs_delta) == \
        ("escalating", (), 9)
    assert check_good_escalating(f, GridSpec(4)).holds


def test_grid_fallback_and_final_pass_run(monkeypatch):
    # near-ub fails the certificate, so the per-cell loop evaluates all 210
    # blocks of B = 20; h_50's max pass evaluates (20, 1), and (20, 2) and
    # (20, 3) as well, whose computed R differences lie 5.2u and 15.7u times
    # a[x1] + a[y1] below the best |delta|, within the slack of 16u times it
    calls = _count_block_evaluations(monkeypatch)
    check_escalating(BivariateFunction.custom(_near_ub, name="near-ub"), GridSpec(20))
    assert len(calls) == 210
    calls.clear()
    check_escalating(BivariateFunction.sombor(50), GridSpec(20))
    assert len(calls) == 3


def test_grid_resolution_error():
    for a in UNRESOLVABLE_ALPHAS:
        with pytest.raises(GridResolutionError, match=f"alpha = {a!r}"):
            check_escalating(BivariateFunction.sombor(a), GridSpec(DEFAULT_GRID_MAX))
    assert issubclass(GridResolutionError, ValidationError)
    # alpha = 1 is degenerate, not unresolved: every delta is exactly 0
    report = check_escalating(BivariateFunction.sombor(1), GridSpec(DEFAULT_GRID_MAX))
    assert report.verdict == "neither" and report.max_abs_delta == 0.0
    # a custom f is never rejected for it
    flat = BivariateFunction.custom(lambda x, y: 1.0, name="flat")
    assert check_escalating(flat, GridSpec(5)).verdict == "neither"


def test_grid_sign_failure_of_h_alpha_is_a_counterexample(monkeypatch, capsys):
    # h_2's B = 6 table with t[3][3] scaled by 1.5 is not h_2, but is checked
    # as one: delta = -50 at (3, 1, 4, 3) is far past its tol, so floats
    # decide it, and the failed "escalating" verdict is reported, not refused
    table = indices._table

    def tampered(f, bound):
        t = table(f, bound)
        if f.name == "h_2" and bound == 6:
            t[3][3] *= 1.5
        return t

    monkeypatch.setattr(indices, "_table", tampered)
    report = check_escalating(BivariateFunction.sombor(2), GridSpec(6))
    assert report.verdict == "neither"
    assert report.counterexamples[0] == Counterexample(3, 1, 4, 3, -50.0, "sign")
    assert len(report.counterexamples) == MAX_COUNTEREXAMPLES
    # the CLI weighs the verdict against the regime: a counterexample, exit 1
    code = cli.main(["verify", "--theorem", "prop1", "--grid", "6", "--alpha", "2"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out)["pass"] is False


def test_grid_checks_deadline_once_per_row():
    class Counting:
        checks = 0

        def check(self):
            self.checks += 1

    deadline = Counting()
    check_escalating(BivariateFunction.sombor(2), GridSpec(30), deadline=deadline)
    assert deadline.checks == 30
    # the per-cell loop checks once per row as well
    deadline = Counting()
    check_escalating(BivariateFunction.custom(_near_ub, name="near-ub"), GridSpec(12),
                     deadline=deadline)
    assert deadline.checks == 12
    # an expired budget stops a large grid at its first row
    with pytest.raises(TimeBudgetExceededError):
        check_escalating(BivariateFunction.sombor(2), GridSpec(300), deadline=Deadline(0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_function_value_rejected(value):
    # (6, 6) lies outside the symmetry spot-check of BivariateFunction.custom
    f = BivariateFunction.custom(lambda x, y: value if x == y == 6 else x * y,
                                 name="spiky")
    with pytest.raises(ValidationError, match=r"^spiky\(6, 6\) = (nan|-?inf) is not finite$"):
        check_escalating(f, GridSpec(8))
    # inside the spot-check the value is named too, not taken for an asymmetry
    with pytest.raises(ValidationError, match=r"^flat\(1, 1\) = (nan|-?inf) is not finite$"):
        BivariateFunction.custom(lambda x, y: value, name="flat")
    with pytest.raises(ValidationError, match=r"^edge\(1, 2\) = (nan|-?inf) is not finite$"):
        BivariateFunction.custom(lambda x, y: value if (x, y) == (1, 2) else 1.0,
                                 name="edge")


def test_grid_overflow_is_rejected():
    # at B = 20, 4 h_alpha(20, 20) = 4 * 800**alpha overflows from alpha = 106,
    # and no delta of the table can be trusted to be finite
    with pytest.raises(OverflowError, match="float range"):
        check_escalating(BivariateFunction.sombor(106), GridSpec(20))
    report = check_escalating(BivariateFunction.sombor(105), GridSpec(20))
    assert report.verdict == "escalating" and math.isfinite(report.max_abs_delta)
    # a custom float table too, though an exact one past the range is checked
    # (4 * 16 * 1e307 and 6 * 20 * 2e306 overflow; 4 * 16 * 2e306 does not)
    big = BivariateFunction.custom(lambda x, y: 1e307 * min(x, 4) * min(y, 4), name="big")
    with pytest.raises(OverflowError, match=r"4 max\|big\|"):
        check_escalating(big, GridSpec(4))
    big = BivariateFunction.custom(lambda x, y: 2e306 * min(x, 5) * min(y, 5), name="big")
    with pytest.raises(OverflowError, match=r"6 max\|big\|"):
        check_good_escalating(big, GridSpec(4))


def test_underflow_rejected_for_h_alpha_only():
    # at B = 20, h_alpha(20, 20) = 800**alpha is subnormal from alpha = -106
    with pytest.raises(ValidationError,
                       match=r"^h_-106\(20, 20\) = \S+ is below the normal float range"):
        check_escalating(BivariateFunction.sombor(-106), GridSpec(20))
    report = check_escalating(BivariateFunction.sombor(-100), GridSpec(20))
    assert report.verdict == "escalating"
    # 0 is a legitimate value of a custom f
    zero = BivariateFunction.custom(lambda x, y: 0.0, name="zero")
    report = check_escalating(zero, GridSpec(5))
    assert report.verdict == "neither" and report.max_abs_delta == 0.0


def test_good_escalating():
    grid = GridSpec(8)
    assert check_good_escalating(BivariateFunction.sombor(2), grid).holds
    assert check_good_escalating(BivariateFunction.sombor(1.5), grid).holds
    bad = check_good_escalating(BivariateFunction.sombor(0.5), grid)
    assert not bad.holds and bad.failed_condition == "escalating"
    neg = check_good_escalating(BivariateFunction.sombor(-1), grid)
    assert not neg.holds and neg.failed_condition == "first-difference"
    assert neg.function == "h_-1"


def test_good_escalating_partial_pass_limits():
    # the difference pass scans rows in grid order and stops at the tenth
    # failure: at alpha 2 it checks all 36 points (441 escalating cells,
    # 36 difference points, 315 three-term cells), and at alpha -1 every one
    # of the 36 points fails the first difference, so it stops after 10
    grid = GridSpec(6)
    for a in (2, -1):
        _assert_good_escalating_matches_reference(a, 6)
    assert check_good_escalating(BivariateFunction.sombor(2), grid).cells_checked == 792
    neg = check_good_escalating(BivariateFunction.sombor(-1), grid)
    assert len(neg.counterexamples) == MAX_COUNTEREXAMPLES == 10
    assert [(c.x1, c.x2) for c in neg.counterexamples] == \
        [(x, y) for x in range(1, 7) for y in range(1, 7)][:10]
    assert neg.cells_checked == 451


@settings(max_examples=100, deadline=None, database=None)
@given(st.floats(-5, 10).filter(bool), st.sampled_from((3, 6, 8)))
@example(-3.0, 20)          # every point fails the first difference
@example(0.5, 20)           # de-escalating
@example(1.0, 8)            # degenerate: every delta is 0
@example(1.1, 20)           # good escalating, every three-term cell checked
@example(1.00000003, 20)    # refused by the grid
@example(1e-12, 3)          # refused by the grid
def test_good_escalating_differences_match_closed_forms(alpha, bound):
    # on integer degrees the differences decide what the closed-form
    # partials of h_alpha did, at the same points
    _assert_good_escalating_matches_reference(alpha, bound)


def test_good_escalating_integer_functions():
    # exact int tables at B = 14: the differences and the shift are decided
    # without rounding
    grid = GridSpec(14)
    for name, fn in (("xy", lambda x, y: x * y), ("(x+y)^2", lambda x, y: (x + y) ** 2),
                     ("(x+y)^3", lambda x, y: (x + y) ** 3),
                     ("xy(x+y)", lambda x, y: x * y * (x + y)),
                     ("(x^2+y^2)^2", lambda x, y: (x * x + y * y) ** 2),
                     ("2^(x+y)", lambda x, y: 2 ** (x + y))):
        report = check_good_escalating(BivariateFunction.custom(fn, name=name), grid)
        assert report.holds and report.function == name, name
    # escalating, increasing and convex, but not the three-term shift
    for fn, delta in ((lambda x, y: x * x * y * y, -1), (lambda x, y: (x * y) ** 3, -59)):
        report = check_good_escalating(BivariateFunction.custom(fn), grid)
        assert report.failed_condition == "three-term"
        assert report.counterexamples[0] == (3, 2, 1, 1, delta, "three-term")
        assert type(report.counterexamples[0].delta) is int
    # escalating and convex, but flat in x where y = 1: a first difference of 0 fails
    flat = BivariateFunction.custom(lambda x, y: (x - 1) * (y - 1))
    report = check_good_escalating(flat, grid)
    assert report.failed_condition == "first-difference"
    assert report.counterexamples[:2] == ((1, 0, 1, 0, 0, "first-difference"),
                                          (2, 0, 1, 0, 0, "first-difference"))
    # escalating and increasing, but concave in x: the second difference is -2
    concave = BivariateFunction.custom(lambda x, y: x * y + 40 * (x + y) - x * x - y * y)
    report = check_good_escalating(concave, grid)
    assert report.failed_condition == "second-difference"
    assert report.counterexamples[0] == (2, 0, 1, 0, -2, "second-difference")
    report = check_good_escalating(BivariateFunction.custom(max, name="max"), grid)
    assert report.failed_condition == "escalating"
    assert report.counterexamples[0] == (2, 1, 2, 1, -1, "sign")


def test_good_escalating_table_stops_at_column_b():
    # column B + 1 is never read, so it is not evaluated: at B = 20,
    # h_104.66(21, 21) overflows and h_-105(21, 21) is subnormal
    assert check_good_escalating(BivariateFunction.sombor(104.66), GridSpec(20)).holds
    report = check_good_escalating(BivariateFunction.sombor(-105), GridSpec(20))
    assert report.failed_condition == "first-difference"
    assert report.counterexamples[0][:4] == (1, 0, 1, 0)
    # a shift sums six values: where six times h(21, 20) overflows, its tol
    # would be infinite and every shift cell would fail, so the table is refused
    for a in (105.15, 105.3):
        with pytest.raises(OverflowError, match="6 max"):
            check_good_escalating(BivariateFunction.sombor(a), GridSpec(20))


def test_good_escalating_rejects_underflow_before_partials():
    # the table over 1..B+1 rejects any h_alpha value below the normal
    # range, 0 and below included, before any condition is checked:
    # h_-200(1, 6) = 37**-200 is subnormal
    with pytest.raises(ValidationError,
                       match=r"^h_-200\(1, 6\) = \S+ is below the normal float range"):
        check_good_escalating(BivariateFunction.sombor(-200), GridSpec(20))


def test_good_escalating_evaluates_f_once_per_grid_point(monkeypatch):
    # one table over rows 1..B+1 and columns 1..B, the escalating verdict read
    # off its first B rows; it evaluates h_alpha's expression itself, bit for
    # bit as h(x, y) does
    bounds = []
    table = indices._table

    def counted(f, rows, cols=None):
        bounds.append((rows, cols))
        return table(f, rows, cols)

    monkeypatch.setattr(indices, "_table", counted)
    assert check_good_escalating(BivariateFunction.sombor(1.5), GridSpec(6)).holds
    assert bounds == [(7, 6)]
    for a in (-3.0, 0.5, 1.5, 60.0):
        h = BivariateFunction.sombor(a)
        t = table(h, 7)
        assert [_bits(v) for row in t[1:] for v in row[1:]] == \
            [_bits(h(x, y)) for x in range(1, 8) for y in range(1, 8)]


def test_three_term_hand_cell():
    # x1 = y1 = 2, x2 = y2 = 1 at alpha = 1.5
    h = BivariateFunction.sombor(1.5)
    lhs = h(3, 1) + h(3, 1) + h(3, 1)
    rhs = h(2, 1) + h(2, 1) + h(2, 2)
    assert math.isclose(lhs, 3 * 10 ** 1.5, rel_tol=1e-12)
    assert lhs > rhs


def test_forgotten_index_identity_small():
    for c in (0, 1, 2):
        for n in range(2, 7):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                for g in enumerate_gamma(pi):
                    assert math.isclose(
                        sombor_general(g, 1.0),
                        sum(d ** 3 for d in g.degrees),
                        rel_tol=1e-12,
                    )


def test_isomorphism_invariance_exact():
    import random

    rng = random.Random(1)
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    for _ in range(50):
        perm = list(range(7))
        rng.shuffle(perm)
        for a in (-1, 0.5, 2, 3):
            # pair-multiset aggregation makes the sums bit-identical
            assert sombor_general(g.relabel(perm), a) == sombor_general(g, a)


def test_monotone_in_alpha():
    for g in (K3, STAR4, P3):
        values = [sombor_general(g, a) for a in (0.25, 0.5, 0.75, 1, 1.5, 2, 3)]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_grid_spec_bounds():
    with pytest.raises(ValidationError):
        GridSpec(2)
    grid = GridSpec(3)
    with pytest.raises(AttributeError):
        grid.max_value = 2
    assert grid == GridSpec(3) and hash(grid) == hash(GridSpec(3)) and grid != GridSpec()
    assert repr(GridSpec()) == "GridSpec(max_value=20)"


def test_sombor_names_keep_distinct_alphas():
    # the :g form keeps 6 digits; a name is the alpha's repr where that form
    # would read back as another float
    names = [BivariateFunction.sombor(a).name for a in (1.0000001, 0.99999999, 1.0)]
    assert names == ["h_1.0000001", "h_0.99999999", "h_1"]
    assert [BivariateFunction.sombor(a).name for a in (2, 0.5, -200)] == \
        ["h_2", "h_0.5", "h_-200"]
    report = check_escalating(BivariateFunction.sombor(1.0000001), GridSpec(3))
    assert report.function == "h_1.0000001" and report.verdict == "escalating"


def test_bivariate_function_equality_ignores_fn():
    f = BivariateFunction.custom(lambda x, y: x + y, name="sum")
    g = BivariateFunction.custom(lambda x, y: y + x, name="sum")
    assert f == g and hash(f) == hash(g) and f.fn is not g.fn
    h = BivariateFunction.sombor(0.5)
    assert h == BivariateFunction.sombor(0.5) and h != f
    assert repr(h) == "BivariateFunction(kind='sombor', alpha=0.5, fn=None, name='h_0.5')"
    with pytest.raises(AttributeError):
        h.alpha = 2.0


def test_reports_are_named_tuples():
    report = check_escalating(BivariateFunction.sombor(1.0), GridSpec(3))
    assert report._fields[:3] == ("function", "grid_max", "verdict")
    example = report.counterexamples[0]
    assert example._asdict() == {"x1": example.x1, "y1": example.y1, "x2": example.x2,
                                 "y2": example.y2, "delta": example.delta,
                                 "reason": example.reason}
    assert example == tuple(example)
