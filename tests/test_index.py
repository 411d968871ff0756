"""SO_alpha evaluation and escalating/de-escalating certification."""

import math

import pytest

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
from somborlab.errors import (
    AlphaNotFiniteError,
    AlphaZeroError,
    DisconnectedError,
    ValidationError,
)
from somborlab.indices import (
    REL_TOL,
    Counterexample,
    EscalationReport,
    GoodEscalatingReport,
    _table,
    _three_term_failures,
    first_partial,
    second_partial,
)

K2 = Graph(2, [(0, 1)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_sombor_hand_values():
    assert math.isclose(sombor_general(K2, 0.5), math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(sombor_general(STAR4, 0.5), 3 * math.sqrt(10), rel_tol=1e-12)
    assert sombor_general(K3, 1.0) == 24.0


def test_sombor_rejects_bad_inputs():
    with pytest.raises(AlphaZeroError):
        sombor_general(K3, 0.0)
    with pytest.raises(DisconnectedError):
        sombor_general(Graph(4, [(0, 1), (2, 3)]), 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(AlphaNotFiniteError):
        sombor_general(K3, alpha)
    with pytest.raises(AlphaNotFiniteError):
        BivariateFunction.sombor(alpha)
    with pytest.raises(AlphaNotFiniteError):
        classify_alpha(alpha)
    assert issubclass(AlphaNotFiniteError, ValidationError)


def test_connectivity_function_examples():
    add = BivariateFunction.custom(lambda x, y: x + y, name="x+y")
    assert connectivity_function(K3, add) == 12.0
    mul = BivariateFunction.custom(lambda x, y: x * y, name="xy")
    assert connectivity_function(P3, mul) == 4.0
    h = BivariateFunction.sombor(0.5)
    assert connectivity_function(STAR4, h) == sombor_general(STAR4, 0.5)


def test_custom_function_symmetry_is_spot_checked():
    with pytest.raises(ValidationError):
        BivariateFunction.custom(lambda x, y: x - y, name="asym")


def test_classify_alpha():
    assert classify_alpha(0.5) is AlphaRegime.DE_ESCALATING
    assert classify_alpha(2) is AlphaRegime.ESCALATING
    assert classify_alpha(-1) is AlphaRegime.ESCALATING
    assert classify_alpha(1) is AlphaRegime.DEGENERATE
    with pytest.raises(AlphaZeroError):
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


def _grid_cells(bound, y1_min):
    for x1 in range(y1_min, bound + 1):
        for y1 in range(y1_min, x1 + 1):
            for x2 in range(1, bound + 1):
                for y2 in range(1, x2 + 1):
                    yield x1, y1, x2, y2


def _reference_escalating(f, bound, max_counterexamples=10):
    """The module docstring's definition, calling f four times at every cell."""
    esc_bad, de_bad = [], []
    cells, max_abs = 0, 0.0
    for x1, y1, x2, y2 in _grid_cells(bound, 1):
        cells += 1
        t1, t2, t3, t4 = f(x1, x2), f(y1, y2), f(y1, x2), f(x1, y2)
        delta = t1 + t2 - t3 - t4
        tol = REL_TOL * (abs(t1) + abs(t2) + abs(t3) + abs(t4))
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
    for x1, y1, x2, y2 in _grid_cells(bound, 2):
        cells += 1
        lhs = f(x1 + 1, x2) + f(x1 + 1, y2) + f(x1 + 1, y1 - 1)
        rhs = f(x1, x2) + f(y1, y2) + f(x1, y1)
        if lhs - rhs <= REL_TOL * (abs(lhs) + abs(rhs)):
            bad.append(Counterexample(x1, y1, x2, y2, lhs - rhs, "three-term"))
            if len(bad) >= max_counterexamples:
                break
    return bad, cells


def _reference_good_escalating(alpha, bound, max_counterexamples=10):
    h = BivariateFunction.sombor(alpha)
    esc = _reference_escalating(h, bound)
    cells = esc.cells_checked
    if esc.verdict != "escalating":
        return GoodEscalatingReport(alpha, bound, False, "escalating",
                                    esc.counterexamples[:max_counterexamples], cells)
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
    bad, three_term_cells = _reference_three_term(h, bound, max_counterexamples)
    cells += three_term_cells
    if bad:
        return GoodEscalatingReport(alpha, bound, False, "three-term", tuple(bad), cells)
    return GoodEscalatingReport(alpha, bound, True, None, (), cells)


def test_grid_tables_match_per_call_definition():
    grid = GridSpec(6)
    functions = [BivariateFunction.sombor(a) for a in (-1, 0.5, 1, 2)]
    functions.append(BivariateFunction.custom(_mixed, name="mixed"))
    for f in functions:
        for limit in (3, 10, 1000):
            assert check_escalating(f, grid, limit) == _reference_escalating(f, 6, limit)
    conditions = {}
    for a in (-1, 0.5, 1.5):
        report = check_good_escalating(a, grid)
        assert report == _reference_good_escalating(a, 6)
        conditions[a] = report.failed_condition
    assert conditions == {-1: "first-partial", 0.5: "escalating", 1.5: None}
    # h_alpha never fails the shift inequality; a sign-flipping f reaches the
    # early stop at max_counterexamples
    mixed = BivariateFunction.custom(_mixed, name="mixed")
    for limit in (3, 10, 1000):
        bad, cells = _three_term_failures(_table(mixed, 7), 6, limit)
        assert (bad, cells) == _reference_three_term(mixed, 6, limit)
        assert bad


def test_good_escalating():
    grid = GridSpec(8)
    assert check_good_escalating(2, grid).holds
    assert check_good_escalating(1.5, grid).holds
    bad = check_good_escalating(0.5, grid)
    assert not bad.holds and bad.failed_condition == "escalating"
    neg = check_good_escalating(-1, grid)
    assert not neg.holds and neg.failed_condition == "first-partial"


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
