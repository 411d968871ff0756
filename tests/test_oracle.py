"""Enumeration, extrema, majorization, and the theorem verifiers."""

import math

import pytest

from somborlab import (
    DegreeSequence,
    Graph,
    Objective,
    canonical_code,
    degree_sequence_of,
    enumerate_gamma,
    format_graph6,
    generate_c_cyclic_sequences,
    greedy_tree,
    is_connected,
    is_majorized,
    oracle_extrema,
    parse_degree_sequence,
    sombor_general,
    verify_enumeration_cross_check,
    verify_special_bfs_existence,
    verify_theorem2,
    verify_theorem3,
)
from somborlab import _kernels, oracle
from somborlab.errors import (
    AlphaNotAboveOneError,
    CapsSyntaxError,
    LengthMismatchError,
    NotGraphicalError,
    TimeBudgetExceededError,
    TooLargeError,
    UnsupportedCError,
    UnsupportedCyclomaticError,
    UnsupportedObjectiveError,
    ValidationError,
)
from somborlab.oracle import ENUM_N_MAX, Deadline, _gamma, load_caps


def test_enumerate_gamma_unique_realizations():
    k3 = enumerate_gamma(DegreeSequence((2, 2, 2)))
    assert len(k3) == 1 and k3[0].m == 3
    c4 = enumerate_gamma(DegreeSequence((2, 2, 2, 2)))
    assert len(c4) == 1 and c4[0].m == 4
    for g in enumerate_gamma(parse_degree_sequence("4,3,2,2,2,1,1,1")):
        assert is_connected(g)
        assert degree_sequence_of(g).degrees == (4, 3, 2, 2, 2, 1, 1, 1)


def test_enumerate_gamma_is_sorted_and_deduplicated():
    graphs = enumerate_gamma(parse_degree_sequence("3,3,2,2,1,1"))
    codes = [canonical_code(g).code for g in graphs]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    # representatives are canonically labeled already
    for g in graphs:
        assert canonical_code(g).code == format_graph6(g).encode()


def test_enumerate_gamma_returns_fresh_lists():
    pi = parse_degree_sequence("3,3,2,2,1,1")
    first = enumerate_gamma(pi)
    first.clear()
    assert enumerate_gamma(pi) == enumerate_gamma(pi) != []


def test_enumerate_gamma_caps_and_errors():
    with pytest.raises(TooLargeError):
        enumerate_gamma(parse_degree_sequence("2^18,1^2"))
    # the kernel's 16 vertices are the library's only bound
    with pytest.raises(TooLargeError, match="n <= 16, got n = 17"):
        enumerate_gamma(parse_degree_sequence("2^17"))
    with pytest.raises(NotGraphicalError):
        enumerate_gamma(DegreeSequence((3, 3, 1, 1)))


def test_oracle_extrema_single_class():
    rep = oracle_extrema(DegreeSequence((2, 2, 2, 2)), 0.5)
    assert rep.class_size == 1
    assert math.isclose(rep.min_value, 4 * math.sqrt(8), rel_tol=1e-12)
    assert rep.min_value == rep.max_value
    assert rep.min_witnesses == rep.max_witnesses


def test_oracle_extrema_tree_max_is_greedy():
    pi = parse_degree_sequence("3,2,2,1,1,1")
    rep = oracle_extrema(pi, 2)
    built = greedy_tree(pi).graph
    assert math.isclose(rep.max_value, sombor_general(built, 2), rel_tol=1e-12)
    codes = {canonical_code(g) for g in rep.max_witnesses}
    assert canonical_code(built) in codes
    # hand evaluation: spider legs (2,2,1) has pairs (3,2)x2,(3,1),(2,1)x2
    assert rep.max_value == 2 * 13 ** 2 + 10 ** 2 + 2 * 5 ** 2


def test_majorization_examples():
    assert is_majorized(DegreeSequence((2, 2, 2)), DegreeSequence((3, 2, 1))).holds
    assert is_majorized(
        DegreeSequence((3, 2, 1, 1, 1)), DegreeSequence((4, 1, 1, 1, 1))
    ).holds
    same = is_majorized(DegreeSequence((2, 2, 2)), DegreeSequence((2, 2, 2)))
    assert not same.holds and same.failing_prefix is None
    rev = is_majorized(DegreeSequence((3, 2, 1)), DegreeSequence((2, 2, 2)))
    assert not rev.holds and rev.failing_prefix == 1
    with pytest.raises(LengthMismatchError):
        is_majorized(DegreeSequence((2, 2)), DegreeSequence((2, 2, 2)))


def test_majorization_is_strict_partial_order():
    seqs = generate_c_cyclic_sequences(6, 1, require_pendant=False)
    for x in seqs:
        assert not is_majorized(x, x).holds
        for y in seqs:
            for z in seqs:
                if is_majorized(x, y).holds and is_majorized(y, z).holds:
                    assert is_majorized(x, z).holds


def test_generate_sequences_examples():
    got = generate_c_cyclic_sequences(4, 0, require_pendant=True)
    assert {pi.degrees for pi in got} == {(3, 1, 1, 1), (2, 2, 1, 1)}
    assert generate_c_cyclic_sequences(3, 1, require_pendant=True) == []
    five = {pi.degrees for pi in generate_c_cyclic_sequences(5, 2, require_pendant=True)}
    assert (3, 3, 3, 2, 1) in five
    with pytest.raises(UnsupportedCError):
        generate_c_cyclic_sequences(6, 4, require_pendant=False)
    # trees on 11 vertices: one sequence per partition of 9
    assert len(generate_c_cyclic_sequences(11, 0, require_pendant=False)) == 30
    # descending lexicographic order
    degs = [pi.degrees for pi in generate_c_cyclic_sequences(7, 1, require_pendant=False)]
    assert degs == sorted(degs, reverse=True)


def test_generated_sequences_are_realizable():
    for c in (0, 1, 2, 3):
        for n in range(2, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                graphs = enumerate_gamma(pi)
                assert graphs, pi


def test_theorem2_small():
    for c in (0, 1, 2):
        rep = verify_theorem2(6, c, (0.5, 2.0))
        assert rep.holds, rep
    # the memoized class lists give the same checks as a fresh enumeration
    _gamma.cache_clear()
    cold = verify_theorem2(6, 1, (0.5, 2.0))
    warm = verify_theorem2(6, 1, (0.5, 2.0))
    assert _gamma.cache_info().hits > 0
    assert cold.checks == warm.checks


def test_theorem2_builds_one_graph_per_sequence(monkeypatch):
    built = []
    original = oracle.extremal_graph

    def counted(pi, alpha, objective):
        result = original(pi, alpha, objective)
        built.append((pi, result.graph))
        return result

    monkeypatch.setattr(oracle, "extremal_graph", counted)
    alphas = (0.5, 2.0, -1.0)
    for c in (0, 1, 2):
        built.clear()
        rep = verify_theorem2(6, c, alphas)
        seqs = generate_c_cyclic_sequences(6, c, require_pendant=True)
        assert [pi for pi, _ in built] == seqs
        assert len(rep.checks) == len(alphas) * len(seqs)
        graphs = dict(built)
        for check in rep.checks:
            # the same fsum as a construction built for this alpha alone
            assert check.constructed_value == sombor_general(graphs[check.pi], check.alpha)
    built.clear()
    assert verify_theorem2(6, 1, ()).checks == () and built == []
    with pytest.raises(UnsupportedCyclomaticError):
        verify_theorem2(6, 3, alphas)


def test_theorem3_hand_case():
    rep = verify_theorem3(4, 0, (2.0,))
    assert rep.holds
    pair = [p for p in rep.pairs
            if p.lower.degrees == (2, 2, 1, 1) and p.upper.degrees == (3, 1, 1, 1)]
    assert len(pair) == 1
    assert pair[0].lower_max == 114.0 and pair[0].upper_max == 300.0
    with pytest.raises(AlphaNotAboveOneError):
        verify_theorem3(4, 0, (0.5,))


def test_theorem3_small_all_cases():
    for c in (0, 1, 2):
        for pendant in (False, True):
            rep = verify_theorem3(6, c, (1.5, 2.0), require_pendant=pendant)
            assert rep.holds, rep.to_record()["violations"]


def test_maxima_one_equals_max_over_classes():
    alphas = (1.5, 2.0, 3.0)
    for n in range(2, 9):
        for c in range(4):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                graphs = enumerate_gamma(pi)
                expected = [max(sombor_general(g, a) for g in graphs) for a in alphas]
                got = oracle._maxima_one((pi.degrees, alphas))
                assert [x.hex() for x in got] == [x.hex() for x in expected], pi


def test_theorem3_makes_no_canon_calls(monkeypatch):
    calls = []
    canon = _kernels.canon_bits

    def counted(n, edges):
        calls.append(n)
        return canon(n, edges)

    monkeypatch.setattr(_kernels, "canon_bits", counted)
    _gamma.cache_clear()
    oracle._jdms.cache_clear()
    for pendant in (False, True):
        rep = verify_theorem3(8, 2, (1.5, 2.0, 3.0), require_pendant=pendant)
        assert rep.holds and rep.pairs
    assert calls == []
    assert oracle._jdms.cache_info().currsize > 0
    # the matrix path keeps enumerate_gamma's input checks
    with pytest.raises(TooLargeError, match="n <= 16, got n = 17"):
        verify_theorem3(17, 0)
    with pytest.raises(NotGraphicalError):
        oracle._maxima_one(((3, 3, 1, 1), (2.0,)))


def test_too_small_n_is_a_validation_error():
    for call in (lambda: verify_theorem2(1, 0), lambda: verify_theorem3(1, 0),
                 lambda: verify_enumeration_cross_check(1, 0)):
        with pytest.raises(ValidationError, match="too small") as info:
            call()
        assert not isinstance(info.value, TooLargeError)


def test_existence_small():
    rep = verify_special_bfs_existence(parse_degree_sequence("3,3,3,2,1"), 2.0)
    assert rep.holds and rep.objective == "max"
    rep = verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 0.5)
    assert rep.holds and rep.objective == "min"
    with pytest.raises(UnsupportedObjectiveError):
        verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 0.5,
                                     Objective.MAX)
    # c = 3 at n = 8
    rep = verify_special_bfs_existence(parse_degree_sequence("4,3,3,3,2,2,2,1"), 2.0)
    assert rep.holds


def test_cross_check_small():
    for c in (0, 1, 2):
        rep = verify_enumeration_cross_check(6, c)
        assert rep.holds and rep.sequences_checked > 0


def test_cross_check_above_kernel_bound_is_too_large():
    with pytest.raises(TooLargeError):
        verify_enumeration_cross_check(17, 0)


def test_deadline_fires():
    deadline = Deadline(0.0)
    with pytest.raises(TimeBudgetExceededError):
        verify_theorem2(7, 1, (0.5,), deadline=deadline)


def test_load_caps():
    assert load_caps(" enum=8 ").enum == 8
    assert load_caps("").enum == ENUM_N_MAX
    for text in ("bogus=3", "canon=14", "enum=x", "enum="):
        with pytest.raises(CapsSyntaxError):
            load_caps(text)
