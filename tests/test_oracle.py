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
from somborlab.errors import (
    AlphaNotAboveOneError,
    LengthMismatchError,
    NotGraphicalError,
    TimeBudgetExceededError,
    TooLargeError,
    UnsupportedCError,
    UnsupportedObjectiveError,
)
from somborlab.oracle import Deadline, _gamma, load_caps


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
    with pytest.raises(TooLargeError):
        generate_c_cyclic_sequences(11, 0, require_pendant=False)
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


def test_existence_small():
    rep = verify_special_bfs_existence(parse_degree_sequence("3,3,3,2,1"), 2.0)
    assert rep.holds and rep.objective == "max"
    rep = verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 0.5)
    assert rep.holds and rep.objective == "min"
    with pytest.raises(UnsupportedObjectiveError):
        verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 0.5,
                                     Objective.MAX)
    # c = 3 capped at n <= 7
    with pytest.raises(TooLargeError):
        verify_special_bfs_existence(parse_degree_sequence("4,3,3,3,2,2,2,1"), 2.0)


def test_cross_check_small():
    for c in (0, 1, 2):
        rep = verify_enumeration_cross_check(6, c)
        assert rep.holds and rep.sequences_checked > 0


def test_deadline_fires():
    deadline = Deadline(0.0)
    with pytest.raises(TimeBudgetExceededError):
        verify_theorem2(7, 1, (0.5,), deadline=deadline)


def test_load_caps():
    caps = load_caps("enum=10, canon=14")
    assert caps.enum == 10 and caps.canon == 14 and caps.recognizer == 12
    with pytest.raises(ValueError):
        load_caps("bogus=3")
