"""Graph/degree-sequence model, realizability, reduction, formats."""

import itertools
import random

import pytest

from somborlab import (
    DegreeSequence,
    Graph,
    GridSpec,
    degree_sequence_of,
    format_degree_sequence,
    format_edge_list,
    format_graph6,
    is_connected,
    parse_degree_sequence,
    parse_edge_list,
    parse_graph6,
    reduced_graph,
    to_dot,
    validate_connected_c_cyclic,
)
from somborlab import _kernels
from somborlab.construct import extremal_graph
from somborlab.errors import (
    AcyclicError,
    DegreeTooLargeError,
    Graph6LengthError,
    GraphStructureError,
    MalformedHeaderError,
    NotGraphicalError,
    OddSumError,
    SequenceSyntaxError,
    TooSparseError,
    ValidationError,
)

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])
STAR4 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_graph_normalizes_and_validates():
    g = Graph(3, [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.degrees == (2, 1, 1)
    with pytest.raises(GraphStructureError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphStructureError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphStructureError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphStructureError):
        Graph(1, [])


def test_value_types_are_immutable():
    g = Graph(3, [(0, 1), (1, 2)])
    g.adjacency                          # cached properties still fill in
    with pytest.raises(AttributeError):
        g.edges = ()
    with pytest.raises(AttributeError):
        del g.n
    pi = DegreeSequence((2, 1, 1))
    with pytest.raises(AttributeError):
        pi.degrees = (1, 1)
    assert g == Graph(3, [(2, 1), (1, 0)]) and hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))
    assert g != P3.relabel((1, 0, 2)) and g != "Graph(n=3, m=2)"
    assert repr(g) == "Graph(n=3, m=2)" and repr(pi) == "DegreeSequence('2,1^2')"


def test_degree_sequence_equality_ignores_resorted():
    plain = DegreeSequence((3, 1, 1, 1))
    flagged = parse_degree_sequence("1,3,1,1")
    assert flagged.resorted and not plain.resorted
    assert flagged == plain and hash(flagged) == hash(plain)
    assert len({plain, flagged}) == 1


def test_degree_sequence_of():
    assert degree_sequence_of(K3).degrees == (2, 2, 2)
    assert degree_sequence_of(STAR4).degrees == (3, 1, 1, 1)


def test_degree_sequence_strictness():
    with pytest.raises(ValidationError):
        DegreeSequence((1, 2))
    assert DegreeSequence.of([1, 2]).degrees == (2, 1)
    with pytest.raises(ValidationError):
        DegreeSequence((2,))


@pytest.mark.parametrize("build,what", [
    (lambda: DegreeSequence((2.7, 1.2, 1.9)), "a degree"),    # used to become 2,1^2
    (lambda: DegreeSequence(["3", "1", "1", "1"]), "a degree"),
    (lambda: Graph(3.5, [(0, 1), (1, 2)]), "n"),
    (lambda: GridSpec(20.5), "grid bound"),
])
def test_value_objects_reject_non_integers(build, what):
    with pytest.raises(ValidationError, match=f"^{what} must be an integer, got "):
        build()


def test_is_connected():
    assert is_connected(K3)
    assert is_connected(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_validate_connected_c_cyclic():
    assert validate_connected_c_cyclic(DegreeSequence((2, 2, 2))) == 1
    assert validate_connected_c_cyclic(parse_degree_sequence("5,4,3^3,2^10,1^8")) == 1
    with pytest.raises(NotGraphicalError):
        validate_connected_c_cyclic(DegreeSequence((3, 3, 1, 1)))
    with pytest.raises(OddSumError):
        validate_connected_c_cyclic(DegreeSequence((2, 1, 1, 1)))
    with pytest.raises(DegreeTooLargeError):
        validate_connected_c_cyclic(DegreeSequence((4, 2, 1, 1)))
    with pytest.raises(TooSparseError):
        validate_connected_c_cyclic(DegreeSequence((1, 1, 1, 1)))


def _textbook_connected_c(degs):
    # the checks in their textbook form: each Erdos-Gallai tail summed anew
    n, total = len(degs), sum(degs)
    if total % 2:
        raise OddSumError(f"degree sum {total} is odd")
    if degs[0] > n - 1:
        raise DegreeTooLargeError(f"d1 = {degs[0]} exceeds n-1 = {n - 1}")
    if total < 2 * (n - 1):
        raise TooSparseError(f"degree sum {total} below 2(n-1) = {2 * (n - 1)}")
    for k in range(1, n + 1):
        lhs = sum(degs[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in degs[k:])
        if lhs > rhs:
            raise NotGraphicalError(f"Erdos-Gallai fails at k={k}: {lhs} > {rhs}")
    return total // 2 - n + 1


def _outcome(check, degs):
    try:
        return check(degs)
    except ValidationError as exc:
        return type(exc), str(exc)


def test_validate_connected_c_cyclic_matches_textbook_scan():
    # every non-increasing sequence with n <= 9 and parts 1..n+1: the same c,
    # or the same error and message, at the same first failing k
    count = 0
    for n in range(2, 10):
        for degs in itertools.combinations_with_replacement(range(n + 1, 0, -1), n):
            got = _outcome(lambda d: validate_connected_c_cyclic(DegreeSequence(d)), degs)
            assert got == _outcome(_textbook_connected_c, degs), degs
            count += 1
    assert count == 66194


def test_brute_force_confirms_3311_not_graphical():
    # independent oracle for the NotGraphical example: no 4-vertex simple graph
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    found = False
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            degs = [0] * 4
            for u, v in edges:
                degs[u] += 1
                degs[v] += 1
            if sorted(degs, reverse=True) == [3, 3, 1, 1]:
                found = True
    assert not found


def test_reduced_graph():
    tri_pendant = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert reduced_graph(tri_pendant) == K3
    assert reduced_graph(K3) == K3
    bm = extremal_graph(parse_degree_sequence("3,3,3,2,1")).graph
    k4_minus_e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert _kernels.canon_bits(reduced_graph(bm).adjacency_masks) == \
        _kernels.canon_bits(k4_minus_e.adjacency_masks)
    with pytest.raises(AcyclicError):
        reduced_graph(P3)


def test_reduced_graph_idempotent_and_c_preserving():
    rng = random.Random(2)
    from somborlab import enumerate_gamma, generate_c_cyclic_sequences

    for c in (1, 2):
        for n in range(3, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                for g in enumerate_gamma(pi):
                    r = reduced_graph(g)
                    assert reduced_graph(r) == r
                    assert r.m - r.n + 1 == c
                    assert min(r.degrees) >= 2


def test_canonical_code_detects_isomorphism():
    relabeled = P3.relabel([2, 0, 1])
    assert _kernels.canon_bits(P3.adjacency_masks) == \
        _kernels.canon_bits(relabeled.adjacency_masks)
    assert _kernels.canon_bits(K3.adjacency_masks) != _kernels.canon_bits(P3.adjacency_masks)


def test_canonical_labeling_capped_at_kernel_bound():
    # the kernel labels up to 16 vertices; test_kernels checks the bound
    p16 = Graph(16, [(i, i + 1) for i in range(15)])
    bits = _kernels.canon_bits(p16.adjacency_masks)
    assert degree_sequence_of(Graph(16, _kernels.bits_to_edges(16, bits))) == \
        degree_sequence_of(p16)


def test_canonical_code_permutation_invariance():
    rng = random.Random(9)
    for n in (6, 7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, n + 1)
        g = Graph(n, edges)
        base = _kernels.canon_bits(g.adjacency_masks)
        perms = list(itertools.permutations(range(n)))
        chosen = perms if n <= 6 else rng.sample(perms, 800)
        for perm in chosen:
            assert _kernels.canon_bits(g.relabel(perm).adjacency_masks) == base


def test_graph6_k3_and_roundtrip():
    assert format_graph6(K3) == "Bw"
    assert parse_graph6("Bw") == K3
    assert parse_graph6(">>graph6<<Bw") == K3
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert parse_graph6(format_graph6(g)) == g


def test_graph6_large_n_header():
    n = 80
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    s = format_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_errors():
    with pytest.raises(MalformedHeaderError):
        parse_graph6("")
    with pytest.raises(MalformedHeaderError):
        parse_graph6("B!")
    with pytest.raises(Graph6LengthError):
        parse_graph6("B")           # missing data byte
    with pytest.raises(Graph6LengthError):
        parse_graph6("Bww")         # trailing junk
    with pytest.raises(Graph6LengthError):
        parse_graph6("Bx")          # nonzero padding bits
    with pytest.raises(MalformedHeaderError):
        parse_graph6("@")           # n = 1 rejected everywhere


def test_edge_list_roundtrip_and_errors():
    text = format_edge_list(STAR4)
    assert text == "0 1\n0 2\n0 3\n"
    assert parse_edge_list(text) == STAR4
    with pytest.raises(ValidationError):
        parse_edge_list("")
    with pytest.raises(ValidationError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValidationError):
        parse_edge_list("a b\n")


def test_dot_export_is_stable():
    assert to_dot(P3) == "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"


def test_parse_degree_sequence():
    pi = parse_degree_sequence("5,4,3^3,2^10,1^8")
    assert pi.n == 23 and pi.c == 1 and not pi.resorted
    assert pi.degrees[:5] == (5, 4, 3, 3, 3)
    assert parse_degree_sequence("2,2,2").degrees == (2, 2, 2)
    pi2 = parse_degree_sequence("4,2^8,1^4")
    assert pi2.n == 13
    resorted = parse_degree_sequence("1,3,2")
    assert resorted.degrees == (3, 2, 1) and resorted.resorted
    with pytest.raises(SequenceSyntaxError):
        parse_degree_sequence("")
    with pytest.raises(SequenceSyntaxError):
        parse_degree_sequence("3,^2")
    with pytest.raises(SequenceSyntaxError):
        parse_degree_sequence("3,2^0")
    with pytest.raises(ValidationError):
        parse_degree_sequence("0,1")


def test_format_degree_sequence_roundtrip():
    for text in ["5,4,3^3,2^10,1^8", "2,2,2", "4,2^8,1^4", "1,1"]:
        pi = parse_degree_sequence(text)
        assert parse_degree_sequence(format_degree_sequence(pi)) == pi
