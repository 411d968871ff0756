"""Greedy tree, BFS-unicyclic, BFS-bicyclic constructions."""

import hashlib

import pytest

from somborlab import (
    DegreeSequence,
    Graph,
    Objective,
    degree_sequence_of,
    extremal_graph,
    is_connected,
    objective_for_alpha,
    parse_degree_sequence,
    reduced_graph,
)
from somborlab import _kernels, construct
from somborlab.bfs import witness_violation
from somborlab.errors import UnrealizableError, ValidationError
from somborlab.oracle import generate_c_cyclic_sequences


def spider(legs):
    """Tree with one center and pendant paths of the given lengths."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def test_greedy_tree_examples():
    assert extremal_graph(DegreeSequence((1, 1))).graph == Graph(2, [(0, 1)])
    r = extremal_graph(parse_degree_sequence("3,2,2,1,1,1"))
    assert r.graph.edges == ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5))
    assert r.ordering == (0, 1, 2, 3, 4, 5)
    assert r.layers == (0, 1, 1, 1, 2, 2)
    # pi2 greedy tree is the spider with four legs of length 3
    h1 = extremal_graph(parse_degree_sequence("4,2^8,1^4")).graph
    assert _kernels.canon_bits(h1.adjacency_masks) == \
        _kernels.canon_bits(spider([3, 3, 3, 3]).adjacency_masks)


def test_greedy_tree_rejections():
    with pytest.raises(UnrealizableError, match=r"^Erdos-Gallai fails at k=2: 6 > 4$"):
        extremal_graph(DegreeSequence((3, 3, 1, 1)))


def test_bfs_unicyclic_examples():
    r = extremal_graph(parse_degree_sequence("3,2,2,2,1"))
    assert set(r.graph.edges) == {(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)}
    assert r.layers == (0, 1, 1, 1, 2)
    with pytest.raises(ValidationError, match=r"^minimum degree is 2, need 1$"):
        extremal_graph(DegreeSequence((2, 2, 2)))


def test_bfs_unicyclic_pi1_regression():
    # locked edge list for pi1 = (5,4,3^3,2^10,1^8), built from the layered
    # procedure: triangle 0-1-2, N(0) = 1..5, then children in index order
    r = extremal_graph(parse_degree_sequence("5,4,3^3,2^10,1^8"))
    expected = {
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2),
        (1, 6), (1, 7), (2, 8), (3, 9), (3, 10), (4, 11), (4, 12),
        (5, 13), (6, 14), (7, 15), (8, 16), (9, 17), (10, 18),
        (11, 19), (12, 20), (13, 21), (14, 22),
    }
    assert set(r.graph.edges) == expected
    assert r.graph.m == 23
    assert r.layers == (0,) + (1,) * 5 + (2,) * 8 + (3,) * 8 + (4,)
    assert witness_violation(r.graph, r.ordering, require_triangle=True) is None


def test_bfs_bicyclic_case_i():
    r = extremal_graph(parse_degree_sequence("3,3,3,2,1"))
    assert set(r.graph.edges) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)}
    assert r.case == "i"
    core = reduced_graph(r.graph)
    assert degree_sequence_of(core).degrees == (3, 3, 2, 2)


def test_bfs_bicyclic_case_ii():
    r = extremal_graph(parse_degree_sequence("5,2,2,2,2,1"))
    assert set(r.graph.edges) == {
        (0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5)
    }
    assert r.case == "ii"
    # two paths over three spare vertices: lengths 2 and 1
    r = extremal_graph(parse_degree_sequence("6,2^5,1^2"))
    assert r.case == "ii"
    assert degree_sequence_of(r.graph).degrees == (6, 2, 2, 2, 2, 2, 1, 1)
    assert r.layers == (0, 1, 1, 1, 1, 1, 1, 2)


def test_bfs_bicyclic_case_dichotomy_exhaustive():
    for n in range(4, 9):
        for pi in generate_c_cyclic_sequences(n, 2, require_pendant=True):
            r = extremal_graph(pi)
            assert (r.case == "i") == (pi.degrees[1] >= 3)
            assert (r.case == "ii") == (pi.degrees[1] == 2)
            if r.case == "ii":
                assert pi.degrees[0] >= 5


def test_construction_contract_round_trip():
    # degree sequence, connectivity, edge count, and self-witness for every
    # pendant sequence at small n
    for c in (0, 1, 2):
        for n in range(2, 9):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                r = extremal_graph(pi)
                g = r.graph
                assert degree_sequence_of(g).degrees == pi.degrees
                assert is_connected(g)
                assert g.m == g.n + c - 1
                assert witness_violation(
                    g, r.ordering, require_triangle=(c >= 1)
                ) is None


def test_extremal_graph_dispatch_and_pairing():
    pi = parse_degree_sequence("3,2,2,1,1,1")
    assert extremal_graph(pi).klass == "tree"
    uni = parse_degree_sequence("3,2,2,2,1")
    assert extremal_graph(uni).klass == "unicyclic"
    bi = parse_degree_sequence("3,3,3,2,1")
    assert extremal_graph(bi).klass == "bicyclic"
    with pytest.raises(ValidationError,
                       match=r"^no canonical construction for c = 3; use the oracle$"):
        extremal_graph(parse_degree_sequence("3,3,3,3,3,2,1"))
    with pytest.raises(ValidationError, match=r"^minimum degree is 2, need 1$"):
        extremal_graph(DegreeSequence((2, 2, 2)))
    # the pairing is the alpha rule alone: which extremum the one graph attains
    assert objective_for_alpha(0.5) is Objective.MIN
    assert objective_for_alpha(2) is Objective.MAX
    assert objective_for_alpha(-1) is Objective.MAX
    with pytest.raises(ValidationError, match=r"^alpha = 1: all graphs in Gamma\(pi\) tie$"):
        objective_for_alpha(1)


@pytest.mark.parametrize("text", ["3,2,2,1,1,1", "3,3,2,1,1", "4,3,2,2,1"])
def test_extremal_graph_decides_realizability_once(text, monkeypatch):
    # extremal_graph validates pi once, and a rejected pi raises on every call
    validate = construct.validate_connected_c_cyclic
    calls = []

    def counted(pi):
        calls.append(pi)
        return validate(pi)

    monkeypatch.setattr(construct, "validate_connected_c_cyclic", counted)
    extremal_graph(parse_degree_sequence(text))
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(UnrealizableError, match=r"^Erdos-Gallai fails at k=2: 6 > 4$"):
            extremal_graph(DegreeSequence((3, 3, 1, 1)))
    assert len(calls) == 3


def test_extremal_graph_pinned():
    # every field of every construction over all 2,584 pendant c <= 2
    # sequences with n <= 16, hashed: a rewrite must build the same graphs
    digest = hashlib.sha256()
    counts = {}
    for c in (0, 1, 2):
        for n in range(2, 17):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                r = extremal_graph(pi)
                assert r.ordering == tuple(range(pi.n))
                digest.update(repr((pi.degrees, r.graph.edges, r.layers,
                                    r.klass, r.case)).encode())
                counts[r.case or r.klass] = counts.get(r.case or r.klass, 0) + 1
    assert counts == {"tree": 508, "unicyclic": 820, "i": 1190, "ii": 66}
    assert digest.hexdigest() == (
        "d7d180e89dac1b6e71e17a68b84228d70849cfdbff9ae4905cea78b6b6bd3014")


def test_extremal_graph_post_condition(monkeypatch):
    # a seed the fill cannot complete is a usage error, never an IndexError
    monkeypatch.setitem(construct._SEEDS, "tree", ((1, 2),))
    with pytest.raises(ValidationError, match=r"^the BFS fill placed 6 of 6 vertices with "):
        extremal_graph(parse_degree_sequence("3,2,2,1,1,1"))
    monkeypatch.setitem(construct._SEEDS, "unicyclic", ((1, 2), (1, 3)))
    with pytest.raises(ValidationError, match=r"^the BFS fill placed 5 of 5 vertices with "):
        extremal_graph(parse_degree_sequence("3,2,2,2,1"))
