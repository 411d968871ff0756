"""BFS-graph recognition: direct validator, search, brute-force completeness."""

import itertools
import random

import pytest

from somborlab import (
    Graph,
    enumerate_gamma,
    extremal_graph,
    generate_c_cyclic_sequences,
    is_bfs_graph,
    is_special_extremal_bfs,
    parse_degree_sequence,
    witness_violation,
)
from somborlab import _kernels
from somborlab.errors import ValidationError


def spider(legs):
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def brute_force_witness(g, require_triangle=False):
    """Independent oracle: scan all n! orderings with the literal validator."""
    for perm in itertools.permutations(range(g.n)):
        if witness_violation(g, perm, require_triangle=require_triangle) is None:
            return perm
    return None


def test_validator_rejects_bad_orderings():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert witness_violation(p4, (0, 1, 2, 3)) is not None       # leaf root
    assert witness_violation(p4, (1, 2, 0, 3)) is None           # internal root
    assert witness_violation(p4, (2, 1, 3, 0)) is None
    assert "permutation" in witness_violation(p4, (0, 0, 1, 2))


def test_paths_have_witnesses_rooted_at_center():
    for n in range(2, 9):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        w = is_bfs_graph(g)
        assert w is not None
        root = w.ordering[0]
        # the root must be a maximum-degree vertex; for paths, an inner vertex
        assert g.degree(root) == max(g.degrees)


def test_h1_is_bfs_h2_is_not():
    h1 = spider([3, 3, 3, 3])
    h2 = spider([2, 2, 4, 4])
    assert is_bfs_graph(h1) is not None
    assert is_bfs_graph(h2) is None


def test_recognizer_requires_connected():
    with pytest.raises(ValidationError, match=r"^BFS-graph recognition needs a connected graph$"):
        is_bfs_graph(Graph(4, [(0, 1), (2, 3)]))


def test_special_needs_pendant_and_triangle():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValidationError,
                       match=r"^special extremal BFS-graphs need a pendant vertex$"):
        is_special_extremal_bfs(k3)
    um = extremal_graph(parse_degree_sequence("3,2,2,2,1"))
    assert is_special_extremal_bfs(um.graph) is not None
    bm = extremal_graph(parse_degree_sequence("3,3,3,2,1"))
    assert is_special_extremal_bfs(bm.graph) is not None


def test_special_absent_when_top_degrees_cannot_form_triangle():
    # C4 with a pendant path of length 2: the unique max-degree vertex is on the
    # cycle, but its two largest-degree companions are not mutually adjacent
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    assert is_special_extremal_bfs(g) is None
    assert brute_force_witness(g, require_triangle=True) is None


def test_constructions_pass_their_own_ordering():
    for c in (0, 1, 2):
        for n in range(2, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                r = extremal_graph(pi)
                assert witness_violation(r.graph, r.ordering,
                                         require_triangle=(c >= 1)) is None
                found = is_special_extremal_bfs(r.graph) if c else is_bfs_graph(r.graph)
                assert found is not None


def test_greedy_tree_is_unique_bfs_tree():
    # every BFS-tree the recognizer accepts is isomorphic to the greedy tree,
    # and every special BFS-unicyclic graph to the BFS-unicyclic graph
    for n in range(2, 9):
        for pi in generate_c_cyclic_sequences(n, 0, require_pendant=True):
            target = _kernels.canon_bits(extremal_graph(pi).graph.adjacency_masks)
            hits = [
                g for g in enumerate_gamma(pi) if is_bfs_graph(g) is not None
            ]
            assert hits, pi
            assert all(_kernels.canon_bits(g.adjacency_masks) == target for g in hits)
    accepted = {}
    for c in (1, 2):
        for n in range(3, 10):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                accepted[c, pi] = {
                    _kernels.canon_bits(g.adjacency_masks) for g in enumerate_gamma(pi)
                    if is_special_extremal_bfs(g) is not None
                }
                assert _kernels.canon_bits(extremal_graph(pi).graph.adjacency_masks) \
                    in accepted[c, pi]
    unicyclic = [codes for (c, _), codes in accepted.items() if c == 1]
    assert len(unicyclic) == 60
    assert all(len(codes) == 1 for codes in unicyclic)
    # for c = 2 the recognizer accepts more than the construction's class
    bicyclic = [codes for (c, _), codes in accepted.items() if c == 2]
    assert len(bicyclic) == 80
    assert sum(len(codes) > 1 for codes in bicyclic) == 47


def test_search_matches_brute_force_small():
    # completeness: exhaustive n <= 6, seeded sample at n = 7
    rng = random.Random(13)
    cases = []
    for c in (0, 1, 2):
        for n in range(3, 7):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                cases.extend(enumerate_gamma(pi))
    sample7 = []
    for c in (0, 1, 2):
        for pi in generate_c_cyclic_sequences(7, c, require_pendant=False):
            sample7.extend(enumerate_gamma(pi))
    cases.extend(rng.sample(sample7, 25))
    assert len(cases) > 80
    for g in cases:
        for triangle in (False, True):
            if triangle and (g.n < 3 or min(g.degrees) != 1):
                continue
            got = is_special_extremal_bfs(g) if triangle else is_bfs_graph(g)
            brute = brute_force_witness(g, require_triangle=triangle and
                                        (g.m - g.n + 1) >= 1)
            assert (got is not None) == (brute is not None), (g.edges, triangle)
            if got is not None:
                assert witness_violation(
                    g, got.ordering,
                    require_triangle=triangle and (g.m - g.n + 1) >= 1) is None
