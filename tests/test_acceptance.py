"""Acceptance suite: one test per criterion, at the stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criteria 2, 3, 4, 7 and 8 are exhaustive sweeps over `_kernels`;
criteria 1, 5 and 6 never touch it and carry a wall-clock bound of 1 s.
"""

import itertools
import math
import time
from collections import Counter

import pytest

from somborlab import (
    BivariateFunction,
    DegreeSequence,
    Graph,
    GridSpec,
    check_escalating,
    check_good_escalating,
    enumerate_gamma,
    extremal_graph,
    format_graph6,
    generate_c_cyclic_sequences,
    parse_degree_sequence,
    parse_graph6,
    sombor_general,
    verify_special_bfs_existence,
    verify_theorem2,
    verify_theorem3,
    witness_violation,
)
from somborlab import _kernels

GRID = GridSpec(20)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


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


def test_criterion_1_h1_h2_equality():
    t0 = time.perf_counter()
    pi2 = parse_degree_sequence("4,2^8,1^4")
    h1 = spider([3, 3, 3, 3])      # the unique BFS-tree of Gamma(pi2)
    h2 = spider([2, 2, 4, 4])
    assert _kernels.canon_bits(extremal_graph(pi2).graph.adjacency_masks) == \
        _kernels.canon_bits(h1.adjacency_masks)
    for g in (h1, h2):
        assert g.n == 13
        assert sorted(g.degrees, reverse=True) == list(pi2.degrees)
    for alpha in (-2, -1, -0.5, 0.25, 0.5, 0.75, 1.5, 2, 3):
        a, b = sombor_general(h1, alpha), sombor_general(h2, alpha)
        assert math.isclose(a, b, rel_tol=1e-12), (alpha, a, b)
    assert _kernels.canon_bits(h1.adjacency_masks) != _kernels.canon_bits(h2.adjacency_masks)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"SO_alpha(H1) = SO_alpha(H2) over 9 alphas, codes differ "
               f"({elapsed:.2f}s)")


def test_criterion_2_theorem2_oracle_equivalence():
    t0 = time.time()
    alphas = (0.25, 0.5, 0.75, -1.0, -0.5, 1.5, 2.0, 3.0)
    sequences = 0
    checks = 0
    for c in (0, 1, 2):
        for n in range(2, 9):
            rep = verify_theorem2(n, c, alphas)
            assert rep.holds, rep.to_record()["violations"]
            sequences += len({ch.pi for ch in rep.checks})
            checks += len(rep.checks)
    _report(2, f"{sequences} pendant sequences (n <= 8, c in 0..2), "
               f"{checks} construction-vs-oracle checks at 1e-9 rel "
               f"({time.time() - t0:.1f}s)")


def test_criterion_3_theorem1_existence():
    t0 = time.time()
    checked = 0
    for c in (0, 1, 2, 3):
        for n in range(3, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                for alpha in (0.5, 2.0):
                    rep = verify_special_bfs_existence(pi, alpha)
                    assert rep.holds, rep.to_record()
                    checked += 1
    _report(3, f"special extremal BFS witness found for {checked} "
               f"(sequence, alpha) instances (n <= 7, c <= 3) "
               f"({time.time() - t0:.1f}s)")


def test_criterion_4_theorem3_monotonicity():
    t0 = time.time()
    pairs = 0
    for c in (0, 1, 2):
        for n in range(2, 9):
            rep = verify_theorem3(n, c, (1.5, 2.0, 3.0))
            assert rep.holds, rep.to_record()["violations"]
            pairs += len(rep.pairs)
    assert pairs > 0
    _report(4, f"strict oracle-max inequality on {pairs} majorization "
               f"pair-alpha instances (n <= 8, c in 0..2) "
               f"({time.time() - t0:.1f}s)")


def test_criterion_5_proposition1_grid():
    t0 = time.perf_counter()
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        rep = check_escalating(BivariateFunction.sombor(alpha), GRID)
        assert rep.verdict == "de-escalating" and not rep.counterexamples, alpha
    for alpha in (-3, -1, -0.1, 1.1, 2, 5):
        rep = check_escalating(BivariateFunction.sombor(alpha), GRID)
        assert rep.verdict == "escalating" and not rep.counterexamples, alpha
    rep = check_escalating(BivariateFunction.sombor(1), GRID)
    assert rep.max_abs_delta == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"grid B=20 certification for 12 alphas, exact zero at alpha=1 "
               f"({elapsed:.2f}s)")


def test_criterion_6_good_escalating():
    t0 = time.perf_counter()
    for alpha in (1.1, 1.5, 2, 3, 5):
        assert check_good_escalating(BivariateFunction.sombor(alpha), GRID).holds, alpha
    rep = check_good_escalating(BivariateFunction.sombor(0.5), GRID)
    assert not rep.holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"good-escalating certified for alpha > 1 samples, "
               f"refuted for 0.5 ({elapsed:.2f}s)")


def _corpus_n9():
    for c in (0, 1, 2, 3):
        for n in range(2, 10):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                yield from enumerate_gamma(pi)


def gamma_classes(n_max, c_max):
    """{degrees: canon_bits of Gamma(pi)} for every pi with n <= n_max, c <= c_max."""
    out = {}
    for c in range(c_max + 1):
        for n in range(2, n_max + 1):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                graphs = enumerate_gamma(pi)
                out[pi.degrees] = {_kernels.canon_bits(g.adjacency_masks) for g in graphs}
                assert len(out[pi.degrees]) == len(graphs), pi
    return out


def extension_classes(n_max, c_max):
    """The same map, built by vertex extension: each connected class on n - 1
    vertices gains a new vertex joined to each k of its vertices, for every
    k >= 1 that keeps c <= c_max, deduplicated by `canon_bits`.

    Every class is reached: a leaf of a spanning tree is not a cut vertex,
    and deleting it, of degree k, leaves a connected class with c - k + 1
    (B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998). Nothing but `canon_bits` is shared with the package.
    """
    out = {}
    level = [([0], 0)]                          # (masks, c) of the one class on 1 vertex
    for n in range(2, n_max + 1):
        grown = {}
        for adj, c in level:
            for k in range(1, min(n - 1, c_max - c + 1) + 1):
                for nbrs in itertools.combinations(range(n - 1), k):
                    new = adj + [sum(1 << u for u in nbrs)]
                    for u in nbrs:
                        new[u] |= 1 << (n - 1)
                    grown.setdefault(_kernels.canon_bits(new), (new, c + k - 1))
        for bits, (adj, _) in grown.items():
            out.setdefault(tuple(sorted(map(int.bit_count, adj), reverse=True)),
                           set()).add(bits)
        level = list(grown.values())
    return out


# Connected graphs by cyclomatic number c (rows) and order n = 2..9 (columns):
# OEIS A000055 (trees), A001429, A001435, A001436.
CLASSES = {
    0: (1, 1, 2, 3, 6, 11, 23, 47),
    1: (0, 1, 2, 5, 13, 33, 89, 240),
    2: (0, 0, 1, 5, 19, 67, 236, 797),
    3: (0, 0, 1, 4, 22, 107, 486, 2075),
}


def test_criterion_7_structural_identities():
    t0 = time.time()
    count = 0
    by_cell = Counter()
    for g in _corpus_n9():
        count += 1
        by_cell[g.n, g.m - g.n + 1] += 1
        assert math.isclose(
            sombor_general(g, 1.0), sum(d ** 3 for d in g.degrees), rel_tol=1e-12
        )
        assert parse_graph6(format_graph6(g)) == g
    expected = {(n, c): row[n - 2] for c, row in CLASSES.items()
                for n in range(2, 10) if row[n - 2]}
    assert dict(by_cell) == expected
    assert count == 4297
    # every class of every pi once, and no sequence that the generator misses
    assert gamma_classes(9, 3) == extension_classes(9, 3)
    _report(7, f"SO_1 identity + graph6 round trip on {count} graphs "
               f"(n <= 9, c <= 3); Gamma(pi) matches vertex extension "
               f"class set by class set "
               f"({time.time() - t0:.1f}s)")


@pytest.mark.slow
def test_gamma_matches_vertex_extension_n8_n10():
    # every c at n = 8 (11,117 classes, with Theorem 3's counterexamples at
    # c = 7 and 11), and c <= 3 at n = 10 (11,989 classes)
    for n_max, c_max, classes in ((8, 21, 11117), (10, 3, 11989)):
        got = gamma_classes(n_max, c_max)
        assert got == extension_classes(n_max, c_max)
        assert sum(len(v) for k, v in got.items() if len(k) == n_max) == classes


def test_criterion_8_constructor_self_certification():
    t0 = time.time()
    count = 0
    for c in (0, 1, 2):
        for n in range(2, 11):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                r = extremal_graph(pi)
                reason = witness_violation(r.graph, r.ordering,
                                           require_triangle=(c >= 1))
                assert reason is None, (pi, reason)
                count += 1
    elapsed = time.time() - t0
    _report(8, f"{count} constructions (n <= 10, c in 0..2) validated against "
               f"their own ordering ({elapsed:.1f}s)")
