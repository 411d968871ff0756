"""Kernel contract: exact canonical labeling, pinned class lists, twin pruning,
joint degree matrices, and the subset-filter cross-check enumerator."""

import hashlib
import itertools
import random
from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborlab import _kernels
from somborlab.indices import edge_pair_counts
from somborlab.oracle import enumerate_gamma, generate_c_cyclic_sequences


def test_backend_name():
    # run contexts of the benchmark record this name and compare it with the pin
    assert _kernels.BACKEND == "pure"


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return rng.sample(pairs, rng.randint(0, len(pairs)))


def test_canon_bits_invariant_under_relabeling_exhaustive_small():
    rng = random.Random(11)
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(30):
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            base = _kernels.canon_bits(n, edges)
            for perm in itertools.permutations(range(n)):
                relabeled = [(perm[u], perm[v]) for u, v in edges]
                assert _kernels.canon_bits(n, relabeled) == base


def test_canon_bits_invariant_n7_exhaustive_n8_sampled():
    rng = random.Random(5)
    n = 7
    edges = random_graph(rng, n)
    base = _kernels.canon_bits(n, edges)
    for perm in itertools.permutations(range(n)):
        assert _kernels.canon_bits(n, [(perm[u], perm[v]) for u, v in edges]) == base
    n = 8
    edges = random_graph(rng, n)
    base = _kernels.canon_bits(n, edges)
    perms = list(itertools.permutations(range(n)))
    for perm in rng.sample(perms, 500):
        assert _kernels.canon_bits(n, [(perm[u], perm[v]) for u, v in edges]) == base


def test_canon_separates_nonisomorphic_exhaustively_n5():
    # code classes must coincide with brute-force minimum-over-permutations classes
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    by_code = {}
    by_brute = {}
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            code = _kernels.canon_bits(n, edges)
            brute = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                for p in itertools.permutations(range(n))
            )
            by_code.setdefault(code, set()).add(edges)
            by_brute.setdefault(brute, set()).add(edges)
    assert sorted(by_code.values(), key=lambda s: sorted(s)) == sorted(
        by_brute.values(), key=lambda s: sorted(s)
    )


def test_bits_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 10)
        edges = sorted(random_graph(rng, n))
        bits = _kernels.canon_bits(n, edges)
        canon = _kernels.bits_to_edges(n, bits)
        assert _kernels.canon_bits(n, canon) == bits


def test_enumerate_classes_small_counts():
    assert len(_kernels.enumerate_classes((1, 1))) == 1
    assert len(_kernels.enumerate_classes((2, 2, 2))) == 1
    assert len(_kernels.enumerate_classes((2, 2, 2, 2))) == 1
    assert len(_kernels.enumerate_classes((3, 2, 2, 1, 1, 1))) == 2
    # odd sum and impossible degrees yield nothing
    assert _kernels.enumerate_classes((3, 2, 2)) == []
    assert _kernels.enumerate_classes((3, 1, 1)) == []


def test_enumerate_classes_pinned_n8():
    # digest of the class lists of the unpruned enumerator, n <= 8, c <= 3
    rows = [
        (pi.degrees, _kernels.enumerate_classes(pi.degrees))
        for n in range(2, 9)
        for c in range(4)
        for pi in generate_c_cyclic_sequences(n, c, require_pendant=False)
    ]
    assert len(rows) == 202
    assert sum(len(classes) for _, classes in rows) == 1138
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "09066fa13596ddc5265767c30f5714faf60df683de8fad39d8cb44a23ce1f641"
    )


def test_twin_pruning_canon_calls(monkeypatch):
    # 3,3,2^7: the unpruned search canonicalizes 40,320 connected leaves
    calls = []
    canon = _kernels.canon_bits

    def counted(n, edges):
        calls.append(n)
        return canon(n, edges)

    monkeypatch.setattr(_kernels, "canon_bits", counted)
    assert len(_kernels.enumerate_classes((3, 3, 2, 2, 2, 2, 2, 2, 2))) == 13
    assert len(calls) == 31


def _sequences(n_range, cs=range(4)):
    return [pi for n in n_range for c in cs
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False)]


def _jdms_of_classes(pi):
    return {tuple(edge_pair_counts(g)) for g in enumerate_gamma(pi)}


def test_joint_degree_matrices_match_classes_n9():
    seqs = _sequences(range(2, 10))
    assert len(seqs) == 337
    for pi in seqs:
        assert _kernels.joint_degree_matrices(pi.degrees) == _jdms_of_classes(pi), pi


def test_joint_degree_matrices_small():
    # P4 and the star realize one matrix each; the two trees of 3,2,2,1,1,1
    # (legs 2,2,1 or 3,1,1 at the centre) differ
    assert _kernels.joint_degree_matrices((2, 2, 1, 1)) == {(((2, 1), 2), ((2, 2), 1))}
    assert _kernels.joint_degree_matrices((3, 1, 1, 1)) == {(((3, 1), 3),)}
    assert len(_kernels.joint_degree_matrices((3, 2, 2, 1, 1, 1))) == 2
    assert _kernels.joint_degree_matrices((3, 2, 2)) == set()


def _invariant(h):
    # isomorphic graphs agree on it, so graphs in different buckets are not
    # isomorphic and only same-bucket pairs need networkx
    return tuple(sorted((h.degree(v), tuple(sorted(h.degree(w) for w in h[v])))
                        for v in h))


def test_class_representatives_pairwise_non_isomorphic_n8():
    # canon_bits must not split a class: no two representatives of a pi are
    # isomorphic by networkx's independent VF2 matcher
    checked = 0
    for pi in _sequences(range(2, 9)):
        buckets = defaultdict(list)
        for g in enumerate_gamma(pi):
            h = nx.Graph(list(g.edges))
            buckets[_invariant(h)].append(h)
        for hs in buckets.values():
            for a, b in itertools.combinations(hs, 2):
                assert not nx.is_isomorphic(a, b), pi
                checked += 1
    assert checked > 200


@st.composite
def _relabeled_graph(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return n, edges, [(perm[u], perm[v]) for u, v in edges]


@settings(max_examples=300, deadline=None, database=None)
@given(_relabeled_graph())
def test_canon_bits_invariant_under_random_relabeling(case):
    n, edges, relabeled = case
    assert _kernels.canon_bits(n, relabeled) == _kernels.canon_bits(n, edges)


@pytest.mark.slow
def test_class_table_and_joint_degree_matrices_n10():
    # OEIS A000055, A001429, A001435, A001436 at n = 10
    expected = {0: 106, 1: 657, 2: 2678, 3: 8548}
    for c, count in expected.items():
        total = 0
        for pi in _sequences((10,), (c,)):
            total += len(enumerate_gamma(pi))
            assert _kernels.joint_degree_matrices(pi.degrees) == _jdms_of_classes(pi), pi
        assert total == count, c


def _classes_by_sequence_unfiltered(n, m):
    out = {}
    for subset in itertools.combinations(itertools.combinations(range(n), 2), m):
        adj = [0] * n
        for u, v in subset:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        degs = [a.bit_count() for a in adj]
        if 0 in degs or not _kernels.connected_masks(n, adj):
            continue
        key = tuple(sorted(degs, reverse=True))
        out.setdefault(key, set()).add(_kernels.canon_bits(n, subset))
    return {k: frozenset(v) for k, v in out.items()}


def test_subset_filter_degree_order_keeps_every_class():
    # classes_by_sequence canonicalizes only subsets whose degrees are
    # non-increasing by label; brute force over every subset, c <= 3
    for n in range(2, 7):
        for m in range(n - 1, min(n + 2, n * (n - 1) // 2) + 1):
            assert _kernels.classes_by_sequence(n, m) == _classes_by_sequence_unfiltered(n, m)

