"""Kernel contract: exact canonical labeling, pinned class lists, twin pruning
and joint degree matrices."""

import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborlab import Graph, _kernels, oracle, sombor
from somborlab.oracle import enumerate_gamma, generate_c_cyclic_sequences


def test_backend_name():
    # run contexts of the benchmark record this name and compare it with the pin
    assert _kernels.BACKEND == "pure"


def canon(n, edges):
    """canon_bits of the graph with these edges on 0..n-1."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _kernels.canon_bits(adj)


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return rng.sample(pairs, rng.randint(0, len(pairs)))


def test_canon_bits_invariant_under_relabeling_exhaustive_small():
    rng = random.Random(11)
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(30):
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            base = canon(n, edges)
            for perm in itertools.permutations(range(n)):
                relabeled = [(perm[u], perm[v]) for u, v in edges]
                assert canon(n, relabeled) == base


def test_canon_bits_invariant_n7_exhaustive_n8_sampled():
    rng = random.Random(5)
    n = 7
    edges = random_graph(rng, n)
    base = canon(n, edges)
    for perm in itertools.permutations(range(n)):
        assert canon(n, [(perm[u], perm[v]) for u, v in edges]) == base
    n = 8
    edges = random_graph(rng, n)
    base = canon(n, edges)
    perms = list(itertools.permutations(range(n)))
    for perm in rng.sample(perms, 500):
        assert canon(n, [(perm[u], perm[v]) for u, v in edges]) == base


def test_canon_separates_nonisomorphic_exhaustively_n5():
    # code classes must coincide with brute-force minimum-over-permutations classes
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    by_code = {}
    by_brute = {}
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            code = canon(n, edges)
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
        bits = canon(n, edges)
        assert canon(n, _kernels.bits_to_edges(n, bits)) == bits


def test_kernel_bound():
    for n in (0, 17):
        with pytest.raises(ValueError, match="1 <= n <= 16"):
            _kernels.canon_bits([0] * n)
    with pytest.raises(ValueError, match="1 <= n <= 16, got 17"):
        _kernels.enumerate_classes((2,) * 17)


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


def test_twin_and_pair_pruning_canon_calls(monkeypatch):
    # 3,3,2^7: the unpruned search canonicalizes 40,320 connected leaves,
    # twin pruning alone 31, and twin and pair pruning together 18
    calls = []
    canon_bits = _kernels.canon_bits

    def counted(adj):
        calls.append(len(adj))
        return canon_bits(adj)

    monkeypatch.setattr(_kernels, "canon_bits", counted)
    assert len(_kernels.enumerate_classes((3, 3, 2, 2, 2, 2, 2, 2, 2))) == 13
    assert len(calls) == 18


def _sequences(n_range, cs=range(4)):
    return [pi for n in n_range for c in cs
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False)]


def _literal_jdm(g):
    """The JDM key read the plain way, independently of `sombor.jdm_key`: a
    Counter of (max, min) end degrees over the edge list."""
    deg = Counter(v for edge in g.edges for v in edge)
    return tuple(sorted(Counter((max(deg[u], deg[v]), min(deg[u], deg[v]))
                                for u, v in g.edges).items()))


def _jdms_of_classes(pi):
    return {_literal_jdm(g) for g in enumerate_gamma(pi)}


def test_layer_key_matches_literal_reader_n8():
    # every class with n <= 8 and c <= 3: the key a Graph reads, and the one
    # the oracle's record files the class under
    seqs = _sequences(range(2, 9))
    classes = 0
    for pi in seqs:
        record = oracle._gamma(pi.degrees)
        labeled = record.labeled()
        for bits, key in labeled:
            g = record.graph(bits)
            assert key == sombor.edge_pair_counts(g) == _literal_jdm(g), (pi, g.edges)
        assert len(labeled) == record.size
        classes += record.size
    assert classes == 1138


@st.composite
def _connected_relabeled(draw, n_max=12):
    # a random tree (vertex v joins an earlier vertex), extra edges, and a
    # random relabeling, so degrees are in no particular order
    n = draw(st.integers(2, n_max))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=200, deadline=None, database=None)
@given(_connected_relabeled())
def test_layer_matches_literal_reader_and_fsum(g):
    key = _literal_jdm(g)
    assert sombor.edge_pair_counts(g) == key
    for a in (-3.0, -0.5, 0.25, 0.5, 2.0, 3.0):
        literal = math.fsum(cnt * (x * x + y * y) ** a for (x, y), cnt in key)
        assert sombor.sombor_general(g, a).hex() == literal.hex(), a


def test_oracle_evaluates_through_the_layer():
    # the benchmark traces the evaluator under this name
    assert oracle._values_for_alphas is sombor.values


def test_joint_degree_matrices_match_classes_n9():
    seqs = _sequences(range(2, 10))
    assert len(seqs) == 337
    for pi in seqs:
        # the oracle's grouping: the classes' keys, each leaf filed under its own
        groups = _kernels.leaves_by_jdm(pi.degrees)
        assert set(groups) == _jdms_of_classes(pi), pi
        assert [adj for leaves in groups.values() for adj in leaves] == \
            sorted(_kernels._realizations(pi.degrees), key=lambda adj: list(groups).index(
                sombor.jdm_key(pi.degrees, adj)))


def test_joint_degree_matrices_small():
    # P4 and the star realize one matrix each; the two trees of 3,2,2,1,1,1
    # (legs 2,2,1 or 3,1,1 at the centre) differ
    assert set(_kernels.leaves_by_jdm((2, 2, 1, 1))) == {(((2, 1), 2), ((2, 2), 1))}
    assert set(_kernels.leaves_by_jdm((3, 1, 1, 1))) == {(((3, 1), 3),)}
    assert len(set(_kernels.leaves_by_jdm((3, 2, 2, 1, 1, 1)))) == 2
    assert set(_kernels.leaves_by_jdm((3, 2, 2))) == set()


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
    assert canon(n, relabeled) == canon(n, edges)


def _complete_multipartite(parts):
    label = [k for k, size in enumerate(parts) for _ in range(size)]
    n = len(label)
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if label[i] != label[j]]


def _circulant(n, jumps):
    return n, sorted({(min(i, (i + s) % n), max(i, (i + s) % n))
                      for i in range(n) for s in jumps})


def _twin_cell_families():
    # complete graphs (one cell of closed twins), complete multipartite
    # graphs, stars K_{1,n-1} among them (cells of open twins), and twin-free
    # symmetric graphs: cycles, circulants and the Petersen graph
    out = []
    for n in range(2, 13):
        out.append((n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
        if n >= 3:
            out.append(_circulant(n, (1,)))
        out += [_complete_multipartite((a, n - a)) for a in range(1, n // 2 + 1)]
    out += [_complete_multipartite(p) for p in
            ((2, 2, 2), (3, 3, 3), (1, 2, 3), (2, 2, 2, 2), (3, 3, 3, 3), (1, 1, 2, 4))]
    out += [_circulant(n, j) for n, j in
            ((8, (1, 2)), (9, (1, 3)), (10, (1, 4)), (11, (1, 2)), (12, (1, 5)), (12, (2, 3)))]
    petersen = ([(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)])
    out.append((10, petersen))
    return out


def _canon_corpus():
    rng = random.Random(2211)
    graphs = []
    for _ in range(500):
        n = rng.randint(1, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        density = rng.random()
        graphs.append((n, [p for p in pairs if rng.random() < density]))
    return graphs + _twin_cell_families()


def test_canon_bits_pinned():
    # the codes themselves, not only the class lists they induce
    corpus = _canon_corpus()
    assert len(corpus) == 570
    codes = [canon(n, edges) for n, edges in corpus]
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == (
        "eedd96c7c388f607ef9c959533849dd95994403d828c1515148bd1647daf0bed"
    )


def test_canon_bits_invariant_on_twin_cell_families():
    rng = random.Random(7)
    for n, edges in _twin_cell_families():
        base = canon(n, edges)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon(n, [(perm[u], perm[v]) for u, v in edges]) == base


@pytest.mark.parametrize("n_range,leaves", [
    (range(2, 10), 5311),
    pytest.param((10,), 15566, marks=pytest.mark.slow),
])
def test_walker_leaves(n_range, leaves):
    # labeled leaves over every sequence with c <= 3: the walker's work,
    # which no change that keeps the leaves may move
    assert sum(1 for pi in _sequences(n_range)
               for _ in _kernels._realizations(pi.degrees)) == leaves


@pytest.mark.slow
def test_class_table_and_joint_degree_matrices_n10():
    # OEIS A000055, A001429, A001435, A001436 at n = 10
    expected = {0: 106, 1: 657, 2: 2678, 3: 8548}
    for c, count in expected.items():
        total = 0
        for pi in _sequences((10,), (c,)):
            total += len(enumerate_gamma(pi))
            assert set(_kernels.leaves_by_jdm(pi.degrees)) == _jdms_of_classes(pi), pi
        assert total == count, c


def _lex_key(adj):
    """The walk's variables as one integer: rows in order, columns ascending,
    the first variable most significant, so integer order is lex order."""
    n = len(adj)
    key = 0
    for i in range(n):
        for j in range(i + 1, n):
            key = key << 1 | (adj[i] >> j & 1)
    return key


@settings(max_examples=200, deadline=None, database=None)
@given(_connected_relabeled(n_max=7))
def test_walker_yields_lex_greatest_labeling(g):
    # brute force over every permutation within the degree blocks: the
    # lex-greatest labeling of the class passes both pruning rules
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    degrees = tuple(g.degree(v) for v in order)
    pos = {v: i for i, v in enumerate(order)}
    edges = [(pos[u], pos[v]) for u, v in g.edges]
    blocks = [[i for i, d in enumerate(degrees) if d == k]
              for k in sorted(set(degrees), reverse=True)]

    def relabeled(perms):
        label = [x for p in perms for x in p]
        adj = [0] * g.n
        for u, v in edges:
            adj[label[u]] |= 1 << label[v]
            adj[label[v]] |= 1 << label[u]
        return tuple(adj)

    best = max((relabeled(perms) for perms in
                itertools.product(*(itertools.permutations(b) for b in blocks))),
               key=_lex_key)
    assert best in set(_kernels._realizations(degrees))


def test_walker_leaves_obey_pair_rule_n8():
    # at each adjacent equal-degree pair, the neighbourhoods (the pair
    # itself aside) first differ at a neighbour of the lower vertex
    leaves = 0
    for pi in _sequences(range(2, 9)):
        d = pi.degrees
        for adj in _kernels._realizations(d):
            leaves += 1
            for v in range(1, len(d)):
                diff = (adj[v - 1] ^ adj[v]) & ~(3 << (v - 1))
                if d[v - 1] == d[v] and diff:
                    assert diff & -diff & adj[v - 1], (d, adj, v)
    assert leaves == 1335


@pytest.mark.slow
def test_class_table_n11():
    # OEIS A000055, A001429, A001435, A001436 at n = 11
    expected = {0: 235, 1: 1806, 2: 8833, 3: 33851}
    counts = {c: sum(len(_kernels.enumerate_classes(pi.degrees))
                     for pi in _sequences((11,), (c,)))
              for c in expected}
    assert counts == expected
    assert sum(counts.values()) == 44725


@pytest.mark.slow
def test_class_table_n12():
    # OEIS A000055, A001429, A001435, A001436 at n = 12
    expected = {0: 551, 1: 5026, 2: 28908, 3: 130365}
    counts = {c: sum(len(_kernels.enumerate_classes(pi.degrees))
                     for pi in _sequences((12,), (c,)))
              for c in expected}
    assert counts == expected
