"""Kernel contract: exact canonical labeling, pinned class lists, and results
that agree with the compiled kernel when it is built."""

import hashlib
import itertools
import random

import pytest

from somborlab._kernels import _pure
from somborlab.oracle import generate_c_cyclic_sequences

try:
    from somborlab._kernels import _core
except ImportError:
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled kernel not built")


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return rng.sample(pairs, rng.randint(0, len(pairs)))


def test_canon_bits_invariant_under_relabeling_exhaustive_small():
    rng = random.Random(11)
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(30):
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            base = _pure.canon_bits(n, edges)
            for perm in itertools.permutations(range(n)):
                relabeled = [(perm[u], perm[v]) for u, v in edges]
                assert _pure.canon_bits(n, relabeled) == base


def test_canon_bits_invariant_n7_exhaustive_n8_sampled():
    rng = random.Random(5)
    n = 7
    edges = random_graph(rng, n)
    base = _pure.canon_bits(n, edges)
    for perm in itertools.permutations(range(n)):
        assert _pure.canon_bits(n, [(perm[u], perm[v]) for u, v in edges]) == base
    n = 8
    edges = random_graph(rng, n)
    base = _pure.canon_bits(n, edges)
    perms = list(itertools.permutations(range(n)))
    for perm in rng.sample(perms, 500):
        assert _pure.canon_bits(n, [(perm[u], perm[v]) for u, v in edges]) == base


def test_canon_separates_nonisomorphic_exhaustively_n5():
    # code classes must coincide with brute-force minimum-over-permutations classes
    n = 5
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    by_code = {}
    by_brute = {}
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            code = _pure.canon_bits(n, edges)
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
        bits = _pure.canon_bits(n, edges)
        canon = _pure.bits_to_edges(n, bits)
        assert _pure.canon_bits(n, canon) == bits


def test_enumerate_classes_small_counts():
    assert len(_pure.enumerate_classes((1, 1))) == 1
    assert len(_pure.enumerate_classes((2, 2, 2))) == 1
    assert len(_pure.enumerate_classes((2, 2, 2, 2))) == 1
    assert len(_pure.enumerate_classes((3, 2, 2, 1, 1, 1))) == 2
    # odd sum and impossible degrees yield nothing
    assert _pure.enumerate_classes((3, 2, 2)) == []
    assert _pure.enumerate_classes((3, 1, 1)) == []


def test_enumerate_classes_pinned_n8():
    # digest of the class lists of the unpruned enumerator, n <= 8, c <= 3
    rows = [
        (pi.degrees, _pure.enumerate_classes(pi.degrees))
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
    canon = _pure.canon_bits

    def counted(n, edges):
        calls.append(n)
        return canon(n, edges)

    monkeypatch.setattr(_pure, "canon_bits", counted)
    assert len(_pure.enumerate_classes((3, 3, 2, 2, 2, 2, 2, 2, 2))) == 13
    assert len(calls) == 31


@needs_core
def test_backends_agree_on_random_graphs():
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randint(2, 9)
        edges = random_graph(rng, n)
        assert _pure.canon_bits(n, edges) == _core.canon_bits(n, edges)
        assert _pure.canon_edges(n, edges) == _core.canon_edges(n, edges)


@needs_core
def test_backends_agree_on_enumeration():
    for degs in [
        (1, 1),
        (2, 2, 2),
        (2, 2, 1, 1),
        (3, 2, 2, 2, 1),
        (3, 3, 3, 2, 1),
        (4, 2, 2, 2, 2, 1, 1),
        (3, 3, 2, 2, 2, 2, 2, 2),
        (4, 3, 3, 2, 2, 1, 1, 1, 1),
    ]:
        assert _pure.enumerate_classes(degs) == _core.enumerate_classes(degs)


@needs_core
def test_backends_agree_on_subset_filter():
    for n, m in [(4, 3), (4, 4), (5, 5), (5, 6), (6, 6), (6, 7)]:
        assert _pure.classes_by_sequence(n, m) == _core.classes_by_sequence(n, m)
