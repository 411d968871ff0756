"""Pure-Python compute kernels: canonical labeling and degree-sequence enumeration.

This module is the reference implementation. `_core.pyx` is an older Cython
port: its `canon_bits` and `classes_by_sequence` follow this code, but its
`enumerate_classes` has no twin pruning, so the two backends agree on class
lists, not on the search they run (tests/test_kernels.py). Graphs live here
as adjacency bitmasks over at most 16 vertices, which covers every desk-scale
cap in the library.

Canonical labeling is the classic refinement/individualization scheme: compute
the equitable ordered partition, branch on every vertex of the first
non-singleton cell, and take the minimum packed adjacency bitstring over all
discrete leaves. Without automorphism pruning this is exponential in theory but
runs in microseconds at this scale, and, unlike a pure degree partition, stays
exact on regular graphs.
"""

from __future__ import annotations

from itertools import combinations

BACKEND = "pure"

MAX_VERTICES = 16


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _refine(adj: list[int], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Each pass recomputes every vertex's signature (neighbour count per current
    cell, packed in 4-bit nibbles) against the cells at the start of the pass;
    split cells are ordered by ascending signature. Loops until stable. Both
    the signature packing and the ascending order are part of the cross-backend
    contract.
    """
    while True:
        masks = [0] * len(cells)
        for k, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[k] = m
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                a = adj[v]
                sig = 0
                for k, m in enumerate(masks):
                    sig |= (a & m).bit_count() << (4 * k)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        cells = out
        if not changed:
            return cells


def _pack_bits(n: int, adj: list[int], order: list[int]) -> int:
    # graph6 column order: pair (i,j), i<j, of the *relabeled* graph; first
    # pair lands in the most significant position so integer order equals
    # lexicographic bitstring order.
    bits = 0
    for j in range(1, n):
        vj = order[j]
        for i in range(j):
            bits = (bits << 1) | ((adj[order[i]] >> vj) & 1)
    return bits


def canon_bits(n: int, edges) -> int:
    """Packed upper-triangle bitstring of the canonical labeling (iso-invariant)."""
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 1 <= n <= {MAX_VERTICES}, got {n}")
    adj = _adjacency(n, edges)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    best: int | None = None

    def rec(cells: list[list[int]]) -> None:
        nonlocal best
        cells = _refine(adj, cells)
        target = -1
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target < 0:
            order = [v for c in cells for v in c]
            bits = _pack_bits(n, adj, order)
            if best is None or bits < best:
                best = bits
            return
        cell = cells[target]
        for idx, v in enumerate(cell):
            # twin skip: if an earlier cellmate differs from v by a transposition
            # automorphism, that branch already produced this subtree's leaves
            if any(
                adj[v] == adj[w] or (adj[v] ^ adj[w]) == ((1 << v) | (1 << w))
                for w in cell[:idx]
            ):
                continue
            rest = [w for w in cell if w != v]
            rec(cells[:target] + [[v], rest] + cells[target + 1:])

    rec(cells)
    assert best is not None
    return best


def bits_to_edges(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Inverse of `_pack_bits` under the identity labeling."""
    edges = []
    k = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if (bits >> k) & 1:
                edges.append((i, j))
    return tuple(edges)


def canon_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Edge list of the canonically relabeled graph (sorted, 0-based)."""
    return bits_to_edges(n, canon_bits(n, edges))


def _connected_masks(n: int, adj: list[int]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _twin_choices(groups: list[list[int]], r: int):
    """Every r-set made of a lowest-index prefix of each twin group."""
    if not groups:
        if r == 0:
            yield ()
        return
    first, rest = groups[0], groups[1:]
    room = sum(len(g) for g in rest)
    for k in range(max(0, r - room), min(len(first), r) + 1):
        for tail in _twin_choices(rest, r - k):
            yield tuple(first[:k]) + tail


def enumerate_classes(degrees) -> list[tuple[tuple[int, int], ...]]:
    """All connected isomorphism classes realizing the degree sequence.

    `degrees` must be non-increasing; vertex i is forced to degree degrees[i]
    (every class has such a labeling, so none is lost). Backtracks vertex by
    vertex over neighbour sets among higher-indexed vertices, filters
    connectivity at the leaves and dedups by canonical bits. Returns canonical
    representatives sorted by their packed bits.

    Twin pruning: open candidates with equal residual degree and equal
    adjacency so far (hence equal target degree) are interchangeable, since
    swapping two of them fixes the partial graph and every degree target. So
    from each such group only a lowest-index prefix is chosen; every other
    choice is the image of one of these under a twin swap and completes to
    the same classes.
    """
    degrees = list(degrees)
    n = len(degrees)
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 1 <= n <= {MAX_VERTICES}, got {n}")
    if any(d < 1 or d > n - 1 for d in degrees) or sum(degrees) % 2:
        return []
    res = list(degrees)
    adj = [0] * n
    reps: set[int] = set()

    def rec(v: int) -> None:
        if v == n:
            if _connected_masks(n, adj):
                reps.add(canon_bits(n, _mask_edges(n, adj)))
            return
        r = res[v]
        if r == 0:
            rec(v + 1)
            return
        twins: dict[tuple[int, int], list[int]] = {}
        for j in range(v + 1, n):
            if res[j] > 0:
                twins.setdefault((res[j], adj[j]), []).append(j)
        for chosen in _twin_choices(list(twins.values()), r):
            for j in chosen:
                res[j] -= 1
                adj[v] |= 1 << j
                adj[j] |= 1 << v
            # residual feasibility: every open vertex needs enough open partners
            open_after = [j for j in range(v + 1, n) if res[j] > 0]
            limit = len(open_after) - 1
            if all(res[j] <= limit for j in open_after):
                rec(v + 1)
            for j in chosen:
                res[j] += 1
                adj[v] &= ~(1 << j)
                adj[j] &= ~(1 << v)

    rec(0)
    return [bits_to_edges(n, b) for b in sorted(reps)]


def _mask_edges(n: int, adj: list[int]) -> list[tuple[int, int]]:
    edges = []
    for u in range(n):
        m = adj[u] >> (u + 1)
        j = u + 1
        while m:
            if m & 1:
                edges.append((u, j))
            m >>= 1
            j += 1
    return edges


def classes_by_sequence(n: int, m: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Independent cross-check enumerator: filter all m-subsets of vertex pairs.

    Returns, per sorted-non-increasing degree sequence, the frozenset of
    canonical bit keys of the connected graphs on exactly n vertices (no
    isolated vertex) among all C(n(n-1)/2, m) edge subsets. Deliberately shares
    no search logic with `enumerate_classes`.
    """
    if n < 2 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 2 <= n <= {MAX_VERTICES}, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: dict[tuple[int, ...], set[int]] = {}
    for subset in combinations(pairs, m):
        adj = [0] * n
        for u, v in subset:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        degs = [a.bit_count() for a in adj]
        if 0 in degs:
            continue
        if not _connected_masks(n, adj):
            continue
        key = tuple(sorted(degs, reverse=True))
        out.setdefault(key, set()).add(canon_bits(n, subset))
    return {k: frozenset(v) for k, v in out.items()}
