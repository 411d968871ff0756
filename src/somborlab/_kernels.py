"""Compute kernels: canonical labeling and degree-sequence enumeration.

Graphs live here as adjacency bitmasks over at most 16 vertices, which covers
every desk-scale cap in the library.

One realization walker, `_realizations`, backtracks over the labeled
realizations of a degree sequence with residual and twin pruning and yields
the connected leaves. It has two consumers: `enumerate_classes` dedups the
leaves by canonical bits into isomorphism classes, and `joint_degree_matrices`
collects their edge degree-pair multisets, which is all that an index summed
over edges can see and needs no canonical labeling.

Canonical labeling is the classic refinement/individualization scheme: compute
the equitable ordered partition, branch on every vertex of the first
non-singleton cell, and take the minimum packed adjacency bitstring over all
discrete leaves. Without automorphism pruning this is exponential in theory but
runs in microseconds at this scale, and, unlike a pure degree partition, stays
exact on regular graphs.
"""

from __future__ import annotations

from itertools import combinations

# the only kernel; run contexts record it as the backend
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
    split cells are ordered by ascending signature. Loops until stable. The
    signature packing and the ascending order decide which labeling is
    canonical, so every pinned class list and canonical code depends on both.
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
    """Edges of a packed bitstring in graph6 pair order (inverse of `_pack_bits`)."""
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


def connected_masks(n: int, adj) -> bool:
    """Whether the graph with adjacency bitmasks `adj` on n vertices is connected."""
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


def _realizations(degrees):
    """Adjacency masks of the connected labeled leaves realizing `degrees`.

    `degrees` must be non-increasing; vertex i is forced to degree degrees[i]
    (every class has such a labeling, so none is lost). Backtracks vertex by
    vertex over neighbour sets among higher-indexed vertices, with a residual
    feasibility check, and yields each connected leaf as a tuple of masks.
    Impossible degrees or an odd sum yield nothing.

    Twin pruning: open candidates with equal residual degree and equal
    adjacency so far (hence equal target degree) are interchangeable, since
    swapping two of them fixes the partial graph and every degree target. So
    from each such group only a lowest-index prefix is chosen; every other
    choice is the image of one of these under a twin swap and completes to
    the same classes. Every class therefore has at least one leaf, and some
    have several.
    """
    n = len(degrees)
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 1 <= n <= {MAX_VERTICES}, got {n}")
    if any(d < 1 or d > n - 1 for d in degrees) or sum(degrees) % 2:
        return
    res = list(degrees)
    adj = [0] * n

    def rec(v: int):
        if v == n:
            if connected_masks(n, adj):
                yield tuple(adj)
            return
        r = res[v]
        if r == 0:
            yield from rec(v + 1)
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
                yield from rec(v + 1)
            for j in chosen:
                res[j] += 1
                adj[v] &= ~(1 << j)
                adj[j] &= ~(1 << v)

    yield from rec(0)


def enumerate_classes(degrees) -> list[tuple[tuple[int, int], ...]]:
    """All connected isomorphism classes realizing the non-increasing `degrees`.

    Dedups the leaves of `_realizations` by canonical bits and returns the
    canonical representatives sorted by their packed bits.
    """
    n = len(degrees)
    reps = {canon_bits(n, _mask_edges(n, adj)) for adj in _realizations(degrees)}
    return [bits_to_edges(n, b) for b in sorted(reps)]


def joint_degree_matrices(degrees) -> set[tuple[tuple[tuple[int, int], int], ...]]:
    """Joint degree matrices of the connected realizations of `degrees`.

    Each matrix is the sorted tuple of ((d_u, d_v), count) over edge degree
    pairs with d_u >= d_v, the form `indices.edge_pair_counts` returns. Since
    `degrees` is non-increasing, u < v gives d_u >= d_v, so the key is read
    off the labels. The matrix is an isomorphism invariant, so the set needs
    no canonical labeling; non-isomorphic classes may share one.
    """
    n = len(degrees)
    out = set()
    for adj in _realizations(degrees):
        counts: dict[tuple[int, int], int] = {}
        for u in range(n - 1):
            du = degrees[u]
            m = adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    key = (du, degrees[v])
                    counts[key] = counts.get(key, 0) + 1
                m >>= 1
                v += 1
        out.add(tuple(sorted(counts.items())))
    return out


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

    Symmetry reduction: only subsets whose degrees are non-increasing by vertex
    label are connectivity-tested and canonicalized. Relabeling by degree maps
    any graph to such a subset, so every class is still found.
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
        if degs[-1] == 0 or degs != sorted(degs, reverse=True):
            continue
        if not connected_masks(n, adj):
            continue
        out.setdefault(tuple(degs), set()).add(canon_bits(n, subset))
    return {k: frozenset(v) for k, v in out.items()}
