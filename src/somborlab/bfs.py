"""Recognition of BFS-graphs and special extremal BFS-graphs.

A connected graph is a *BFS-graph* when some vertex ordering v1 < v2 < ... < vn
satisfies

  (i)  d(v1) >= d(v2) >= ... >= d(vn) and h(v1) <= h(v2) <= ... <= h(vn),
       where h(v) is the distance from v1, and
  (ii) whenever u < w, every v in N(u)\\N(w) with h(v) = h(u)+1 precedes every
       z in N(w)\\N(u) with h(z) = h(w)+1,

with (ii) read universally over all quadruples. A *special extremal* BFS-graph
(for a pendant degree sequence, n >= 3) additionally has {v1, v2, v3} forming a
triangle when the cyclomatic number is at least 1.

The search exploits that (i) pins the ordering down to block permutations: the
root must have maximum degree, the ordering must list layers in order, and
within a layer degrees must be non-increasing, so only vertices sharing
(layer, degree) may permute. Condition (ii) then reduces, for layer-sorted
orderings, to precedence constraints between same-layer vertices induced by
the relative order of the previous layer; the search backtracks over block
permutations layer by layer. Witnesses returned by the search are always
re-validated by the literal checker below, which is deliberately independent
of the search (it scans all ordered pairs with no layer shortcuts).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import ValidationError
from .graphs import Graph, is_connected


class BfsWitness(NamedTuple):
    ordering: tuple[int, ...]
    layers: tuple[int, ...]            # layers[i] = h(ordering[i])


def bfs_distances(g: Graph, root: int) -> list[int]:
    dist = [-1] * g.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def witness_violation(g: Graph, ordering, *, require_triangle: bool = False
                      ) -> str | None:
    """Literal clause-by-clause check; returns a reason or None when valid."""
    order = tuple(ordering)
    if sorted(order) != list(range(g.n)):
        return "ordering is not a permutation of the vertices"
    h = bfs_distances(g, order[0])
    if min(h) < 0:
        return "graph is not connected from the root"
    degs = g.degrees
    for i in range(g.n - 1):
        if degs[order[i]] < degs[order[i + 1]]:
            return f"degrees increase at positions {i},{i + 1}"
        if h[order[i]] > h[order[i + 1]]:
            return f"layers decrease at positions {i},{i + 1}"
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    masks = g.adjacency_masks
    for u in range(g.n):
        for w in range(g.n):
            if u == w or pos[u] >= pos[w]:
                continue
            only_u = masks[u] & ~masks[w]
            only_w = masks[w] & ~masks[u]
            vs = [v for v in range(g.n) if (only_u >> v) & 1 and h[v] == h[u] + 1]
            zs = [z for z in range(g.n) if (only_w >> z) & 1 and h[z] == h[w] + 1]
            for v in vs:
                for z in zs:
                    if pos[v] >= pos[z]:
                        return (f"children out of order: {u}<{w} but "
                                f"{v}>={z} (positions {pos[v]},{pos[z]})")
    if require_triangle:
        a, b, c = order[0], order[1], order[2]
        if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
            return "first three vertices do not form a triangle"
    return None


def _search(g: Graph, require_triangle: bool) -> BfsWitness | None:
    degs = g.degrees
    maxdeg = max(degs)
    masks = g.adjacency_masks
    for root in [v for v in range(g.n) if degs[v] == maxdeg]:
        h = bfs_distances(g, root)
        top = max(h)
        layers: list[list[int]] = [[] for _ in range(top + 1)]
        for v in range(g.n):
            layers[h[v]].append(v)
        for lay in layers:
            lay.sort(key=lambda v: -degs[v])
        # (i) viability: layer-sorted + in-layer degree order must be globally
        # non-increasing; block permutations cannot change this
        flat = [v for lay in layers for v in lay]
        if any(degs[flat[i]] < degs[flat[i + 1]] for i in range(g.n - 1)):
            continue
        order: list[int] = [root]

        def place_layer(level: int) -> bool:
            if level > top:
                return True
            members = layers[level]
            prev = [v for v in order if h[v] == level - 1]
            before: dict[int, set[int]] = {v: set() for v in members}
            for i, u in enumerate(prev):
                for w in prev[i + 1:]:
                    only_u = masks[u] & ~masks[w]
                    only_w = masks[w] & ~masks[u]
                    a = [v for v in members if (only_u >> v) & 1]
                    b = [z for z in members if (only_w >> z) & 1]
                    for z in b:
                        before[z].update(a)
            placed: list[int] = []
            used: set[int] = set()

            def extend(i: int) -> bool:
                if i == len(members):
                    order.extend(placed)
                    if place_layer(level + 1):
                        return True
                    del order[-len(placed):]
                    return False
                want = degs[members[i]]  # degree-block boundary at position i
                for v in members:
                    if v in used or degs[v] != want:
                        continue
                    if before[v] - used:
                        continue
                    if (require_triangle and level == 1 and i == 1
                            and not (masks[placed[0]] >> v) & 1):
                        continue
                    placed.append(v)
                    used.add(v)
                    if extend(i + 1):
                        return True
                    placed.pop()
                    used.remove(v)
                return False

            return extend(0)

        if place_layer(1):
            witness = BfsWitness(tuple(order), tuple(h[v] for v in order))
            reason = witness_violation(g, witness.ordering,
                                       require_triangle=require_triangle)
            if reason is not None:
                raise AssertionError(f"search produced an invalid witness: {reason}")
            return witness
    return None


def is_bfs_graph(g: Graph) -> BfsWitness | None:
    """Witness ordering satisfying Definition 1 conditions, or None."""
    if not is_connected(g):
        raise ValidationError("BFS-graph recognition needs a connected graph")
    return _search(g, require_triangle=False)


def is_special_extremal_bfs(g: Graph) -> BfsWitness | None:
    """Witness for the special extremal variant: triangle on top when g's
    cyclomatic number m - n + 1 is at least 1."""
    if not is_connected(g):
        raise ValidationError("BFS-graph recognition needs a connected graph")
    if g.n < 3:
        raise ValidationError("special extremal BFS-graphs need n >= 3")
    if min(g.degrees) != 1:
        raise ValidationError("special extremal BFS-graphs need a pendant vertex")
    return _search(g, require_triangle=g.m - g.n + 1 >= 1)
