"""Canonical extremal graphs of pendant degree sequences: one BFS fill.

Vertex 0 is the root, of degree d1, and vertex i has degree d_{i+1}, so the
identity ordering 0..n-1 is at once the degree ordering and the BFS ordering.
The graphs differ only in the seed, the edges that lie inside layer 1:

  c  case           seed            layer 0 and 1 hold
  0                 none            a star: the greedy tree
  1                 (1,2)           the triangle 0-1-2: BFS-unicyclic
  2  (i)  d2 >= 3   (1,2) (1,3)     K4 minus the edge 2-3: BFS-bicyclic
  2  (ii) d2 = 2    (1,2) (3,4)     a bowtie centred at 0: BFS-bicyclic

The fill: vertex v, in index order, takes d_v - used_v new children, where
used_v counts its seed edges and the edge to its parent. The children are
the next unplaced indices, each at layer(v) + 1, so the remaining degrees go
out in non-increasing order, layer by layer. With no seed this is the greedy
tree of H. Wang (Cent. Eur. J. Math. 12, 2014). In case (ii) it hangs the
d1 - 4 pendant paths on the root with almost equal lengths, longest first.

Every result self-reports its BFS ordering and layers; the bfs module's direct
validator accepts them (tested exhaustively at small n). The graph depends on
pi alone: which extremum of SO_alpha it attains is the alpha rule's business
(`sombor.objective_for_alpha`), not the builder's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .graphs import DegreeSequence, Graph, validate_connected_c_cyclic


class ConstructionResult(NamedTuple):
    graph: Graph
    ordering: tuple[int, ...]          # identity by construction, kept explicit
    layers: tuple[int, ...]
    klass: str                         # "tree" | "unicyclic" | "bicyclic"
    case: str | None = None            # "i" | "ii" for bicyclic


_SEEDS = {
    "tree": (),
    "unicyclic": ((1, 2),),
    "i": ((1, 2), (1, 3)),
    "ii": ((1, 2), (3, 4)),
}


def extremal_graph(pi: DegreeSequence) -> ConstructionResult:
    """The canonical extremal graph of a pendant pi with c <= 2.

    The greedy tree (c = 0), BFS-unicyclic (c = 1) or BFS-bicyclic graph
    (c = 2). The same graph minimizes SO_alpha over Gamma(pi) where h_alpha
    de-escalates and maximizes it where h_alpha escalates, so it does not
    depend on alpha; `sombor.objective_for_alpha` says which extremum it is.
    """
    d, n = pi.degrees, pi.n
    if d[-1] != 1:
        raise ValidationError(f"minimum degree is {d[-1]}, need 1")
    c = validate_connected_c_cyclic(pi)
    if c > 2:
        raise ValidationError(f"no canonical construction for c = {c}; use the oracle")
    klass = ("tree", "unicyclic", "bicyclic")[c]
    case = None if c < 2 else "i" if d[1] >= 3 else "ii"
    # a pendant pi has n >= 4 for c = 1 and n >= 5 for c = 2: the seed fits
    edges = list(_SEEDS[case or klass])
    used = [0] * n
    for u, v in edges:
        used[u] += 1
        used[v] += 1
    layers = [0] * n
    placed = 1
    for v in range(n):
        stop = min(placed + d[v] - used[v], n)
        for child in range(placed, stop):
            edges.append((v, child))
            layers[child] = layers[v] + 1
            used[v] += 1
            used[child] += 1
        placed = max(placed, stop)
    if placed != n or tuple(used) != d:
        raise ValidationError(f"the BFS fill placed {placed} of {n} vertices with degrees {used}")
    return ConstructionResult(Graph(n, edges), tuple(range(n)), tuple(layers),
                              klass, case)
