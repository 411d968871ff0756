"""Canonical extremal constructions for pendant degree sequences.

All three builders lay vertices out in breadth-first order: vertex 0 is the
root, children are appended as consecutive indices parent by parent, and the
remaining degrees are consumed in non-increasing order, so the identity
ordering 0..n-1 is simultaneously the degree ordering and the layer ordering.

  tree       greedy tree: root of degree d1, then each vertex in order receives
             the next d_i - 1 largest unassigned degrees as children.
  unicyclic  triangle 0-1-2, root 0 adjacent to 1..d1; vertices 1 and 2 receive
             d2-2 and d3-2 children, later vertices d_i - 1, all in order.
  bicyclic   case (i), d2 >= 3: seeded with K4 minus an edge (triangle 0-1-2
             plus 3 adjacent to 0 and 1), children assigned greedily as above;
             case (ii), d2 = 2 (forces d1 >= 5): a bowtie centered at 0 with
             d1 - 4 pendant paths of almost equal lengths, longest first.

Every result self-reports its BFS ordering and layers; the bfs module's direct
validator accepts them by construction (tested exhaustively at small n).

`extremal_graph(pi)` picks the builder by c. The graph depends on pi alone:
which extremum of SO_alpha it attains is the alpha rule's business
(`oracle.objective_for_alpha`), not the builder's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InfeasibleCaseError,
    MinDegreeNotOneError,
    NotBicyclicSequenceError,
    NotTreeSequenceError,
    NotUnicyclicSequenceError,
    TooFewUnitsError,
    TriangleInfeasibleError,
    UnsupportedCyclomaticError,
)
from .graphs import DegreeSequence, Graph, degree_sequence_of, validate_connected_c_cyclic


class ConstructionResult(NamedTuple):
    graph: Graph
    ordering: tuple[int, ...]          # identity by construction, kept explicit
    layers: tuple[int, ...]
    klass: str                         # "tree" | "unicyclic" | "bicyclic"
    case: str | None = None            # "i" | "ii" for bicyclic


class _Builder:
    """Appends children in BFS order while consuming residual degrees."""

    def __init__(self, pi: DegreeSequence):
        self.degs = pi.degrees
        self.n = pi.n
        self.edges: list[tuple[int, int]] = []
        self.used = [0] * self.n        # degree already consumed per vertex
        self.layer = [0] * self.n
        self.next_child = 0

    def seed(self, edges: list[tuple[int, int]], layers: dict[int, int]) -> None:
        for u, v in edges:
            self.edges.append((u, v))
            self.used[u] += 1
            self.used[v] += 1
        for v, lay in layers.items():
            self.layer[v] = lay
        self.next_child = 1 + max(layers)

    def attach_all(self) -> None:
        for parent in range(self.n):
            want = self.degs[parent] - self.used[parent]
            if want < 0:
                raise InfeasibleCaseError(
                    f"vertex {parent} needs degree {self.degs[parent]}, already has "
                    f"{self.used[parent]}"
                )
            for _ in range(want):
                child = self.next_child
                if child >= self.n:
                    raise InfeasibleCaseError("ran out of vertices while attaching")
                self.edges.append((parent, child))
                self.used[parent] += 1
                self.used[child] += 1
                self.layer[child] = self.layer[parent] + 1
                self.next_child += 1

    def finish(self, pi: DegreeSequence, klass: str, case: str | None = None
               ) -> ConstructionResult:
        if self.next_child != self.n:
            raise InfeasibleCaseError(
                f"attached {self.next_child} of {self.n} vertices"
            )
        g = Graph(self.n, self.edges)
        assert degree_sequence_of(g).degrees == pi.degrees
        return ConstructionResult(g, tuple(range(self.n)), tuple(self.layer),
                                  klass, case)


def greedy_tree(pi: DegreeSequence) -> ConstructionResult:
    """The unique BFS-tree (greedy tree) of a tree degree sequence."""
    c = validate_connected_c_cyclic(pi)
    if c != 0:
        raise NotTreeSequenceError(f"degree sum {pi.total} != 2(n-1) = {2 * (pi.n - 1)}")
    if pi.degrees[-1] != 1:
        raise MinDegreeNotOneError(f"minimum degree is {pi.degrees[-1]}, need 1")
    b = _Builder(pi)
    b.seed([], {0: 0})
    b.attach_all()
    return b.finish(pi, "tree")


def bfs_unicyclic(pi: DegreeSequence) -> ConstructionResult:
    """BFS-unicyclic graph: the greedy layout whose unique cycle is the
    triangle on the three largest-degree vertices."""
    c = validate_connected_c_cyclic(pi)
    if c != 1:
        raise NotUnicyclicSequenceError(f"degree sum {pi.total} != 2n = {2 * pi.n}")
    if pi.degrees[-1] != 1:
        raise MinDegreeNotOneError(f"minimum degree is {pi.degrees[-1]}, need 1")
    if pi.n < 3 or pi.degrees[2] < 2:
        raise TriangleInfeasibleError(f"d3 = {pi.degrees[2] if pi.n > 2 else None} < 2")
    b = _Builder(pi)
    b.seed([(0, 1), (0, 2), (1, 2)], {0: 0, 1: 1, 2: 1})
    b.attach_all()
    return b.finish(pi, "unicyclic")


def bfs_bicyclic(pi: DegreeSequence) -> ConstructionResult:
    """BFS-bicyclic graph, case (i) for d2 >= 3, case (ii) for d2 = 2."""
    c = validate_connected_c_cyclic(pi)
    if c != 2:
        raise NotBicyclicSequenceError(f"degree sum {pi.total} != 2n+2 = {2 * pi.n + 2}")
    if pi.degrees[-1] != 1:
        raise MinDegreeNotOneError(f"minimum degree is {pi.degrees[-1]}, need 1")
    if pi.n < 4:
        raise NotBicyclicSequenceError("bicyclic graphs need n >= 4")
    d = pi.degrees
    if d[1] >= 3:
        if d[2] < 2 or d[3] < 2:
            raise InfeasibleCaseError(f"case (i) needs d3, d4 >= 2, got {d[2]}, {d[3]}")
        b = _Builder(pi)
        b.seed([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], {0: 0, 1: 1, 2: 1, 3: 1})
        b.attach_all()
        return b.finish(pi, "bicyclic", "i")
    if d[1] == 2:
        # with d_n = 1 the arithmetic forces d1 = 4 + (#pendant paths) >= 5
        if d[0] < 5:
            raise InfeasibleCaseError(f"case (ii) needs d1 >= 5, got {d[0]}")
        paths = d[0] - 4
        lengths = split_almost_equal(pi.n - 5, paths)
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
        layer = {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}
        # path vertices appended layer by layer, longest path first
        nxt = 5
        prev = [0] * paths
        for step in range(max(lengths)):
            for p in range(paths):
                if lengths[p] > step:
                    edges.append((prev[p], nxt))
                    layer[nxt] = step + 1
                    prev[p] = nxt
                    nxt += 1
        if nxt != pi.n:
            raise InfeasibleCaseError(f"path layout used {nxt} of {pi.n} vertices")
        g = Graph(pi.n, edges)
        assert degree_sequence_of(g).degrees == pi.degrees
        layers = tuple(layer[v] for v in range(pi.n))
        return ConstructionResult(g, tuple(range(pi.n)), layers, "bicyclic", "ii")
    raise InfeasibleCaseError(f"d2 = {d[1]}: no bicyclic case applies")


def split_almost_equal(total: int, parts: int) -> tuple[int, ...]:
    """Split `total` into `parts` positive values differing by at most 1."""
    if parts < 1:
        raise TooFewUnitsError(f"need at least one part, got {parts}")
    if total < parts:
        raise TooFewUnitsError(f"cannot split {total} into {parts} positive parts")
    q, r = divmod(total, parts)
    return tuple([q + 1] * r + [q] * (parts - r))


def extremal_graph(pi: DegreeSequence) -> ConstructionResult:
    """The canonical extremal graph of a pendant pi with c <= 2, by c.

    The greedy tree (c = 0), BFS-unicyclic (c = 1) or BFS-bicyclic graph
    (c = 2). The same graph minimizes SO_alpha over Gamma(pi) where h_alpha
    de-escalates and maximizes it where h_alpha escalates, so it does not
    depend on alpha; `oracle.objective_for_alpha` says which extremum it is.
    """
    if pi.degrees[-1] != 1:
        raise MinDegreeNotOneError(f"minimum degree is {pi.degrees[-1]}, need 1")
    c = validate_connected_c_cyclic(pi)
    if c > 2:
        raise UnsupportedCyclomaticError(
            f"no canonical construction for c = {c}; use the oracle"
        )
    return (greedy_tree, bfs_unicyclic, bfs_bicyclic)[c](pi)
