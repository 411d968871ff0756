"""Graph and degree-sequence data model, realizability checks and the writers
reports use.

Vertices are dense integer labels 0..n-1 (the literature's v1 is label 0).
Graphs and degree sequences are immutable value objects; every operation here
is a pure function. The empty graph and n = 1 are rejected everywhere: the
constructions this library exists for need n >= 2 and carry no content below
that.

Connected realizability uses the standard criterion: a non-increasing positive
sequence with even sum is realizable by a *connected* simple graph iff it is
graphical (Erdos-Gallai) and its sum is at least 2(n-1). Sufficiency follows
from the classic edge-exchange argument that links components of any
realization without changing degrees. Majorization of degree sequences
(`is_majorized`) is a prefix-sum comparison and lives here too.

Every theorem sweep loads this module, so the text parsers, the other
writers, canonical forms and `reduced_graph`, which no sweep calls, live in
`formats`. Of the text formats only the two writers that reports and
`DegreeSequence.__repr__` use stay here (`format_graph6`,
`format_degree_sequence`).

`is_connected` imports the kernel (`_kernels`) when it runs, so loading this
module, as `majorize` does, leaves the kernel unloaded.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from ._value import _Value, _as_int
from .errors import UnrealizableError, ValidationError


class Graph(_Value):
    """Simple undirected graph on vertices 0..n-1 with a normalized edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges) -> None:
        n = _as_int(n, "n")
        if n < 2:
            raise ValidationError(f"need n >= 2 vertices, got {n}")
        seen = set()
        norm = []
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair") from None
            u, v = _as_int(u, "a vertex"), _as_int(v, "a vertex")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) outside 0..{n - 1}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValidationError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def _key(self) -> tuple:
        return (self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adjacency_masks[u] >> v) & 1 == 1

    def relabel(self, perm) -> "Graph":
        """Graph with vertex v renamed perm[v]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValidationError("relabel needs a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class DegreeSequence(_Value):
    """Non-increasing sequence of positive integer degrees.

    The constructor is strict about order; use :meth:`of` to sort silently or
    :func:`formats.parse_degree_sequence` to sort with the `resorted` warning
    flag set.
    `resorted` takes no part in equality or hashing.
    """

    degrees: tuple[int, ...]
    resorted: bool

    def __init__(self, degrees, resorted: bool = False) -> None:
        degs = tuple(_as_int(d, "a degree") for d in degrees)
        if len(degs) < 2:
            raise ValidationError(f"need at least 2 degrees, got {len(degs)}")
        if any(d < 1 for d in degs):
            raise ValidationError(f"degrees must be >= 1: {degs}")
        if any(degs[i] < degs[i + 1] for i in range(len(degs) - 1)):
            raise ValidationError(f"degrees must be non-increasing: {degs}")
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "resorted", resorted)

    def _key(self) -> tuple:
        return (self.degrees,)

    @classmethod
    def of(cls, iterable) -> "DegreeSequence":
        return cls(tuple(sorted(iterable, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def c(self) -> int:
        """Cyclomatic number (sum/2 - n + 1); requires an even degree sum."""
        if self.total % 2:
            raise UnrealizableError(f"degree sum {self.total} is odd")
        return self.total // 2 - self.n + 1

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]

    def __repr__(self) -> str:
        return f"DegreeSequence({format_degree_sequence(self)!r})"


class MajorizationVerdict(NamedTuple):
    holds: bool
    failing_prefix: int | None      # 1-based j with sum x[:j] > sum y[:j]


def is_majorized(x: DegreeSequence, y: DegreeSequence) -> MajorizationVerdict:
    """x majorized by y: equal totals, prefix sums of x never exceed y's, x != y."""
    if len(x) != len(y):
        raise ValidationError(f"lengths differ: {len(x)} vs {len(y)}")
    if x.degrees == y.degrees:
        return MajorizationVerdict(False, None)
    px = py = 0
    failing = None
    for j, (a, b) in enumerate(zip(x.degrees, y.degrees), start=1):
        px += a
        py += b
        if px > py and failing is None:
            failing = j
    if failing is not None:
        return MajorizationVerdict(False, failing)
    return MajorizationVerdict(px == py, None)


def degree_sequence_of(g: Graph) -> DegreeSequence:
    return DegreeSequence.of(g.degrees)


def is_connected(g: Graph) -> bool:
    from . import _kernels
    return _kernels.connected_masks(g.adjacency_masks)


def validate_connected_c_cyclic(pi: DegreeSequence) -> int:
    """Return the cyclomatic number c iff pi has a connected simple realization.

    Checks, in order: even sum, d1 <= n-1, sum >= 2(n-1), Erdos-Gallai.
    """
    degs = pi.degrees
    n = len(degs)
    total = sum(degs)
    if total % 2:
        raise UnrealizableError(f"degree sum {total} is odd")
    if degs[0] > n - 1:
        raise UnrealizableError(f"d1 = {degs[0]} exceeds n-1 = {n - 1}")
    if total < 2 * (n - 1):
        raise UnrealizableError(f"degree sum {total} below 2(n-1) = {2 * (n - 1)}")
    # Erdos-Gallai: sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k), in one
    # pass. The p degrees >= k come first, and p only falls as k grows, so
    # with q = max(p, k) the tail is k(q-k) plus the sum of the d_i with i > q,
    # and the right side k(q-1) plus that sum.
    prefix = (0, *accumulate(degs))
    p = n
    for k in range(1, n + 1):
        while p and degs[p - 1] < k:
            p -= 1
        q = max(p, k)
        rhs = k * (q - 1) + total - prefix[q]
        if prefix[k] > rhs:
            raise UnrealizableError(f"Erdos-Gallai fails at k={k}: {prefix[k]} > {rhs}")
    return total // 2 - n + 1


# -- writers (graph6 bit-exact per the public format specification) -------------

def format_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [(n >> s & 63) + 63 for s in range(30, -1, -6)]
    masks = g.adjacency_masks
    out = list(head)
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((masks[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def format_degree_sequence(pi: DegreeSequence) -> str:
    parts = []
    i = 0
    degs = pi.degrees
    while i < len(degs):
        j = i
        while j < len(degs) and degs[j] == degs[i]:
            j += 1
        parts.append(str(degs[i]) if j - i == 1 else f"{degs[i]}^{j - i}")
        i = j
    return ",".join(parts)
