"""Graph and degree-sequence data model, realizability checks, and formats.

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

The functions that need the kernel (`_kernels`) import it when they run, so
loading this module, as `majorize` does, leaves the kernel unloaded.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import NamedTuple

from ._value import _Value
from .errors import (
    AcyclicError,
    DegreeTooLargeError,
    Graph6LengthError,
    GraphStructureError,
    LengthMismatchError,
    MalformedHeaderError,
    NonPositiveEntryError,
    NotGraphicalError,
    OddSumError,
    SequenceSyntaxError,
    TooLargeError,
    TooSparseError,
    ValidationError,
)


class Graph(_Value):
    """Simple undirected graph on vertices 0..n-1 with a normalized edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges) -> None:
        if n < 2:
            raise GraphStructureError(f"need n >= 2 vertices, got {n}")
        seen = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise GraphStructureError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphStructureError(f"edge ({u},{v}) outside 0..{n - 1}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphStructureError(f"duplicate edge {e}")
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
            raise GraphStructureError("relabel needs a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class DegreeSequence(_Value):
    """Non-increasing sequence of positive integer degrees.

    The constructor is strict about order; use :meth:`of` to sort silently or
    :func:`parse_degree_sequence` to sort with the `resorted` warning flag set.
    `resorted` takes no part in equality or hashing.
    """

    degrees: tuple[int, ...]
    resorted: bool

    def __init__(self, degrees, resorted: bool = False) -> None:
        degs = tuple(int(d) for d in degrees)
        if len(degs) < 2:
            raise ValidationError(f"need at least 2 degrees, got {len(degs)}")
        if any(d < 1 for d in degs):
            raise NonPositiveEntryError(f"degrees must be >= 1: {degs}")
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
            raise OddSumError(f"degree sum {self.total} is odd")
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
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
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


class CanonicalCode(NamedTuple):
    """Isomorphism-invariant byte code; equal codes <=> isomorphic graphs."""

    code: bytes


def degree_sequence_of(g: Graph) -> DegreeSequence:
    return DegreeSequence.of(g.degrees)


def is_connected(g: Graph) -> bool:
    from . import _kernels
    return _kernels.connected_masks(g.adjacency_masks)


def validate_connected_c_cyclic(pi: DegreeSequence) -> int:
    """Return the cyclomatic number c iff pi has a connected simple realization.

    Checks, in order: even sum, d1 <= n-1, sum >= 2(n-1), Erdos-Gallai. The
    answer depends on the degrees alone and is cached per degree tuple, since
    the sweeps and the builders ask again for the same pi; a rejection is not
    cached and raises again.
    """
    return _connected_c(pi.degrees)


@lru_cache(maxsize=4096)
def _connected_c(degs: tuple[int, ...]) -> int:
    n = len(degs)
    total = sum(degs)
    if total % 2:
        raise OddSumError(f"degree sum {total} is odd")
    if degs[0] > n - 1:
        raise DegreeTooLargeError(f"d1 = {degs[0]} exceeds n-1 = {n - 1}")
    if total < 2 * (n - 1):
        raise TooSparseError(f"degree sum {total} below 2(n-1) = {2 * (n - 1)}")
    # Erdos-Gallai: sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k)
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        tail = sum(min(d, k) for d in degs[k:])
        if prefix > k * (k - 1) + tail:
            raise NotGraphicalError(
                f"Erdos-Gallai fails at k={k}: {prefix} > {k * (k - 1) + tail}"
            )
    return total // 2 - n + 1


def reduced_graph(g: Graph) -> Graph:
    """Recursively delete degree-1 vertices; relabels the core to 0..k-1."""
    alive = set(range(g.n))
    degs = list(g.degrees)
    pend = [v for v in alive if degs[v] == 1]
    while pend:
        nxt = []
        for v in pend:
            if v not in alive or degs[v] > 1:
                continue
            alive.discard(v)
            for w in g.neighbors(v):
                if w in alive:
                    degs[w] -= 1
                    if degs[w] == 1:
                        nxt.append(w)
        pend = nxt
    if len(alive) < 3:
        raise AcyclicError("graph has no cycle: reduction deletes every vertex")
    order = sorted(alive)
    relabel = {v: i for i, v in enumerate(order)}
    edges = [(relabel[u], relabel[v]) for u, v in g.edges if u in alive and v in alive]
    return Graph(len(order), edges)


def canonical_form(g: Graph) -> Graph:
    """Canonically relabeled copy of g (identical for isomorphic inputs)."""
    from . import _kernels
    if g.n > _kernels.MAX_VERTICES:
        raise TooLargeError(
            f"canonical labeling capped at n <= {_kernels.MAX_VERTICES}, got {g.n}"
        )
    return Graph(g.n, _kernels.bits_to_edges(g.n, _kernels.canon_bits(g.adjacency_masks)))


def canonical_code(g: Graph) -> CanonicalCode:
    """graph6 bytes of the canonical labeling."""
    return CanonicalCode(format_graph6(canonical_form(g)).encode("ascii"))


# -- graph6 (bit-exact per the public format specification) -------------------

_G6_HEADER = ">>graph6<<"


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


def parse_graph6(text: str) -> Graph:
    from . import _kernels
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise MalformedHeaderError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise MalformedHeaderError("graph6 strings are printable ASCII")
    if any(b < 63 or b > 126 for b in data):
        raise MalformedHeaderError("graph6 bytes must be in range 63..126")
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise MalformedHeaderError("truncated 3-byte vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise MalformedHeaderError("truncated 6-byte vertex count")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        pos = 8
    if n < 2:
        raise MalformedHeaderError(f"graphs with n = {n} are rejected (need n >= 2)")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise Graph6LengthError(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = 6 * need - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6LengthError("nonzero padding bits")
    bits >>= pad
    return Graph(n, _kernels.bits_to_edges(n, bits))


# -- edge-list text and DOT ----------------------------------------------------

def format_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def parse_edge_list(text: str) -> Graph:
    """One "u v" pair per line, 0-based; n is max label + 1.

    Isolated vertices are not representable; that is fine for the connected
    graphs this library works with.
    """
    edges = []
    top = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"edge list line {ln}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(f"edge list line {ln}: non-integer label in {raw!r}")
        if u < 0 or v < 0:
            raise ValidationError(f"edge list line {ln}: negative label in {raw!r}")
        top = max(top, u, v)
        edges.append((u, v))
    if not edges:
        raise ValidationError("edge list is empty")
    return Graph(top + 1, edges)


def to_dot(g: Graph) -> str:
    lines = ["graph {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- degree-sequence text grammar ----------------------------------------------
#
#   seq := term ("," term)* ; term := INT ("^" INT)?

_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse "5,4,3^3,2^10,1^8"-style text; unsorted input is sorted and flagged."""
    s = text.strip()
    if not s:
        raise SequenceSyntaxError("empty degree sequence")
    degrees: list[int] = []
    for part in s.split(","):
        m = _TERM_RE.match(part.strip())
        if not m:
            raise SequenceSyntaxError(f"bad term {part.strip()!r} (expected INT or INT^INT)")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if value < 1:
            raise NonPositiveEntryError(f"degree {value} must be >= 1")
        if count < 1:
            raise SequenceSyntaxError(f"repetition count {count} must be >= 1")
        degrees.extend([value] * count)
    ordered = sorted(degrees, reverse=True)
    return DegreeSequence(tuple(ordered), resorted=(ordered != degrees))


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
