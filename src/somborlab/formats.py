"""Graph text formats and the reduced graph.

Reading and writing graphs and degree sequences as text (graph6, edge
lists, DOT and the `5,4,3^3,2^10,1^8` grammar) and the pendant-free core
(`reduced_graph`). The single-input commands and library callers use these;
no theorem sweep does, so they live apart from the data model in `graphs`,
which every sweep loads. `format_graph6` and `format_degree_sequence` stay
in `graphs`, since reports and `DegreeSequence.__repr__` write them.
Canonical labeling is the kernel's alone (`_kernels.canon_bits`).

`parse_graph6`, the one function here that needs the kernel, imports it when
it runs, so loading this module, as `majorize` does, leaves the kernel
unloaded.
"""

from __future__ import annotations

import re

from .errors import ValidationError
from .graphs import DegreeSequence, Graph


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
        raise ValidationError("graph has no cycle: reduction deletes every vertex")
    order = sorted(alive)
    relabel = {v: i for i, v in enumerate(order)}
    edges = [(relabel[u], relabel[v]) for u, v in g.edges if u in alive and v in alive]
    return Graph(len(order), edges)


# -- graph6 (bit-exact per the public format specification) -------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    from . import _kernels
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValidationError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise ValidationError("graph6 strings are printable ASCII")
    if any(b < 63 or b > 126 for b in data):
        raise ValidationError("graph6 bytes must be in range 63..126")
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ValidationError("truncated 3-byte vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise ValidationError("truncated 6-byte vertex count")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | (b - 63)
        pos = 8
    if n < 2:
        raise ValidationError(f"graphs with n = {n} are rejected (need n >= 2)")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise ValidationError(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = 6 * need - nbits
    if pad and bits & ((1 << pad) - 1):
        raise ValidationError("nonzero padding bits")
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
        if u == v:
            raise ValidationError(f"edge list line {ln}: self-loop at vertex {u}")
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
        raise ValidationError("empty degree sequence")
    degrees: list[int] = []
    for part in s.split(","):
        m = _TERM_RE.match(part.strip())
        if not m:
            raise ValidationError(f"bad term {part.strip()!r} (expected INT or INT^INT)")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if value < 1:
            raise ValidationError(f"degree {value} must be >= 1")
        if count < 1:
            raise ValidationError(f"repetition count {count} must be >= 1")
        degrees.extend([value] * count)
    ordered = sorted(degrees, reverse=True)
    return DegreeSequence(tuple(ordered), resorted=(ordered != degrees))
