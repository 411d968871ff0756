"""An independent enumeration strategy, compared with the oracle's.

`classes_by_sequence` filters all edge subsets of a fixed size and buckets
the connected graphs by degree sequence; `verify_enumeration_cross_check`
compares its classes, pi by pi, with `oracle.enumerate_gamma`. The filter
shares no search logic with the realization walk in `_kernels`, and living
in its own module keeps it so: it uses only the kernel's connectivity test
and canonical labeling. No command and no theorem sweep runs it; the tests
and library callers do.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from ._kernels import MAX_VERTICES, canon_bits, connected_masks
from .graphs import DegreeSequence
from .oracle import _check_kernel_bound, enumerate_gamma, generate_c_cyclic_sequences


def classes_by_sequence(n: int, m: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Independent cross-check enumerator: filter all m-subsets of vertex pairs.

    Returns, per sorted-non-increasing degree sequence, the frozenset of
    canonical bit keys of the connected graphs on exactly n vertices (no
    isolated vertex) among all C(n(n-1)/2, m) edge subsets. Deliberately shares
    no search logic with `_kernels.enumerate_classes`.

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
        if not connected_masks(adj):
            continue
        out.setdefault(tuple(degs), set()).add(canon_bits(adj))
    return {k: frozenset(v) for k, v in out.items()}


class CrossCheckReport(NamedTuple):
    n: int
    c: int
    sequences_checked: int
    classes_total: int
    mismatches: tuple[tuple[DegreeSequence, int, int], ...]
    holds: bool

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "sequences_checked": self.sequences_checked,
            "classes_total": self.classes_total,
            "mismatches": [
                {"pi": list(pi.degrees), "backtracking": a, "subsets": b}
                for pi, a, b in self.mismatches
            ],
            "holds": self.holds,
        }


def verify_enumeration_cross_check(n: int, c: int) -> CrossCheckReport:
    """The backtracking and subset-filter strategies must find the same classes.

    Compared per pi as sets of canonical keys (a duplicate class also counts
    as a mismatch); a mismatch reports both class counts. The subset filter
    visits C(n(n-1)/2, n+c-1) edge subsets, which is practical for n <= 7.
    """
    _check_kernel_bound(n)
    seqs = generate_c_cyclic_sequences(n, c, require_pendant=False)
    by_subsets = classes_by_sequence(n, n + c - 1)
    mismatches = []
    total = 0
    for pi in seqs:
        graphs = enumerate_gamma(pi)
        keys_a = {canon_bits(g.adjacency_masks) for g in graphs}
        keys_b = by_subsets.get(pi.degrees, frozenset())
        total += len(graphs)
        if len(keys_a) != len(graphs) or keys_a != keys_b:
            mismatches.append((pi, len(graphs), len(keys_b)))
    # the subset pass must not see sequences the generator misses
    extra = set(by_subsets) - {pi.degrees for pi in seqs}
    for degs in sorted(extra, reverse=True):
        mismatches.append((DegreeSequence(degs), 0, len(by_subsets[degs])))
    return CrossCheckReport(n, c, len(seqs), total, tuple(mismatches),
                            not mismatches)
