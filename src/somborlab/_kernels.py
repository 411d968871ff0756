"""Compute kernels: canonical labeling and degree-sequence enumeration.

Graphs live here only as adjacency bitmasks: a sequence `adj` with bit u of
adj[v] set iff uv is an edge, and n = len(adj) at most 16, which covers every
desk-scale cap in the library. Every entry point takes or yields masks, so the
walker's leaves go to the labeling as they are.

One realization walker, `_realizations`, backtracks over the labeled
realizations of a degree sequence with residual, twin and pair pruning and
yields the connected leaves. Twin and pair pruning are lex-leader symmetry
breaking (Crawford, Ginsberg, Luks and Roy, KR 1996). Read the walk's
variables row by row, columns ascending, with 1 above 0. Permuting vertices
within a block of equal degree maps realizations to realizations, so each
class has a lex-greatest labeling L, and L >= sigma L for every such sigma.
Twin pruning is this inequality for a transposition of twins, truncated at
the choosing row; pair pruning is it for sigma = (v-1 v). L passes both, so
every class keeps a leaf, and over every sequence with n <= 9 and c <= 3 the
walk yields 1.24 leaves per class (5,311 for 4,297).

The walker has two consumers. `enumerate_classes` dedups the leaves by
canonical bits into isomorphism classes. `leaves_by_jdm` groups them by
their joint degree matrix, read by `sombor.jdm_key`: all that an index
summed over edges can see, found without canonical labeling. It labels none
of them; the oracle labels a group only where a report needs its classes,
and at once only where the group holds two or more leaves, since only labels
tell how many classes those are. The walk is one loop over an explicit
stack, and it hands the consumer the leaves of the vertex-by-vertex
backtracking one at a time, in backtracking order; their count over every
sequence with c <= 3 is pinned in the tests. The independent references
that the walk is checked against, the graph atlas and a vertex-extension
generator, live in the tests and take nothing from here but `canon_bits`.

Canonical labeling is the classic refinement/individualization scheme: compute
the equitable ordered partition, branch on every vertex of the first
non-singleton cell, and take the minimum packed adjacency bitstring over all
discrete leaves. Without automorphism pruning this is exponential in theory but
runs in microseconds at this scale, and, unlike a pure degree partition, stays
exact on regular graphs. Two identities keep it cheap without changing a code:

- Nibble identity. A refinement signature packs v's neighbour count in cell k
  into nibble k: sum over k of |N(v) & C_k| << 4k. A degree is at most 15, so
  no nibble carries and the signature equals the sum of 1 << 4 cell(u) over
  the neighbours u of v: one precomputed weight per neighbour, summed over
  neighbour lists read off the set bits of the masks once per call. Only sums
  are taken, so the order within a list cannot change a code.
- Twin cells. Let the first non-singleton cell of an equitable partition be
  mutual twins: one open neighbourhood for all, or one closed neighbourhood.
  Every other vertex sees all of the cell or none of it, and each cell vertex
  sees all its cellmates or none, so individualizing any one of them leaves
  the partition equitable: the refine that follows is a no-op, and twin skip
  keeps only the first branch. Level after level this splits the cell into
  singletons in order, which `canon_bits` does in one step. The leaves are the
  same, so the codes are too.
"""

from __future__ import annotations

from .sombor import JdmKey, jdm_key

# the only kernel; run contexts record it as the backend
BACKEND = "pure"

MAX_VERTICES = 16


def _refine(nbrs: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition of the vertices 0..n-1.

    Each pass gives every vertex the signature sum of 1 << 4k over its
    neighbours, k being the neighbour's cell index at the start of the pass:
    the neighbour count per cell, packed in 4-bit nibbles. Split cells are
    ordered by ascending signature. Loops until stable, or until the partition
    is discrete. The signature packing and the ascending order decide which
    labeling is canonical, so every pinned class list and canonical code
    depends on both.
    """
    n = len(nbrs)
    while len(cells) < n:
        weight = [0] * n
        w = 1
        for cell in cells:
            for v in cell:
                weight[v] = w
            w <<= 4
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                sig = 0
                for u in nbrs[v]:
                    sig += weight[u]
                if sig in groups:
                    groups[sig].append(v)
                else:
                    groups[sig] = [v]
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not changed:
            break
        cells = out
    return cells


def canon_bits(adj) -> int:
    """Packed upper-triangle bitstring of the canonical labeling (iso-invariant).

    `adj` holds the adjacency masks of a simple graph on n = len(adj)
    vertices. The bitstring is that of graph6: pair (i, j), i < j, of the
    relabeled graph in column order, the first pair most significant, so
    integer order is lexicographic bitstring order. The canonical labeling is
    the leaf with the smallest bitstring.
    """
    n = len(adj)
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 1 <= n <= {MAX_VERTICES}, got {n}")
    nbrs: list[list[int]] = []
    for a in adj:
        row = []
        while a:
            low = a & -a
            row.append(low.bit_length() - 1)
            a ^= low
        nbrs.append(row)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(nbrs[v]), []).append(v)
    best = -1

    def rec(cells: list[list[int]]) -> None:
        nonlocal best
        cells = _refine(nbrs, cells)
        target = 0
        while True:
            while target < len(cells) and len(cells[target]) == 1:
                target += 1
            if target == len(cells):
                # leaf: with vertex order[i] weighted 1 << (n - 1 - i), the
                # neighbour sum of order[j] shifted right by n - j is column
                # j of the bitstring, order[0] its most significant bit
                weight = [0] * n
                for i, c in enumerate(cells):
                    weight[c[0]] = 1 << (n - 1 - i)
                bits = 0
                for j in range(1, n):
                    col = 0
                    for u in nbrs[cells[j][0]]:
                        col += weight[u]
                    bits = (bits << j) | (col >> (n - j))
                if best < 0 or bits < best:
                    best = bits
                return
            cell = cells[target]
            a = adj[cell[0]]
            b = a | (1 << cell[0])
            if not (all(adj[v] == a for v in cell)
                    or all(adj[v] | (1 << v) == b for v in cell)):
                break
            # twin cell: every refine after individualizing one of its
            # vertices is a no-op and twin skip keeps one branch per level,
            # so the cell splits into singletons in order
            cells = cells[:target] + [[v] for v in cell] + cells[target + 1:]
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

    rec([by_degree[d] for d in sorted(by_degree, reverse=True)])
    return best


def bits_to_edges(n: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Edges of a packed bitstring in graph6 pair order (`canon_bits` packs them)."""
    edges = []
    k = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if (bits >> k) & 1:
                edges.append((i, j))
    return tuple(edges)


def connected_masks(adj) -> bool:
    """Whether the graph with adjacency bitmasks `adj` is connected."""
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
    return seen == (1 << len(adj)) - 1


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
    the same classes.

    Pair pruning: when degrees[v-1] == degrees[v], v keeps only the choices
    after which d, the set of vertices other than v-1 and v adjacent to
    exactly one of them, is empty or has its lowest vertex adjacent to v-1.
    The transposition sigma = (v-1 v) fixes every degree target, and the
    first variable where a labeling L and sigma L differ is the lowest
    vertex w of d: in row w if w < v-1, else in row v-1 at column w. So
    L >= sigma L exactly when w is adjacent to v-1, and that is settled once
    v chooses. The lex-greatest labeling of a class (module docstring)
    passes this rule and the twin rule, so every class keeps a leaf; over
    every sequence with n <= 9 and c <= 3 the walk yields 1.24 leaves per
    class, and 1.30 at n = 10 (15,566 for 11,989).

    The walk is one loop over an explicit stack of vertices with choices
    left. A vertex's choices are built when the walk reaches it: the prefix
    counts per twin group in lexicographic order, first group outermost, as
    masks, with every choice that fails the residual check dropped.
    """
    n = len(degrees)
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"kernel handles 1 <= n <= {MAX_VERTICES}, got {n}")
    if any(d < 1 or d > n - 1 for d in degrees) or sum(degrees) % 2:
        return
    res = list(degrees)
    adj = [0] * n
    stack: list[list] = []      # [vertex, choice masks, index of the next one]
    v = 0
    while True:
        while v < n and not res[v]:
            v += 1
        if v == n:
            if connected_masks(adj):
                yield tuple(adj)
        else:
            stack.append([v, _choices(v, degrees, res, adj), 0])
        # move the top vertex from its last choice to its next, touching only
        # the vertices the two masks differ in; pop it when none is left
        while stack:
            frame = stack[-1]
            u, masks, i = frame
            bit = 1 << u
            last = masks[i - 1] if i else 0
            nxt = masks[i] if i < len(masks) else 0
            m = last & ~nxt
            while m:
                low = m & -m
                j = low.bit_length() - 1
                res[j] += 1
                adj[j] ^= bit
                m ^= low
            m = nxt & ~last
            while m:
                low = m & -m
                j = low.bit_length() - 1
                res[j] -= 1
                adj[j] |= bit
                m ^= low
            adj[u] = (adj[u] & (bit - 1)) | nxt
            if i == len(masks):
                stack.pop()
                continue
            frame[2] = i + 1
            v = u + 1
            break
        else:
            return


def _choices(v: int, degrees, res: list[int], adj: list[int]) -> list[int]:
    """Masks of vertex v's feasible neighbour choices, in walk order.

    Residual feasibility: after the choice, every open vertex after v needs
    as many open partners as its residual degree. That is a running count
    and maximum: the count drops by the chosen vertices of residual 1, and
    the maximum drops by one if every vertex holding it was chosen. Pair
    pruning (see `_realizations`) then drops the choices that make v's
    neighbourhood first differ from v-1's at a vertex v-1 does not see.

    v's residual r never exceeds the open vertices after v: at v = 0,
    r <= n - 1, and each parent's check keeps every open residual below the
    number of other open vertices, all of which lie after v.
    """
    r = res[v]
    open_ = [j for j in range(v + 1, len(res)) if res[j]]
    count = len(open_)
    every = ones = top = top_mask = 0
    for j in open_:
        d = res[j]
        bit = 1 << j
        every |= bit
        if d == 1:
            ones |= bit
        if d > top:
            top, top_mask = d, bit
        elif d == top:
            top_mask |= bit
    if r == count:
        partial = [(every, 0)]
    else:
        twins: dict[int, list[int]] = {}
        for j in open_:
            key = adj[j] << 4 | res[j]      # adjacency so far, residual below 16
            if key in twins:
                twins[key].append(j)
            else:
                twins[key] = [j]
        # (mask, still to choose) per prefix choice over the groups so far
        partial = [(0, r)]
        room = count
        for group in twins.values():
            room -= len(group)
            prefixes = [0]
            for j in group:
                prefixes.append(prefixes[-1] | (1 << j))
            partial = [(mask | prefixes[k], left - k)
                       for mask, left in partial
                       for k in range(max(0, left - room), min(len(group), left) + 1)]
    # pair rule; adj[v - 1] is complete and nonzero, and the choice adds
    # only bits above v to adj[v], so d = diff ^ mask
    prev = adj[v - 1] if v and degrees[v - 1] == degrees[v] else 0
    diff = (prev ^ adj[v]) & ~(3 << (v - 1)) if prev else 0
    out = []
    for mask, _ in partial:
        after = count - (mask & ones).bit_count()
        if not after or (top if mask & top_mask != top_mask else top - 1) < after:
            d = diff ^ mask
            if not prev or not d or d & -d & prev:
                out.append(mask)
    return out


def enumerate_classes(degrees) -> list[tuple[tuple[int, int], ...]]:
    """All connected isomorphism classes realizing the non-increasing `degrees`.

    Dedups the leaves of `_realizations` by canonical bits and returns the
    canonical representatives sorted by their packed bits.
    """
    reps = {canon_bits(adj) for adj in _realizations(degrees)}
    return [bits_to_edges(len(degrees), b) for b in sorted(reps)]


def leaves_by_jdm(degrees) -> dict[JdmKey, list[tuple[int, ...]]]:
    """The connected leaves of `_realizations(degrees)` grouped by their joint
    degree matrix (`sombor.jdm_key`), keys and leaves in walk order.

    A key with one leaf is one isomorphism class; a key with more leaves
    holds at least one class and at most one per leaf.
    """
    out: dict[JdmKey, list[tuple[int, ...]]] = {}
    for adj in _realizations(degrees):
        out.setdefault(jdm_key(degrees, adj), []).append(adj)
    return out
