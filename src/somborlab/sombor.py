"""The alpha rule and the joint-degree-matrix layer that evaluates SO_alpha.

The general Sombor index is the sum over edges of (d(u)^2 + d(v)^2)^alpha,
alpha != 0; alpha = 0.5 is the plain Sombor index. More generally, any
symmetric bivariate f on positive reals induces a connectivity function
M_f(G) = sum over edges of f(d(u), d(v)). Either depends on a graph only
through its joint degree matrix (JDM), the multiset of edge degree pairs.

`classify_alpha` is the one place that decides about alpha: it rejects zero
and non-finite alpha and names h_alpha's regime, and `objective_for_alpha`
reads off which extremum over Gamma(pi) the canonical extremal graph attains.
`indices` certifies the same regimes on a finite grid.

The JDM layer: `jdm_key` is the one reader of the key, for `Graph`s
(`edge_pair_counts`) and the kernel's walk leaves alike; `values` is the one
SO_alpha evaluator, and `values_by_key` evaluates each distinct key once.

This module imports nothing from `graphs` at load time: the two functions
that need `is_connected` take a `Graph`, so `graphs` is loaded by then, and
the grid certification and the sweeps load this module without it.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from .graphs import Graph
    from .indices import BivariateFunction

#: comparisons of delta against 0, relative to the summed term magnitudes
REL_TOL = 1e-9


class AlphaRegime(enum.Enum):
    DE_ESCALATING = "de-escalating"   # 0 < alpha < 1
    ESCALATING = "escalating"         # alpha > 1 or alpha < 0
    DEGENERATE = "degenerate"         # alpha = 1


def _check_alpha(alpha: float) -> None:
    if alpha == 0:
        raise ValidationError("alpha must be nonzero")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")


def alpha_key(alpha: float) -> str:
    """`alpha` in `:g` form ("0.5", "2", "-1"), or its repr where that form
    would read back as another float, so that distinct alphas get distinct keys."""
    short = f"{alpha:g}"
    return short if float(short) == alpha else repr(alpha)


def classify_alpha(alpha: float) -> AlphaRegime:
    """Analytic regime of h_alpha; alpha = 0 and non-finite alpha are rejected."""
    _check_alpha(alpha)
    if alpha == 1:
        return AlphaRegime.DEGENERATE
    if 0 < alpha < 1:
        return AlphaRegime.DE_ESCALATING
    return AlphaRegime.ESCALATING


class Objective(enum.Enum):
    MIN = "min"
    MAX = "max"


def objective_for_alpha(alpha: float) -> Objective:
    """Which extremum over Gamma(pi) the canonical extremal graph attains.

    It follows from `classify_alpha`: MIN where h_alpha de-escalates
    (0 < alpha < 1), MAX where it escalates (alpha > 1 or alpha < 0). At
    alpha = 1 every graph in Gamma(pi) ties, which raises
    `ValidationError`; classify_alpha rejects zero and non-finite alpha.
    """
    regime = classify_alpha(alpha)
    if regime is AlphaRegime.DEGENERATE:
        raise ValidationError("alpha = 1: all graphs in Gamma(pi) tie")
    return Objective.MIN if regime is AlphaRegime.DE_ESCALATING else Objective.MAX


#: a JDM key: ((x, y), count) per edge degree pair, x >= y, sorted
JdmKey = tuple[tuple[tuple[int, int], int], ...]


def jdm_key(degrees, adj) -> JdmKey:
    """The JDM key of the graph with these vertex degrees and adjacency masks
    (bit v of adj[u] set iff uv is an edge); each edge is read at its lower end."""
    counts: dict[tuple[int, int], int] = {}
    for u in range(len(adj) - 1):
        du = degrees[u]
        m = adj[u] >> (u + 1) << (u + 1)
        while m:
            low = m & -m
            dv = degrees[low.bit_length() - 1]
            key = (du, dv) if du >= dv else (dv, du)
            counts[key] = counts.get(key, 0) + 1
            m ^= low
    return tuple(sorted(counts.items()))


def edge_pair_counts(g: Graph) -> JdmKey:
    """The JDM key of a `Graph` (`jdm_key`), its degrees read off the masks."""
    masks = g.adjacency_masks
    return jdm_key([m.bit_count() for m in masks], masks)


def connectivity_function(g: Graph, f: BivariateFunction) -> float:
    """M_f(g), summed over the multiset of edge degree pairs in sorted order.

    Terms that are all ints or Fractions are summed exactly; any other terms
    with `math.fsum`. The sorted aggregation makes a float result a function
    of the degree-pair multiset alone, so isomorphic graphs get bit-identical
    values.
    """
    from fractions import Fraction

    from .graphs import is_connected
    if not is_connected(g):
        raise ValidationError("connectivity functions are defined on connected graphs")
    terms = [cnt * f(a, b) for (a, b), cnt in edge_pair_counts(g)]
    exact = all(isinstance(v, (int, Fraction)) for v in terms)
    return sum(terms) if exact else math.fsum(terms)


def values(key: JdmKey, alphas) -> dict[float, float]:
    """SO_alpha per alpha of a JDM key, the `math.fsum` of cnt * (x^2 + y^2)^alpha.

    `fsum` is correctly rounded, so equal keys give bit-identical floats. No
    graphs may tie at 0.0 or infinity: a term of 0.0 or a subnormal raises
    `ValidationError` (for alpha < 0 the smallest term is that of the
    most negative alpha at the largest x^2 + y^2, so one term is checked), and
    a sum past the float range raises `OverflowError`.
    """
    low = min(alphas, default=0.0)
    if low < 0 and key:
        top = max(x * x + y * y for (x, y), _ in key)
        v = top ** low
        if v < sys.float_info.min:
            raise ValidationError(
                f"h_{alpha_key(low)} = {v!r} at x^2 + y^2 = {top} is below the normal float "
                f"range; use a smaller |alpha|"
            )
    out = {}
    for a in alphas:
        total = math.fsum(cnt * (x * x + y * y) ** a for (x, y), cnt in key)
        if not math.isfinite(total):
            raise OverflowError(f"SO_{alpha_key(a)} = {total!r} is past the float range")
        out[a] = total
    return out


def values_by_key(keys, alphas) -> dict[JdmKey, dict[float, float]]:
    """`values` of each distinct key among `keys`, each evaluated once."""
    return {key: values(key, alphas) for key in dict.fromkeys(keys)}


def sombor_general(g: Graph, alpha: float) -> float:
    """General Sombor index SO_alpha(g); alpha = 0.5 is the Sombor index.

    An h_alpha term that underflows raises `ValidationError`, and a
    value past the float range `OverflowError` (`values`).
    """
    from .graphs import is_connected
    _check_alpha(alpha)
    if not is_connected(g):
        raise ValidationError("SO_alpha is defined on connected graphs")
    return values(edge_pair_counts(g), (alpha,))[alpha]
