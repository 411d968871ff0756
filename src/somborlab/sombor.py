"""The alpha rule and SO_alpha evaluation.

The general Sombor index is the sum over edges of (d(u)^2 + d(v)^2)^alpha,
alpha != 0; alpha = 0.5 is the plain Sombor index. More generally, any
symmetric bivariate f on positive reals induces a connectivity function
M_f(G) = sum over edges of f(d(u), d(v)). Either depends on a graph only
through its edge degree pairs (`edge_pair_counts`).

`classify_alpha` is the one place that decides about alpha: it rejects zero
and non-finite alpha and names h_alpha's regime, and `objective_for_alpha`
reads off which extremum over Gamma(pi) the canonical extremal graph attains.
`indices` certifies the same regimes on a finite grid.

This module imports nothing from `graphs` at load time: the two functions
that need `is_connected` take a `Graph`, so `graphs` is loaded by then, and
the grid certification and the sweeps load this module without it.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import TYPE_CHECKING

from .errors import (
    AlphaDegenerateError,
    AlphaNotFiniteError,
    AlphaZeroError,
    DisconnectedError,
    FunctionUnderflowError,
)

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
        raise AlphaZeroError("alpha must be nonzero")
    if not math.isfinite(alpha):
        raise AlphaNotFiniteError(f"alpha must be finite, got {alpha!r}")


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
    `AlphaDegenerateError`; classify_alpha rejects zero and non-finite alpha.
    """
    regime = classify_alpha(alpha)
    if regime is AlphaRegime.DEGENERATE:
        raise AlphaDegenerateError("alpha = 1: all graphs in Gamma(pi) tie")
    return Objective.MIN if regime is AlphaRegime.DE_ESCALATING else Objective.MAX


def sombor_value(a: int, b: int, alpha: float) -> float:
    return (a * a + b * b) ** alpha


def edge_pair_counts(g: Graph) -> list[tuple[tuple[int, int], int]]:
    counts: dict[tuple[int, int], int] = {}
    degs = g.degrees
    for u, v in g.edges:
        a, b = degs[u], degs[v]
        key = (a, b) if a >= b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def connectivity_function(g: Graph, f: BivariateFunction) -> float:
    """M_f(g), summed over the multiset of edge degree pairs in sorted order.

    The sorted aggregation makes the float result a function of the degree-pair
    multiset alone, so isomorphic graphs get bit-identical values.
    """
    from .graphs import is_connected
    if not is_connected(g):
        raise DisconnectedError("connectivity functions are defined on connected graphs")
    return math.fsum(cnt * f(a, b) for (a, b), cnt in edge_pair_counts(g))


def check_no_underflow(pairs, alphas) -> None:
    """The grid's rule on an SO_alpha sum: no h_alpha term may be 0.0 or subnormal.

    `pairs` are edge degree pairs ((x, y), count). Such a term carries no
    information, so graphs would tie at 0.0; `FunctionUnderflowError` is
    raised instead. For alpha > 0 every term is at least 2^alpha > 1; for
    alpha < 0 the smallest term is that of the most negative alpha at the
    largest x^2 + y^2, so one term is checked per call.
    """
    low = min(alphas, default=0.0)
    if low >= 0 or not pairs:
        return
    top = max(x * x + y * y for (x, y), _ in pairs)
    v = top ** low
    if v < sys.float_info.min:
        raise FunctionUnderflowError(
            f"h_{low:g} = {v!r} at x^2 + y^2 = {top} is below the normal float "
            f"range; use a smaller |alpha|"
        )


def sombor_general(g: Graph, alpha: float) -> float:
    """General Sombor index SO_alpha(g); alpha = 0.5 is the Sombor index.

    An h_alpha term that underflows raises `FunctionUnderflowError`.
    """
    from .graphs import is_connected
    _check_alpha(alpha)
    if not is_connected(g):
        raise DisconnectedError("SO_alpha is defined on connected graphs")
    pairs = edge_pair_counts(g)
    check_no_underflow(pairs, (alpha,))
    return math.fsum(cnt * sombor_value(a, b, alpha) for (a, b), cnt in pairs)
