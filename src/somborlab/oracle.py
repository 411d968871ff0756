"""Exhaustive ground truth at desk scale.

Everything here is brute force on purpose: enumerate Gamma(pi) (all connected
graphs with degree sequence pi, one representative per isomorphism class),
take exact index extrema with witnesses, decide majorization, and restate the
paper-scale claims as finite checks:

  theorem 1   some extremal class is a special extremal BFS-graph
  theorem 2   the canonical construction attains the oracle extremum
  theorem 3   majorization pi < pi' implies strictly larger oracle maximum
              for alpha > 1

The primary enumeration backtracks over neighbour assignments with residual
and twin pruning and dedups by canonical code (see _kernels); its class lists
are memoized per degree sequence, since the verifiers revisit the same pi.
SO_alpha sums over edges, so a graph's value depends only on its joint degree
matrix: values are computed once per matrix, and Theorem 3, which reports no
class, takes its maxima over the matrices the same walk yields without
building or canonically labeling a class. An independent strategy filters
all edge subsets and is compared class set by class set in
`verify_enumeration_cross_check`. Values are binary64 with 1e-9
relative tolerance; graphs are always compared by canonical code, never by
float.

The only bound here is the kernel's `MAX_VERTICES`. The desk-scale cap
`Caps.enum` is checked once, by the CLI, where outside input enters.
"""

from __future__ import annotations

import functools
import math
import os
import time
from typing import NamedTuple

from . import _kernels
from .bfs import BfsWitness, is_special_extremal_bfs
from .construct import Objective, extremal_graph
from .errors import (
    AlphaNotAboveOneError,
    AlphaZeroError,
    CapsSyntaxError,
    LengthMismatchError,
    TimeBudgetExceededError,
    TooLargeError,
    UnsupportedCError,
    UnsupportedObjectiveError,
    ValidationError,
)
from .graphs import (
    DegreeSequence,
    Graph,
    format_graph6,
    validate_connected_c_cyclic,
)
from .indices import REL_TOL, edge_pair_counts

#: default desk-scale cap on n for `enumerate` and every `verify` sweep
ENUM_N_MAX = 10


class Caps(NamedTuple):
    """Desk-scale caps, overridden only by SOMBOR_CAPS (e.g. "enum=12")."""
    enum: int = ENUM_N_MAX


def load_caps(text: str | None = None) -> Caps:
    """Parse a SOMBOR_CAPS-style override, e.g. "enum=8".

    An unknown key or a non-integer value raises `CapsSyntaxError`.
    """
    if text is None:
        text = os.environ.get("SOMBOR_CAPS", "")
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in Caps._fields:
            raise CapsSyntaxError(f"unknown cap {key!r} in SOMBOR_CAPS")
        try:
            values[key] = int(val)
        except ValueError:
            raise CapsSyntaxError(f"cap {key!r} in SOMBOR_CAPS needs an integer, "
                                  f"got {val.strip()!r}") from None
    return Caps(**values)


class Deadline:
    """Cooperative time budget, checked between enumeration units."""

    def __init__(self, seconds: float | None = None):
        self.seconds = seconds
        self.start = time.monotonic()

    def remaining(self) -> float | None:
        if self.seconds is None:
            return None
        return self.seconds - (time.monotonic() - self.start)

    def check(self, partial=None) -> None:
        rem = self.remaining()
        if rem is not None and rem <= 0:
            raise TimeBudgetExceededError(
                f"time budget of {self.seconds}s exhausted", partial=partial
            )


def _pmap(fn, items, workers: int = 1, deadline: Deadline | None = None) -> list:
    """Order-preserving map that checks the deadline before each unit.

    Every unit runs in this process: once enumeration is memoized and
    twin-pruned, a process pool per (n, c) costs more than it saves. `workers`
    is ignored; it stays only because perfbench/layers.py hooks this signature.
    """
    out = []
    for it in items:
        if deadline:
            deadline.check(partial=out)
        out.append(fn(it))
    return out


# -- enumeration -----------------------------------------------------------------

def enumerate_gamma(pi: DegreeSequence) -> list[Graph]:
    """All of Gamma(pi) up to isomorphism, sorted by canonical code.

    Representatives are canonically labeled, so the list (and every report
    built from it) is deterministic. The class list is cached per degree
    sequence; the returned list is a fresh copy. An n above the kernel's
    `MAX_VERTICES` raises `TooLargeError`; the desk-scale cap is the CLI's.
    """
    validate_connected_c_cyclic(pi)
    _check_kernel_bound(pi.n)
    return list(_gamma(pi.degrees))


def _check_kernel_bound(n: int) -> None:
    if n > _kernels.MAX_VERTICES:
        raise TooLargeError(f"enumeration capped at n <= {_kernels.MAX_VERTICES}, "
                            f"got n = {n}")


@functools.lru_cache(maxsize=1024)
def _gamma(degrees: tuple[int, ...]) -> tuple[Graph, ...]:
    return tuple(Graph(len(degrees), edges)
                 for edges in _kernels.enumerate_classes(degrees))


@functools.lru_cache(maxsize=1024)
def _jdms(degrees: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, int], int], ...], ...]:
    """The distinct joint degree matrices over Gamma(pi), sorted."""
    return tuple(sorted(_kernels.joint_degree_matrices(degrees)))


def _values_for_alphas(pairs, alphas) -> dict[float, float]:
    """SO_alpha per alpha from edge degree pairs ((x, y), count).

    `math.fsum` is correctly rounded, so the value depends on the multiset of
    pairs alone: equal joint degree matrices give bit-identical floats.
    """
    return {
        a: math.fsum(cnt * (x * x + y * y) ** a for (x, y), cnt in pairs)
        for a in alphas
    }


def _class_values(graphs, alphas) -> list[dict[float, float]]:
    """`_values_for_alphas` per graph, computed once per joint degree matrix.

    Graphs with the same matrix share one dict.
    """
    by_jdm: dict[tuple, dict[float, float]] = {}
    out = []
    for g in graphs:
        pairs = tuple(edge_pair_counts(g))
        values = by_jdm.get(pairs)
        if values is None:
            values = by_jdm[pairs] = _values_for_alphas(pairs, alphas)
        out.append(values)
    return out


class ExtremaReport(NamedTuple):
    pi: DegreeSequence
    alpha: float
    min_value: float
    max_value: float
    min_witnesses: tuple[Graph, ...]
    max_witnesses: tuple[Graph, ...]
    class_size: int

    def to_record(self) -> dict:
        return {
            "pi": list(self.pi.degrees),
            "alpha": self.alpha,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "min_witnesses": [format_graph6(g) for g in self.min_witnesses],
            "max_witnesses": [format_graph6(g) for g in self.max_witnesses],
            "class_size": self.class_size,
        }


def oracle_extrema(pi: DegreeSequence, alpha: float) -> ExtremaReport:
    if alpha == 0:
        raise AlphaZeroError("alpha must be nonzero")
    graphs = enumerate_gamma(pi)
    values = [v[alpha] for v in _class_values(graphs, (alpha,))]
    lo, hi = min(values), max(values)
    min_w = tuple(g for g, v in zip(graphs, values) if v <= lo * (1 + REL_TOL))
    max_w = tuple(g for g, v in zip(graphs, values) if v >= hi * (1 - REL_TOL))
    return ExtremaReport(pi, alpha, lo, hi, min_w, max_w, len(graphs))


# -- majorization ------------------------------------------------------------------

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


# -- sequence generation -----------------------------------------------------------

def generate_c_cyclic_sequences(n: int, c: int, require_pendant: bool) -> list[DegreeSequence]:
    """All connected-realizable c-cyclic sequences of length n, descending lex order.

    No desk-scale cap applies here; the CLI checks n against `Caps.enum`.
    """
    if c < 0 or c > 3:
        raise UnsupportedCError(f"c = {c} outside supported range 0..3")
    if n < 2:
        raise ValidationError(f"n = {n} is too small: need n >= 2")
    target = 2 * (n + c - 1)
    out: list[DegreeSequence] = []

    def rec(prefix: list[int], remaining: int, slots: int, high: int) -> None:
        if slots == 0:
            if remaining == 0:
                pi = DegreeSequence(tuple(prefix))
                try:
                    validate_connected_c_cyclic(pi)
                except Exception:
                    return
                if not require_pendant or pi.degrees[-1] == 1:
                    out.append(pi)
            return
        top = min(high, remaining - (slots - 1))
        for d in range(top, 0, -1):
            if d * slots < remaining:
                break
            rec(prefix + [d], remaining - d, slots - 1, d)

    rec([], target, n, n - 1)
    return out


# -- theorem verifiers --------------------------------------------------------------

def objective_for_alpha(alpha: float) -> Objective:
    """The paper's pairing: minimize for 0 < alpha < 1, maximize otherwise."""
    if alpha == 0:
        raise AlphaZeroError("alpha must be nonzero")
    if alpha == 1:
        raise UnsupportedObjectiveError("alpha = 1 is degenerate: all values tie")
    return Objective.MIN if 0 < alpha < 1 else Objective.MAX


class SequenceCheck(NamedTuple):
    pi: DegreeSequence
    alpha: float
    objective: str
    constructed_value: float
    oracle_value: float
    class_size: int
    ok: bool

    def to_record(self) -> dict:
        return {
            "pi": list(self.pi.degrees),
            "alpha": self.alpha,
            "objective": self.objective,
            "constructed_value": self.constructed_value,
            "oracle_value": self.oracle_value,
            "class_size": self.class_size,
            "ok": self.ok,
        }


class Theorem2Report(NamedTuple):
    n: int
    c: int
    alphas: tuple[float, ...]
    checks: tuple[SequenceCheck, ...]
    holds: bool
    elapsed_seconds: float

    def to_record(self) -> dict:
        return {
            "theorem": 2,
            "n": self.n,
            "c": self.c,
            "alphas": list(self.alphas),
            "sequences": len({c.pi for c in self.checks}),
            "checks": [c.to_record() for c in self.checks],
            "violations": [c.to_record() for c in self.checks if not c.ok],
            "holds": self.holds,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _theorem2_one(args) -> list[SequenceCheck]:
    degrees, alphas = args
    pi = DegreeSequence(degrees)
    graphs = enumerate_gamma(pi)
    per_graph = _class_values(graphs, alphas)
    built_values = None
    checks = []
    for alpha in alphas:
        objective = objective_for_alpha(alpha)
        values = [v[alpha] for v in per_graph]
        oracle_value = min(values) if objective is Objective.MIN else max(values)
        if built_values is None:
            # the construction depends on pi alone once the pairing is valid
            built = extremal_graph(pi, alpha, objective)
            built_values = _values_for_alphas(edge_pair_counts(built.graph), alphas)
        built_value = built_values[alpha]
        ok = math.isclose(built_value, oracle_value, rel_tol=REL_TOL)
        checks.append(SequenceCheck(pi, alpha, objective.value, built_value,
                                    oracle_value, len(graphs), ok))
    return checks


def verify_theorem2(n: int, c: int, alphas=(0.25, 0.5, 0.75, -1.0, -0.5, 1.5, 2.0, 3.0),
                    *, deadline: Deadline | None = None) -> Theorem2Report:
    """Constructed T/U/B value equals the oracle extremum for every pendant sequence."""
    t0 = time.monotonic()
    alphas = tuple(alphas)
    for a in alphas:
        objective_for_alpha(a)   # validates the pairing is defined
    seqs = generate_c_cyclic_sequences(n, c, require_pendant=True)
    groups = _pmap(_theorem2_one, [(s.degrees, alphas) for s in seqs],
                   deadline=deadline)
    checks = tuple(ch for group in groups for ch in group)
    return Theorem2Report(n, c, alphas, checks, all(ch.ok for ch in checks),
                          time.monotonic() - t0)


class PairCheck(NamedTuple):
    lower: DegreeSequence
    upper: DegreeSequence
    alpha: float
    lower_max: float
    upper_max: float
    ok: bool

    def to_record(self) -> dict:
        return {
            "pi": list(self.lower.degrees),
            "pi_prime": list(self.upper.degrees),
            "alpha": self.alpha,
            "max_so_pi": self.lower_max,
            "max_so_pi_prime": self.upper_max,
            "ok": self.ok,
        }


class Theorem3Report(NamedTuple):
    n: int
    c: int
    alphas: tuple[float, ...]
    require_pendant: bool
    pairs: tuple[PairCheck, ...]
    holds: bool
    elapsed_seconds: float

    def to_record(self) -> dict:
        return {
            "theorem": 3,
            "n": self.n,
            "c": self.c,
            "alphas": list(self.alphas),
            "require_pendant": self.require_pendant,
            "pairs_checked": len(self.pairs),
            "violations": [p.to_record() for p in self.pairs if not p.ok],
            "holds": self.holds,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _maxima_one(args) -> list[float]:
    """Max SO_alpha over Gamma(pi) per alpha, read off the joint degree matrices.

    No class is reported, so no class is built: the values depend only on
    each graph's matrix, and `_jdms` holds every matrix Gamma(pi) realizes.
    """
    degrees, alphas = args
    validate_connected_c_cyclic(DegreeSequence(degrees))
    _check_kernel_bound(len(degrees))
    per_jdm = [_values_for_alphas(pairs, alphas) for pairs in _jdms(degrees)]
    return [max(v[a] for v in per_jdm) for a in alphas]


def verify_theorem3(n: int, c: int, alpha=(1.5, 2.0, 3.0), *,
                    require_pendant: bool = False,
                    deadline: Deadline | None = None) -> Theorem3Report:
    """Strictly larger oracle maximum along every majorization pair, alpha > 1."""
    t0 = time.monotonic()
    alphas = tuple(alpha) if isinstance(alpha, (tuple, list)) else (float(alpha),)
    for a in alphas:
        if a <= 1:
            raise AlphaNotAboveOneError(f"theorem 3 needs alpha > 1, got {a}")
    seqs = generate_c_cyclic_sequences(n, c, require_pendant=require_pendant)
    maxima = _pmap(_maxima_one, [(s.degrees, alphas) for s in seqs],
                   deadline=deadline)
    pairs: list[PairCheck] = []
    for i, lo in enumerate(seqs):
        for j, hi in enumerate(seqs):
            if i == j or not is_majorized(lo, hi).holds:
                continue
            for k, a in enumerate(alphas):
                mlo, mhi = maxima[i][k], maxima[j][k]
                ok = (mhi - mlo) > REL_TOL * max(abs(mlo), abs(mhi))
                pairs.append(PairCheck(lo, hi, a, mlo, mhi, ok))
    return Theorem3Report(n, c, alphas, require_pendant, tuple(pairs),
                          all(p.ok for p in pairs), time.monotonic() - t0)


class ExistenceReport(NamedTuple):
    pi: DegreeSequence
    alpha: float
    objective: str
    extremal_value: float
    class_size: int
    witnesses_checked: int
    holds: bool
    witness: Graph | None
    witness_ordering: BfsWitness | None

    def to_record(self) -> dict:
        return {
            "pi": list(self.pi.degrees),
            "alpha": self.alpha,
            "objective": self.objective,
            "extremal_value": self.extremal_value,
            "class_size": self.class_size,
            "witnesses_checked": self.witnesses_checked,
            "holds": self.holds,
            "witness": format_graph6(self.witness) if self.witness else None,
            "witness_ordering": list(self.witness_ordering.ordering)
            if self.witness_ordering else None,
            "witness_layers": list(self.witness_ordering.layers)
            if self.witness_ordering else None,
        }


def verify_special_bfs_existence(pi: DegreeSequence, alpha: float,
                                 objective: Objective | None = None
                                 ) -> ExistenceReport:
    """Some oracle-extremal class passes is_special_extremal_bfs (theorem 1)."""
    paired = objective_for_alpha(alpha)
    if objective is None:
        objective = paired
    elif objective is not paired:
        raise UnsupportedObjectiveError(
            f"objective {objective.value} does not pair with alpha = {alpha}"
        )
    if pi.degrees[-1] != 1:
        raise UnsupportedObjectiveError("theorem 1 needs a pendant sequence (d_n = 1)")
    c = validate_connected_c_cyclic(pi)
    report = oracle_extrema(pi, alpha)
    pool = report.min_witnesses if objective is Objective.MIN else report.max_witnesses
    value = report.min_value if objective is Objective.MIN else report.max_value
    for g in pool:
        w = is_special_extremal_bfs(g, c)
        if w is not None:
            return ExistenceReport(pi, alpha, objective.value, value,
                                   report.class_size, len(pool), True, g, w)
    return ExistenceReport(pi, alpha, objective.value, value, report.class_size,
                           len(pool), False, None, None)


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
    by_subsets = _kernels.classes_by_sequence(n, n + c - 1)
    mismatches = []
    total = 0
    for pi in seqs:
        graphs = enumerate_gamma(pi)
        keys_a = {_kernels.canon_bits(g.n, g.edges) for g in graphs}
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
