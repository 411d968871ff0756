"""Exhaustive ground truth at desk scale.

Everything here is brute force on purpose: enumerate Gamma(pi) (all connected
graphs with degree sequence pi, one representative per isomorphism class),
take exact index extrema with witnesses, and restate the paper-scale claims
as finite checks:

  theorem 1   some extremal class is a special extremal BFS-graph
  theorem 2   the canonical construction attains the oracle extremum
  theorem 3   majorization pi < pi' implies a strictly larger oracle maximum
              for alpha > 1, and a strictly larger minimum for 0 < alpha < 1

The primary enumeration backtracks over neighbour assignments with residual,
twin and pair pruning (see _kernels). SO_alpha sums over edges, so a graph's
value depends only on its joint degree matrix (JDM), and values come from the
JDM layer in `sombor`, once per distinct key. So Gamma(pi) is read by JDM,
from the walk's leaves grouped by key (`_kernels.leaves_by_jdm`), and its
classes only through pi's `GammaRecord` (`gamma_record`), memoized since the
verifiers revisit the same pi. A key with one leaf is one class; a key with
two or more is canonically labeled when the record is built, since only
labels tell how many classes it holds. Any other class gets its canonical
label only when a report names it:

  enumerate_gamma and the `enumerate` command
              label every key, and list the classes by canonical code
  oracle_extrema, theorem 1 and theorem 2
              label the key attaining each extremum, for its witnesses;
              theorem 1 keeps each class's BFS verdict on the record
  theorem 3   reports no class: its extrema come from the keys alone, and it
              keeps no record; its pendant report restricts the full one

An independent strategy, which filters all edge subsets, lives in
`crosscheck` and is compared with `enumerate_gamma` class set by class set
there; no sweep loads it.

Values are binary64, and one rule, `GammaRecord.extremum`, decides which
classes attain an extremum: those of the one JDM key that attains it. A
second key whose value equals that extremum or lies within the relative
tolerance 1e-9 (`_close`) of it raises `ExtremumResolutionError`, since
floats cannot tell distinct JDMs apart there, and no membership is decided
by rounding. The one exception is alpha = 1, where every key has the value
sum(d^3) exactly and every class wins. Theorem 3 refuses two extrema
`_close` to each other the same way.
Graphs are always compared by canonical code, never by float.

The only bound here is the kernel's `MAX_VERTICES`. The desk-scale cap
`Caps.enum` lives in `limits` and is checked once, by the CLI, where outside
input enters; the time budget `Deadline` comes from `limits` too.
`is_majorized` (from `graphs`) and `Objective` and `objective_for_alpha`
(from `sombor`) are bound here, and so is the layer's evaluator,
`sombor.values`, as `_values_for_alphas`. The BFS
recognizer and the constructor are imported where they are called, for
Theorem 1 (`GammaRecord.special_bfs`) and Theorem 2 (`_theorem2_one`), so a
sweep loads only the layers it runs.
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING, NamedTuple

from . import _kernels
from .errors import (
    EmptySweepError,
    ExtremumResolutionError,
    MinDegreeNotOneError,
    TooLargeError,
    UnrealizableError,
    ValidationError,
)
from .graphs import (
    DegreeSequence,
    Graph,
    format_graph6,
    is_majorized,
    validate_connected_c_cyclic,
)
from .limits import Deadline
from .sombor import (REL_TOL, JdmKey, Objective, classify_alpha, edge_pair_counts,
                     objective_for_alpha, values_by_key)
from .sombor import values as _values_for_alphas

if TYPE_CHECKING:
    from .bfs import BfsWitness

#: the default alphas of Theorem 1, of Theorem 2 (de-escalating, then
#: escalating) and of Theorem 3
DEFAULT_T1_ALPHAS = (0.5, 2.0)
DEFAULT_T2_ALPHAS = (0.25, 0.5, 0.75, -1.0, -0.5, 1.5, 2.0, 3.0)
DEFAULT_T3_ALPHAS = (1.5, 2.0, 3.0)


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
    built from it) is deterministic. Gamma(pi) is cached per degree sequence
    (`GammaRecord`), and this labels every class of it; the returned list is
    a fresh copy. An n above the kernel's `MAX_VERTICES` raises
    `TooLargeError`; the desk-scale cap is the CLI's.
    """
    record = gamma_record(pi)
    return [record.graph(bits) for bits, _ in record.labeled()]


def _check_kernel_bound(n: int) -> None:
    if n > _kernels.MAX_VERTICES:
        raise TooLargeError(f"enumeration capped at n <= {_kernels.MAX_VERTICES}, "
                            f"got n = {n}")


class GammaRecord:
    """Gamma(pi) read by joint degree matrix, labeled only where asked.

    The enumeration walk's leaves are grouped by JDM key
    (`_kernels.leaves_by_jdm`). A key with one leaf is one class and stays
    unlabeled. A key with two or more leaves is labeled when the record is
    built: its leaves' canonical bits, deduplicated and sorted, are its
    classes. `size`, the class count, is the sum over keys. A one-leaf key
    is labeled the first time a report asks for its class, and the label,
    each class's `Graph` and its BFS verdict are kept on the record.
    """

    def __init__(self, degrees: tuple[int, ...]):
        self.degrees = degrees
        self.n = len(degrees)
        groups = _kernels.leaves_by_jdm(degrees)
        self.keys: tuple[JdmKey, ...] = tuple(groups)   # walk order
        self._leaf = {key: leaves[0] for key, leaves in groups.items()
                      if len(leaves) == 1}
        self._bits = {key: tuple(sorted({_kernels.canon_bits(adj) for adj in leaves}))
                      for key, leaves in groups.items() if len(leaves) > 1}
        self.size = len(self._leaf) + sum(map(len, self._bits.values()))
        self._graphs: dict[int, Graph] = {}
        self._verdicts: dict[int, BfsWitness | None] = {}

    def _classes(self, key: JdmKey) -> tuple[int, ...]:
        """The canonical bits of key's classes, ascending."""
        if key not in self._bits:
            self._bits[key] = (_kernels.canon_bits(self._leaf.pop(key)),)
        return self._bits[key]

    def labeled(self) -> list[tuple[int, JdmKey]]:
        """(canonical bits, key) of every class, in canonical order."""
        return sorted((bits, key) for key in self.keys for bits in self._classes(key))

    def graph(self, bits: int) -> Graph:
        """The canonically labeled representative of the class `bits`."""
        if bits not in self._graphs:
            self._graphs[bits] = Graph(self.n, _kernels.bits_to_edges(self.n, bits))
        return self._graphs[bits]

    def extremum(self, table: dict[JdmKey, dict[float, float]], alpha: float,
                 objective: Objective) -> tuple[float, list[int]]:
        """The value `objective` picks from the keys' values at alpha in `table`
        (`values_by_key`), and the canonical bits of the classes of the one key
        that attains it, ascending; only that key is labeled.

        Another key whose value equals the extremum or lies within `_close`
        of it raises `ExtremumResolutionError`, naming pi and alpha: floats
        cannot tell whether a second JDM attains it too. At alpha = 1 every
        key has the value sum(d^3) exactly, and every class wins.
        """
        values = [table[key][alpha] for key in self.keys]
        value = min(values) if objective is Objective.MIN else max(values)
        winners = [key for key, v in zip(self.keys, values) if _close(v, value)]
        if len(winners) > 1 and alpha != 1:
            raise ExtremumResolutionError(
                f"cannot resolve the {objective.value} of SO_alpha over Gamma(pi) at "
                f"alpha = {alpha!r} for pi = {','.join(map(str, self.degrees))}: "
                f"{len(winners)} JDMs lie within the relative tolerance {REL_TOL:g} "
                f"of {value!r}")
        return value, sorted(bits for key in winners for bits in self._classes(key))

    def special_bfs(self, bits: int) -> BfsWitness | None:
        """`is_special_extremal_bfs` of the class `bits`, run once per class."""
        if bits not in self._verdicts:
            from .bfs import is_special_extremal_bfs
            self._verdicts[bits] = is_special_extremal_bfs(self.graph(bits))
        return self._verdicts[bits]


def gamma_record(pi: DegreeSequence) -> GammaRecord:
    """pi's memoized record. pi must be connected-realizable with n at most
    the kernel's `MAX_VERTICES`, or this raises."""
    validate_connected_c_cyclic(pi)
    _check_kernel_bound(pi.n)
    return _gamma(pi.degrees)


# Theorem 1 asks once per alpha (85 hits in 170 calls by its default sweep),
# and the test suite runs about a fifth slower without this cache.
@functools.lru_cache(maxsize=1024)
def _gamma(degrees: tuple[int, ...]) -> GammaRecord:
    return GammaRecord(degrees)


# -- the extremum rule ---------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    """Whether floats cannot order a and b: |a - b| <= REL_TOL * max(|a|, |b|)."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class ExtremaReport(NamedTuple):
    pi: DegreeSequence
    alpha: float
    min_value: float
    max_value: float
    min_witnesses: tuple[Graph, ...]
    max_witnesses: tuple[Graph, ...]
    class_size: int


def oracle_extrema(pi: DegreeSequence, alpha: float) -> ExtremaReport:
    classify_alpha(alpha)       # rejects zero and non-finite alpha; at 1 all tie
    record = gamma_record(pi)
    table = values_by_key(record.keys, (alpha,))
    lo, min_bits = record.extremum(table, alpha, Objective.MIN)
    hi, max_bits = record.extremum(table, alpha, Objective.MAX)
    return ExtremaReport(pi, alpha, lo, hi, tuple(map(record.graph, min_bits)),
                         tuple(map(record.graph, max_bits)), record.size)


# -- sequence generation -----------------------------------------------------------

def generate_c_cyclic_sequences(n: int, c: int, require_pendant: bool) -> list[DegreeSequence]:
    """All connected-realizable c-cyclic sequences of length n, descending lex order.

    Any c >= 0 is allowed, and a c above C(n, 2) - n + 1 gives []. No
    desk-scale cap applies here; the CLI checks n against `Caps.enum`.
    """
    if c < 0:
        raise ValidationError(f"c = {c} is negative: need c >= 0")
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
                except UnrealizableError:
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

class SequenceCheck(NamedTuple):
    pi: DegreeSequence
    alpha: float
    objective: str
    constructed_value: float
    oracle_value: float
    class_size: int
    ok: bool
    constructed: Graph
    # the class attaining oracle_value with the smallest canonical code; only
    # the key attaining it is labeled to find it
    oracle_witness: Graph

    def to_record(self) -> dict:
        """The check's values; a violation also names both graphs in graph6."""
        record = {
            "pi": list(self.pi.degrees),
            "alpha": self.alpha,
            "objective": self.objective,
            "constructed_value": self.constructed_value,
            "oracle_value": self.oracle_value,
            "class_size": self.class_size,
            "ok": self.ok,
        }
        if not self.ok:
            record["constructed_graph6"] = format_graph6(self.constructed)
            record["oracle_graph6"] = format_graph6(self.oracle_witness)
        return record


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


def _theorem2_one(degrees: tuple[int, ...], alphas: tuple[float, ...]) -> list[SequenceCheck]:
    from .construct import extremal_graph
    pi = DegreeSequence(degrees)
    built = extremal_graph(pi).graph
    built_values = _values_for_alphas(edge_pair_counts(built), alphas)
    record = gamma_record(pi)
    table = values_by_key(record.keys, alphas)
    checks = []
    for alpha in alphas:
        objective = objective_for_alpha(alpha)
        oracle_value, winners = record.extremum(table, alpha, objective)
        built_value = built_values[alpha]
        checks.append(SequenceCheck(pi, alpha, objective.value, built_value,
                                    oracle_value, record.size, built_value == oracle_value,
                                    built, record.graph(winners[0])))
    return checks


def verify_theorem2(n: int, c: int, alphas=DEFAULT_T2_ALPHAS, *,
                    deadline: Deadline | None = None) -> Theorem2Report:
    """Constructed T/U/B value equals the oracle extremum for every pendant sequence.

    `alphas` must be non-empty, or the sweep would pass vacuously, and each
    alpha must pair with an extremum (`objective_for_alpha`). The built graph
    is in Gamma(pi), so its JDM is one of the record's keys, and its value is
    bit-identical to that key's. It passes exactly when its key is the one
    that attains the extremum: `GammaRecord.extremum` refuses a second key
    equal or `_close` to the extremum before any verdict.
    """
    t0 = time.monotonic()
    alphas = tuple(alphas)
    if not alphas:
        raise EmptySweepError("theorem 2 needs at least one alpha")
    for a in alphas:
        objective_for_alpha(a)
    _check_kernel_bound(n)
    seqs = generate_c_cyclic_sequences(n, c, require_pendant=True)
    groups = _pmap(lambda degrees: _theorem2_one(degrees, alphas),
                   [s.degrees for s in seqs], deadline=deadline)
    checks = tuple(ch for group in groups for ch in group)
    return Theorem2Report(n, c, alphas, checks, all(ch.ok for ch in checks),
                          time.monotonic() - t0)


class PairCheck(NamedTuple):
    lower: DegreeSequence
    upper: DegreeSequence
    alpha: float
    objective: str
    lower_value: float
    upper_value: float
    ok: bool

    def to_record(self) -> dict:
        return {
            "pi": list(self.lower.degrees),
            "pi_prime": list(self.upper.degrees),
            "alpha": self.alpha,
            f"{self.objective}_so_pi": self.lower_value,
            f"{self.objective}_so_pi_prime": self.upper_value,
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

    def pendant(self) -> Theorem3Report:
        """This report restricted to the pairs of two pendant sequences (d_n = 1),
        in order: filtering keeps the sequences' order, so a sweep over the
        pendant sequences alone would give the same pairs."""
        pairs = tuple(p for p in self.pairs
                      if p.lower.degrees[-1] == p.upper.degrees[-1] == 1)
        return self._replace(require_pendant=True, pairs=pairs,
                             holds=all(p.ok for p in pairs))

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


def _extrema(degrees: tuple[int, ...], alphas: tuple[float, ...]) -> tuple[float, ...]:
    """The extremum of SO_alpha over Gamma(pi) that `objective_for_alpha` names,
    per alpha, read off the JDM keys of the walk's leaves (`_kernels.leaves_by_jdm`).

    No class is reported, so none is built or labeled, and the leaves are
    dropped after the call rather than kept on pi's record: a Theorem 3
    sweep asks for each pi's extrema once.
    """
    table = values_by_key(_kernels.leaves_by_jdm(degrees), alphas)
    picks = [min if objective_for_alpha(a) is Objective.MIN else max for a in alphas]
    return tuple(pick(v[a] for v in table.values()) for pick, a in zip(picks, alphas))


def verify_theorem3(n: int, c: int, alphas=DEFAULT_T3_ALPHAS, *,
                    deadline: Deadline | None = None) -> Theorem3Report:
    """Strictly larger oracle extremum along every majorization pair: the one
    `objective_for_alpha` pairs with alpha, the maximum for alpha > 1 and the
    minimum for 0 < alpha < 1.

    The report covers every sequence, and `Theorem3Report.pendant` restricts
    it to the pendant ones. `alphas` is a non-empty sequence, or the sweep
    would pass vacuously. Alpha < 0 is refused: neither extremum rises there.
    Two extrema `_close` to each other cannot be ordered by floats, so such
    a pair raises `ExtremumResolutionError` rather than count as a violation.
    """
    t0 = time.monotonic()
    alphas = tuple(alphas)
    if not alphas:
        raise EmptySweepError("theorem 3 needs at least one alpha")
    objectives = tuple(map(objective_for_alpha, alphas))
    if min(alphas) < 0:
        raise ValidationError(f"theorem 3 needs alpha > 0, got {min(alphas)}: for alpha < 0, "
                              f"where h_alpha decreases, neither extremum rises")
    _check_kernel_bound(n)
    seqs = generate_c_cyclic_sequences(n, c, require_pendant=False)
    extrema = _pmap(lambda s: _extrema(s.degrees, alphas), seqs, deadline=deadline)
    pairs: list[PairCheck] = []
    for i, lo in enumerate(seqs):
        # lo majorized by hi (so lo != hi) forces lo_k < hi_k at their first
        # difference k: hi precedes lo in the descending lex order of `seqs`
        for j, hi in enumerate(seqs[:i]):
            if not is_majorized(lo, hi).holds:
                continue
            for k, (a, objective) in enumerate(zip(alphas, objectives)):
                vlo, vhi = extrema[i][k], extrema[j][k]
                if _close(vlo, vhi):
                    side, advice = (("maxima", "a smaller alpha") if objective is Objective.MAX
                                    else ("minima", "an alpha farther from 0"))
                    raise ExtremumResolutionError(
                        f"theorem 3 cannot order the {side} at alpha = {a!r} for pi = "
                        f"{','.join(map(str, lo.degrees))} and pi' = "
                        f"{','.join(map(str, hi.degrees))}: {vlo!r} and {vhi!r} lie "
                        f"within the relative tolerance {REL_TOL:g}; use {advice}")
                pairs.append(PairCheck(lo, hi, a, objective.value, vlo, vhi, vhi > vlo))
    return Theorem3Report(n, c, alphas, False, tuple(pairs),
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


def verify_special_bfs_existence(pi: DegreeSequence, alpha: float) -> ExistenceReport:
    """Some oracle-extremal class passes is_special_extremal_bfs (theorem 1).

    The extremum is the one `objective_for_alpha` pairs with alpha, and only
    that one is resolved; its pool is the classes of the one JDM attaining it.
    """
    objective = objective_for_alpha(alpha)
    if pi.degrees[-1] != 1:
        raise MinDegreeNotOneError("theorem 1 needs a pendant sequence (d_n = 1)")
    record = gamma_record(pi)
    value, winners = record.extremum(values_by_key(record.keys, (alpha,)), alpha, objective)
    for bits in winners:
        w = record.special_bfs(bits)
        if w is not None:
            return ExistenceReport(pi, alpha, objective.value, value, record.size,
                                   len(winners), True, record.graph(bits), w)
    return ExistenceReport(pi, alpha, objective.value, value, record.size,
                           len(winners), False, None, None)
