"""Enumeration, extrema, majorization, and the theorem verifiers."""

import math

import pytest

from somborlab import (
    DegreeSequence,
    Graph,
    Objective,
    degree_sequence_of,
    enumerate_gamma,
    format_degree_sequence,
    format_graph6,
    extremal_graph,
    generate_c_cyclic_sequences,
    is_connected,
    is_majorized,
    objective_for_alpha,
    oracle_extrema,
    parse_degree_sequence,
    parse_graph6,
    sombor_general,
    verify_enumeration_cross_check,
    verify_special_bfs_existence,
    verify_theorem2,
    verify_theorem3,
)
from somborlab import _kernels, construct, oracle, sombor
from somborlab.errors import (
    AlphaDegenerateError,
    AlphaNotFiniteError,
    CapsSyntaxError,
    EmptySweepError,
    ExtremumResolutionError,
    LengthMismatchError,
    MinDegreeNotOneError,
    NotGraphicalError,
    TimeBudgetExceededError,
    TooLargeError,
    UnsupportedCyclomaticError,
    ValidationError,
)
from somborlab.limits import ENUM_N_MAX, load_caps
from somborlab.oracle import DEFAULT_T1_ALPHAS, Deadline, _gamma


def test_enumerate_gamma_unique_realizations():
    k3 = enumerate_gamma(DegreeSequence((2, 2, 2)))
    assert len(k3) == 1 and k3[0].m == 3
    c4 = enumerate_gamma(DegreeSequence((2, 2, 2, 2)))
    assert len(c4) == 1 and c4[0].m == 4
    for g in enumerate_gamma(parse_degree_sequence("4,3,2,2,2,1,1,1")):
        assert is_connected(g)
        assert degree_sequence_of(g).degrees == (4, 3, 2, 2, 2, 1, 1, 1)


def test_enumerate_gamma_is_sorted_and_deduplicated():
    graphs = enumerate_gamma(parse_degree_sequence("3,3,2,2,1,1"))
    codes = [_kernels.canon_bits(g.adjacency_masks) for g in graphs]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    # representatives are canonically labeled already
    for g, bits in zip(graphs, codes):
        assert g == Graph(g.n, _kernels.bits_to_edges(g.n, bits))


def test_enumerate_gamma_returns_fresh_lists():
    pi = parse_degree_sequence("3,3,2,2,1,1")
    first = enumerate_gamma(pi)
    first.clear()
    assert enumerate_gamma(pi) == enumerate_gamma(pi) != []


def test_enumerate_gamma_caps_and_errors():
    with pytest.raises(TooLargeError):
        enumerate_gamma(parse_degree_sequence("2^18,1^2"))
    # the kernel's 16 vertices are the library's only bound
    with pytest.raises(TooLargeError, match="n <= 16, got n = 17"):
        enumerate_gamma(parse_degree_sequence("2^17"))
    with pytest.raises(NotGraphicalError):
        enumerate_gamma(DegreeSequence((3, 3, 1, 1)))


def test_oracle_extrema_single_class():
    rep = oracle_extrema(DegreeSequence((2, 2, 2, 2)), 0.5)
    assert rep.class_size == 1
    assert math.isclose(rep.min_value, 4 * math.sqrt(8), rel_tol=1e-12)
    assert rep.min_value == rep.max_value
    assert rep.min_witnesses == rep.max_witnesses


def test_oracle_extrema_tree_max_is_greedy():
    pi = parse_degree_sequence("3,2,2,1,1,1")
    rep = oracle_extrema(pi, 2)
    built = extremal_graph(pi).graph
    assert math.isclose(rep.max_value, sombor_general(built, 2), rel_tol=1e-12)
    codes = {_kernels.canon_bits(g.adjacency_masks) for g in rep.max_witnesses}
    assert _kernels.canon_bits(built.adjacency_masks) in codes
    # hand evaluation: spider legs (2,2,1) has pairs (3,2)x2,(3,1),(2,1)x2
    assert rep.max_value == 2 * 13 ** 2 + 10 ** 2 + 2 * 5 ** 2


def test_extremum_rule_one_jdm_attains_it():
    # synthetic tables over a real record's keys: 3^2,2^2,1^2 has three JDMs,
    # and one of them holds two classes
    record = oracle.gamma_record(DegreeSequence((3, 3, 2, 2, 1, 1)))
    assert len(record.keys) == 3 and record.size == 4
    classes = {key: [b for b, k in record.labeled() if k == key] for key in record.keys}
    multi = next(key for key in record.keys if len(classes[key]) == 2)
    one, other = (key for key in record.keys if key != multi)

    def extremum(values, objective, alpha=2.0):
        return record.extremum({key: {alpha: v} for key, v in values.items()},
                               alpha, objective)

    assert extremum({multi: 1.0, one: 2.0, other: 3.0}, Objective.MIN) == (1.0, classes[multi])
    assert extremum({multi: 1.0, one: 2.0, other: 3.0}, Objective.MAX) == (3.0, classes[other])
    # a second JDM equal or close to the extremum is refused
    for tie in (1.0, 1.0 + 1e-12):
        with pytest.raises(ExtremumResolutionError, match=r"cannot resolve the min .* "
                           r"for pi = 3,3,2,2,1,1: 2 JDMs lie within the relative tolerance"):
            extremum({multi: 1.0, one: tie, other: 3.0}, Objective.MIN)
    # a near-tie away from the extremum decides nothing
    near = {multi: 2.0, one: 1.0, other: 2.0 + 1e-12}
    assert extremum(near, Objective.MIN) == (1.0, classes[one])
    with pytest.raises(ExtremumResolutionError, match="cannot resolve the max"):
        extremum(near, Objective.MAX)
    # at alpha = 1 every key has the value sum(d^3), and every class wins
    table = sombor.values_by_key(record.keys, (1.0,))
    everything = sorted(b for b, _ in record.labeled())
    for objective in Objective:
        assert record.extremum(table, 1.0, objective) == (72.0, everything)   # 2 * (27 + 8 + 1)
    assert oracle._close(1.0, 1.0 + 1e-10) and not oracle._close(1.0, 1.0 + 1e-8)
    assert issubclass(ExtremumResolutionError, ValidationError)


def _reference_pools(graphs, per_graph, alpha):
    """The multiplicative tolerance rule the oracle used before pools became
    exact: within (1 + 1e-9) of the minimum, within (1 - 1e-9) of the maximum."""
    values = [v[alpha] for v in per_graph]
    lo, hi = min(values), max(values)
    return (tuple(g for g, v in zip(graphs, values) if v <= lo * (1 + 1e-9)),
            tuple(g for g, v in zip(graphs, values) if v >= hi * (1 - 1e-9)))


def test_exact_pools_equal_the_tolerance_pools():
    alphas = tuple(dict.fromkeys(oracle.DEFAULT_T2_ALPHAS + DEFAULT_T1_ALPHAS))
    seqs = [pi for c in range(4) for n in range(3, 9)
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True)]
    seqs.append(parse_degree_sequence("3,3,2^7"))
    built_checks = 0
    for pi in seqs:
        record = oracle.gamma_record(pi)
        table = sombor.values_by_key(record.keys, alphas)
        classes = record.labeled()
        graphs = [record.graph(bits) for bits, _ in classes]
        per_graph = [table[key] for _, key in classes]
        c = sum(pi.degrees) // 2 - pi.n + 1
        built = extremal_graph(pi).graph if pi.degrees[-1] == 1 and c <= 2 else None
        for a in alphas:
            rep = oracle_extrema(pi, a)
            assert (rep.min_witnesses, rep.max_witnesses) == \
                _reference_pools(graphs, per_graph, a), (pi, a)
            if built is not None:
                extreme = (rep.min_value if objective_for_alpha(a) is Objective.MIN
                           else rep.max_value)
                assert sombor_general(built, a) == extreme, (pi, a)
                built_checks += 1
    assert len(seqs) == 169 and built_checks == 110 * len(alphas)


def test_unresolvable_extremum_is_not_a_verdict():
    # at alpha = 1e-12 the two classes of 3,2,2,1,1,1 differ by 4e-14
    # relatively: a pool or a Theorem 2 check would turn on rounding
    pi = parse_degree_sequence("3,2,2,1,1,1")
    for call in (lambda: oracle_extrema(pi, 1e-12),
                 lambda: verify_special_bfs_existence(pi, 1e-12),
                 lambda: verify_theorem2(6, 0, (1e-12,))):
        with pytest.raises(ExtremumResolutionError,
                           match=r"alpha = 1e-12 for pi = 3,2,2,1,1,1"):
            call()
    # exact ties resolve: at alpha = 1 every class attains both extrema
    rep = oracle_extrema(pi, 1.0)
    assert rep.min_value == rep.max_value == 46.0
    assert len(rep.min_witnesses) == len(rep.max_witnesses) == rep.class_size == 2


def test_majorization_examples():
    assert is_majorized(DegreeSequence((2, 2, 2)), DegreeSequence((3, 2, 1))).holds
    assert is_majorized(
        DegreeSequence((3, 2, 1, 1, 1)), DegreeSequence((4, 1, 1, 1, 1))
    ).holds
    same = is_majorized(DegreeSequence((2, 2, 2)), DegreeSequence((2, 2, 2)))
    assert not same.holds and same.failing_prefix is None
    rev = is_majorized(DegreeSequence((3, 2, 1)), DegreeSequence((2, 2, 2)))
    assert not rev.holds and rev.failing_prefix == 1
    with pytest.raises(LengthMismatchError):
        is_majorized(DegreeSequence((2, 2)), DegreeSequence((2, 2, 2)))


def test_majorization_is_strict_partial_order():
    seqs = generate_c_cyclic_sequences(6, 1, require_pendant=False)
    for x in seqs:
        assert not is_majorized(x, x).holds
        for y in seqs:
            for z in seqs:
                if is_majorized(x, y).holds and is_majorized(y, z).holds:
                    assert is_majorized(x, z).holds


def test_generate_sequences_examples():
    got = generate_c_cyclic_sequences(4, 0, require_pendant=True)
    assert {pi.degrees for pi in got} == {(3, 1, 1, 1), (2, 2, 1, 1)}
    assert generate_c_cyclic_sequences(3, 1, require_pendant=True) == []
    five = {pi.degrees for pi in generate_c_cyclic_sequences(5, 2, require_pendant=True)}
    assert (3, 3, 3, 2, 1) in five
    # every c >= 0 is allowed: K_4 is the one 3-cyclic sequence on 4 vertices,
    # and no simple graph on 4 vertices is 4-cyclic
    assert [pi.degrees for pi in generate_c_cyclic_sequences(4, 3, False)] == [(3, 3, 3, 3)]
    assert generate_c_cyclic_sequences(4, 4, require_pendant=False) == []
    with pytest.raises(ValidationError, match="need c >= 0"):
        generate_c_cyclic_sequences(6, -1, require_pendant=False)
    # trees on 11 vertices: one sequence per partition of 9
    assert len(generate_c_cyclic_sequences(11, 0, require_pendant=False)) == 30
    # descending lexicographic order
    degs = [pi.degrees for pi in generate_c_cyclic_sequences(7, 1, require_pendant=False)]
    assert degs == sorted(degs, reverse=True)


def test_generated_sequences_match_graph_atlas():
    # independent of the generator's recursion and realizability test: the
    # degree sequences of the connected graphs in networkx's atlas of every
    # graph on at most 7 vertices, for every c up to one past the largest
    import networkx as nx
    atlas: dict[tuple[int, int], set] = {}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n >= 2 and nx.is_connected(g):
            degrees = tuple(sorted((d for _, d in g.degree()), reverse=True))
            atlas.setdefault((n, g.number_of_edges() - n + 1), set()).add(degrees)
    total = 0
    for n in range(2, 8):
        for c in range(n * (n - 1) // 2 - n + 3):
            got = [pi.degrees for pi in generate_c_cyclic_sequences(n, c, False)]
            assert got == sorted(atlas.pop((n, c), ()), reverse=True), (n, c)
            total += len(got)
    assert not atlas and total == 332


def test_generated_sequences_are_realizable():
    for c in (0, 1, 2, 3):
        for n in range(2, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                graphs = enumerate_gamma(pi)
                assert graphs, pi


def _counted(monkeypatch, module, name) -> list:
    """The argument tuples of every call to module.name from here on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_theorem2_small(monkeypatch):
    for c in (0, 1, 2):
        rep = verify_theorem2(6, c, (0.5, 2.0))
        assert rep.holds, rep
    # the memoized records give the same checks as a fresh enumeration: each
    # pi's record is built once, and the warm sweep finds every label it
    # needs kept on its record
    _gamma.cache_clear()
    cold = verify_theorem2(6, 1, (0.5, 2.0))
    canon = _counted(monkeypatch, _kernels, "canon_bits")
    warm = verify_theorem2(6, 1, (0.5, 2.0))
    assert canon == []
    assert _gamma.cache_info().misses == len(generate_c_cyclic_sequences(6, 1, True))
    assert cold.checks == warm.checks


def test_default_sweeps_work_counters(monkeypatch):
    # machine-independent gates, each from a cleared cache. Theorem 1 labels
    # only the key attaining its extremum and recognizes each class once:
    # the alpha 0.5 minimizer is often the alpha 2 maximizer, so its 170
    # checks need only 88 recognizer runs.
    # Theorem 2 labels the keys holding two or more leaves and its winners.
    from somborlab import bfs
    canon = _counted(monkeypatch, _kernels, "canon_bits")
    recognized = _counted(monkeypatch, bfs, "is_special_extremal_bfs")
    _gamma.cache_clear()
    checks = 0
    for c in range(4):
        for n in range(3, 8):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                for a in DEFAULT_T1_ALPHAS:
                    assert verify_special_bfs_existence(pi, a).holds
                    checks += 1
    assert checks == 170
    assert len(recognized) == len({format_graph6(g) for (g,) in recognized}) == 88
    assert len(canon) <= 188
    canon.clear()
    _gamma.cache_clear()
    for c in range(3):
        for n in range(2, 9):
            assert verify_theorem2(n, c).holds
    assert len(canon) <= 427


def _reference_winners(graphs, alpha):
    """The extremum objective_for_alpha picks over the class list, each value
    read off its graph, and the classes that attain it exactly, in canonical order."""
    values = [sombor_general(g, alpha) for g in graphs]
    value = min(values) if objective_for_alpha(alpha) is Objective.MIN else max(values)
    return value, [g for g, v in zip(graphs, values) if v == value]


def test_record_matches_class_list_reference():
    # every sequence with n <= 8 and c <= 3, at the default alphas of
    # Theorems 1 and 2: the record, labeled lazily from a cleared cache,
    # against the full class list
    from somborlab.bfs import is_special_extremal_bfs
    _gamma.cache_clear()
    alphas = oracle.DEFAULT_T2_ALPHAS
    assert set(DEFAULT_T1_ALPHAS) <= set(alphas)
    classes = 0
    for c in range(4):
        for n in range(2, 9):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                record = oracle.gamma_record(pi)
                pendant = pi.degrees[-1] == 1
                t1 = ({a: verify_special_bfs_existence(pi, a) for a in DEFAULT_T1_ALPHAS}
                      if pendant and n >= 3 else {})
                t2 = (oracle._theorem2_one(pi.degrees, alphas)
                      if pendant and c <= 2 else [])
                table = sombor.values_by_key(record.keys, alphas)
                graphs = enumerate_gamma(pi)
                assert record.size == len(graphs)
                classes += record.size
                # at alpha = 1 every class ties, so every key wins at once
                ties = record.extremum(sombor.values_by_key(record.keys, (1.0,)),
                                       1.0, Objective.MIN)[1]
                assert [record.graph(b) for b in ties] == graphs
                for a in alphas:
                    value, winners = _reference_winners(graphs, a)
                    got_value, got = record.extremum(table, a, objective_for_alpha(a))
                    assert got_value == value and [record.graph(b) for b in got] == winners
                    if a in t1:
                        rep = t1[a]
                        first = next(((g, w) for g in winners
                                      if (w := is_special_extremal_bfs(g)) is not None),
                                     (None, None))
                        assert (rep.extremal_value, rep.class_size, rep.witnesses_checked,
                                rep.witness, rep.witness_ordering) == \
                            (value, len(graphs), len(winners)) + first, (pi, a)
                for check in t2:
                    value, winners = _reference_winners(graphs, check.alpha)
                    assert (check.oracle_value, check.class_size, check.oracle_witness) == \
                        (value, len(graphs), winners[0]), (pi, check.alpha)
    assert classes == 1138


def test_theorem2_builds_one_graph_per_sequence(monkeypatch):
    built = []
    original = construct.extremal_graph

    def counted(pi):
        result = original(pi)
        built.append((pi, result.graph))
        return result

    monkeypatch.setattr(construct, "extremal_graph", counted)
    alphas = (0.5, 2.0, -1.0)
    for c in (0, 1, 2):
        built.clear()
        rep = verify_theorem2(6, c, alphas)
        seqs = generate_c_cyclic_sequences(6, c, require_pendant=True)
        assert [pi for pi, _ in built] == seqs
        assert len(rep.checks) == len(alphas) * len(seqs)
        graphs = dict(built)
        for check in rep.checks:
            # the same fsum as a construction built for this alpha alone
            assert check.constructed_value == sombor_general(graphs[check.pi], check.alpha)
    built.clear()
    with pytest.raises(EmptySweepError):       # nothing to check is not a pass
        verify_theorem2(6, 1, ())
    assert built == []
    with pytest.raises(UnsupportedCyclomaticError):
        verify_theorem2(6, 3, alphas)


def test_theorem2_violation_names_both_graphs(monkeypatch):
    pi = parse_degree_sequence("3,2^2,1^3")
    original = construct.extremal_graph
    built = original(pi)
    # pi has two trees; at alpha = 0.5 and 2 only the built one is extremal
    target = _kernels.canon_bits(built.graph.adjacency_masks)
    other = next(g for g in enumerate_gamma(pi)
                 if _kernels.canon_bits(g.adjacency_masks) != target)
    monkeypatch.setattr(construct, "extremal_graph",
                        lambda p: built._replace(graph=other) if p == pi else original(p))
    alphas = (0.5, 2.0)
    rep = verify_theorem2(6, 0, alphas).to_record()
    assert [v["alpha"] for v in rep["violations"]] == list(alphas)
    for v in rep["violations"]:
        assert v["pi"] == list(pi.degrees) and not v["ok"]
        assert v["constructed_graph6"] == format_graph6(other)
        assert v["constructed_value"] == sombor_general(other, v["alpha"])
        witness = parse_graph6(v["oracle_graph6"])
        assert degree_sequence_of(witness) == pi
        assert sombor_general(witness, v["alpha"]) == v["oracle_value"]
        assert _kernels.canon_bits(witness.adjacency_masks) == target
    # a check that holds keeps its record as it was
    assert all("constructed_graph6" not in c and "oracle_graph6" not in c
               for c in rep["checks"] if c["ok"])


def test_theorem3_hand_case():
    # P4 against the star K_{1,3}, each alone in its Gamma(pi): the maxima at
    # alpha = 2 and the minima at alpha = 0.5
    for alpha, objective, lower, upper in (
            (2.0, "max", 114.0, 300.0),
            (0.5, "min", math.fsum([2 * 5 ** 0.5, 8 ** 0.5]), 3 * 10 ** 0.5)):
        rep = verify_theorem3(4, 0, (alpha,))
        assert rep.holds
        pair = [p for p in rep.pairs
                if p.lower.degrees == (2, 2, 1, 1) and p.upper.degrees == (3, 1, 1, 1)]
        assert len(pair) == 1
        assert (pair[0].objective, pair[0].lower_value, pair[0].upper_value) == (
            objective, lower, upper)
        record = pair[0].to_record()
        assert (record[f"{objective}_so_pi"], record[f"{objective}_so_pi_prime"]) == (
            lower, upper)
    with pytest.raises(EmptySweepError):       # nothing to check is not a pass
        verify_theorem3(6, 0, ())
    with pytest.raises(ValidationError, match="for alpha < 0"):   # neither extremum rises
        verify_theorem3(6, 0, (2.0, -1.0))


def test_theorem3_small_all_cases():
    for c in (0, 1, 2):
        rep = verify_theorem3(6, c, (1.5, 2.0))
        for report in (rep, rep.pendant()):
            assert report.holds, report.to_record()["violations"]


def test_theorem3_minimum_side_holds():
    # for 0 < alpha < 1 the minimum rises along every majorization pair with
    # n <= 8 at every c, and with n = 9 up to c = 3 (it first fails at n = 9,
    # c = 9: _T3_MIN_SIDE)
    alphas = (0.25, 0.5, 0.75)
    every_c = [(n, c) for n in range(2, 9) for c in range(n * (n - 1) // 2 - n + 2)]
    for n, c in every_c + [(9, c) for c in range(4)]:
        rep = verify_theorem3(n, c, alphas)
        for report in (rep, rep.pendant()):
            assert report.holds, (n, c, report.to_record()["violations"])


# Theorem 3 as `verify_theorem3` restates it (pi majorized by pi' gives a
# strictly larger maximum at every alpha > 1, at any c) fails past c = 3.
# The abstract does not state the paper's hypotheses for Theorem 3, so these
# break the restatement, not the paper. Each is (n, c, alpha, pi, pi',
# max SO_alpha over Gamma(pi), max over Gamma(pi')); all values are integers.
_T3_HIGH_C = [
    (8, 7, 5, "5,4^4,3,2^2", "5,4^4,3^2,1", 710962174, 698153206),
    (8, 11, 2, "7,5^5,2^2", "7,5^5,3,1", 58062, 58056),
    (9, 11, 3, "8,5^5,2^2,1", "8,5^5,3,1^2", 5678846, 5666720),   # both pendant
]


@pytest.mark.parametrize("n, c, alpha, lower, upper, lower_max, upper_max", _T3_HIGH_C)
def test_theorem3_restatement_fails_at_high_c(n, c, alpha, lower, upper,
                                               lower_max, upper_max):
    # the maxima in int arithmetic over every class, against the oracle's floats
    lo, hi = parse_degree_sequence(lower), parse_degree_sequence(upper)
    assert (lo.n, lo.c, hi.n, hi.c) == (n, c, n, c)
    assert is_majorized(lo, hi).holds
    exact = [max(sum((g.degrees[u] ** 2 + g.degrees[v] ** 2) ** alpha for u, v in g.edges)
                 for g in enumerate_gamma(pi)) for pi in (lo, hi)]
    assert exact == [lower_max, upper_max]
    assert [oracle._extrema(pi.degrees, (float(alpha),))[0] for pi in (lo, hi)] == exact


# The minimum side (0 < alpha < 1) of the same restatement first fails at
# n = 9, c = 9, alpha = 0.25. Each is (n, c, pi, pi', min SO_0.25 over
# Gamma(pi), min over Gamma(pi')); every sequence is pendant.
_T3_MIN_SIDE = [
    (9, 9, "6,5^3,3^4,1", "6,5^3,4,3^2,2,1", 42.458016186309806, 42.4565862808787),
    (9, 10, "6^2,5^2,4,3^3,1", "6^2,5^2,4^2,3,2,1", 46.210006062761465, 46.18820257583284),
    (9, 10, "6,5^4,3^3,1", "6,5^4,4,3,2,1", 45.81064955475435, 45.80921964932324),
]


@pytest.mark.parametrize("n, c, lower, upper, lower_min, upper_min", _T3_MIN_SIDE)
def test_theorem3_restatement_fails_on_the_minimum_side(n, c, lower, upper,
                                                         lower_min, upper_min):
    # the minima over every class, against the oracle's minima over JDM keys;
    # their relative gap is far past REL_TOL, so floats decide the pair
    lo, hi = parse_degree_sequence(lower), parse_degree_sequence(upper)
    assert (lo.n, lo.c, hi.n, hi.c) == (n, c, n, c)
    assert is_majorized(lo, hi).holds and lo.degrees[-1] == hi.degrees[-1] == 1
    independent = [min(sombor_general(g, 0.25) for g in enumerate_gamma(pi))
                   for pi in (lo, hi)]
    assert independent == [lower_min, upper_min]
    assert [oracle._extrema(pi.degrees, (0.25,))[0] for pi in (lo, hi)] == independent
    assert (lower_min - upper_min) / lower_min >= 3.1e-5


@pytest.mark.parametrize("n, c, alpha, violations", [
    (8, 7, 5, [_T3_HIGH_C[0][3:]]),
    (8, 11, 2, [_T3_HIGH_C[1][3:]]),
    pytest.param(9, 11, 3, [
        _T3_HIGH_C[2][3:],
        ("6,5^5,3,2^2", "6,5^5,3^2,1", 2480936, 2436470),
        ("5^6,4,2^2", "5^6,4,3,1", 1904354, 1887692),
    ], marks=pytest.mark.slow),
    pytest.param(9, 9, 0.25, [_T3_MIN_SIDE[0][2:]], marks=pytest.mark.slow),
    pytest.param(9, 10, 0.25, [v[2:] for v in _T3_MIN_SIDE[1:]], marks=pytest.mark.slow),
])
def test_theorem3_sweep_reports_the_high_c_violations(n, c, alpha, violations):
    rep = verify_theorem3(n, c, (float(alpha),))
    for report in (rep, rep.pendant()):
        got = [(format_degree_sequence(p.lower), format_degree_sequence(p.upper),
                p.lower_value, p.upper_value) for p in report.pairs if not p.ok]
        assert got == [v for v in violations if not report.require_pendant or all(
            parse_degree_sequence(pi).degrees[-1] == 1 for pi in v[:2])]
        assert report.holds == (got == [])


def test_theorem3_pairs_equal_all_ordered_pairs():
    # the scan over earlier sequences only finds every majorization pair, in
    # the order of a scan over all ordered pairs; the pendant report holds
    # those of the pendant sequences alone
    for n in range(2, 9):
        for c in range(4):
            full = verify_theorem3(n, c, (2.0,))
            for pendant in (False, True):
                seqs = generate_c_cyclic_sequences(n, c, require_pendant=pendant)
                want = [(lo, hi) for lo in seqs for hi in seqs
                        if lo != hi and is_majorized(lo, hi).holds]
                rep = full.pendant() if pendant else full
                assert [(p.lower, p.upper) for p in rep.pairs] == want, (n, c, pendant)
                assert rep.require_pendant == pendant
                assert rep.holds == all(p.ok for p in rep.pairs)


def test_maxima_equal_max_over_classes():
    alphas = (1.5, 2.0, 3.0)
    for n in range(2, 9):
        for c in range(4):
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=False):
                graphs = enumerate_gamma(pi)
                expected = [max(sombor_general(g, a) for g in graphs) for a in alphas]
                got = oracle._extrema(pi.degrees, alphas)
                assert [x.hex() for x in got] == [x.hex() for x in expected], pi


def test_theorem3_makes_no_canon_calls(monkeypatch):
    # the default sweep, from a cleared cache
    calls = _counted(monkeypatch, _kernels, "canon_bits")
    _gamma.cache_clear()
    pairs = 0
    for c in (0, 1, 2):
        for n in range(2, 9):
            rep = verify_theorem3(n, c)
            for report in (rep, rep.pendant()):
                assert report.holds
                pairs += len(report.pairs)
    assert pairs > 0
    assert calls == []


def test_sweeps_check_the_kernel_bound_before_generating(monkeypatch):
    # the matrix path keeps enumerate_gamma's kernel bound, checked before
    # any sequence is generated
    generated = _counted(monkeypatch, oracle, "generate_c_cyclic_sequences")
    for call in (lambda: verify_theorem2(17, 0), lambda: verify_theorem3(17, 0),
                 lambda: verify_theorem3(17, 1)):
        with pytest.raises(TooLargeError, match="n <= 16, got n = 17"):
            call()
    assert generated == []


def test_too_small_n_is_a_validation_error():
    for call in (lambda: verify_theorem2(1, 0), lambda: verify_theorem3(1, 0),
                 lambda: verify_enumeration_cross_check(1, 0)):
        with pytest.raises(ValidationError, match="too small") as info:
            call()
        assert not isinstance(info.value, TooLargeError)


def test_existence_small():
    rep = verify_special_bfs_existence(parse_degree_sequence("3,3,3,2,1"), 2.0)
    assert rep.holds and rep.objective == "max"
    rep = verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 0.5)
    assert rep.holds and rep.objective == "min"
    # c = 3 at n = 8
    rep = verify_special_bfs_existence(parse_degree_sequence("4,3,3,3,2,2,2,1"), 2.0)
    assert rep.holds


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_rejected_everywhere(alpha):
    pi = parse_degree_sequence("3,2,2,1,1,1")
    for call in (lambda: objective_for_alpha(alpha),
                 lambda: oracle_extrema(pi, alpha),
                 lambda: verify_special_bfs_existence(pi, alpha),
                 lambda: verify_theorem2(5, 0, (alpha,)),
                 lambda: verify_theorem3(6, 0, (alpha,))):
        with pytest.raises(AlphaNotFiniteError):
            call()


def test_degenerate_alpha_pairs_with_no_extremum():
    with pytest.raises(AlphaDegenerateError):
        verify_theorem2(5, 0, (1.0,))
    with pytest.raises(AlphaDegenerateError):
        verify_special_bfs_existence(parse_degree_sequence("3,2,2,1,1,1"), 1.0)
    with pytest.raises(AlphaDegenerateError):
        verify_theorem3(6, 0, (2.0, 1.0))
    with pytest.raises(MinDegreeNotOneError):
        verify_special_bfs_existence(parse_degree_sequence("2,2,2"), 2.0)


def test_sequence_generation_propagates_validator_bugs(monkeypatch):
    def broken(pi):
        raise RuntimeError("validator bug")

    monkeypatch.setattr(oracle, "validate_connected_c_cyclic", broken)
    with pytest.raises(RuntimeError, match="validator bug"):
        generate_c_cyclic_sequences(5, 0, require_pendant=False)


def test_theorem3_sweep_decides_each_pair_once(monkeypatch, capsys):
    # machine-independent work gate on the default `verify --theorem 3`: the
    # pendant reports are restrictions of the full ones, so each sequence's
    # maxima are read once and each ordered pair is tested for majorization
    # once per (n, c)
    from somborlab import cli
    walked = _counted(monkeypatch, _kernels, "leaves_by_jdm")
    tested = _counted(monkeypatch, oracle, "is_majorized")
    assert cli.main(["verify", "--theorem", "3"]) == 0
    capsys.readouterr()
    assert len(walked) == len(set(walked)) == 126
    assert len(tested) == 756


def test_theorem3_unresolved_maxima_are_not_violations(monkeypatch):
    # the sup-norm-like regime: at alpha = 100 the maxima of 4,4,2,2,1,1,1,1
    # and 4,4,3,1,1,1,1,1 differ by less than REL_TOL
    with pytest.raises(ExtremumResolutionError,
                       match=r"alpha = 100.0 for pi = 4,4,2,2,1,1,1,1 and "
                             r"pi' = 4,4,3,1,1,1,1,1"):
        verify_theorem3(8, 1, (100.0,))
    assert issubclass(ExtremumResolutionError, ValidationError)
    # a maximum below its partner's by more than the tolerance stays a violation
    monkeypatch.setattr(oracle, "_extrema",
                        lambda degrees, alphas: (1.0 / sum(d * d for d in degrees),))
    rep = verify_theorem3(6, 0, (2.0,))
    assert rep.pairs and not rep.holds
    assert not any(p.ok for p in rep.pairs)
    monkeypatch.setattr(oracle, "_extrema", lambda degrees, alphas: (1.0,))
    with pytest.raises(ExtremumResolutionError):
        verify_theorem3(6, 0, (2.0,))


def test_cross_check_small():
    for c in (0, 1, 2):
        rep = verify_enumeration_cross_check(6, c)
        assert rep.holds and rep.sequences_checked > 0


def test_cross_check_above_kernel_bound_is_too_large():
    with pytest.raises(TooLargeError):
        verify_enumeration_cross_check(17, 0)


def test_deadline_fires():
    deadline = Deadline(0.0)
    with pytest.raises(TimeBudgetExceededError):
        verify_theorem2(7, 1, (0.5,), deadline=deadline)


def test_load_caps():
    assert load_caps(" enum=8 ").enum == 8
    assert load_caps("").enum == ENUM_N_MAX
    for text in ("bogus=3", "canon=14", "enum=x", "enum="):
        with pytest.raises(CapsSyntaxError):
            load_caps(text)
