"""Command-line surface: construct, eval, enumerate, verify, majorize.

Exit codes: 0 success/pass, 1 theorem or assertion violation (a counterexample
was found), 2 usage or validation error, which includes a theorem sweep whose
range holds nothing to check and a stdout closed before the output was
written. All commands are deterministic; verify reports carry an
`elapsed_seconds` field that byte-level comparisons should strip. JSON is the default output format; `--format table` is for
humans. The enumeration cap bounds the n of `enumerate --pi` and the
`--n-max` of every verify sweep; it is checked here, once, before any work.
SOMBOR_CAPS (e.g. "enum=12") is its only override, up to the kernel's 16.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, _kernels
from .construct import Objective, bfs_bicyclic, bfs_unicyclic, extremal_graph, greedy_tree
from .errors import (AlphaNotFiniteError, EmptySweepError, SomborlabError,
                     TimeBudgetExceededError, TooLargeError, ValidationError)
from .graphs import (
    DegreeSequence,
    degree_sequence_of,
    format_degree_sequence,
    format_graph6,
    is_connected,
    parse_degree_sequence,
    parse_edge_list,
    parse_graph6,
    to_dot,
    validate_connected_c_cyclic,
)
from .indices import GridSpec, BivariateFunction, check_escalating, classify_alpha, sombor_general
from .oracle import (
    Caps,
    Deadline,
    _class_values,
    enumerate_gamma,
    generate_c_cyclic_sequences,
    is_majorized,
    load_caps,
    verify_special_bfs_existence,
    verify_theorem2,
    verify_theorem3,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_MIN_ALPHAS = (0.25, 0.5, 0.75)
DEFAULT_MAX_ALPHAS = (-1.0, -0.5, 1.5, 2.0, 3.0)
DEFAULT_T1_ALPHAS = (0.5, 2.0)
DEFAULT_T3_ALPHAS = (1.5, 2.0, 3.0)
DEFAULT_PROP1_ALPHAS = (-3.0, -1.0, -0.1, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 2.0, 5.0)
DEFAULT_N_MAX = {"1": 7, "2": 8, "3": 8}


def _check_cap(n: int, caps: Caps) -> None:
    cap = min(caps.enum, _kernels.MAX_VERTICES)
    if n > cap:
        raise TooLargeError(f"enumeration capped at n <= {cap}, got n = {n}; SOMBOR_CAPS="
                            f"enum=N sets the cap, up to {_kernels.MAX_VERTICES}")


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"bad alpha list {text!r}")
    if not values:
        raise ValidationError("alpha list is empty")
    if any(a == 0 for a in values):
        raise ValidationError("alpha = 0 is not allowed")
    if not all(math.isfinite(a) for a in values):
        raise AlphaNotFiniteError(f"alpha must be finite, got {text!r}")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}")


def _emit(record: dict, fmt: str, table_lines) -> None:
    if fmt == "table":
        for line in table_lines():
            print(line)
    else:
        print(json.dumps(record, indent=2, sort_keys=True))


def _alpha_key(alpha: float) -> str:
    return f"{alpha:g}"


def _read_graph(path: str, input_format: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    if input_format == "graph6":
        return parse_graph6(text)
    if input_format == "edgelist":
        return parse_edge_list(text)
    stripped = text.strip()
    first = stripped.splitlines()[0].strip() if stripped else ""
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edge_list(text)
    return parse_graph6(text)


def _construct_for(pi: DegreeSequence, alpha=None, objective=None):
    if objective is not None:
        return extremal_graph(pi, alpha, objective)
    c = validate_connected_c_cyclic(pi)
    if c == 0:
        return greedy_tree(pi)
    if c == 1:
        return bfs_unicyclic(pi)
    if c == 2:
        return bfs_bicyclic(pi)
    raise ValidationError(f"no canonical construction for c = {c}; use enumerate")


def cmd_construct(args) -> int:
    pi = parse_degree_sequence(args.pi)
    alphas = _alpha_list(args.alpha)
    objective = Objective(args.objective) if args.objective else None
    if objective is not None and len(alphas) != 1:
        raise ValidationError("--objective needs exactly one --alpha value")
    result = _construct_for(pi, alphas[0] if objective else None, objective)
    g = result.graph
    so = {_alpha_key(a): sombor_general(g, a) for a in alphas}
    record = {
        "command": "construct",
        "pi": list(pi.degrees),
        "pi_text": format_degree_sequence(pi),
        "resorted": pi.resorted,
        "class": result.klass,
        "case": result.case,
        "n": g.n,
        "m": g.m,
        "edges": [list(e) for e in g.edges],
        "ordering": list(result.ordering),
        "layers": list(result.layers),
        "graph6": format_graph6(g),
        "so": so,
    }
    if args.format == "dot":
        out = to_dot(g)
        for a in alphas:
            out += f"// SO_{_alpha_key(a)} = {so[_alpha_key(a)]!r}\n"
        print(out, end="")
    elif args.format == "graph6":
        print(format_graph6(g))
        for a in alphas:
            print(f"SO_{_alpha_key(a)} = {so[_alpha_key(a)]!r}")
    else:
        def table():
            yield f"class      {result.klass}" + (f" (case {result.case})" if result.case else "")
            yield f"graph6     {format_graph6(g)}"
            yield f"edges      {' '.join(f'{u}-{v}' for u, v in g.edges)}"
            yield f"ordering   {' '.join(map(str, result.ordering))}"
            yield f"layers     {' '.join(map(str, result.layers))}"
            for a in alphas:
                yield f"SO_{_alpha_key(a):<8} {so[_alpha_key(a)]!r}"
        _emit(record, args.format, table)
    return EXIT_OK


def cmd_eval(args) -> int:
    g = _read_graph(args.graph, args.input_format)
    if not is_connected(g):
        raise ValidationError("input graph is not connected")
    alphas = _alpha_list(args.alpha)
    so = {_alpha_key(a): sombor_general(g, a) for a in alphas}
    record = {
        "command": "eval",
        "n": g.n,
        "m": g.m,
        "degrees": list(degree_sequence_of(g).degrees),
        "graph6": format_graph6(g),
        "so": so,
    }

    def table():
        yield f"n={g.n} m={g.m} degrees={format_degree_sequence(degree_sequence_of(g))}"
        for a in alphas:
            yield f"SO_{_alpha_key(a):<8} {so[_alpha_key(a)]!r}"

    _emit(record, args.format, table)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    caps = load_caps()
    pi = parse_degree_sequence(args.pi)
    _check_cap(pi.n, caps)
    alphas = _alpha_list(args.alpha) if args.alpha else ()
    graphs = enumerate_gamma(pi)
    values = _class_values(graphs, alphas)
    classes = []
    for g, vals in zip(graphs, values):
        entry = {"graph6": format_graph6(g), "so": {_alpha_key(a): vals[a] for a in alphas}}
        classes.append(entry)
    for a in alphas:
        lo = min(v[a] for v in values)
        hi = max(v[a] for v in values)
        for entry, vals in zip(classes, values):
            entry.setdefault("is_min", {})[_alpha_key(a)] = vals[a] <= lo * (1 + 1e-9)
            entry.setdefault("is_max", {})[_alpha_key(a)] = vals[a] >= hi * (1 - 1e-9)
    record = {
        "command": "enumerate",
        "pi": list(pi.degrees),
        "class_size": len(graphs),
        "classes": classes,
    }
    if args.format == "graph6":
        for entry in classes:
            print(entry["graph6"])
    else:
        def table():
            for entry in classes:
                cols = [entry["graph6"]]
                for a in alphas:
                    cols.append(repr(entry["so"][_alpha_key(a)]))
                    marks = ""
                    if entry["is_min"][_alpha_key(a)]:
                        marks += "min"
                    if entry["is_max"][_alpha_key(a)]:
                        marks += "+max" if marks else "max"
                    cols.append(marks or "-")
                yield "\t".join(cols)
        _emit(record, args.format, table)
    return EXIT_OK


def cmd_majorize(args) -> int:
    x = parse_degree_sequence(args.x)
    y = parse_degree_sequence(args.y)
    verdict = is_majorized(x, y)
    record = {
        "command": "majorize",
        "x": list(x.degrees),
        "y": list(y.degrees),
        "holds": verdict.holds,
        "failing_prefix": verdict.failing_prefix,
    }

    def table():
        yield f"{format_degree_sequence(x)} majorized by {format_degree_sequence(y)}: {verdict.holds}"
        if verdict.failing_prefix is not None:
            yield f"prefix sums cross at j = {verdict.failing_prefix}"

    _emit(record, args.format, table)
    return EXIT_OK


def _verify_prop1(args, deadline) -> tuple[dict, bool]:
    alphas = _alpha_list(args.alpha) if args.alpha else DEFAULT_PROP1_ALPHAS
    grid = GridSpec(args.grid)
    results = []
    ok = True
    for a in alphas:
        deadline.check(partial=results)
        report = check_escalating(BivariateFunction.sombor(a), grid)
        expected = classify_alpha(a).value
        if expected == "degenerate":
            matches = report.verdict == "neither" and report.max_abs_delta == 0.0
        else:
            matches = report.verdict == expected and not report.counterexamples
        ok = ok and matches
        results.append({
            "alpha": a,
            "expected": expected,
            "verdict": report.verdict,
            "counterexamples": [c._asdict() for c in report.counterexamples],
            "cells_checked": report.cells_checked,
            "max_abs_delta": report.max_abs_delta,
            "ok": matches,
        })
    return {"proposition": 1, "grid": args.grid, "results": results}, ok


def _require_checks(theorem: str, n_max: int, cs, count: int, what: str) -> None:
    """A sweep that checked nothing would pass vacuously, so it is a usage error."""
    if count == 0:
        raise EmptySweepError(f"theorem {theorem} with --n-max {n_max} and --c "
                              f"{','.join(map(str, cs))} has no {what} to check")


def _verify_theorem1(args, n_max, deadline) -> tuple[dict, bool]:
    cs = _int_list(args.c) if args.c else (0, 1, 2, 3)
    alphas = _alpha_list(args.alpha) if args.alpha else DEFAULT_T1_ALPHAS
    results = []
    ok = True
    for c in cs:
        for n in range(3, n_max + 1):   # definition needs n >= 3
            for pi in generate_c_cyclic_sequences(n, c, require_pendant=True):
                for a in alphas:
                    deadline.check(partial=results)
                    rep = verify_special_bfs_existence(pi, a)
                    ok = ok and rep.holds
                    results.append(rep.to_record())
    _require_checks("1", n_max, cs, len(results), "pendant sequence")
    return {"theorem": 1, "n_max": n_max, "c": list(cs), "alphas": list(alphas),
            "checked": len(results),
            "violations": [r for r in results if not r["holds"]],
            "results": results}, ok


def _verify_theorem2(args, n_max, deadline) -> tuple[dict, bool]:
    cs = _int_list(args.c) if args.c else (0, 1, 2)
    alphas = (_alpha_list(args.alpha) if args.alpha
              else DEFAULT_MIN_ALPHAS + DEFAULT_MAX_ALPHAS)
    reports = []
    ok = True
    for c in cs:
        for n in range(2, n_max + 1):
            deadline.check(partial=reports)
            rep = verify_theorem2(n, c, alphas, deadline=deadline)
            ok = ok and rep.holds
            reports.append(rep.to_record())
    _require_checks("2", n_max, cs, sum(len(r["checks"]) for r in reports),
                    "pendant sequence")
    return {"theorem": 2, "n_max": n_max, "c": list(cs),
            "alphas": list(alphas), "reports": reports,
            "violations": [v for r in reports for v in r["violations"]]}, ok


def _verify_theorem3(args, n_max, deadline) -> tuple[dict, bool]:
    cs = _int_list(args.c) if args.c else (0, 1, 2)
    alphas = _alpha_list(args.alpha) if args.alpha else DEFAULT_T3_ALPHAS
    reports = []
    ok = True
    for require_pendant in (False, True):
        for c in cs:
            for n in range(2, n_max + 1):
                deadline.check(partial=reports)
                rep = verify_theorem3(n, c, alphas, require_pendant=require_pendant,
                                      deadline=deadline)
                ok = ok and rep.holds
                reports.append(rep.to_record())
    _require_checks("3", n_max, cs, sum(r["pairs_checked"] for r in reports),
                    "majorization pair")
    return {"theorem": 3, "n_max": n_max, "c": list(cs),
            "alphas": list(alphas), "reports": reports,
            "violations": [v for r in reports for v in r["violations"]]}, ok


_SWEEPS = {"1": _verify_theorem1, "2": _verify_theorem2, "3": _verify_theorem3}


def cmd_verify(args) -> int:
    deadline = Deadline(args.time_budget)
    caps = load_caps()
    if args.theorem == "prop1":
        record, ok = _verify_prop1(args, deadline)
    else:
        n_max = args.n_max if args.n_max is not None else DEFAULT_N_MAX[args.theorem]
        _check_cap(n_max, caps)
        record, ok = _SWEEPS[args.theorem](args, n_max, deadline)
    record["pass"] = ok

    def table():
        yield f"verify theorem={args.theorem} pass={ok}"
        for key in ("violations",):
            for v in record.get(key, []):
                yield f"VIOLATION {json.dumps(v, sort_keys=True)}"

    _emit(record, args.format, table)
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sombor",
        description="extremal graphs and exhaustive verification for the general "
                    "Sombor index over fixed degree sequences",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the canonical extremal graph for pi")
    p.add_argument("--pi", required=True, help='degree sequence, e.g. "5,4,3^3,2^10,1^8"')
    p.add_argument("--alpha", default="0.5", help="comma-separated alpha list")
    p.add_argument("--objective", choices=["min", "max"],
                   help="validate the (objective, alpha) pairing explicitly")
    p.add_argument("--format", choices=["json", "dot", "graph6", "table"], default="json")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("eval", help="evaluate SO_alpha on a graph file")
    p.add_argument("--graph", required=True, help="path to graph6/edge-list file, or -")
    p.add_argument("--input-format", choices=["auto", "graph6", "edgelist"], default="auto")
    p.add_argument("--alpha", default="0.5")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("enumerate", help="list Gamma(pi) up to isomorphism")
    p.add_argument("--pi", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--format", choices=["json", "table", "graph6"], default="json")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("--theorem", required=True, choices=["1", "2", "3", "prop1"])
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--c", default=None, help="comma-separated cyclomatic numbers")
    p.add_argument("--alpha", default=None)
    p.add_argument("--grid", type=int, default=20)
    # verification is serial; the flag is still accepted so that scripts
    # passing it (perfbench/pin.py) keep working
    p.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--time-budget", type=float, default=None, help="seconds")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("majorize", help="decide x majorized-by y")
    p.add_argument("x", help="first degree sequence")
    p.add_argument("y", help="second degree sequence")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn=cmd_majorize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`): no verdict was
        # delivered, which is not a counterexample. Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except TimeBudgetExceededError as exc:
        print(json.dumps({"error": str(exc), "partial": _safe(exc.partial)},
                         indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_USAGE
    except SomborlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # an index value past the float range (e.g. SO_alpha at alpha = 400)
        # is a bad input, not a counterexample
        print("error: value out of float range; use a smaller |alpha|", file=sys.stderr)
        return EXIT_USAGE


def _safe(obj):
    try:
        json.dumps(obj)
        return obj
    except (TypeError, ValueError):
        return repr(obj)


if __name__ == "__main__":
    sys.exit(main())
