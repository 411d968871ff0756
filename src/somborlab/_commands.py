"""The single-input commands: construct, eval, enumerate and majorize.

`cli.build_parser` names these handlers and `cli.main` imports this module
only when one of them runs, so `--version` and the verify sweeps never
compile them. They share `cli`'s argument helpers, output and exit codes.
Every handler reads or writes graph text, so `graphs` and `formats` load
with this module; the layers that need the kernel (`sombor`, `construct`,
`oracle`) load in the handler that runs them, so `majorize` leaves the
kernel unloaded.
"""

from __future__ import annotations

import sys

from .cli import EXIT_OK, _alpha_list, _check_cap, _emit
from .errors import ValidationError
from .formats import parse_degree_sequence, parse_edge_list, parse_graph6, to_dot
from .graphs import (degree_sequence_of, format_degree_sequence, format_graph6,
                     is_connected, is_majorized)
from .limits import load_caps


def _read_graph(path: str, input_format: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read graph file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"graph file {path!r} is not ASCII text") from None
    if input_format == "graph6":
        return parse_graph6(text)
    if input_format == "edgelist":
        return parse_edge_list(text)
    # the first line that is neither blank nor a comment; graph6 never starts with "#"
    first = next((line for line in map(str.strip, text.splitlines())
                  if line and not line.startswith("#")), "")
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_edge_list(text)
    return parse_graph6(text)


def cmd_construct(args) -> int:
    """Build `extremal_graph(pi)`; `--objective` must be the one its alpha pairs with."""
    from .construct import extremal_graph
    from .sombor import alpha_key, objective_for_alpha, sombor_general
    pi = parse_degree_sequence(args.pi)
    alphas = _alpha_list(args.alpha)
    if args.objective:
        if len(alphas) != 1:
            raise ValidationError("--objective needs exactly one --alpha value")
        if objective_for_alpha(alphas[0]).value != args.objective:
            raise ValidationError(
                f"objective {args.objective} does not pair with alpha = {alphas[0]:g}")
    result = extremal_graph(pi)
    g = result.graph
    so = {alpha_key(a): sombor_general(g, a) for a in alphas}
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
            out += f"// SO_{alpha_key(a)} = {so[alpha_key(a)]!r}\n"
        print(out, end="")
    elif args.format == "graph6":
        print(format_graph6(g))
        for a in alphas:
            print(f"SO_{alpha_key(a)} = {so[alpha_key(a)]!r}")
    else:
        def table():
            yield f"class      {result.klass}" + (f" (case {result.case})" if result.case else "")
            yield f"graph6     {format_graph6(g)}"
            yield f"edges      {' '.join(f'{u}-{v}' for u, v in g.edges)}"
            yield f"ordering   {' '.join(map(str, result.ordering))}"
            yield f"layers     {' '.join(map(str, result.layers))}"
            for a in alphas:
                yield f"SO_{alpha_key(a):<8} {so[alpha_key(a)]!r}"
        _emit(record, args.format, table)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .sombor import alpha_key, sombor_general
    g = _read_graph(args.graph, args.input_format)
    if not is_connected(g):
        raise ValidationError("input graph is not connected")
    alphas = _alpha_list(args.alpha)
    so = {alpha_key(a): sombor_general(g, a) for a in alphas}
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
            yield f"SO_{alpha_key(a):<8} {so[alpha_key(a)]!r}"

    _emit(record, args.format, table)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .oracle import Objective, gamma_record
    from .sombor import alpha_key, values_by_key
    caps = load_caps()
    pi = parse_degree_sequence(args.pi)
    _check_cap(pi.n, caps)
    alphas = _alpha_list(args.alpha) if args.alpha is not None else ()
    gamma = gamma_record(pi)
    values = values_by_key(gamma.keys, alphas)
    by_bits = {bits: {"graph6": format_graph6(gamma.graph(bits)),
                      "so": {alpha_key(a): values[key][a] for a in alphas}}
               for bits, key in gamma.labeled()}
    for a in alphas:
        for objective in (Objective.MIN, Objective.MAX):
            winners = set(gamma.extremum(values, a, objective)[1])
            for bits, entry in by_bits.items():
                entry.setdefault(f"is_{objective.value}", {})[alpha_key(a)] = bits in winners
    classes = list(by_bits.values())
    record = {
        "command": "enumerate",
        "pi": list(pi.degrees),
        "class_size": len(classes),
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
                    cols.append(repr(entry["so"][alpha_key(a)]))
                    marks = ""
                    if entry["is_min"][alpha_key(a)]:
                        marks += "min"
                    if entry["is_max"][alpha_key(a)]:
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
