"""Command-line surface: construct, eval, enumerate, verify, majorize.

Exit codes: 0 success/pass, 1 theorem or assertion violation (a counterexample
was found), 2 usage or validation error, which includes a theorem sweep whose
range holds nothing to check and a stdout closed before the output was
written. All commands are deterministic; verify reports carry an
`elapsed_seconds` field that byte-level comparisons should strip. JSON is the
default output format, written on one line with sorted keys (pipe it through
`python -m json.tool` to read it); `--format table` is for humans. The
enumeration cap bounds the n of `enumerate --pi` and the `--n-max` of every
verify sweep; it is checked here, once, before any work.
SOMBOR_CAPS (e.g. "enum=12") is its only override, up to the kernel's 16.
The cap and the `--time-budget` deadline come from `limits`.

At load time this module imports only `errors`, `limits` and the package
version, so `--version` loads no library layer, and it holds only `verify`
and what every command shares: the parser, the argument helpers, `_emit`
and the exit codes. The parser refers to the handlers of the single-input
commands (construct, eval, enumerate, majorize) by name, and `main` imports
their module, `_commands`, only when one of them runs, so no verify sweep
compiles them. Each command imports the layers it runs when it runs:
`verify --theorem prop1` loads `sombor` and `indices` alone, never
`graphs`, `oracle` or the kernel, and `majorize` loads `graphs` and
`formats` but not the kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import SomborlabError, TimeBudgetExceededError, ValidationError
from .limits import Caps, Deadline, load_caps

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_N_MAX = {"1": 7, "2": 8, "3": 8}


def _check_cap(n: int, caps: Caps) -> None:
    from ._kernels import MAX_VERTICES
    cap = min(caps.enum, MAX_VERTICES)
    if n > cap:
        raise ValidationError(f"enumeration capped at n <= {cap}, got n = {n}; SOMBOR_CAPS="
                              f"enum=N sets the cap, up to {MAX_VERTICES}")


def _distinct(values: tuple, what: str, text: str) -> tuple:
    # a repeated value would run each of its checks twice
    if len(set(values)) < len(values):
        raise ValidationError(f"{what} list {text!r} repeats a value")
    return values


def _alpha_list(text: str) -> tuple[float, ...]:
    from .sombor import classify_alpha
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"bad alpha list {text!r}")
    if not values:
        raise ValidationError("alpha list is empty")
    for a in values:
        classify_alpha(a)
    return _distinct(values, "alpha", text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}")
    if not values:
        raise ValidationError("integer list is empty")
    return _distinct(values, "integer", text)


def _emit(record: dict, fmt: str, table_lines) -> None:
    if fmt == "table":
        for line in table_lines():
            print(line)
    else:
        # without `indent`, json.dumps runs CPython's C encoder; NaN and
        # infinity are not JSON, so a report holding one is not printed
        try:
            text = json.dumps(record, sort_keys=True, allow_nan=False)
        except ValueError:
            raise ValidationError("the report holds a value that is not finite, "
                                  "which JSON cannot carry") from None
        print(text)


def _verify_prop1(args, deadline) -> tuple[dict, bool]:
    from .indices import (DEFAULT_GRID_MAX, DEFAULT_PROP1_ALPHAS, BivariateFunction,
                          GridSpec, check_escalating)
    from .sombor import classify_alpha
    alphas = _alpha_list(args.alpha) if args.alpha is not None else DEFAULT_PROP1_ALPHAS
    grid = GridSpec(args.grid if args.grid is not None else DEFAULT_GRID_MAX)
    results = []
    ok = True
    for a in alphas:
        try:
            report = check_escalating(BivariateFunction.sombor(a), grid, deadline=deadline)
        except TimeBudgetExceededError as exc:
            exc.partial = results
            raise
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
    return {"proposition": 1, "grid": grid.max_value, "results": results}, ok


def _require_checks(theorem: str, n_max: int, cs, count: int, what: str) -> None:
    """A sweep that checked nothing would pass vacuously, so it is a usage error."""
    if count == 0:
        raise ValidationError(f"theorem {theorem} with --n-max {n_max} and --c "
                              f"{','.join(map(str, cs))} has no {what} to check")


def _sweep(units, run, deadline) -> tuple[list[dict], bool]:
    """Records of `run(*unit)` for each unit in order, and whether all hold.

    An expired budget, here or inside the library call, reports the records
    completed so far as its partial result.
    """
    records = []
    ok = True
    try:
        for unit in units:
            deadline.check()
            rep = run(*unit)
            ok = ok and rep.holds
            records.append(rep.to_record())
    except TimeBudgetExceededError as exc:
        exc.partial = records
        raise
    return records, ok


def _verify_theorem1(args, n_max, deadline) -> tuple[dict, bool]:
    from .oracle import (DEFAULT_T1_ALPHAS, generate_c_cyclic_sequences,
                         verify_special_bfs_existence)
    cs = _int_list(args.c) if args.c is not None else (0, 1, 2, 3)
    alphas = _alpha_list(args.alpha) if args.alpha is not None else DEFAULT_T1_ALPHAS
    units = ((pi, a) for c in cs
             for n in range(3, n_max + 1)   # definition needs n >= 3
             for pi in generate_c_cyclic_sequences(n, c, require_pendant=True)
             for a in alphas)
    results, ok = _sweep(units, verify_special_bfs_existence, deadline)
    _require_checks("1", n_max, cs, len(results), "pendant sequence")
    return {"theorem": 1, "n_max": n_max, "c": list(cs), "alphas": list(alphas),
            "checked": len(results),
            "violations": [r for r in results if not r["holds"]],
            "results": results}, ok


def _verify_theorem2(args, n_max, deadline) -> tuple[dict, bool]:
    from .oracle import DEFAULT_T2_ALPHAS, verify_theorem2
    cs = _int_list(args.c) if args.c is not None else (0, 1, 2)
    alphas = _alpha_list(args.alpha) if args.alpha is not None else DEFAULT_T2_ALPHAS
    reports, ok = _sweep(
        ((n, c) for c in cs for n in range(2, n_max + 1)),
        lambda n, c: verify_theorem2(n, c, alphas, deadline=deadline), deadline)
    _require_checks("2", n_max, cs, sum(len(r["checks"]) for r in reports),
                    "pendant sequence")
    return {"theorem": 2, "n_max": n_max, "c": list(cs),
            "alphas": list(alphas), "reports": reports,
            "violations": [v for r in reports for v in r["violations"]]}, ok


def _verify_theorem3(args, n_max, deadline) -> tuple[dict, bool]:
    from .oracle import DEFAULT_T3_ALPHAS, verify_theorem3
    cs = _int_list(args.c) if args.c is not None else (0, 1, 2)
    alphas = _alpha_list(args.alpha) if args.alpha is not None else DEFAULT_T3_ALPHAS
    full = {}       # (n, c) -> its report, until the pendant pass restricts it

    def run(n, c, pendant):
        if pendant:
            return full.pop((n, c)).pendant()
        full[n, c] = verify_theorem3(n, c, alphas, deadline=deadline)
        return full[n, c]

    reports, ok = _sweep(((n, c, pendant) for pendant in (False, True) for c in cs
                          for n in range(2, n_max + 1)), run, deadline)
    _require_checks("3", n_max, cs, sum(r["pairs_checked"] for r in reports),
                    "majorization pair")
    return {"theorem": 3, "n_max": n_max, "c": list(cs),
            "alphas": list(alphas), "reports": reports,
            "violations": [v for r in reports for v in r["violations"]]}, ok


_SWEEPS = {"1": _verify_theorem1, "2": _verify_theorem2, "3": _verify_theorem3}

#: the scale flags each theorem reads; every theorem reads --alpha,
#: --time-budget, --format and the hidden --workers
_SCALE_FLAGS = {"prop1": ("grid",), "1": ("n_max", "c"), "2": ("n_max", "c"),
                "3": ("n_max", "c")}


def cmd_verify(args) -> int:
    own = _SCALE_FLAGS[args.theorem]
    for name in ("n_max", "c", "grid"):
        if name not in own and getattr(args, name) is not None:
            raise ValidationError(f"verify --theorem {args.theorem} does not read "
                                  f"--{name.replace('_', '-')}")
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
        for v in record.get("violations", []):
            yield f"VIOLATION {json.dumps(v, sort_keys=True)}"

    _emit(record, args.format, table)
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    """The `sombor` parser. Each subcommand sets `fn` to its handler: `cmd_verify`
    itself, or the name of a handler in `_commands`, which `main` imports."""
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
                   help="check that the single --alpha pairs with this extremum")
    p.add_argument("--format", choices=["json", "dot", "graph6", "table"], default="json")
    p.set_defaults(fn="cmd_construct")

    p = sub.add_parser("eval", help="evaluate SO_alpha on a graph file")
    p.add_argument("--graph", required=True, help="path to graph6/edge-list file, or -")
    p.add_argument("--input-format", choices=["auto", "graph6", "edgelist"], default="auto")
    p.add_argument("--alpha", default="0.5")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(fn="cmd_eval")

    p = sub.add_parser("enumerate", help="list Gamma(pi) up to isomorphism")
    p.add_argument("--pi", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--format", choices=["json", "table", "graph6"], default="json")
    p.set_defaults(fn="cmd_enumerate")

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("--theorem", required=True, choices=["1", "2", "3", "prop1"])
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--c", default=None, help="comma-separated cyclomatic numbers")
    p.add_argument("--alpha", default=None)
    p.add_argument("--grid", type=int, default=None)
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
    p.set_defaults(fn="cmd_majorize")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn = args.fn
    if isinstance(fn, str):
        from . import _commands
        fn = getattr(_commands, fn)
    try:
        code = fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`): no verdict was
        # delivered, which is not a counterexample. Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except TimeBudgetExceededError as exc:
        print(json.dumps({"error": str(exc), "partial": exc.partial}, sort_keys=True),
              file=sys.stderr)
        return EXIT_USAGE
    except SomborlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # an index value past the float range (e.g. SO_alpha at alpha = 400)
        # is a bad input, not a counterexample
        print("error: value out of float range; use a smaller |alpha|", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # an input too large for this machine (e.g. a huge --grid) is not a
        # counterexample either
        print("error: out of memory; use a smaller input", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
