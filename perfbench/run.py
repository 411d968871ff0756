"""somborlab benchmark: end-to-end CLI workloads and a traced per-layer pass.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {grid,sweep,deep} --seed N --seconds S --trace {0,1}

--trace 0 runs the workload's `sombor` invocations one at a time, each in a
fresh interpreter (a closed loop with one client), repeating whole passes for
about S seconds. It reports medians over passes of wall time, child CPU time
and peak RSS, the median `sombor --version` time, and the share of
invocations that exited 0, passed and matched their pinned digest. Times are
scaled to a fixed CPU speed (see CALIBRATION).

--trace 1 runs the same invocations in this process, each on a freshly
imported package, alternating an untraced and a traced pass. The traced pass
wraps each layer's public functions and reports per-layer spans and counts.

The seed only shuffles the order of invocations within a pass. The last line
of stdout is the JSON result; the lines before it give the run context, the
sample counts and any metric that could not be measured.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import layers
from tracing import Tracer
from workloads import VERSION_ARGV, WORKLOADS, Invocation, check_output, load_reference

CLI_SHIM = "import sys; from somborlab.cli import main; sys.exit(main())"
#: `--version` samples taken before each pass, so they span the whole run
SETUP_PER_PASS = 2
#: a tiny verify that reaches the pool, to read the CLI's default worker count
PROBE = Invocation(("verify", "--theorem", "2", "--n-max", "4", "--c", "0"), True)

#: Fixed pure-Python work, timed in a fresh interpreter before the first pass
#: and after every pass. The CPU speed of a shared host drifts by up to 2x over
#: minutes, so each pass's times are scaled by REFERENCE_CALIBRATION_S over the
#: mean of the calibrations on either side: they read as seconds at a fixed CPU
#: speed. Raw times are kept in the samples line.
CALIBRATION = """
import time

def work():
    total = 0.0
    for x in range(1, 60):
        for y in range(1, 60):
            total += (x * x + y * y) ** 0.5
    counts = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + (i ^ (i >> 3)).bit_count()
    return total, counts

start = time.perf_counter()
for _ in range(25):
    work()
print(time.perf_counter() - start)
"""
#: median time of CALIBRATION on the 2-core x86-64 VM the bounds were set on
REFERENCE_CALIBRATION_S = 0.15


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def spawn(argv, root: str, env: dict) -> ChildResult:
    """Run the CLI in a fresh interpreter; rusage includes its pool workers."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_SHIM, *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out.decode(errors="replace"),
                       b"".join(err).decode(errors="replace"), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def fresh_cli():
    """Import somborlab.cli anew, dropping module state left by earlier invocations."""
    for name in [n for n in sys.modules if n == layers.PACKAGE or n.startswith(layers.PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module("somborlab.cli")


def run_in_process(inv: Invocation, tracer: Tracer | None = None,
                   requested: list | None = None) -> tuple[object, str, float]:
    """(exit status, stdout, seconds in main) of one invocation in this process."""
    try:
        cli = fresh_cli()
        layers.force_serial(requested)
        if tracer is not None:
            layers.install(tracer)
    except Exception as exc:  # a package that fails to import fails the invocation
        return f"import failed: {type(exc).__name__}: {exc}", "", 0.0
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            status = cli.main(list(inv.argv))
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
        status = f"uncaught {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    out = buf.getvalue()
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += len(out.encode())
    return status, out, elapsed


class Failures:
    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, key: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAIL {self.workload} `{key}`: {reason}", file=sys.stderr)


def git_rev(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_context(root: str, args, reference: dict) -> dict:
    """Where and on what the run happened, with flags that make comparisons suspect."""
    requested: list = []
    run_in_process(PROBE, requested=requested)
    workers = max(requested) if requested else None
    try:
        backend = importlib.import_module("somborlab._kernels").BACKEND
    except Exception:  # the invocations themselves will name what is broken
        backend = "unknown"
    nproc = len(os.sched_getaffinity(0))
    context = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cli_default_workers": workers,
        "backend": backend,
        "git_rev": git_rev(root),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    flags = []
    if workers is not None and workers > nproc:
        flags.append(f"CLI default workers {workers} exceed nproc {nproc}")
    pinned = reference.get("context", {}).get("backend")
    if backend != pinned:
        flags.append(f"backend {backend} differs from the reference run's {pinned}")
    context["flags"] = flags
    return context


def calibrate(root: str) -> float:
    done = subprocess.run([sys.executable, "-c", CALIBRATION], cwd=root, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def keep_going(start: float, seconds: float, pass_times: list[float]) -> bool:
    """Start another pass only if a typical one still ends within the budget."""
    return time.perf_counter() - start + statistics.median(pass_times) <= seconds


def end_to_end(workload, args, root: str, reference: dict, failures: Failures):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def version() -> ChildResult:
        res = spawn(VERSION_ARGV, root, env)
        ok = res.returncode == 0 and res.stdout.startswith("sombor ")
        failures.record("--version", None if ok else f"exit {res.returncode}: {res.stdout!r}")
        return res

    version()   # unmeasured: lets the file cache settle
    rng = random.Random(args.seed)
    raw = {"wall_s": [], "cpu_s": [], "setup_s": []}
    scaled = {"wall_s": [], "cpu_s": [], "setup_s": []}
    rss, cycles = [], []
    calibration = [calibrate(root)]
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        setup = [version().wall_s for _ in range(SETUP_PER_PASS)]
        order = list(workload.invocations)
        rng.shuffle(order)
        t0 = time.perf_counter()
        results = [spawn(inv.argv, root, env) for inv in order]
        wall = time.perf_counter() - t0
        calibration.append(calibrate(root))
        scale = REFERENCE_CALIBRATION_S / statistics.mean(calibration[-2:])
        for key, values in (("wall_s", [wall]), ("cpu_s", [sum(r.cpu_s for r in results)]),
                            ("setup_s", setup)):
            raw[key] += values
            scaled[key] += [v * scale for v in values]
        rss.append(max(r.maxrss_kb for r in results) / 1024)
        for inv, res in zip(order, results):
            reason = check_output(inv, res.returncode, res.stdout, reference)
            if reason and res.stderr.strip():
                reason += f"; stderr: {res.stderr.strip().splitlines()[-1]}"
            failures.record(inv.key, reason)
        cycles.append(time.perf_counter() - cycle_start)
        if not keep_going(start, args.seconds, cycles):
            break
    metrics = {key: (statistics.median(values), "s") for key, values in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    metrics["success_rate"] = (1 - failures.failed / failures.attempted, "ratio")
    samples = {**scaled, "peak_rss_mb": rss, "calibration_s": calibration,
               **{"raw_" + key: values for key, values in raw.items()}}
    return metrics, samples, {}


def traced(workload, args, root: str, reference: dict, failures: Failures):
    rng = random.Random(args.seed)
    overheads, passes = [], []
    pair_times: list[float] = []
    child_cpu = children_cpu_s()
    start = time.perf_counter()
    while True:
        order = list(workload.invocations)
        rng.shuffle(order)
        t0 = time.perf_counter()
        tracer = Tracer()
        in_main = {False: 0.0, True: 0.0}
        for with_trace in (False, True):
            for inv in order:
                status, out, elapsed = run_in_process(inv, tracer if with_trace else None)
                in_main[with_trace] += elapsed
                failures.record(inv.key, check_output(inv, status, out, reference)
                                if isinstance(status, int) else str(status))
        pair_times.append(time.perf_counter() - t0)
        overheads.append(in_main[True] - in_main[False])
        passes.append(layers.pass_metrics(tracer, workload.layers))
        if not keep_going(start, args.seconds, pair_times):
            break
    metrics, missing = {}, {}
    for values, gaps in passes:
        missing.update(gaps)
    leaked = children_cpu_s() - child_cpu
    if leaked > 0:   # e.g. a pool the runner could not make serial: its spans are lost
        missing.update(dict.fromkeys(layers.METRICS,
                                     f"child processes ran {leaked:.3f} s of CPU outside the trace"))
    for name, (unit, _, _) in layers.METRICS.items():
        if name not in missing:
            metrics[name] = (statistics.median(values[name] for values, _ in passes), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, {"traced_passes": len(passes), "trace.overhead_s": overheads}, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "somborlab", "cli.py")):
        print(f"error: no somborlab source tree under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    context = run_context(root, args, reference)
    for flag in context["flags"]:
        print(f"WARNING {flag}", file=sys.stderr)

    failures = Failures(workload.name)
    measure = traced if args.trace else end_to_end
    metrics, samples, missing = measure(workload, args, root, reference, failures)
    for name, reason in missing.items():
        print(f"MISSING {name}: {reason}", file=sys.stderr)

    print("context " + json.dumps(context, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print("missing " + json.dumps(missing, sort_keys=True))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
