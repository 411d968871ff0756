"""Workload table and output checks shared by the benchmark runner and the pin script.

Every workload is a fixed, exhaustive list of `sombor` invocations with the
CLI's default options. The seed only shuffles their order within a pass.
`--workers` is never passed, so the table stays valid if the pool goes away.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: keys whose values are timings; removed before a digest is taken
TIMING_KEYS = frozenset({"elapsed_seconds"})


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect_pass: bool          # a verify report must carry "pass": true

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    layers: frozenset[str]     # layers the traced run must see calls in


def _verify(theorem: str) -> Invocation:
    return Invocation(("verify", "--theorem", theorem), True)


WORKLOADS = {
    w.name: w
    for w in (
        # Grid certification only: enumeration does no work here.
        Workload("grid", (_verify("prop1"),), frozenset({"cli", "indices"})),
        # The paper's acceptance set: many small Gamma(pi), n <= 8.
        Workload("sweep", (_verify("1"), _verify("2"), _verify("3")),
                 frozenset({"cli", "oracle", "kernels", "construct", "bfs"})),
        # One near-regular Gamma(pi) at n = 9: the high-symmetry kernel regime.
        # Run by hand only; BENCHMARK.json leaves it out (see README.md).
        Workload("deep",
                 (Invocation(("enumerate", "--pi", "3,3,2^7", "--alpha", "0.5,2"), False),),
                 frozenset({"cli", "oracle", "kernels"})),
    )
}

VERSION_ARGV = ("--version",)


def strip_timing(obj):
    """Copy of a parsed JSON value with every timing key removed, at any depth."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def digest(stdout: str) -> str:
    """sha256 of stdout with timing keys stripped; raises ValueError on non-JSON."""
    record = strip_timing(json.loads(stdout))
    canonical = json.dumps(record, indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(inv: Invocation, returncode: int, stdout: str, reference: dict) -> str | None:
    """Why the invocation failed, or None when it exit 0, passed and matched its pin."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = digest(stdout)
        passed = json.loads(stdout).get("pass")
    except (ValueError, AttributeError):
        return "stdout is not a JSON object"
    if inv.expect_pass and passed is not True:
        return f"reports pass = {passed!r}"
    want = reference["digests"].get(inv.key)
    if want is None:
        return "no pinned reference digest"
    if got != want:
        return f"stdout digest {got[:12]} != pinned {want[:12]}"
    return None
