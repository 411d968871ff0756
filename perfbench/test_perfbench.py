"""Tests of the benchmark's own logic. Run with: python3 -m pytest perfbench -q"""

import json
import os
import sys
import textwrap
from types import SimpleNamespace

import pytest

import layers
import run
from tracing import Span, Tracer, self_times
from workloads import Invocation, Workload, check_output, digest, strip_timing

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def test_strip_timing_removes_nested_keys_only():
    record = {"elapsed_seconds": 1.5, "pass": True,
              "reports": [{"n": 3, "elapsed_seconds": 0.25, "checks": [{"elapsed_seconds": 2}]}]}
    assert strip_timing(record) == {"pass": True, "reports": [{"n": 3, "checks": [{}]}]}
    assert record["elapsed_seconds"] == 1.5          # the input is left alone


def test_digest_ignores_timing_and_layout_but_not_values():
    a = json.dumps({"pass": True, "elapsed_seconds": 0.1, "x": [1.0, 0.30000000000000004]},
                   indent=2, sort_keys=True)
    b = json.dumps({"x": [1.0, 0.30000000000000004], "elapsed_seconds": 9.9, "pass": True})
    c = json.dumps({"pass": True, "x": [1.0, 0.3]})
    assert digest(a) == digest(b)
    assert digest(a) != digest(c)
    with pytest.raises(ValueError):
        digest("not json")


def test_check_output_names_each_failure():
    inv = Invocation(("verify", "--theorem", "1"), True)
    good = json.dumps({"pass": True, "elapsed_seconds": 3.0})
    reference = {"digests": {inv.key: digest(good)}}
    assert check_output(inv, 0, good, reference) is None
    assert check_output(inv, 1, good, reference) == "exit code 1"
    assert check_output(inv, 0, "Traceback", reference) == "stdout is not a JSON object"
    assert "pass = False" in check_output(inv, 0, json.dumps({"pass": False}), reference)
    assert "digest" in check_output(inv, 0, json.dumps({"pass": True, "n": 1}), reference)
    assert check_output(inv, 0, good, {"digests": {}}) == "no pinned reference digest"


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),       # overlaps a: together they cover 1..5
        Span("a", 8.0, 12.0, 0),      # clipped to the parent: covers 8..10
        Span("leaf", 1.5, 2.5, 1),    # grandchild: counts against a, not root
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2,
                        layers._count("doubled", lambda a, k, r: r))
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts["doubled"] == 6
    stats = tracer.stats()
    assert stats["inner"].calls == 2 and stats["outer"].calls == 1
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].total_s - stats["inner"].total_s, abs=1e-9)


def _synthetic_pass(unwrapped=()):
    tracer = Tracer()
    tracer.spans += [Span("cli.main", 0.0, 4.0, -1),
                     Span("indices.check_escalating", 1.0, 3.0, 0)]
    tracer.counts["indices.cells_checked"] = 1000
    tracer.counts["cli.output_bytes"] = 10
    tracer.unwrapped.update(unwrapped)
    return tracer


def test_pass_metrics_report_missing_sources_by_name():
    values, missing = layers.pass_metrics(_synthetic_pass(), {"cli", "indices"})
    assert not missing
    assert values["indices.us_per_cell"] == pytest.approx(2000.0)
    assert values["cli.self_s"] == pytest.approx(2.0)
    assert values["kernels.canon_bits.calls"] == 0      # undeclared layer: a true zero

    values, missing = layers.pass_metrics(
        _synthetic_pass(unwrapped={"indices.check_escalating"}), {"cli", "indices", "kernels"})
    for name in ("indices.check_escalating.calls", "indices.us_per_cell"):
        assert name not in values and "no target" in missing[name]
    assert missing["kernels.canon_bits.calls"] == "layer kernels recorded no calls"
    assert values["cli.output_bytes"] == 10


def test_benchmark_json_names_every_metric():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {k: (unit, better) for k, (unit, better, _) in layers.METRICS.items()}
    expected["trace.overhead_s"] = ("s", "lower")
    assert per_layer == expected
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "success_rate"}


@pytest.fixture
def broken_checkout(tmp_path):
    """A source tree whose CLI answers --version but fails every verify."""
    pkg = tmp_path / "src" / "somborlab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(textwrap.dedent("""
        import json, sys
        def main(argv=None):
            argv = sys.argv[1:] if argv is None else argv
            if argv == ["--version"]:
                print("sombor 0")
                return 0
            print(json.dumps({"pass": False}))
            return 1
    """))
    return str(tmp_path)


def test_forced_failure_lowers_success_rate(broken_checkout):
    workload = Workload("forced", (Invocation(("verify", "--theorem", "prop1"), True),),
                        frozenset())
    failures = run.Failures("forced")
    args = SimpleNamespace(seed=0, seconds=0.0)
    metrics, samples, _ = run.end_to_end(workload, args, broken_checkout,
                                         {"digests": {}}, failures)
    setup_calls = 1 + run.SETUP_PER_PASS
    assert (failures.attempted, failures.failed) == (setup_calls + 1, 1)
    assert metrics["success_rate"][0] == pytest.approx(1 - 1 / (setup_calls + 1))
    assert len(samples["wall_s"]) == 1


def test_traced_invocation_stays_in_process():
    sys.path.insert(0, os.path.join(REPO, "src"))
    tracer, requested = Tracer(), []
    status, out, _ = run.run_in_process(run.PROBE, tracer, requested)
    assert status == 0 and json.loads(out)["pass"] is True
    values, missing = layers.pass_metrics(tracer, {"cli", "oracle", "kernels", "construct"})
    assert not missing
    assert values["kernels.canon_bits.calls"] > 0       # pool children would lose these
    assert values["oracle.enumerate_gamma.calls"] == values["kernels.enumerate_classes.calls"]
    assert requested and requested[0] >= 1
