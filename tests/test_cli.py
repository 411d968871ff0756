"""CLI surface: commands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from somborlab import cli
from somborlab.cli import main

H1_EDGES = "\n".join(
    f"{u} {v}"
    for u, v in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6),
                 (0, 7), (7, 8), (8, 9), (0, 10), (10, 11), (11, 12)]
)
H2_EDGES = "\n".join(
    f"{u} {v}"
    for u, v in [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8),
                 (0, 9), (9, 10), (10, 11), (11, 12)]
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--pi", "3,2,2,2,1", "--alpha", "0.5,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["class"] == "unicyclic"
    assert rec["ordering"] == [0, 1, 2, 3, 4]
    assert sorted(map(tuple, rec["edges"])) == [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]
    assert set(rec["so"]) == {"0.5", "2"}


def test_construct_dot_pi1(capsys):
    code, out, _ = run(capsys, "construct", "--pi", "5,4,3^3,2^10,1^8",
                       "--alpha", "0.5", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert "// SO_0.5 = " in out
    assert out.count("--") == 23


def test_construct_rejects_no_pendant(capsys):
    code, _, err = run(capsys, "construct", "--pi", "2,2,2")
    assert code == 2
    assert "minimum degree" in err


def test_construct_rejects_nongraphical(capsys):
    code, _, err = run(capsys, "construct", "--pi", "3,3,1,1")
    assert code == 2
    assert "Erdos-Gallai" in err


def test_construct_objective_pairing(capsys):
    code, out, _ = run(capsys, "construct", "--pi", "3,2,2,1,1,1",
                       "--alpha", "0.5", "--objective", "min")
    assert code == 0
    code, _, err = run(capsys, "construct", "--pi", "3,2,2,1,1,1",
                       "--alpha", "0.5", "--objective", "max")
    assert code == 2


def test_eval_graph6_k3(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    code, out, _ = run(capsys, "eval", "--graph", str(path), "--alpha", "1")
    assert code == 0
    assert json.loads(out)["so"]["1"] == 24.0


def test_eval_h1_h2_equal(capsys, tmp_path):
    p1, p2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
    p1.write_text(H1_EDGES)
    p2.write_text(H2_EDGES)
    _, out1, _ = run(capsys, "eval", "--graph", str(p1), "--alpha=-1,0.5,2,3")
    _, out2, _ = run(capsys, "eval", "--graph", str(p2), "--alpha=-1,0.5,2,3")
    so1 = json.loads(out1)["so"]
    so2 = json.loads(out2)["so"]
    assert so1 == so2
    assert json.loads(out1)["graph6"] != json.loads(out2)["graph6"]


def test_eval_disconnected_exit2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "eval", "--graph", str(path))
    assert code == 2
    assert "connected" in err


def test_enumerate_c4(capsys):
    code, out, _ = run(capsys, "enumerate", "--pi", "2,2,2,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["class_size"] == 1


def test_enumerate_marks_min(capsys):
    code, out, _ = run(capsys, "enumerate", "--pi", "3,2,2,1,1,1", "--alpha", "0.5")
    rec = json.loads(out)
    assert rec["class_size"] == 2
    mins = [e for e in rec["classes"] if e["is_min"]["0.5"]]
    assert len(mins) == 1


def test_enumerate_over_cap_exit2(capsys):
    code, _, err = run(capsys, "enumerate", "--pi", "9,9,2^18")
    assert code == 2


def test_enumerate_above_kernel_bound_exit2(capsys, monkeypatch):
    # exit 1 means a counterexample; n = 17 is past the kernel, not a finding
    monkeypatch.setenv("SOMBOR_CAPS", "enum=17")
    code, out, err = run(capsys, "enumerate", "--pi", "2^17")
    assert code == 2 and out == ""
    assert "Traceback" not in err and "n <= 16" in err


def test_majorize(capsys):
    code, out, _ = run(capsys, "majorize", "2,2,2", "3,2,1")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "majorize", "3,2,1", "2,2,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["holds"] is False and rec["failing_prefix"] == 1
    code, _, err = run(capsys, "majorize", "2,2", "2,2,2")
    assert code == 2


def test_verify_prop1(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "prop1", "--alpha",
                       "0.5,2,1", "--grid", "8")
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True
    by_alpha = {r["alpha"]: r for r in rec["results"]}
    assert by_alpha[0.5]["verdict"] == "de-escalating"
    assert by_alpha[2]["verdict"] == "escalating"
    assert by_alpha[1]["max_abs_delta"] == 0.0


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0.5,nan"])
def test_verify_rejects_non_finite_alpha(capsys, alpha):
    code, out, err = run(capsys, "verify", "--theorem", "prop1", f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert "finite" in err


def test_overflow_is_a_validation_error(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--alpha", "200")
    assert code == 2 and out == ""
    assert "float range" in err
    code, out, err = run(capsys, "construct", "--pi", "3,2,2,1,1,1", "--alpha", "400")
    assert code == 2 and out == ""
    assert "float range" in err


def test_verify_prop1_default_report_pinned(capsys):
    # sha256 of the default report (12 alphas, B = 20) re-dumped as in
    # perfbench/reference.json; prop1 reports carry no timing keys
    code, out, _ = run(capsys, "verify", "--theorem", "prop1")
    assert code == 0 and "elapsed_seconds" not in out
    canonical = json.dumps(json.loads(out), indent=2, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "5749cef06d273b12368adca7259ba5736a3a5b150ee49e33d3b7dc2f3d7f5143"
    )


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def test_verify_theorem3_default_report_pinned(capsys):
    # sha256 of the default report with elapsed_seconds stripped at every
    # depth, re-dumped as in perfbench/reference.json
    code, out, _ = run(capsys, "verify", "--theorem", "3")
    assert code == 0
    canonical = json.dumps(_strip_elapsed(json.loads(out)), indent=2, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "4b443cb6bf6470c6ef44f35176da456364790609b96237699e06d950d071f9f1"
    )


def test_closed_stdout_is_not_a_counterexample():
    # the reader stops after 10 bytes of a ~300 KB report, as `| head -c 10` does
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "somborlab.cli", "verify", "--theorem", "2"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_USAGE != cli.EXIT_VIOLATION
    assert err == b""


def test_underflow_is_a_validation_error(capsys):
    # h values near the float floor cannot resolve the grid inequality; this
    # used to read as a "neither" counterexample (exit 1)
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--alpha=-400")
    assert code == 2 and out == ""
    assert "float range" in err


@pytest.mark.parametrize("caps", ["bogus=1", "enum=x", "canon=14"])
def test_bad_sombor_caps_exit2(capsys, monkeypatch, caps):
    monkeypatch.setenv("SOMBOR_CAPS", caps)
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--grid", "3")
    assert code == 2 and out == ""
    assert "SOMBOR_CAPS" in err


def test_verify_theorem2_small(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--n-max", "5",
                       "--c", "0,1", "--alpha", "0.5,2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_theorem3_small(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--n-max", "5",
                       "--c", "0", "--alpha", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and not rec["violations"]


def test_verify_theorem1_small(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--n-max", "5",
                       "--c", "0,1,2", "--alpha", "0.5,2")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("theorem,n_max,cs", [
    ("1", "8", "3"),
    ("1", "9", "0,1,2,3"),
    ("2", "9", "0,1,2"),
    ("3", "9", "0,1,2"),
])
def test_verify_theorems_under_default_cap(capsys, monkeypatch, theorem, n_max, cs):
    monkeypatch.delenv("SOMBOR_CAPS", raising=False)
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--n-max", n_max,
                       "--c", cs)
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and rec["n_max"] == int(n_max) and not rec["violations"]


def test_verify_cap_lifted_by_sombor_caps(capsys, monkeypatch):
    monkeypatch.setenv("SOMBOR_CAPS", "enum=11")
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--n-max", "11",
                       "--c", "0", "--alpha", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and rec["reports"][-1]["n"] == 11


@pytest.mark.parametrize("theorem", ["1", "2", "3"])
def test_verify_above_cap_exit2_before_any_sweep(capsys, monkeypatch, theorem):
    monkeypatch.delenv("SOMBOR_CAPS", raising=False)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran past the cap check")

    for name in ("generate_c_cyclic_sequences", "verify_theorem2", "verify_theorem3"):
        monkeypatch.setattr(cli, name, no_sweep)
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--n-max", "11")
    assert code == 2 and out == ""
    assert "SOMBOR_CAPS" in err and "n <= 10" in err


@pytest.mark.parametrize("argv", [
    ("--theorem", "2", "--n-max", "1"),
    ("--theorem", "2", "--n-max=-5"),
    ("--theorem", "1", "--n-max", "2"),
    ("--theorem", "1", "--c", "3", "--n-max", "4"),
    ("--theorem", "3", "--n-max", "3"),
])
def test_verify_sweep_that_checks_nothing_exit2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "to check" in err


def test_verify_time_budget_exit2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "2", "--n-max", "7",
                       "--time-budget", "0")
    assert code == 2
    assert "budget" in err


def test_verify_prop1_time_budget_exit2(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--grid", "50",
                         "--alpha", "2", "--time-budget", "0")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert "budget" in rec["error"] and rec["partial"] == []


def test_determinism(capsys):
    import re

    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--theorem", "3", "--n-max", "5",
                        "--c", "0,1", "--alpha", "2")
        outs.append(re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": X', out))
    assert outs[0] == outs[1]


def test_usage_error_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2
