"""CLI surface: commands, formats, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from somborlab import cli, oracle, sombor
from somborlab.cli import main
from somborlab.errors import TimeBudgetExceededError, ValidationError
from somborlab.formats import parse_degree_sequence

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


def test_construct_depends_on_pi_alone(capsys):
    # alpha = 1 pairs with no extremum, but the graph needs no pairing
    code, out, _ = run(capsys, "construct", "--pi", "3,2,2,1,1,1", "--alpha", "1")
    assert code == 0 and json.loads(out)["class"] == "tree"
    code, _, err = run(capsys, "construct", "--pi", "3,2,2,1,1,1", "--alpha", "1",
                       "--objective", "max")
    assert code == 2 and "alpha = 1" in err
    code, _, err = run(capsys, "construct", "--pi", "3,3,3,3,3,2,1")
    assert code == 2 and "c = 3" in err


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


def test_eval_edge_list_after_comment_lines(capsys, monkeypatch):
    # auto-detection reads the first line that is neither blank nor a comment
    monkeypatch.setattr("sys.stdin", io.StringIO("# path\n\n0 1\n1 2\n"))
    code, out, _ = run(capsys, "eval", "--graph", "-", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["so"] == {"1": 10.0}


def test_eval_disconnected_exit2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "eval", "--graph", str(path))
    assert code == 2
    assert "connected" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "non-ascii"])
def test_eval_unreadable_graph_exit2(capsys, tmp_path, kind):
    # exit 1 means a counterexample; a file that cannot be read is bad input
    path = tmp_path / "g.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-ascii":
        path.write_bytes("0 1\n1 2\n# caf\u00e9\n".encode())
    code, out, err = run(capsys, "eval", "--graph", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


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


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "1"),
    ("verify", "--theorem", "2"),
    ("enumerate", "--pi", "3,2,2,1,1,1"),
])
def test_unresolvable_extremum_exit2(capsys, argv):
    # the two classes of 3,2,2,1,1,1 differ by 4e-14 relatively at alpha =
    # 1e-12: both verifiers used to pass vacuously and enumerate marked each
    # class min and max
    code, out, err = run(capsys, *argv, "--alpha", "1e-12")
    assert (code, out) == (2, "")
    assert "alpha = 1e-12 for pi = 3,2,2,1,1,1:" in err


def test_enumerate_exact_ties_mark_min_and_max(capsys):
    code, out, _ = run(capsys, "enumerate", "--pi", "3,2,2,1,1,1", "--alpha", "1")
    assert code == 0
    classes = json.loads(out)["classes"]
    assert len(classes) == 2
    for entry in classes:
        assert entry["so"] == {"1": 46.0}
        assert entry["is_min"] == entry["is_max"] == {"1": True}


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "2", "--alpha", "1e-17"),
    ("verify", "--theorem", "2", "--alpha=-1e-17"),
    ("verify", "--theorem", "1", "--alpha", "1e-17"),
    ("verify", "--theorem", "1", "--alpha", "1e-320"),
    ("enumerate", "--pi", "3,2,2,2,1", "--alpha", "1e-17"),
])
def test_ties_h_alpha_cannot_tell_apart_exit2(capsys, argv):
    # every (x^2 + y^2)^alpha rounds to 1.0, so every class ties at m: both
    # verifiers used to pass vacuously and enumerate marked each class min and max
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "cannot resolve" in err
    assert "JDMs lie within the relative tolerance 1e-09 of 5.0" in err


@pytest.mark.parametrize("argv,pi,alpha", [
    (("enumerate", "--pi", "5,3,2,2,1^4", "--alpha", "50"), "5,3,2,2,1,1,1,1", 50),
    (("verify", "--theorem", "1", "--alpha=-100", "--c", "0", "--n-max", "8"),
     "4,3,2,1,1,1,1,1", -100),
    (("verify", "--theorem", "2", "--alpha=-100", "--c", "0", "--n-max", "8"),
     "4,3,2,1,1,1,1,1", -100),
])
def test_distinct_jdms_rounding_to_one_max_exit2(capsys, argv, pi, alpha):
    # two JDMs' sums round to one float, so both classes used to count as the
    # max; their exact values differ, and only one attains the maximum
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert (f"cannot resolve the max of SO_alpha over Gamma(pi) at alpha = {float(alpha)!r} "
            f"for pi = {pi}: 2 JDMs lie within the relative tolerance 1e-09 of") in err
    record = oracle.gamma_record(parse_degree_sequence(pi))
    floats = {key: v[alpha] for key, v in sombor.values_by_key(record.keys, (alpha,)).items()}
    tied = [key for key, v in floats.items() if v == max(floats.values())]
    exact = {key: sum(count * Fraction(x * x + y * y) ** alpha for (x, y), count in key)
             for key in record.keys}
    assert len(tied) == 2 and exact[tied[0]] != exact[tied[1]]
    assert [key for key in record.keys if exact[key] == max(exact.values())] in \
        ([tied[0]], [tied[1]])


@pytest.mark.parametrize("theorem", ["1", "2"])
def test_verify_alpha_50_trees_resolve(capsys, theorem):
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--alpha", "50",
                       "--c", "0", "--n-max", "9")
    assert code == 0 and json.loads(out)["pass"]


def test_verify_reads_negative_alpha(capsys):
    # argparse reads "--alpha -1e-17" as a flag; the "=" form reaches the verifier
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--n-max", "5", "--alpha", "-0.5")
    assert code == 0 and json.loads(out)["alphas"] == [-0.5]
    code, out, err = run(capsys, "verify", "--theorem", "2", "--alpha=-1e-17")
    assert (code, out) == (2, "")
    assert "at alpha = -1e-17 for pi = 3,2,2,1,1,1:" in err


@pytest.mark.parametrize("fmt,digest", [
    ("json", "063684a9a49de0909425192b3d228cfd6502d93c48f7fe64a45eccacfd68a6c3"),
    ("table", "4c32028d33d1612883b9093fc15db339a27bfb93b99c830f62bc16c57a8f826c"),
])
def test_enumerate_marks_every_class_of_a_winning_key(capsys, fmt, digest):
    # Gq`@?_ and GsP@?_ share one JDM, the only one attaining the min at
    # alpha 0.5 and the max at alpha 2: both classes carry both marks
    code, out, _ = run(capsys, "enumerate", "--pi", "3,3,2,2,1^4", "--alpha", "0.5,2",
                       "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if fmt == "table":
        marked = [line.split("\t")[0] for line in out.splitlines()
                  if line.split("\t")[2::2] == ["min", "max"]]
        assert marked == ["Gq`@?_", "GsP@?_"]


def test_alpha_keys_keep_distinct_alphas(capsys, monkeypatch):
    # the :g form keeps 6 digits, so these alphas used to share one key
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, out, _ = run(capsys, "eval", "--graph", "-", "--alpha", "1,1.0000000001")
    assert code == 0
    assert json.loads(out)["so"] == {"1": 10.0, "1.0000000001": 10.000000001609438}
    code, out, _ = run(capsys, "construct", "--pi", "3,2,2,1,1,1",
                       "--alpha", "2,2.0000001", "--format", "table")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("SO_")]
    assert rows == [["SO_2", "488.0"], ["SO_2.0000001", "488.000117768343"]]
    code, out, _ = run(capsys, "enumerate", "--pi", "3,2,2,1,1,1",
                       "--alpha", "0.1234567,0.1234568")
    assert code == 0
    for entry in json.loads(out)["classes"]:
        assert set(entry["so"]) == set(entry["is_min"]) == {"0.1234567", "0.1234568"}


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


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "1", "--c", "1,1", "--n-max", "4"),
    ("verify", "--theorem", "3", "--c", "0,1,0"),
])
def test_repeated_c_exit2(capsys, argv):
    # each repeated c would be checked twice and counted twice in "checked"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "repeats a value" in err


@pytest.mark.parametrize("argv, flag", [
    (("--theorem", "prop1", "--grid", "3", "--c", "7,7", "--n-max", "99"), "--n-max"),
    (("--theorem", "prop1", "--c", "0"), "--c"),
    (("--theorem", "3", "--n-max", "4", "--grid", "0"), "--grid"),
    (("--theorem", "1", "--grid", "20"), "--grid"),
    (("--theorem", "2", "--n-max", "4", "--grid", "5"), "--grid"),
])
def test_verify_refuses_flags_its_theorem_does_not_read(capsys, argv, flag):
    # a flag the sweep ignores would read as if it had been applied
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"does not read {flag}" in err


def test_verify_prop1_reports_its_default_grid(capsys):
    # --grid has no default of its own; prop1 reads it as 20, and the hidden
    # --workers stays accepted by every theorem
    code, out, _ = run(capsys, "verify", "--theorem", "prop1", "--alpha", "2",
                       "--workers", "1")
    assert code == 0 and json.loads(out)["grid"] == 20
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--n-max", "4",
                       "--workers", "1")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "2", "--alpha", "0.5,0.5"),
    ("verify", "--theorem", "prop1", "--alpha", "2,2.0"),
    ("construct", "--pi", "3,2,2,1,1,1", "--alpha", "0.5,2,0.50"),
])
def test_repeated_alpha_exit2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "repeats a value" in err


@pytest.mark.parametrize("argv, what", [
    (("verify", "--theorem", "2", "--n-max", "4", "--alpha", ""), "alpha"),
    (("verify", "--theorem", "2", "--n-max", "4", "--c", ""), "integer"),
    (("enumerate", "--pi", "3,2,2,1,1,1", "--alpha", ""), "alpha"),
], ids=["verify-alpha", "verify-c", "enumerate-alpha"])
def test_empty_list_exit2(capsys, argv, what):
    # an empty list flag neither falls back to the defaults nor drops every value
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{what} list is empty" in err


def test_overflow_is_a_validation_error(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--alpha", "200")
    assert code == 2 and out == ""
    assert "float range" in err
    code, out, err = run(capsys, "construct", "--pi", "3,2,2,1,1,1", "--alpha", "400")
    assert code == 2 and out == ""
    assert "float range" in err
    # on 7,1^7 each term 50^181.2 is finite but the sum of seven is not; on the
    # grid, 4 max|t| overflows from alpha = 106
    monkeypatch.setattr("sys.stdin", io.StringIO("GsaCC?\n"))
    for argv in (("enumerate", "--pi", "7,1^7", "--alpha", "181.2"),
                 ("construct", "--pi", "7,1^7", "--alpha", "181.2"),
                 ("eval", "--graph", "-", "--alpha", "181.2"),
                 *(("verify", "--theorem", t, "--n-max", "8", "--c", "0", "--alpha", "181.2")
                   for t in "123"),
                 ("verify", "--theorem", "prop1", "--alpha", "106.1"),
                 ("verify", "--theorem", "prop1", "--alpha", "106")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "float range" in err, argv


def test_json_output_is_strict(capsys):
    with pytest.raises(ValidationError, match="not finite"):
        cli._emit({"so": {"1": math.inf}}, "json", None)
    with pytest.raises(ValidationError, match="not finite"):
        cli._emit({"max_abs_delta": math.nan}, "json", None)
    assert capsys.readouterr().out == ""


def test_theorem3_unresolved_maxima_exit2(capsys):
    # at alpha = 100 the (4, 4) term swamps the rest: the maxima of a
    # majorization pair agree to 9e-10, below REL_TOL
    code, out, err = run(capsys, "verify", "--theorem", "3", "--alpha", "100")
    assert (code, out) == (2, "")
    assert "cannot order the maxima at alpha = 100.0" in err
    assert "pi = 4,4,2,2,1,1,1,1 " in err


@pytest.mark.parametrize("theorem", ["1", "2", "3"])
def test_verify_alpha_one_exit2_at_every_theorem(capsys, theorem):
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--alpha", "1")
    assert (code, out) == (2, "")
    assert "alpha = 1: all graphs in Gamma(pi) tie" in err


def test_verify_theorem3_follows_the_alpha_rule(capsys):
    # the minimum for 0 < alpha < 1, as in Theorems 1 and 2
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--alpha", "0.25,0.5,0.75")
    rec = json.loads(out)
    assert code == 0 and rec["pass"] is True
    assert sum(r["pairs_checked"] for r in rec["reports"]) == 3636
    code, out, err = run(capsys, "verify", "--theorem", "3", "--alpha", "-1")
    assert (code, out) == (2, "")
    assert "for alpha < 0" in err
    # every SO_1e-300 value is m * 1.0, so every pair ties in floats
    code, out, err = run(capsys, "verify", "--theorem", "3", "--alpha", "1e-300")
    assert (code, out) == (2, "")
    assert "cannot order the minima at alpha = 1e-300" in err


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


def _default_report_digest(capsys, theorem: str) -> str:
    """sha256 of the default report with elapsed_seconds stripped at every
    depth, re-dumped as in perfbench/reference.json"""
    code, out, _ = run(capsys, "verify", "--theorem", theorem)
    assert code == 0
    canonical = json.dumps(_strip_elapsed(json.loads(out)), indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_verify_theorem1_default_report_pinned(capsys):
    assert _default_report_digest(capsys, "1") == (
        "28cac8c43a49ed6add9e144fec49d95d1543a2419a229b94f70cc24277e0d858"
    )


def test_verify_theorem2_default_report_pinned(capsys):
    assert _default_report_digest(capsys, "2") == (
        "c999233467b6365343fbd8d9d6e1f5282bffe0c93329b35c60ea09696826dc87"
    )


def test_verify_theorem3_default_report_pinned(capsys):
    assert _default_report_digest(capsys, "3") == (
        "4b443cb6bf6470c6ef44f35176da456364790609b96237699e06d950d071f9f1"
    )


def test_json_output_is_one_sorted_line(capsys, tmp_path):
    # every JSON command, and the partial an expired budget writes to stderr,
    # prints what json.dumps(..., sort_keys=True) gives: no indentation
    graph = tmp_path / "k3.g6"
    graph.write_text("Bw\n")
    for argv in (("construct", "--pi", "3,2,2,1,1,1", "--alpha", "0.5,2"),
                 ("eval", "--graph", str(graph)),
                 ("enumerate", "--pi", "3,2,2,1,1,1", "--alpha", "0.5"),
                 ("majorize", "3,2,1", "4,1,1"),
                 ("verify", "--theorem", "prop1", "--grid", "5"),
                 ("verify", "--theorem", "1", "--n-max", "5"),
                 ("verify", "--theorem", "2", "--n-max", "5"),
                 ("verify", "--theorem", "3", "--n-max", "5")):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
    code, out, err = run(capsys, "verify", "--theorem", "2", "--n-max", "5",
                         "--time-budget", "0")
    assert code == 2 and out == ""
    assert err == json.dumps(json.loads(err), sort_keys=True) + "\n"


def test_closed_stdout_is_not_a_counterexample():
    # the reader stops after 10 bytes of a ~150 KB report, as `| head -c 10` does
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


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "1", "--n-max", "6", "--c", "0"),
    ("verify", "--theorem", "2", "--n-max", "6", "--c", "0"),
    ("enumerate", "--pi", "3,2,2,1,1,1"),
    ("eval", "--graph", "{path}"),
])
def test_sombor_underflow_is_a_validation_error(capsys, tmp_path, argv):
    # every h term of SO_-2000 is 0.0, so every graph tied at 0.0: both
    # verifiers passed vacuously and enumerate marked each class min and max
    path = tmp_path / "tree.txt"
    path.write_text("0 1\n1 2\n1 3\n2 4\n4 5\n")
    argv = [a.format(path=path) for a in argv] + ["--alpha=-2000"]
    code, out, err = run(capsys, *argv)
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
    # every c a graph on 8 vertices can have past 3: 728 checks
    ("1", "8", ",".join(map(str, range(4, 22)))),
])
def test_verify_theorems_under_default_cap(capsys, monkeypatch, theorem, n_max, cs):
    monkeypatch.delenv("SOMBOR_CAPS", raising=False)
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--n-max", n_max,
                       "--c", cs)
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and rec["n_max"] == int(n_max) and not rec["violations"]


@pytest.mark.slow
def test_verify_theorem1_every_c_at_n9(capsys):
    # every c a graph on 9 vertices can have past 3: 2,428 checks at n = 9
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--n-max", "9",
                       "--c", ",".join(map(str, range(4, 29))))
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and rec["checked"] == 728 + 2428


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

    # the sweeps look these up on the oracle when they run
    for name in ("generate_c_cyclic_sequences", "verify_theorem2", "verify_theorem3"):
        monkeypatch.setattr(oracle, name, no_sweep)
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--n-max", "11")
    assert code == 2 and out == ""
    assert "SOMBOR_CAPS" in err and "n <= 10" in err


@pytest.mark.parametrize("argv", [
    ("--theorem", "2", "--n-max", "1"),
    ("--theorem", "2", "--n-max=-5"),
    ("--theorem", "1", "--n-max", "2"),
    ("--theorem", "1", "--c", "3", "--n-max", "4"),
    ("--theorem", "3", "--n-max", "3"),
    ("--theorem", "3", "--c", "30"),        # no graph on 8 vertices has c = 30
])
def test_verify_sweep_that_checks_nothing_exit2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "to check" in err


@pytest.mark.parametrize("argv, message", [
    (("--theorem", "1", "--c", "-1"), "c = -1 is negative: need c >= 0"),
    (("--theorem", "2", "--c", "-1"), "c = -1 is negative: need c >= 0"),
    (("--theorem", "3", "--c", "0,-1"), "c = -1 is negative: need c >= 0"),
    # the constructor's limit is Theorem 2's only one
    (("--theorem", "2", "--c", "4"), "no canonical construction for c = 4"),
])
def test_verify_c_outside_a_theorem_exit2(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_theorem3_high_c_violation_exit1(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3", "--c", "7", "--alpha", "5")
    assert code == 1
    rec = json.loads(out)
    assert rec["pass"] is False
    assert [(v["pi"], v["pi_prime"], v["max_so_pi"], v["max_so_pi_prime"])
            for v in rec["violations"]] == [
        ([5, 4, 4, 4, 4, 3, 2, 2], [5, 4, 4, 4, 4, 3, 3, 1], 710962174.0, 698153206.0)]


def test_verify_time_budget_exit2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "2", "--n-max", "7",
                       "--time-budget", "0")
    assert code == 2
    assert "budget" in err


def test_verify_nan_time_budget_exit2_before_any_work(capsys, monkeypatch):
    # a NaN budget never expires; inf keeps meaning no limit
    swept = []
    monkeypatch.setattr(oracle, "verify_theorem2", lambda *a, **k: swept.append(a))
    code, out, err = run(capsys, "verify", "--theorem", "2", "--n-max", "5",
                         "--time-budget", "nan")
    assert code == 2 and out == "" and swept == []
    assert "time budget" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--n-max", "5",
                       "--time-budget", "inf")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_prop1_time_budget_exit2(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--grid", "50",
                         "--alpha", "2", "--time-budget", "0")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert "budget" in rec["error"] and rec["partial"] == []


@pytest.mark.parametrize("alpha", ["1e-12", "1.0000000001", "1e-300", "-1e-300", "1e-9",
                                   "1e-7", "-1e-7", "0.99999999", "1.00000003"])
def test_verify_prop1_unresolvable_alpha_exit2(capsys, alpha):
    # some strict cell's delta lies within its tol: floats cannot decide
    # that cell's sign, which is no counterexample, so the sweep does not
    # exit 1
    code, out, err = run(capsys, "verify", "--theorem", "prop1", f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert "grid cannot resolve" in err


def test_verify_prop1_resolves_alpha_near_one_on_a_small_grid(capsys):
    # on B = 3 every strict delta at alpha = 1 + 3e-8 clears its tol
    code, out, _ = run(capsys, "verify", "--theorem", "prop1", "--grid", "3",
                       "--alpha", "1.00000003")
    assert code == 0
    assert json.loads(out)["results"][0]["verdict"] == "escalating"


def test_out_of_memory_exit2(capsys, monkeypatch):
    # a grid too large for the machine is a bad input, not a counterexample
    from somborlab import indices

    def no_memory(f, bound):
        raise MemoryError

    monkeypatch.setattr(indices, "_table", no_memory)
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--grid", "20000",
                         "--alpha", "2")
    assert (code, out) == (2, "")
    assert err == "error: out of memory; use a smaller input\n"


def test_verify_prop1_budget_expires_inside_the_grid(capsys):
    # h_2's B = 600 table and unit certificate take longer than the budget,
    # which the grid checks once per row, so it expires inside that grid
    code, out, err = run(capsys, "verify", "--theorem", "prop1", "--grid", "600",
                         "--alpha", "2", "--time-budget", "0.05")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert "budget" in rec["error"] and rec["partial"] == []


def _expiring_deadline(k, seen):
    """A Deadline stand-in that expires on its k-th check."""
    class Expiring:
        def __init__(self, seconds=None):
            self.checks = 0

        def check(self, partial=None):
            self.checks += 1
            if self.checks == k:
                seen.append(partial)
                raise TimeBudgetExceededError("time budget of 0s exhausted",
                                              partial=partial)

    return Expiring


@pytest.mark.parametrize("theorem", ["2", "3"])
def test_budget_expiring_in_library_reports_completed_records(capsys, monkeypatch,
                                                              theorem):
    argv = ("verify", "--theorem", theorem, "--n-max", "5", "--c", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    full = json.loads(out)["reports"]
    seen = []
    # checks 1-6: n = 2, 3 complete and n = 4 begins; the 7th is inside the
    # library call for n = 4, after its first sequence
    monkeypatch.setattr(cli, "Deadline", _expiring_deadline(7, seen))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert seen and seen[0], "the budget must expire inside the library call"
    partial = json.loads(err)["partial"]
    assert [r["n"] for r in partial] == [2, 3]
    for got, want in zip(partial, full):
        got.pop("elapsed_seconds")
        want.pop("elapsed_seconds")
        assert got == want


def test_prop1_budget_expiring_in_grid_reports_completed_alphas(capsys, monkeypatch):
    argv = ("verify", "--theorem", "prop1", "--grid", "30", "--alpha", "2,3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    full = json.loads(out)["results"]
    seen = []
    # checks 1-30 are the rows of h_2's grid, check 35 is row 5 of h_3's
    monkeypatch.setattr(cli, "Deadline", _expiring_deadline(35, seen))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and seen == [None]
    assert json.loads(err)["partial"] == full[:1]


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


#: argv, stdin, SOMBOR_CAPS -> the whole stderr; one row per refusal that the
#: CLI tells apart by its message alone (each ends in exit 2)
_REFUSALS = [
    (("construct", "--pi", "2,1,1,1"), None, None, "degree sum 5 is odd"),
    (("construct", "--pi", "1,1,1,1"), None, None, "degree sum 4 below 2(n-1) = 6"),
    (("construct", "--pi", "3,3,1,1"), None, None, "Erdos-Gallai fails at k=2: 6 > 4"),
    (("construct", "--pi", "4,2,1,1"), None, None, "d1 = 4 exceeds n-1 = 3"),
    (("construct", "--pi", "3,x"), None, None, "bad term 'x' (expected INT or INT^INT)"),
    (("construct", "--pi", "2,2,2"), None, None, "minimum degree is 2, need 1"),
    (("construct", "--pi", "4,3,3,3,1"), None, None,
     "no canonical construction for c = 3; use the oracle"),
    (("construct", "--pi", "3,1,1,1", "--alpha", "2", "--objective", "min"), None, None,
     "objective min does not pair with alpha = 2"),
    (("enumerate", "--pi", "0^3"), None, None, "degree 0 must be >= 1"),
    (("verify", "--theorem", "2", "--alpha", "nan"), None, None,
     "alpha must be finite, got nan"),
    (("verify", "--theorem", "2", "--alpha", "1"), None, None,
     "alpha = 1: all graphs in Gamma(pi) tie"),
    (("verify", "--theorem", "prop1", "--alpha=-200"), None, None,
     "h_-200(1, 6) = 2.289049512e-314 is below the normal float range; "
     "use a smaller |alpha| or grid bound"),
    (("verify", "--theorem", "2", "--n-max", "11"), None, None,
     "enumeration capped at n <= 10, got n = 11; SOMBOR_CAPS=enum=N sets the cap, up to 16"),
    (("verify", "--theorem", "3", "--n-max", "3"), None, None,
     "theorem 3 with --n-max 3 and --c 0,1,2 has no majorization pair to check"),
    (("verify", "--theorem", "1"), None, "bogus=1", "unknown cap 'bogus' in SOMBOR_CAPS"),
    (("majorize", "2,2", "3,1,1"), None, None, "lengths differ: 2 vs 3"),
    (("eval", "--graph", "-", "--alpha", "0"), "Bw\n", None, "alpha must be nonzero"),
    (("eval", "--graph", "-"), "@\n", None,
     "graphs with n = 1 are rejected (need n >= 2)"),
    (("eval", "--graph", "-"), "D\n", None, "expected 2 data bytes for n=5, got 0"),
    # a self-loop is refused on its line, before Graph counts the vertices
    (("eval", "--graph", "-"), "0 0\n", None, "edge list line 1: self-loop at vertex 0"),
]


@pytest.mark.parametrize("argv, stdin, caps, message", _REFUSALS,
                         ids=[row[-1] for row in _REFUSALS])
def test_refusal_stderr_pinned(capsys, monkeypatch, argv, stdin, caps, message):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    if caps is None:
        monkeypatch.delenv("SOMBOR_CAPS", raising=False)
    else:
        monkeypatch.setenv("SOMBOR_CAPS", caps)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
