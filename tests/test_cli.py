import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from puncgon.cli import main
from puncgon.geometry import parse_edge_list
from puncgon.suites import DEFAULT_PAIRS_BOUND, PAIR_SUITES, SUITES, SuiteResult
from puncgon.triangulation import Triangulation, fan_triangulation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_edges_text_and_json(capsys):
    code, out, _ = run(capsys, "edges", "--n", "4")
    assert code == 0
    assert "0-2\t(1,1)" in out
    code, out, _ = run(capsys, "edges", "--n", "4", "--format", "json")
    data = json.loads(out)
    assert data["n"] == 4 and len(data["edges"]) == 16
    assert {"edge": "0-2", "position": [1, 1]} in data["edges"]


def test_crossings_json_schema(capsys):
    code, out, _ = run(capsys, "crossings", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert len(data["edges"]) == 9 and len(data["matrix"]) == 9
    mat = data["matrix"]
    assert all(mat[i][j] == mat[j][i] for i in range(9) for j in range(9))


def test_hom_json(capsys):
    code, out, _ = run(
        capsys, "hom", "--n", "6", "--source", "0-4", "--target", "2-0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 2 and data["closed_form"] == 2
    assert data["components"] == {"0": 2}


def test_hom_basis_text(capsys):
    code, out, _ = run(capsys, "hom", "--n", "6", "--source", "0-4",
                       "--target", "2-0", "--basis")
    assert code == 0
    assert "total dimension 2" in out
    assert out.count("->") >= 2


def test_ext_matches_crossing(capsys):
    code, out, _ = run(
        capsys, "ext", "--n", "5", "--source", "0-2", "--target", "1-3",
        "--format", "json",
    )
    data = json.loads(out)
    assert code == 0 and data["ext1"] == data["crossing"] == 1


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite",
                       "theorem2,tau-period,lemma2")
    assert code == 0
    assert out.count("[PASS]") == 3


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "all",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {s["suite"] for s in data["suites"]} == {
        "theorem2", "prop22", "lemma2", "lemma3", "tau-period", "ar-triangles",
    }


def test_verify_unknown_suite_fails(capsys):
    code, _, err = run(capsys, "verify", "--n", "4", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_refuses_the_whole_request_before_any_suite_runs(capsys, monkeypatch):
    called = []

    def spy(name):
        def suite(n, **options):
            called.append(name)
            return SuiteResult(name, n, True, "spy")
        return suite

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, spy(name))
    for suites in ("theorem2,prop22,lemma3", "theorem2,prop22,bogus"):
        code, out, err = run(capsys, "verify", "--n", "14", "--suite", suites)
        assert (code, out, called) == (2, "", []), suites
        assert ("--max-enum" if suites.endswith("lemma3") else "unknown suite") in err


def test_verify_refuses_a_repeated_suite(capsys, monkeypatch):
    called = []
    monkeypatch.setitem(SUITES, "lemma3", lambda n, **options: called.append(n))
    for suites in ("lemma3,lemma3", "lemma2,lemma3, lemma3"):
        code, out, err = run(capsys, "verify", "--n", "4", "--suite", suites)
        assert (code, out, called) == (2, "", []), suites
        assert "error: suite 'lemma3' is named more than once" in err


def test_invalid_edge_names_condition_e4(capsys):
    code, _, err = run(capsys, "hom", "--n", "6", "--source", "0-1",
                       "--target", "0-2")
    assert code == 2
    assert "E4" in err


def test_report_rejects_non_triangulation(capsys):
    code, _, err = run(capsys, "report", "--n", "4", "--T", "0-2,1-3,0|+,1|+")
    assert code == 2
    assert "cross" in err


def test_report_rejects_duplicate_edge(capsys):
    code, out, err = run(capsys, "report", "--n", "5", "--T",
                         "0-2,0-2,0-3,0-4,0|+,0|-")
    assert code == 2 and out == ""
    assert "0-2 is listed more than once" in err


def test_triangulations_json_count(capsys):
    code, out, _ = run(capsys, "triangulations", "--n", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 50


def test_triangulations_prints_each_triangulation_once(capsys):
    """The printed sets are the search's own, with no Triangulation built
    for them; here each one goes through parse_edge_list and the
    Triangulation constructor, which checks it pairwise compatible,
    maximal and of size n, and keeps its order.  None is printed twice,
    and the count is the type-D cluster count (3n - 2)/n * C(2n - 2, n - 1)."""
    for n in range(3, 9):
        code, out, _ = run(capsys, "triangulations", "--n", str(n), "--format", "json",
                           "--max-enum", "8")
        assert code == 0
        data = json.loads(out)
        printed = data["triangulations"]
        for names in printed:
            edges = tuple(parse_edge_list(n, ",".join(names)))
            assert Triangulation(n, edges).edges == edges, names
        assert len(set(map(tuple, printed))) == len(printed) == data["count"]
        assert data["count"] == (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n


def test_triangulations_bound(capsys):
    code, _, err = run(capsys, "triangulations", "--n", "7")
    assert code == 2 and "bound" in err
    code, out, _ = run(capsys, "triangulations", "--n", "4", "--max-enum", "7")
    assert code == 0


@pytest.mark.parametrize("command", ["edges", "triangulations", "verify"])
def test_polygon_size_below_three_is_one_error_line(capsys, command):
    message = "error: polygon size must be >= 3, got n=2\n"
    assert run(capsys, command, "--n", "2") == (2, "", message)


def test_verify_lemma3_bound(capsys):
    # refused before the search starts: exit 2, nothing on stdout
    for argv in (("--n", "11"), ("--n", "4", "--max-enum", "3")):
        code, out, err = run(capsys, "verify", *argv, "--suite", "lemma3")
        assert code == 2 and out == "" and "--max-enum" in err
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "lemma3", "--max-enum", "4")
    assert code == 0 and "50 maximal non-crossing sets" in out


def test_crossings_pairs_bound(capsys):
    # crossings --n 20 and verify --n 14 are benchmarked; the golden corpus stops at 8
    assert DEFAULT_PAIRS_BOUND >= 20
    too_big = str(DEFAULT_PAIRS_BOUND + 1)
    for argv in (("--n", too_big), ("--n", "5", "--max-pairs", "4")):
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "crossings", *argv, "--format", fmt)
            assert code == 2 and out == "" and "--max-pairs" in err, argv
    code, out, _ = run(capsys, "crossings", "--n", "5", "--max-pairs", "5", "--format", "json")
    assert code == 0 and len(json.loads(out)["matrix"]) == 25


@pytest.mark.parametrize("argv, keep", [
    (("crossings", "--n", "20", "--format", "json"), 10),
    (("crossings", "--n", "20"), 10),
    (("edges", "--n", "4", "--format", "json"), 0),
])
def test_closed_pipe_exits_without_traceback(argv, keep):
    """A reader that stops early (``| head -c 10``) ends the command with
    exit code 1 and nothing on stderr.  The tables are far larger than a
    pipe buffer, so their writes meet the closed pipe; the short edge list
    still sits in stdout's buffer when the pipe is already closed, so
    only the flush at the end can fail."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as in a shell pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "puncgon.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert len(head) == keep
    assert err == "", err


def test_verify_pairs_bound_refuses_before_any_suite_runs(capsys, monkeypatch):
    called = []

    def spy(name):
        def suite(n, **options):
            called.append(name)
            return SuiteResult(name, n, True, "spy")
        return suite

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, spy(name))
    too_big = str(DEFAULT_PAIRS_BOUND + 1)
    for name in PAIR_SUITES:
        for argv in (("--n", too_big), ("--n", "5", "--max-pairs", "4")):
            code, out, err = run(capsys, "verify", *argv, "--suite", f"tau-period,{name}")
            assert (code, out, called) == (2, "", []), (name, argv)
            assert "--max-pairs" in err and "all-pairs check" in err
    # the bound covers only the n**4 suites, and raising it admits them
    code, _, _ = run(capsys, "verify", "--n", "5", "--max-pairs", "4",
                     "--suite", "tau-period,ar-triangles,lemma3")
    assert code == 0 and called == ["tau-period", "ar-triangles", "lemma3"]
    code, _, _ = run(capsys, "verify", "--n", "5", "--max-pairs", "5",
                     "--suite", ",".join(PAIR_SUITES))
    assert code == 0 and called[3:] == list(PAIR_SUITES)


def test_verify_pairs_bound_real_suites(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--max-pairs", "3", "--suite", "prop22")
    assert code == 2 and out == "" and "n=4 exceeds the configured bound 3" in err
    code, out, _ = run(capsys, "verify", "--n", "4", "--max-pairs", "4", "--suite", "prop22")
    assert code == 0 and "[PASS] prop22 (n=4): 256 pairs" in out


def test_flipwalk_involution_script(capsys):
    t = "3-1,3|+,1-3,1|+"
    code, out, _ = run(
        capsys, "flipwalk", "--n", "4", "--T", t, "--script", "3-1,0|+",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data["final"]) == sorted(t.split(","))
    assert all(s["crossing"] == 1 for s in data["steps"])


def test_flipwalk_rejects_crossing_start(capsys):
    code, out, err = run(capsys, "flipwalk", "--n", "5", "--T",
                         "0-2,1-3,0-3,0|+,0|-")
    assert (code, out, err) == (2, "", "error: edges 0-2 and 1-3 cross (e=1)\n")


@pytest.mark.parametrize("flag, edges", [
    ("--T", "0|+,0|-,0-2,0-3,0-4,,"),
    ("--T", "0|+,,0|-,0-2,0-3,0-4"),
    ("--script", "0-2, ,0-3"),
    ("--script", ""),
])
def test_flipwalk_rejects_empty_edge_items(capsys, flag, edges):
    argv = ["flipwalk", "--n", "5", "--T", "0|+,0|-,0-2,0-3,0-4", flag, edges]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: empty item in edge list {edges!r}" in err


def test_flipwalk_unknown_edge(capsys):
    code, out, err = run(capsys, "flipwalk", "--n", "4", "--T",
                         "3-1,3|+,1-3,1|+", "--script", "0-2")
    assert (code, out) == (2, "")
    assert err == "error: edge 0-2 is not in the current triangulation 1-3,3-1,1|+,3|+\n"
    # refused after a first flip: the flip stays on stdout
    code, out, err = run(capsys, "flipwalk", "--n", "4", "--T",
                         "3-1,3|+,1-3,1|+", "--script", "3-1,3-1")
    assert (code, out) == (2, "flip 3-1 -> 0|+: x[3-1] * x[0|+] = x[1|+] + x[3|+]\n")
    assert err == "error: edge 3-1 is not in the current triangulation 1-3,0|+,1|+,3|+\n"


def test_flipwalk_builds_random_steps_lazily(capsys):
    """A huge --random count costs nothing up front: the bad scripted
    first step is refused before any random step exists."""
    code, out, err = run(capsys, "flipwalk", "--n", "4", "--T", "3-1,3|+,1-3,1|+",
                         "--script", "0-2", "--random", str(10**12))
    assert code == 2 and out == ""
    assert "error: edge 0-2 is not in the current triangulation" in err


def test_flipwalk_rejects_negative_random(capsys):
    code, out, err = run(capsys, "flipwalk", "--n", "5", "--T",
                         "0-2,0-3,0-4,0|+,0|-", "--random", "-3")
    assert (code, out, err) == (2, "", "error: --random must be at least 0, got -3\n")


def test_flipwalk_random_seeded_deterministic(capsys):
    args = ("flipwalk", "--n", "5", "--T", "0-2,0-3,0-4,0|+,0|-",
            "--random", "8", "--seed", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert len(data["steps"]) == 8
    assert all(len(s["triangulation"]) == 5 for s in data["steps"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_flipwalk_validates_each_triangulation_once(capsys, monkeypatch, fmt):
    """A k-flip walk builds (and so validates) 1 + k triangulations: its
    start, and the one each flip builds, which the walk then carries on
    from."""
    real = Triangulation.__post_init__
    built = []

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Triangulation, "__post_init__", counted)
    code, _, _ = run(capsys, "flipwalk", "--n", "8", "--T", "0-2,0-3,0-4,0-5,0-6,0-7,0|+,0|-",
                     "--random", "12", "--seed", "5", "--format", fmt)
    assert code == 0 and len(built) == 13


def test_flipwalk_long_random_walk_stays_valid(capsys):
    code, out, _ = run(
        capsys, "flipwalk", "--n", "5", "--T", "0-2,0-3,0-4,0|+,0|-",
        "--random", "100", "--seed", "41", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["steps"]) == 100
    for s in data["steps"]:
        assert len(s["triangulation"]) == 5
        assert s["crossing"] == 1
        assert len(s["side_factors"]) <= 3 and len(s["coside_factors"]) <= 3


def test_report_text_sections(capsys):
    code, out, _ = run(capsys, "report", "--n", "4", "--T", "3-1,3|+,1-3,1|+")
    assert code == 0
    assert "endomorphism quiver" in out
    assert "vanishing arrow paths" in out
    assert "dimension vectors" in out


def test_report_no_op_transposes(capsys):
    _, out1, _ = run(capsys, "report", "--n", "4", "--T", "3-1,3|+,1-3,1|+",
                     "--format", "json")
    _, out2, _ = run(capsys, "report", "--n", "4", "--T", "3-1,3|+,1-3,1|+",
                     "--format", "json", "--no-op")
    a1 = json.loads(out1)["quiver"]["arrows"]
    a2 = json.loads(out2)["quiver"]["arrows"]
    assert sorted(map(tuple, a1)) == sorted((b, a, k) for a, b, k in a2)


def test_ar_quiver_category_json(capsys):
    code, out, _ = run(capsys, "ar-quiver", "--n", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["T"] is None and len(data["vertices"]) == 16
    assert len(data["tau"]) == 16


def test_ar_quiver_no_op_transposes(capsys):
    _, out1, _ = run(capsys, "ar-quiver", "--n", "4", "--format", "json")
    _, out2, _ = run(capsys, "ar-quiver", "--n", "4", "--format", "json", "--no-op")
    a1 = json.loads(out1)["arrows"]
    a2 = json.loads(out2)["arrows"]
    assert sorted(map(tuple, a1)) == sorted((b, a) for a, b in a2)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("fan", [False, True], ids=["category", "fan"])
def test_ar_quiver_no_op_dot_reverses_each_arrow(capsys, n, fan):
    """--no-op keeps every other DOT line and reverses each arrow line in
    place."""
    argv = ["ar-quiver", "--n", str(n), "--format", "dot"]
    if fan:
        argv += ["--T", str(fan_triangulation(n))]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, noop, _ = run(capsys, *argv, "--no-op")
    assert code == 0
    plain, noop = plain.splitlines(), noop.splitlines()
    assert len(plain) == len(noop)
    arrows = 0
    for a, b in zip(plain, noop):
        if " -> " in a:
            source, target = a.strip().rstrip(";").split(" -> ")
            assert b == f"  {target} -> {source};"
            arrows += 1
        else:
            assert a == b
    assert arrows > 0
    assert sum("[label=" in line for line in plain) == (n * n - n if fan else n * n)


def test_ar_quiver_tilted_dot_is_wellformed(capsys):
    code, out, _ = run(capsys, "ar-quiver", "--n", "4", "--T",
                       "3-1,3|+,1-3,1|+", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 16  # arrows among the 12 surviving modules


def test_outputs_deterministic(capsys):
    for args in (
        ("edges", "--n", "5", "--format", "json"),
        ("crossings", "--n", "4", "--format", "json"),
        ("triangulations", "--n", "4", "--format", "json"),
    ):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


def run_process(*argv):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "puncgon.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, message", [
    (("ext", "--method", "mesh", "--n", "2001", "--source", "0-2", "--target", "0-3"),
     "error: n=2001 is too large for the mesh engine; n must be at most 2000\n"),
    (("report", "--n", "4", "--T", "0-2,2-0,0|+,0|-", "--maxlen", "100000"),
     "error: more than 20000 arrow paths; lower maxlen\n"),
])
def test_size_refusals_print_one_error_line(argv, message):
    """The mesh engine's column limit and the path cap of ``report`` (the
    quiver of this triangulation has an oriented cycle, so its paths never
    run out) are input errors: one line on stderr, exit 2, no traceback."""
    assert run_process(*argv) == (2, "", message)


@pytest.mark.parametrize("source, target, bad", [
    ("1_0-2", "1-3", "1_0-2"),
    ("0-2", "+1-3", "+1-3"),
    ("0-2", "\u0661-3", "\u0661-3"),
])
def test_edge_with_a_non_ascii_digit_vertex_is_refused(source, target, bad):
    """A vertex that int() would read but the edge syntax does not allow
    is an input error: one line on stderr, exit 2, nothing on stdout."""
    code, out, err = run_process("ext", "--n", "12", "--source", source, "--target", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse edge {bad!r} (violates edge condition E1)\n"


@pytest.mark.parametrize("argv, message", [
    (("hom", "--n", "5", "--source", "0-2", "--target", "0-3", "--format", "json", "--basis"),
     "error: --basis and --grid print text; drop them or use --format text\n"),
    (("hom", "--n", "5", "--source", "0-2", "--target", "0-3", "--format", "json", "--grid"),
     "error: --basis and --grid print text; drop them or use --format text\n"),
    (("ar-quiver", "--n", "4", "--T", "3-1,3|+,1-3,1|+", "--no-op"),
     "error: --no-op transposes arrows, which the text table of modules does not "
     "show; use --format json or dot\n"),
])
def test_flags_a_format_ignores_are_refused(argv, message):
    """A flag the chosen output cannot show is an input error, not dropped
    in silence: one line on stderr, exit 2, no traceback."""
    assert run_process(*argv) == (2, "", message)
