"""Tests of the benchmark harness itself: span arithmetic, failure
accounting, and determinism of the generated inputs."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import spans
import workloads
from puncgon.cli import main

ROOT = Path(__file__).resolve().parents[1]


def cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def command(argv, check, out) -> workloads.Command:
    return workloads.Command(tuple(argv), 0, check, workloads.digest(out))


# --- self time -------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 70]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [50, 20, 10, 20]


def test_overlapping_children_are_covered_once():
    start = [0, 10, 30, 90]
    end = [100, 40, 60, 120]  # the last child runs past its parent's end
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 100 - 50 - 10


def test_tracer_summary_on_wrapped_calls():
    ticks = iter(range(0, 10_000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf(x):
        return x

    def inner(x):
        return leaf(x) + leaf(x)

    def outer(x):
        return inner(x) + leaf(x)

    leaf = tracer.wrap("m.leaf", leaf)
    inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", outer)
    assert outer(1) == 3
    table = tracer.summary()
    # every span is opened and closed by one tick each, 10 ns apart
    assert table["m.leaf"] == {"calls": 3, "s": pytest.approx(30e-9), "self_s": pytest.approx(30e-9)}
    assert table["m.inner"]["s"] == pytest.approx(50e-9)
    assert table["m.inner"]["self_s"] == pytest.approx(30e-9)
    assert table["m.outer"]["s"] == pytest.approx(90e-9)
    assert table["m.outer"]["self_s"] == pytest.approx(30e-9)


def test_recursive_span_counts_inclusive_time_once():
    ticks = iter(range(0, 10_000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fact(k):
        return 1 if k <= 1 else k * fact(k - 1)

    fact = tracer.wrap("m.fact", fact)
    assert fact(3) == 6
    row = tracer.summary()["m.fact"]
    assert row["calls"] == 3
    assert row["s"] == pytest.approx(50e-9)
    assert row["self_s"] == pytest.approx(50e-9)


# --- failure accounting ----------------------------------------------------


def test_digest_mismatch_is_a_failure():
    argv = ("triangulations", "--n", "4", "--format", "json")
    out = cli(*argv)
    cmd = command(argv, "triangulations", out)
    assert workloads.failures(cmd, 0, out, laws=True) == []
    assert workloads.failures(cmd, 0, out.replace("0-2", "0-3", 1), laws=False)
    assert workloads.failures(cmd, 1, out, laws=False) == ["exit code 1"]


def test_corrupted_count_fails_the_type_d_check():
    assert [workloads.type_d_count(n) for n in (3, 4, 5, 7, 9)] == [14, 50, 182, 2508, 35750]
    argv = ("triangulations", "--n", "4", "--format", "json")
    out = cli(*argv)
    assert workloads.check_triangulations(argv, out) == []
    assert workloads.check_triangulations(argv, out.replace('"count": 50', '"count": 51'))
    argv = ("verify", "--n", "4", "--suite", "lemma3")
    out = cli(*argv)
    assert workloads.check_verify(argv, out) == []
    assert workloads.check_verify(argv, out.replace("50 maximal", "49 maximal"))
    argv = ("verify", "--n", "4", "--suite", "theorem2")
    out = cli(*argv)
    assert workloads.check_verify(argv, out) == []
    assert workloads.check_verify(argv, out.replace("256 ordered", "255 ordered"))
    assert workloads.check_verify(argv, out.replace("[PASS]", "[FAIL]"))


def test_corrupted_crossing_matrix_is_caught():
    argv = ("crossings", "--n", "4", "--format", "json")
    data = json.loads(cli(*argv))
    assert workloads.check_crossings(argv, json.dumps(data)) == []
    data["matrix"][0][5] = 3 - data["matrix"][0][5]
    assert workloads.check_crossings(argv, json.dumps(data))


def test_corrupted_flip_step_is_caught():
    argv = ("flipwalk", "--n", "6", "--T", workloads.fan(6, 2), "--random", "4",
            "--seed", "3", "--format", "json")
    out = cli(*argv)
    assert workloads.check_flipwalk(argv, out) == []
    data = json.loads(out)
    data["steps"][1]["crossing"] = 2
    assert workloads.check_flipwalk(argv, json.dumps(data))
    data = json.loads(out)
    step = data["steps"][2]
    step["removed"], step["inserted"] = step["inserted"], step["removed"]
    assert workloads.check_flipwalk(argv, json.dumps(data))


def test_unreadable_output_is_a_failure_not_a_crash():
    argv = ("crossings", "--n", "4", "--format", "json")
    cmd = command(argv, "crossings", "{}")
    assert workloads.failures(cmd, 0, "{}", laws=True)


# --- generated inputs --------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    golden = workloads.load_golden()
    for seed in (0, 1, 7, 2 ** 31 - 1):
        for index in (0, 3):
            assert (workloads.build(workload, seed, golden, index)
                    == workloads.build(workload, seed, golden, index))


def test_flip_walks_vary_with_the_seed():
    golden = workloads.load_golden()
    picks = {tuple(c.argv for c in workloads.build("flips", s, golden)) for s in range(20)}
    assert len(picks) > 10
    passes = {tuple(c.argv for c in workloads.build("flips", 5, golden, i)) for i in range(10)}
    assert len(passes) > 5
    for seed in range(20):
        cmds = workloads.build("flips", seed, golden)
        walks = [c for c in cmds if c.argv[0] == "flipwalk"]
        assert [workloads._n(c.argv) for c in walks] == list(workloads.FLIP_SLOTS)
        assert len({c.argv for c in walks}) == len(walks)


def test_pool_entries_regenerate_from_their_index():
    pool = workloads.load_golden()["flips"]
    for n, entries in pool.items():
        assert len(entries) == workloads.FLIP_POOL_PER_N
        for index, entry in enumerate(entries):
            assert workloads.flip_pool_entry(int(n), index).items() <= entry.items()


# --- the contract between the files ------------------------------------------


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.per_layer_units()


def test_traced_pass_reports_every_layer_metric():
    cmds = [command(("verify", "--n", "4", "--suite", "lemma3,theorem2"), "verify",
                    cli("verify", "--n", "4", "--suite", "lemma3,theorem2"))]
    record = run.run_pass(ROOT, cmds, trace=True, laws=True)
    assert record["commands"][0]["failures"] == []
    layers = record["layers"]
    assert set(layers) == set(spans.per_layer_units()) - {"trace.overhead_ratio"}
    assert layers["triangulation.maximal_noncrossing_sets.sets"] == 50
    assert layers["crossing.crossing_number.calls"] > 0
    assert layers["suites.lemma3.s"] > 0 and layers["suites.theorem2.s"] > 0
    assert layers["cli.self_s"] > 0
