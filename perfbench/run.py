"""puncgon benchmark: end-to-end metrics per workload, or a traced run
for the per-layer metrics.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  Each
pass runs the workload's command list through ``puncgon.cli.main`` in a
fresh interpreter (worker.py), one pass at a time, so every pass pays the
cold module caches a command-line user pays.  Passes repeat until the
time is used.  The last line of stdout is the JSON result; the lines
before it print every metric with its unit and sample count, and a full
record (machine, commit, seed, per-pass values, span table) is written
to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Extra set-up samples: interpreter start plus import, with no commands,
# taken after every untraced pass so set-up is sampled across the run.
SETUP_PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 150
# The host's speed drifts by a third over minutes (see README.md), so the
# reported times are corrected to a nominal host speed: each measured time
# is scaled by CALIBRATION_NOMINAL_S over the median time of the worker's
# calibration loop in the same run.  This is that loop's median time on
# the 2-vCPU Xeon host the bounds were set on.
CALIBRATION_NOMINAL_S = 0.04
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "memory_gb": round(mem / 2 ** 30, 2),
        "platform": platform.platform(),
    }


def source_identity(root: Path) -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the package sources (the benchmark's checkout need not be git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "puncgon").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run_pass(root: Path, cmds, trace: bool, laws: bool) -> dict:
    spec = {
        "trace": trace,
        "laws": laws,
        "commands": [
            {"argv": list(c.argv), "items": c.items, "check": c.check, "digest": c.digest}
            for c in cmds
        ],
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(t0)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def measure(root: Path, plan, seconds: float, trace: bool) -> tuple[list, list, list, list]:
    """Passes until ``seconds`` are used: untraced passes, alternating with
    traced ones when ``trace`` is set; ``plan(i)`` is the command list of
    pass i, and a traced pass repeats the list of the untraced pass before
    it.  The law checks run on the first pass, outside its timed window;
    the digests are compared on every pass.  Returns the untraced and
    traced pass records and the set-up and calibration samples of the
    untraced processes."""
    plain: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        t = time.perf_counter()
        cmds = plan(len(traced) if use_trace else len(plain))
        record = run_pass(root, cmds, use_trace, laws=not plain and not traced)
        record["argv"] = [" ".join(c.argv) for c in cmds]
        (traced if use_trace else plain).append(record)
        if not trace:
            probes += [run_pass(root, [], False, False) for _ in range(SETUP_PROBES_PER_PASS)]
        durations.append(time.perf_counter() - t)
    setup = [r["setup_s"] for r in plain + probes]
    calib = [c for r in plain + probes for c in r["calib_s"]]
    return plain, traced, setup, calib


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "puncgon" / "__init__.py").is_file():
        print(f"error: no package at {root / 'src' / 'puncgon'}; run from the repository root",
              file=sys.stderr)
        return 2
    golden = workloads.load_golden()

    def plan(index: int):
        return workloads.build(args.workload, args.seed, golden, index)

    cmds = plan(0)
    items = sum(c.items for c in cmds)  # the same for every pass

    try:
        run_pass(root, [], trace=False, laws=False)  # compile bytecode, warm the file cache
        plain, traced, setup, calib = measure(root, plan, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(r["commands"]) for r in passes)
    problems = [
        (argv[:80], p)
        for r in passes
        for argv, res in zip(r["argv"], r["commands"])
        for p in res["failures"]
    ]
    failed = sum(1 for r in passes for res in r["commands"] if res["failures"])
    for cmd, problem in problems[:20]:
        print(f"FAIL {cmd}: {problem}")

    stats = {
        "setup_raw_s": summarize(setup),
        "wall_raw_s": summarize([r["wall_s"] for r in plain]),
        "cpu_raw_s": summarize([r["cpu_s"] for r in plain]),
        "calib_s": summarize(calib),
        "peak_rss_mb": summarize([r["rss_mb"] for r in plain]),
    }
    host = CALIBRATION_NOMINAL_S / stats["calib_s"]["median"]
    wall = stats["wall_raw_s"]["median"]
    end_to_end = {
        "setup_s": stats["setup_raw_s"]["median"] * host,
        "wall_s": wall * host,
        "items_per_s": items / (wall * host),
        "peak_rss_mb": stats["peak_rss_mb"]["median"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        **source_identity(root),
        "items_per_pass": items,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "stats": stats,
        "host_factor": host,
        "end_to_end": end_to_end,
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in passes],
    }

    print(f"perfbench {args.workload} seed={args.seed} passes={len(plain)} untraced"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {len(cmds)} commands and {items} items per pass")
    print(f"  machine {json.dumps(record['machine'])}")
    print(f"  source commit={record['commit']} sha256={record['source_sha256'][:16]}")
    for name, st in stats.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<12} {st['median']:12.4f} {unit:<4} median of {st['samples']}"
              f" (q1 {st['q1']:.4f}, q3 {st['q3']:.4f})")
    print(f"  host factor {host:.4f} = {CALIBRATION_NOMINAL_S} s nominal / median calib_s")
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<4} reported"
              + ("" if name == "peak_rss_mb" else " (host-corrected)"))
    print(f"  {'fail_ratio':<12} {failed / attempted:12.4f} ratio {failed} of {attempted} commands")

    if args.trace:
        layers = layer_summary(traced, wall)
        record["per_layer"] = layers
        record["spans"] = traced[-1]["spans"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        for name, (v, u) in layers.items():
            print(f"  {name:<48} {v:14.6g} {u}")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in end_to_end.items()}

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record written to {out_file.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_summary(traced: list[dict], untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Median over the traced passes of every per-layer metric, plus the
    ratio of traced to untraced median pass time."""
    units = spans.per_layer_units()
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(r["wall_s"] for r in traced) / untraced_wall
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
