"""One pass of a workload, in a fresh interpreter.

Run by run.py as ``python3 worker.py <t0>``, where t0 is the parent's
``time.perf_counter()`` just before it started this process (on Linux
both read CLOCK_MONOTONIC, so the clocks agree).  Set-up time is the
interval from t0 until ``import puncgon`` has returned.  A fixed
calibration loop that uses no puncgon code is timed before and after the
pass, so run.py can tell how fast the host was running.  The pass spec
arrives on stdin as JSON; one JSON line with the measurements goes to
stdout.
"""

import sys
import time

T0 = float(sys.argv[1])
import puncgon  # noqa: E402
import puncgon.cli  # noqa: E402

SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def calibrate() -> float:
    """Median time of three repetitions of fixed pure-Python work that uses
    no puncgon code but the same kinds of operations: frozen dataclasses in
    a set, Fraction arithmetic and a keyed sort."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        seen = set()
        acc = Fraction(0)
        for i in range(15_000):
            seen.add(_Pair(i % 97, i % 13))
            if i % 5 == 0:
                acc += Fraction(i % 7, 1 + i % 11)
        sorted(seen, key=lambda p: (p.b, p.a))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_command(argv) -> tuple[int, str]:
    """Exit code and stdout of one command, as the console script gives
    them: a rejected argument list exits 2, an uncaught exception exits 1
    with its traceback on stderr."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = puncgon.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def main() -> int:
    calib = [calibrate()]
    spec = json.loads(sys.stdin.read())
    cmds = [workloads.Command(tuple(c["argv"]), c["items"], c["check"], c["digest"])
            for c in spec["commands"]]
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for cmd in cmds:
        t = time.perf_counter()
        code, out = run_command(cmd.argv)
        results.append((time.perf_counter() - t, code, out))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if cmds:
        calib.append(calibrate())

    record = {
        "setup_s": SETUP_S,
        "calib_s": calib,  # before the pass, and after it when there was one
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "commands": [
            {"s": s, "failures": workloads.failures(cmd, code, out, spec["laws"])}
            for cmd, (s, code, out) in zip(cmds, results)
        ],
    }
    if tracer is not None:
        stdout_bytes = sum(len(out.encode()) for _, _, out in results)
        table = tracer.summary()
        record["layers"] = spans.layer_metrics(tracer, table, stdout_bytes)
        record["spans"] = table
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
