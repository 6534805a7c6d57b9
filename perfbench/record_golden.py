"""Write golden.json: the flips walk pool and the stdout digest of every
command any workload can run.

Run from the repository root on the reference commit only:

    PYTHONPATH=src python3 perfbench/record_golden.py

The digests are the byte-identity gate for later refactors; recording
them again on a changed commit would hide exactly the diffs they exist
to catch.
"""

import contextlib
import io
import json
import sys

import workloads
from puncgon.cli import main


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return buf.getvalue()


def record() -> dict:
    digests = {}
    pool = {}

    def keep(argv) -> str:
        out = run(argv)
        digests[" ".join(argv)] = workloads.digest(out)
        return out

    for argv in workloads.ENUM_COMMANDS + workloads.PAIRS_COMMANDS:
        keep(argv)
    for n in sorted(set(workloads.FLIP_SLOTS)):
        entries = []
        for index in range(workloads.FLIP_POOL_PER_N):
            entry = workloads.flip_pool_entry(n, index)
            start = json.loads(run(workloads.start_walk_argv(entry)))["final"]
            entry["start"] = ",".join(start)
            final = json.loads(keep(workloads.walk_argv(entry)))["final"]
            entry["final"] = ",".join(final)
            keep(workloads.report_argv(entry))
            entries.append(entry)
            print(f"n={n} walk {index} recorded", file=sys.stderr)
        pool[str(n)] = entries
    return {"flips": pool, "digests": digests}


if __name__ == "__main__":
    workloads.GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
