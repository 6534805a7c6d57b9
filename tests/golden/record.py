"""Record the golden CLI corpus in this directory.

Run from the repository root on a commit whose output is trusted:

    PYTHONPATH=src python tests/golden/record.py

It writes one file per command (the exact stdout) and ``MANIFEST.json``,
which maps each file name to its argv.  ``tests/test_golden.py`` replays
the manifest and compares byte for byte.  The corpus pins refactors to
identical output: never re-record it to make a difference go away.

Cases: for n = 5..8, a seeded walk of 12 random flips from the fan at
vertex 0 (JSON and text), then ``report`` in JSON, text and DOT on the
walk's final triangulation, plus one ``--no-op`` report.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from puncgon.cli import main
from puncgon.triangulation import fan_triangulation

HERE = pathlib.Path(__file__).resolve().parent


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue()


def cases() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for n in range(5, 9):
        walk = ["flipwalk", "--n", str(n), "--T", str(fan_triangulation(n, 0)),
                "--random", "12", "--seed", str(n)]
        out[f"flipwalk-n{n}.json"] = walk + ["--format", "json"]
        out[f"flipwalk-n{n}.txt"] = walk
        final = ",".join(json.loads(run(walk + ["--format", "json"]))["final"])
        report = ["report", "--n", str(n), "--T", final]
        for fmt, ext in (("json", "json"), ("text", "txt"), ("dot", "dot")):
            out[f"report-n{n}.{ext}"] = report + ["--format", fmt]
        if n == 6:
            out["report-n6-noop.txt"] = report + ["--no-op"]
    return out


def record():
    manifest = cases()
    for name, argv in manifest.items():
        (HERE / name).write_text(run(argv), newline="")
    (HERE / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    record()
