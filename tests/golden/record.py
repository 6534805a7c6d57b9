"""Record the golden CLI corpus in this directory.

Run from the repository root on a commit whose output is trusted:

    PYTHONPATH=src python tests/golden/record.py

It writes one file per command (the exact stdout) and ``MANIFEST.json``,
which maps each file name to its argv.  ``tests/test_golden.py`` replays
the manifest and compares byte for byte.  The corpus pins refactors to
identical output, so recording only ever adds: a file is written only
when it is missing, and a file whose recorded bytes would change is left
as it is.  The manifest may gain cases but never drop or alter one.  If
anything would change, the script names every such file and exits 1.

Cases: for n = 5..8, a seeded walk of 12 random flips from the fan at
vertex 0 (JSON and text), then ``report`` in JSON, text and DOT on the
walk's final triangulation, plus one ``--no-op`` report.  Then, for
n = 5..8, ``hom --basis --grid`` on three pairs: 0-3 -> 1-0 (dimension
2), 2-4 -> 0-2 (a component at shift 1) and 0|+ -> 1|+ (both ends at
fork levels).  Then ``triangulations`` as text for n = 3..8 and as JSON
for n = 3..6, and ``verify --suite lemma3`` for n = 3..9: these pin the
enumeration's sets and their order.  Then, for n = 3..8: ``edges`` and
``crossings`` in text and JSON; ``ext`` on 0-2 -> 1-0 (crossing 1),
0|+ -> 1|- (two central edges) and, from n = 4, 0-3 -> 2-1 (crossing 2),
in JSON with ``--method closed`` and ``--method mesh`` and as text;
``ar-quiver`` of the category in text, JSON and DOT and with ``--no-op``,
and of the fan at vertex 0 (``--T``) in text, JSON and DOT and with
``--no-op``; and ``verify --suite`` for ``theorem2`` with both engines,
``prop22``, ``lemma2``, ``tau-period`` and ``ar-triangles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from puncgon.cli import main
from puncgon.triangulation import fan_triangulation

HERE = pathlib.Path(__file__).resolve().parent

HOM_PAIRS = (("dim2", "0-3", "1-0"), ("shift1", "2-4", "0-2"), ("forks", "0|+", "1|+"))
EXT_PAIRS = (("cross1", "0-2", "1-0"), ("central", "0|+", "1|-"), ("cross2", "0-3", "2-1"))
VERIFY_SUITES = ("prop22", "lemma2", "tau-period", "ar-triangles")


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
    for n in range(5, 9):
        for label, source, target in HOM_PAIRS:
            out[f"hom-n{n}-{label}.txt"] = ["hom", "--n", str(n), "--source", source,
                                           "--target", target, "--basis", "--grid"]
    for n in range(3, 9):
        tris = ["triangulations", "--n", str(n), "--max-enum", str(n)]
        out[f"triangulations-n{n}.txt"] = tris
        if n <= 6:
            out[f"triangulations-n{n}.json"] = tris + ["--format", "json"]
    for n in range(3, 10):
        out[f"verify-lemma3-n{n}.txt"] = ["verify", "--n", str(n), "--suite", "lemma3"]
    for n in range(3, 9):
        for cmd in ("edges", "crossings"):
            out[f"{cmd}-n{n}.txt"] = [cmd, "--n", str(n)]
            out[f"{cmd}-n{n}.json"] = [cmd, "--n", str(n), "--format", "json"]
        for label, source, target in EXT_PAIRS[: 2 if n == 3 else 3]:
            ext = ["ext", "--n", str(n), "--source", source, "--target", target]
            out[f"ext-n{n}-{label}.txt"] = ext
            for method in ("closed", "mesh"):
                out[f"ext-n{n}-{label}-{method}.json"] = ext + ["--method", method,
                                                                 "--format", "json"]
        fan = ["--T", str(fan_triangulation(n, 0))]
        for label, extra in (("", []), ("-fan", fan)):
            ar = ["ar-quiver", "--n", str(n)] + extra
            out[f"ar-quiver-n{n}{label}.txt"] = ar
            out[f"ar-quiver-n{n}{label}.json"] = ar + ["--format", "json"]
            out[f"ar-quiver-n{n}{label}.dot"] = ar + ["--format", "dot"]
            out[f"ar-quiver-n{n}{label}-noop.json"] = ar + ["--no-op", "--format", "json"]
        for method in ("closed", "mesh"):
            out[f"verify-theorem2-{method}-n{n}.txt"] = ["verify", "--n", str(n), "--suite",
                                                         "theorem2", "--method", method]
        for suite in VERIFY_SUITES:
            out[f"verify-{suite}-n{n}.txt"] = ["verify", "--n", str(n), "--suite", suite]
    return out


def _keep_or_add(path: pathlib.Path, text: str) -> bool:
    """Write text to a missing file; report whether the file now holds it."""
    if not path.exists():
        path.write_text(text, encoding="utf-8", newline="")
        return True
    return path.read_bytes() == text.encode("utf-8")


def record() -> list[str]:
    """Record every case; return the names of files that would change."""
    manifest = cases()
    changed = [name for name, argv in manifest.items() if not _keep_or_add(HERE / name, run(argv))]
    path = HERE / "MANIFEST.json"
    if path.exists():
        old = json.loads(path.read_text())
        if any(manifest.get(name) != argv for name, argv in old.items()):
            changed.append(path.name)
        else:
            path.write_text(json.dumps(old | manifest, indent=2) + "\n")
    else:
        path.write_text(json.dumps(manifest, indent=2) + "\n")
    return changed


if __name__ == "__main__":
    changed = record()
    if changed:
        print("recorded output would change, files left as they are:", file=sys.stderr)
        for name in changed:
            print(f"  {name}", file=sys.stderr)
        sys.exit(1)
