"""The three workloads: the commands of one pass, the workload units each
command completes, and the independent checks on each command's output.

Every command goes through ``puncgon.cli.main``.  A command fails when
its exit code is not 0, when its stdout differs from the digest recorded
on the reference commit (``golden.json``), or when a law check on its
output fails.  The law checks do not call the code under test, except
``flip`` to confirm that flipping the inserted edge gives back the
removed one.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path

WORKLOADS = ("enum", "flips", "pairs")
GOLDEN = Path(__file__).with_name("golden.json")

ENUM_COMMANDS = (
    ("verify", "--n", "9", "--suite", "lemma3"),
    ("triangulations", "--n", "7", "--max-enum", "7", "--format", "json"),
)
PAIRS_COMMANDS = (
    ("verify", "--n", "14", "--suite", "theorem2,prop22,lemma2,tau-period,ar-triangles"),
    ("verify", "--n", "12", "--suite", "theorem2", "--method", "mesh"),
    ("crossings", "--n", "20", "--format", "json"),
    ("ar-quiver", "--n", "24", "--format", "json"),
)
# Polygon size of each walk in a flips pass.  Walks of one size share the
# mesh caches, so a pass reads bases warmed by an earlier walk as well as
# cold ones.  Many short walks keep the cost of a pass close to the same
# for every seed.
FLIP_SLOTS = (10, 10, 11, 11, 12, 12, 12, 12)
FLIP_POOL_PER_N = 16
FLIP_STEPS = 10
FLIP_START_STEPS = 12
PAIR_SUITES = ("theorem2", "prop22", "lemma2")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    items: int  # workload units the command completes
    check: str  # name of the law check in CHECKS
    digest: str  # sha256 of stdout on the reference commit


def type_d_count(n: int) -> int:
    """Number of triangulations of the punctured n-gon, (3n-2)/n * C(2n-2, n-1)."""
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _n(argv) -> int:
    return int(_arg(argv, "--n"))


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def fan(n: int, base: int) -> str:
    """The fan triangulation at ``base``, as a --T argument."""
    edges = [f"{base}|+", f"{base}|-"] + [f"{base}-{(base + k) % n}" for k in range(2, n)]
    return ",".join(edges)


def flip_pool_entry(n: int, index: int) -> dict:
    """Arguments of the pool walk ``index`` at size n, before its start
    triangulation is known: the fan it is grown from and the walk seeds."""
    rng = random.Random(f"flips-pool:{n}:{index}")
    return {
        "n": n,
        "fan_base": rng.randrange(n),
        "start_seed": rng.randrange(1 << 30),
        "walk_seed": rng.randrange(1 << 30),
    }


def start_walk_argv(entry: dict) -> tuple[str, ...]:
    n = entry["n"]
    return ("flipwalk", "--n", str(n), "--T", fan(n, entry["fan_base"]),
            "--random", str(FLIP_START_STEPS), "--seed", str(entry["start_seed"]),
            "--format", "json")


def walk_argv(entry: dict) -> tuple[str, ...]:
    return ("flipwalk", "--n", str(entry["n"]), "--T", entry["start"],
            "--random", str(FLIP_STEPS), "--seed", str(entry["walk_seed"]),
            "--format", "json")


def report_argv(entry: dict) -> tuple[str, ...]:
    return ("report", "--n", str(entry["n"]), "--T", entry["final"], "--format", "json")


def _pairs_items(argv) -> int:
    n = _n(argv)
    if argv[0] == "crossings":
        return n ** 4
    if argv[0] == "verify":
        return n ** 4 * sum(s in PAIR_SUITES for s in _arg(argv, "--suite").split(","))
    return 0


def build(workload: str, seed: int, golden: dict, index: int = 0) -> list[Command]:
    """The command list of pass ``index`` of ``workload`` for ``seed``.

    The enum and pairs commands are fixed by their sizes, so only flips
    depends on the seed: it picks the walks from the recorded pool.  Each
    pass picks its own walks, because single walks differ in cost by up
    to 2x; a run's median then covers many walk sets instead of hinging
    on one pick.
    """
    digests = golden["digests"]
    if workload == "enum":
        return [Command(a, type_d_count(_n(a)), a[0], digests[" ".join(a)]) for a in ENUM_COMMANDS]
    if workload == "pairs":
        return [Command(a, _pairs_items(a), a[0], digests[" ".join(a)]) for a in PAIRS_COMMANDS]
    if workload != "flips":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"flips:{seed}:{index}")
    picks = {n: rng.sample(range(FLIP_POOL_PER_N), FLIP_SLOTS.count(n)) for n in sorted(set(FLIP_SLOTS))}
    cmds = []
    for n in FLIP_SLOTS:
        entry = golden["flips"][str(n)][picks[n].pop()]
        for argv, items in ((walk_argv(entry), FLIP_STEPS), (report_argv(entry), 0)):
            cmds.append(Command(argv, items, argv[0], digests[" ".join(argv)]))
    return cmds


# ---------------------------------------------------------------------------
# law checks: each returns a list of problems, empty when the output holds


def check_verify(argv, out: str) -> list[str]:
    n = _n(argv)
    suites = _arg(argv, "--suite").split(",")
    lines = out.splitlines()
    problems = []
    if len(lines) != len(suites):
        problems.append(f"{len(lines)} result lines for {len(suites)} suites")
    for line in lines:
        if not line.startswith("[PASS] "):
            problems.append(f"suite did not pass: {line}")
        m = re.search(r"\(n=\d+\): (\d+) (?:ordered pairs|pairs mesh|move pairs)", line)
        if m and int(m.group(1)) != n ** 4:
            problems.append(f"{line}: expected {n ** 4} pairs")
        m = re.search(r"lemma3 \(n=\d+\): (\d+) maximal non-crossing sets, sizes \[(.*)\]", line)
        if "lemma3" in line and not m:
            problems.append(f"unparsed lemma3 line: {line}")
        if m:
            if int(m.group(1)) != type_d_count(n):
                problems.append(f"{m.group(1)} maximal sets, type-D count is {type_d_count(n)}")
            if m.group(2) != str(n):
                problems.append(f"set sizes [{m.group(2)}], expected [{n}]")
    return problems


def check_triangulations(argv, out: str) -> list[str]:
    n = _n(argv)
    data = json.loads(out)
    tris = data["triangulations"]
    problems = []
    if data["count"] != type_d_count(n) or len(tris) != type_d_count(n):
        problems.append(f"count {data['count']} ({len(tris)} listed), type-D count is {type_d_count(n)}")
    if any(len(t) != n for t in tris):
        problems.append(f"a triangulation without {n} edges")
    if len({frozenset(t) for t in tris}) != len(tris):
        problems.append("a triangulation is listed twice")
    return problems


def check_crossings(argv, out: str) -> list[str]:
    n = _n(argv)
    mat = json.loads(out)["matrix"]
    size = n * n
    problems = []
    if len(mat) != size or any(len(row) != size for row in mat):
        problems.append(f"matrix is not {size} x {size}")
        return problems
    if any(mat[i][i] != 0 for i in range(size)):
        problems.append("nonzero diagonal")
    if any(mat[i][j] != mat[j][i] for i in range(size) for j in range(i)):
        problems.append("matrix is not symmetric")
    if any(v not in (0, 1, 2) for row in mat for v in row):
        problems.append("entry outside {0, 1, 2}")
    return problems


def check_ar_quiver(argv, out: str) -> list[str]:
    n = _n(argv)
    data = json.loads(out)
    verts = [v["edge"] for v in data["vertices"]]
    problems = []
    if len(set(verts)) != n * n:
        problems.append(f"{len(set(verts))} vertices, expected {n * n}")
    known = set(verts)
    if any(a not in known or b not in known for a, b in data["arrows"]):
        problems.append("an arrow leaves the vertex set")
    return problems


def _flip_back(n: int, after: list[str], inserted: str) -> tuple[set, str]:
    from puncgon.geometry import TaggedEdge
    from puncgon.triangulation import Triangulation, flip

    t = Triangulation(n, tuple(TaggedEdge.parse(n, e) for e in after))
    back, removed = flip(t, TaggedEdge.parse(n, inserted))
    return {str(e) for e in back.edges}, str(removed)


def check_flipwalk(argv, out: str) -> list[str]:
    n = _n(argv)
    data = json.loads(out)
    steps = data["steps"]
    problems = []
    if len(steps) != int(_arg(argv, "--random")):
        problems.append(f"{len(steps)} steps, asked for {_arg(argv, '--random')}")
    current = set(_arg(argv, "--T").split(","))
    if set(data["start"]) != current:
        problems.append("start is not the --T argument")
    for k, step in enumerate(steps):
        removed, inserted = step["removed"], step["inserted"]
        after = set(step["triangulation"])
        if step["crossing"] != 1:
            problems.append(f"step {k}: flip pair crosses {step['crossing']} times")
        if removed not in current or after != (current - {removed}) | {inserted}:
            problems.append(f"step {k}: triangulation is not the previous one with {removed} -> {inserted}")
        else:
            back, partner = _flip_back(n, step["triangulation"], inserted)
            if back != current or partner != removed:
                problems.append(f"step {k}: flipping {inserted} back gives {partner}, not {removed}")
        current = after
    if set(data["final"]) != current:
        problems.append("final is not the last step's triangulation")
    return problems


def check_report(argv, out: str) -> list[str]:
    n = _n(argv)
    data = json.loads(out)
    t = set(_arg(argv, "--T").split(","))
    problems = []
    if set(data["T"]) != t or set(data["quiver"]["vertices"]) != t:
        problems.append("quiver vertices are not the triangulation")
    modules = data["modules"]["vertices"]
    if len(modules) != n * n - n or any(m["edge"] in t for m in modules):
        problems.append(f"{len(modules)} modules, expected the {n * n - n} edges outside T")
    # maximality of T: every other edge crosses some member
    if any(not any(m["dimvec"]) or min(m["dimvec"]) < 0 for m in modules):
        problems.append("a module with a zero or negative dimension vector")
    return problems


CHECKS = {
    "verify": check_verify,
    "triangulations": check_triangulations,
    "crossings": check_crossings,
    "ar-quiver": check_ar_quiver,
    "flipwalk": check_flipwalk,
    "report": check_report,
}


def failures(cmd: Command, code: int, out: str, laws: bool) -> list[str]:
    """Why the command failed, empty if it did not.  ``laws`` adds the law
    checks to the exit code and digest comparison."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if digest(out) != cmd.digest:
        problems.append("stdout differs from the reference digest")
    if laws:
        try:
            problems += CHECKS[cmd.check](cmd.argv, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        except RuntimeError as exc:  # the flip-back check hit an ExchangeError
            problems.append(f"law check raised {exc!r}")
    return problems
