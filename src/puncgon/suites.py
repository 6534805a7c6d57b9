"""Named verification suites behind ``puncgon verify``.

Each suite checks one finite, exhaustively decidable law of the model
and returns a :class:`SuiteResult`; the CLI exit status is zero exactly
when every requested suite passes.
"""

from __future__ import annotations

from .clusterops import ar_triangle, verify_theorem2
from .geometry import (
    TaggedEdge,
    elementary_moves,
    enumerate_tagged_edges,
    pos_inv,
    tau,
    tau_power,
)
from .mesh import RowTargets, hom_row_closed_form, hom_row_cluster
from .record import Record
from .triangulation import DEFAULT_LEMMA3_BOUND, _require_bound, maximal_noncrossing_sets

# The suites that check all n**4 ordered pairs, and the largest n they run
# at unless the caller raises it (``verify --max-pairs``, which also bounds
# the n**4-entry ``crossings`` table).
PAIR_SUITES = ("theorem2", "prop22", "lemma2")
DEFAULT_PAIRS_BOUND = 32

# Hom dimensions out of the edge at grid position (1, 3) for n = 6, as a
# map level -> values at columns 1..6.  This fixes the worked reference
# grid used by the prop22 suite; the zero column is the last one.
N6_GRID_FROM_POSITION_1_3 = {
    1: (0, 0, 1, 0, 1, 0),
    2: (0, 1, 1, 1, 1, 0),
    3: (1, 1, 2, 1, 1, 0),
    4: (1, 2, 2, 1, 0, 0),
    5: (1, 1, 1, 0, 0, 0),
    6: (1, 1, 1, 0, 0, 0),
}


class SuiteResult(Record):
    """Outcome of one suite: the one mutable record, so it has no hash."""

    __slots__ = _fields = ("name", "n", "passed", "summary", "details")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, n: int, passed: bool, summary: str, details=None):
        super().__init__(name, n, passed, summary, {} if details is None else details)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "n": self.n,
            "passed": self.passed,
            "summary": self.summary,
            "details": self.details,
        }


def suite_theorem2(n: int, method: str = "closed") -> SuiteResult:
    report = verify_theorem2(n, method=method)
    return SuiteResult(
        "theorem2",
        n,
        report.passed,
        f"{report.pairs_checked} ordered pairs, {len(report.failures)} failures "
        f"({method} engine)",
        {"failures": [list(f) for f in report.failures[:20]]},
    )


def suite_prop22(n: int) -> SuiteResult:
    """Mesh-engine Hom dimensions against the closed form on all pairs, one
    source row at a time; for n = 6 additionally the reference grid out of
    position (1, 3), read as one closed-form row over its 36 cells."""
    edges = enumerate_tagged_edges(n)
    targets = RowTargets(n, edges)
    failures = []
    for m in edges:
        mesh_row = hom_row_cluster(m, targets)
        closed_row = hom_row_closed_form(m, targets)
        if mesh_row != closed_row:
            for other, mesh, closed in zip(edges, mesh_row, closed_row):
                if mesh != closed:
                    failures.append([str(m), str(other), mesh, closed])
    extra = ""
    if n == 6:
        src = pos_inv(6, (1, 3))
        pair_failures = len(failures)
        cells = [
            (col, level, want)
            for level, row in N6_GRID_FROM_POSITION_1_3.items()
            for col, want in enumerate(row, start=1)
        ]
        grid = RowTargets(6, [pos_inv(6, (col, level)) for col, level, _ in cells])
        for (col, level, want), got in zip(cells, hom_row_closed_form(src, grid)):
            if got != want:
                failures.append([f"grid({col},{level})", str(src), got, want])
        if len(failures) == pair_failures:
            extra = ", reference grid ok"
    return SuiteResult(
        "prop22",
        n,
        not failures,
        f"{len(edges) ** 2} pairs mesh vs closed form, {len(failures)} failures{extra}",
        {"failures": failures[:20]},
    )


def suite_lemma2(n: int) -> SuiteResult:
    """Move duality: there is a move M -> N iff there is a move tau N -> M."""
    edges = enumerate_tagged_edges(n)
    failures = []
    moves = {m: set(elementary_moves(m)) for m in edges}
    back = [(other, moves[tau(other)]) for other in edges]
    for m in edges:
        for other, tau_moves in back:
            forward = other in moves[m]
            backward = m in tau_moves
            if forward != backward:
                failures.append([str(m), str(other)])
    return SuiteResult(
        "lemma2",
        n,
        not failures,
        f"{len(edges) ** 2} move pairs checked, {len(failures)} duality failures",
        {"failures": failures[:20]},
    )


def suite_lemma3(n: int, max_n: int = DEFAULT_LEMMA3_BOUND) -> SuiteResult:
    """Every maximal non-crossing set has exactly n elements (n <= max_n)."""
    _require_bound(n, max_n)
    sets = maximal_noncrossing_sets(n)
    sizes = sorted({s.bit_count() for s in sets})
    ok = sizes == [n]
    details = {"count": len(sets), "sizes": sizes}
    return SuiteResult(
        "lemma3",
        n,
        ok,
        f"{len(sets)} maximal non-crossing sets, sizes {sizes}",
        details,
    )


def suite_tau_period(n: int) -> SuiteResult:
    """tau^n is the identity for even n; for odd n it negates exactly the
    central tags and tau^(2n) is the identity."""
    edges = enumerate_tagged_edges(n)
    failures = []
    for m in edges:
        once = tau_power(m, n)
        if n % 2 == 0:
            if once != m:
                failures.append([str(m), str(once)])
        else:
            expect = TaggedEdge(n, m.start, m.end, -m.tag) if m.is_central else m
            if once != expect or tau_power(m, 2 * n) != m:
                failures.append([str(m), str(once)])
        step = m
        for _ in range(2 * n):
            step = tau(step)
        if step != tau_power(m, 2 * n):
            failures.append([str(m), "iterated tau mismatch"])
    return SuiteResult(
        "tau-period",
        n,
        not failures,
        f"{len(edges)} edges, {len(failures)} period failures",
        {"failures": failures[:20]},
    )


def suite_ar_triangles(n: int) -> SuiteResult:
    """AR middle terms match the move structure: the summands of the
    triangle ending at M are exactly the move sources into M, the edges X
    with a move X -> M, collected in one pass over all moves."""
    edges = enumerate_tagged_edges(n)
    sources = {m: set() for m in edges}
    for x in edges:
        for y in elementary_moves(x):
            sources[y].add(x)
    failures = []
    for m in edges:
        if set(ar_triangle(m).middle) != sources[m]:
            failures.append([str(m), "middle is not the set of move sources into M"])
    return SuiteResult(
        "ar-triangles",
        n,
        not failures,
        f"{len(edges)} triangles checked, {len(failures)} failures",
        {"failures": failures[:20]},
    )


SUITES = {
    "theorem2": suite_theorem2,
    "prop22": suite_prop22,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "tau-period": suite_tau_period,
    "ar-triangles": suite_ar_triangles,
}


def run_suites(names: list[str], n: int, method: str = "closed",
               max_enum: int = DEFAULT_LEMMA3_BOUND,
               max_pairs: int = DEFAULT_PAIRS_BOUND) -> list[SuiteResult]:
    """Run the named suites in order.  Every name (known, and given only
    once), the lemma3 bound and the bound of the all-pairs suites are
    checked before the first suite runs."""
    for i, name in enumerate(names):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if name in names[:i]:
            raise ValueError(f"suite {name!r} is named more than once")
    if "lemma3" in names:
        _require_bound(n, max_enum)
    if any(name in PAIR_SUITES for name in names):
        _require_bound(n, max_pairs, "all-pairs check", "--max-pairs")
    options = {"theorem2": {"method": method}, "lemma3": {"max_n": max_enum}}
    return [SUITES[name](n, **options.get(name, {})) for name in names]
