"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, separate
from the package's own algorithms, so that agreements are meaningful.
Where an oracle needs the package at all, it uses only primitives
(grid coordinates, Hom bases, composition, exact elimination), never the
algorithm it certifies.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction

from puncgon.crossing import crossing_number
from puncgon.geometry import (
    TaggedEdge,
    _fork_level,
    _require_same_n,
    edge_sort_key,
    enumerate_tagged_edges,
    grid_column,
)
from puncgon.linalg import FractionElim, IntElim, PivotError
from puncgon.mesh import ZqVertex, compose, morphism_space, zq_in_arrows, zq_tau
from puncgon.triangulation import (
    ExchangeError,
    QuiverPresentation,
    Triangulation,
    exchange_sides,
)


def zq_out_arrows(n: int, v: ZqVertex) -> list[ZqVertex]:
    """Out-arrows of (column, level) in the repetition quiver ZD_n, stated
    separately from the package's in-arrows: up one level within the
    column (level n-2 forks to both n-1 and n), and down one level into
    the next column (both fork levels drop to n-2)."""
    c, j = v
    out: list[ZqVertex] = []
    if j < n - 2:
        out.append((c, j + 1))
    elif j == n - 2:
        out.append((c, n - 1))
        out.append((c, n))
    if 2 <= j <= n - 2:
        out.append((c + 1, j - 1))
    elif j >= n - 1:
        out.append((c + 1, n - 2))
    return out


def lift_scan_crossing(m: TaggedEdge, other: TaggedEdge, width: int = 6) -> int:
    """Brute-force lift-translate count with an independently written
    interleaving predicate and a wide, fixed scan range."""
    n = m.n
    if m.is_central and other.is_central:
        return 1 if (m.start != other.start and m.tag != other.tag) else 0

    def chord(e):
        return (e.start, e.start + ((e.end - e.start) % n))

    if m.is_central or other.is_central:
        ray = m if m.is_central else other
        lo, hi = chord(other if m.is_central else m)
        hits = 0
        for k in range(-width, width + 1):
            x = ray.start + k * n
            if lo < x < hi:
                hits += 1
        return hits
    a, b = chord(m)
    c0, d0 = chord(other)
    hits = 0
    for k in range(-width, width + 1):
        c, d = c0 + k * n, d0 + k * n
        separates = (c < a < d) != (c < b < d)
        shared = a in (c, d) or b in (c, d)
        if separates and not shared:
            hits += 1
    return hits


def two_loop_edge_order(n: int) -> list[TaggedEdge]:
    """The canonical edge order written as two loops, apart from the index
    formula: the plain edges by start vertex and then by span 3..n, then
    the two radii of each vertex, plus tag first."""
    out = [TaggedEdge(n, a, (a + span - 1) % n, 1) for a in range(n) for span in range(3, n + 1)]
    for a in range(n):
        out += [TaggedEdge.central(n, a, 1), TaggedEdge.central(n, a, -1)]
    return out


def lowest_first_maximal_sets(n: int) -> list[tuple[int, ...]]:
    """Every maximal non-crossing set, as the increasing tuple of its
    indices into :func:`enumerate_tagged_edges`, by unpivoted Bron-Kerbosch
    on sets of those indices, with the adjacency read from
    ``crossing_number``.  Branching on the lowest candidate first chooses
    indices in increasing order and emits the sets in lexicographic order."""
    edges = enumerate_tagged_edges(n)
    nbrs = [
        {j for j, f in enumerate(edges) if j != i and crossing_number(e, f) == 0}
        for i, e in enumerate(edges)
    ]
    out = []

    def extend(chosen, candidates, excluded):
        if not candidates and not excluded:
            out.append(tuple(chosen))
        for v in sorted(candidates):
            extend(chosen + [v], candidates & nbrs[v], excluded & nbrs[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend([], set(range(len(edges))), set())
    return out


def brute_force_maximal_cliques(vertices: int, edges) -> list[tuple[int, ...]]:
    """Every maximal clique of the graph on ``range(vertices)`` with the
    given undirected edges, as an increasing tuple, in lexicographic
    order: every vertex subset is tried, and a clique is kept when no
    vertex outside it is adjacent to all of its members."""
    adjacent = {frozenset(e) for e in edges}

    def is_clique(s):
        return all(frozenset(p) in adjacent for p in itertools.combinations(s, 2))

    out = []
    for size in range(vertices + 1):
        for s in itertools.combinations(range(vertices), size):
            if is_clique(s) and not any(
                is_clique(s + (v,)) for v in range(vertices) if v not in s
            ):
                out.append(s)
    return sorted(out)


def n3_case_rule_crossing(m: TaggedEdge, other: TaggedEdge) -> int:
    """Hand count for n = 3, straight from the four case rules: the three
    chords pairwise cross once, a radius crosses the one chord it is
    strictly inside, radii cross iff vertices and tags both differ."""
    assert m.n == other.n == 3
    if m.is_central and other.is_central:
        return 1 if (m.start != other.start and m.tag != other.tag) else 0
    if not m.is_central and not other.is_central:
        return 0 if (m.start, m.end) == (other.start, other.end) else 1
    ray = m if m.is_central else other
    arc = other if m.is_central else m
    return 1 if ray.start == (arc.start + 1) % 3 else 0


def knitted_module_dimvecs(n: int) -> list[tuple[int, ...]]:
    """Dimension vectors of all indecomposable modules over the path
    algebra of 1 -> 2 -> ... -> (n-2) -> {n-1, n}, produced by classical
    AR-quiver knitting from the projective slice."""

    def proj(j):
        d = [0] * n
        if j <= n - 2:
            for i in range(1, j + 1):
                d[i - 1] = 1
        else:
            for i in range(1, n - 1):
                d[i - 1] = 1
            d[j - 1] = 1
        return tuple(d)

    def ins(c, j):
        out = []
        if j >= n - 1:
            out.append((c, n - 2))
        elif j >= 2:
            out.append((c, j - 1))
        if j <= n - 3:
            out.append((c - 1, j + 1))
        elif j == n - 2:
            out += [(c - 1, n - 1), (c - 1, n)]
        return out

    dims = {(1, j): proj(j) for j in range(1, n + 1)}
    for c in range(2, n):
        for j in range(1, n + 1):
            tot = [0] * n
            for y in ins(c, j):
                if y in dims:
                    tot = [a + b for a, b in zip(tot, dims[y])]
            prev = dims.get((c - 1, j), (0,) * n)
            vec = tuple(a - b for a, b in zip(tot, prev))
            assert all(v >= 0 for v in vec) and any(vec), (c, j, vec)
            dims[(c, j)] = vec
    return list(dims.values())


# ---------------------------------------------------------------------------
# Hom dimensions: additive knitting and the literal path / relation rank


def int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by sparse elimination over Fraction.

    Rows are dicts of their nonzero entries, taken shortest first.  Each
    row is reduced against the pivot rows in the order they were found
    (a pivot row holds no column of an earlier pivot, so reducing by it
    only brings in columns of later pivots); a row left nonzero becomes
    the next pivot row, scaled to 1 at its first column.
    """
    order: dict[int, int] = {}  # pivot column -> index of its pivot row
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    for dense in sorted(rows, key=lambda r: sum(1 for v in r if v)):
        row = {c: Fraction(v) for c, v in enumerate(dense) if v}
        todo = [order[c] for c in row if c in order]
        heapq.heapify(todo)
        while todo:
            col, prow = pivots[heapq.heappop(todo)]
            f = row.get(col)
            if f is None:
                continue
            for c, v in prow.items():
                new = row.get(c, 0) - f * v
                if new:
                    if c not in row and c in order:
                        heapq.heappush(todo, order[c])
                    row[c] = new
                else:
                    row.pop(c, None)
        if row:
            col = min(row)
            p = row[col]
            order[col] = len(pivots)
            pivots.append((col, {c: v / p for c, v in row.items()}))
    return len(pivots)


def zq_cell(e: TaggedEdge, shift: int) -> ZqVertex:
    """Absolute (column, level) of the vertex (shift, e) of ZD_n, from the
    identification (k, M) <-> (n*k + column(M), level(M)): a plain edge
    sits at level span - 2, a central edge at the fork level that the
    parity of its absolute column gives its tag."""
    c = shift * e.n + grid_column(e)
    if e.is_central:
        return (c, _fork_level(e.n, e.tag, c))
    return (c, e.span - 2)


def relative_cell(m: TaggedEdge, other: TaggedEdge, shift: int) -> ZqVertex:
    """Cell of (shift, other) in the sweep out of (0, m), whose source sits
    at relative column 0."""
    _require_same_n(m, other)
    c, level = zq_cell(other, shift)
    return (c - zq_cell(m, 0)[0], level)


def window_shifts(m: TaggedEdge, other: TaggedEdge) -> list[int]:
    """Every shift that puts ``other`` at a relative column in 0..2n-1,
    the window outside which Hom out of m vanishes, found by scanning
    shifts -2..3 (a relative column is column(other) - column(m) + k*n,
    and the column difference lies in -(n-1)..n-1)."""
    return [k for k in range(-2, 4) if 0 <= relative_cell(m, other, k)[0] <= 2 * m.n - 1]


def hom_dims_by_knitting(n: int, src_level: int, max_col: int) -> dict[ZqVertex, int]:
    """Additive mesh recurrence: d(x) = sum over in-arrows - d(tau x), with a
    unit source term at the source vertex and at its shift copy n-1 columns
    to the right (fork levels swap under the shift when n is odd).  Fast
    consistency companion to the sweep."""
    dims: dict[ZqVertex, int] = {}
    shift_level = src_level
    if n % 2 == 1 and src_level >= n - 1:
        shift_level = 2 * n - 1 - src_level
    sources = {(0, src_level), (n - 1, shift_level)}

    def get(v: ZqVertex) -> int:
        return dims.get(v, 0)

    for c in range(0, max_col + 1):
        for j in range(1, n + 1):
            x = (c, j)
            total = sum(get(y) for y in zq_in_arrows(n, x) if y[0] >= 0)
            total -= get(zq_tau(x))
            if x in sources:
                total += 1
            dims[x] = total
    return dims


def _enumerate_paths(n: int, src: ZqVertex, tgt: ZqVertex) -> list[tuple[ZqVertex, ...]]:
    if tgt[0] < src[0]:
        return []
    memo: dict[ZqVertex, list[tuple[ZqVertex, ...]]] = {tgt: [(tgt,)]}

    def suffixes(v: ZqVertex) -> list[tuple[ZqVertex, ...]]:
        if v in memo:
            return memo[v]
        out = []
        for w in zq_out_arrows(n, v):
            if w[0] <= tgt[0]:
                for s in suffixes(w):
                    out.append((v,) + s)
        memo[v] = out
        return out

    return suffixes(src)


def hom_dim_mesh_by_rank(m: TaggedEdge, other: TaggedEdge, shift: int) -> int:
    """Literal mesh Hom dimension: number of paths minus the exact rank of
    the relation matrix spanned by all u * m_X * v.  Exponential; used to
    certify the sweep on small windows."""
    n = m.n
    tgt = relative_cell(m, other, shift)
    if tgt[0] < 0:
        return 0
    src = (0, zq_cell(m, 0)[1])
    paths = _enumerate_paths(n, src, tgt)
    if not paths:
        return 0
    index = {p: i for i, p in enumerate(paths)}
    rows: set[tuple[int, ...]] = set()
    for c in range(src[0], tgt[0] + 1):
        for j in range(1, n + 1):
            x = (c, j)
            t = zq_tau(x)
            if t[0] < src[0]:
                continue
            prefixes = _enumerate_paths(n, src, t)
            if not prefixes:
                continue
            suffixes = _enumerate_paths(n, x, tgt)
            if not suffixes:
                continue
            middles = [y for y in zq_in_arrows(n, x)]
            for u in prefixes:
                for v in suffixes:
                    row = [0] * len(paths)
                    for y in middles:
                        row[index[u + (y,) + v]] += 1
                    rows.add(tuple(row))
    return len(paths) - int_rank([list(r) for r in rows])


# ---------------------------------------------------------------------------
# minimal right approximations by brute-force search


def admits_surjections(
    context: list[TaggedEdge],
    target: TaggedEdge,
    multiset: dict[TaggedEdge, int],
    rng: random.Random,
    trials: int = 4,
) -> bool:
    """Whether some map from the given sum makes every induced
    Hom(T_j, -) map onto Hom(T_j, target).  A passing seeded trial is an
    exact certificate; failure after all trials reports no."""
    summands = [
        (c, s)
        for c, k in sorted(multiset.items(), key=lambda kv: edge_sort_key(kv[0]))
        for s in range(k)
    ]
    checks = [j for j in context if morphism_space(j, target).total_dim > 0]
    if not summands:
        return not checks
    for _ in range(trials):
        coeffs = {
            (c, s): [
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(morphism_space(c, target).total_dim)
            ]
            for (c, s) in summands
        }
        if all(_surjects(j, target, summands, coeffs) for j in checks):
            return True
    return False


def _surjects(j, target, summands, coeffs) -> bool:
    """Whether Hom(j, sum) -> Hom(j, target) is onto for the given map."""
    out = morphism_space(j, target)
    want = out.total_dim
    elim = FractionElim(want)
    for (c, s) in summands:
        fs = morphism_space(c, target).basis()
        for g in morphism_space(j, c).basis():
            vec = [Fraction(0)] * want
            for a, f in zip(coeffs[(c, s)], fs):
                if a:
                    prod = compose(g, f).coords
                    vec = [x + a * y for x, y in zip(vec, prod)]
            elim.add(vec)
            if elim.rank == want:
                return True
    return False


def multisets(items: list[TaggedEdge], total: int):
    """Multisets of the given edges with ``total`` members and every
    multiplicity at most 2, largest multiplicities of early edges first."""
    items = sorted(items, key=edge_sort_key)

    def rec(idx: int, remaining: int):
        if remaining == 0:
            yield {}
            return
        if idx == len(items):
            return
        for take in range(min(2, remaining), -1, -1):
            for rest in rec(idx + 1, remaining - take):
                if take:
                    yield {items[idx]: take, **rest}
                else:
                    yield rest

    yield from rec(0, total)


def minimal_approximation(
    context: list[TaggedEdge], target: TaggedEdge, rng: random.Random, cap: int = 3
) -> dict[TaggedEdge, int] | None:
    """Smallest summand multiset (multiplicities <= 2, at most ``cap``
    members) whose generic map surjects on every Hom(T_j, -), or None."""
    relevant = [c for c in context if morphism_space(c, target).total_dim > 0]
    for total in range(0, cap + 1):
        for multiset in multisets(relevant, total):
            if admits_surjections(context, target, multiset, rng):
                return multiset
    return None


# ---------------------------------------------------------------------------
# cluster mutation: quivers and exchange factors across one flip


def _extend(span: IntElim, vec, a: TaggedEdge, b: TaggedEdge) -> bool:
    """``span.add(vec)`` for a span inside Hom(a, b); a pivot other than -1
    or 1 would make the integer span inexact, so it raises."""
    try:
        return span.add(vec)
    except PivotError as exc:
        raise ExchangeError(
            f"compositions {a} -> {b} have pivot {exc.pivot}, not 1 or -1"
        ) from None


def _arrows(a: TaggedEdge, b: TaggedEdge, members) -> tuple[int, IntElim]:
    """Arrows a -> b in the Gabriel quiver of the endomorphism algebra of
    ``members``: dim Hom(a, b) minus the rank of the span of compositions
    a -> c -> b through every other member c.  Returns the count and the
    span, in the flat coordinates of Hom(a, b).  Composing stops as soon
    as the span is all of Hom(a, b): past that point only its rank is
    read, and no further composition can change it."""
    space = morphism_space(a, b)
    full = space.total_dim
    span = IntElim(full)
    for c in members:
        if span.rank == full:
            break
        if c in (a, b):
            continue
        gs = morphism_space(c, b).basis()
        for f in morphism_space(a, c).basis():
            for g in gs:
                _extend(span, compose(f, g).coords, a, b)
                if span.rank == full:
                    return 0, span
    return full - span.rank, span


def oracle_quiver(t: Triangulation) -> QuiverPresentation:
    """The Gabriel quiver of End(T) from Hom bases and composition alone:
    :func:`_arrows` on every ordered pair of distinct members, in (i, j)
    order, never the corners of T that the package reads."""
    verts = t.edges
    arrows = []
    for i, a in enumerate(verts):
        for j, b in enumerate(verts):
            if i != j:
                mult = _arrows(a, b, verts)[0]
                if mult:
                    arrows.append((i, j, mult))
    return QuiverPresentation(verts, tuple(arrows))


def exchange_matrix(t: Triangulation) -> dict[tuple[TaggedEdge, TaggedEdge], int]:
    """Skew-symmetric matrix of the Gabriel quiver :func:`oracle_quiver`:
    b[x, y] is the number of arrows x -> y minus the number of arrows
    y -> x."""
    q = oracle_quiver(t)
    b = {(x, y): 0 for x in q.vertices for y in q.vertices}
    for i, j, mult in q.arrows:
        b[q.vertices[i], q.vertices[j]] += mult
        b[q.vertices[j], q.vertices[i]] -= mult
    return b


def mutation_mismatches(t: Triangulation, m: TaggedEdge) -> list[str]:
    """Where the flip of m disagrees with Fomin-Zelevinsky mutation at m.

    The quiver after the flip must be mu_m of the quiver before, with m
    renamed to its flip partner: b'[x, y] = -b[x, y] when m is x or y, and
    b[x, y] + sign(b[x, m]) * max(b[x, m] * b[m, y], 0) otherwise.  The
    side factors of the exchange relation must be the arrows into m and
    the coside factors the arrows out of m, counted with multiplicity.

    Both quivers come from the Hom kernel :func:`oracle_quiver`, while the
    package reads its factors off the corners of T, so the factor
    comparison checks the corner rule against an independent quiver.
    The brute-force :func:`minimal_approximation` is a third, separate
    check of the same factors."""
    b = exchange_matrix(t)
    data = exchange_sides(t, m)
    after = exchange_matrix(data.after)
    out = []
    for (x, y), v in b.items():
        if m in (x, y):
            want = -v
        else:
            want = v + (1 if b[x, m] > 0 else -1) * max(b[x, m] * b[m, y], 0)
        key = tuple(data.inserted if e == m else e for e in (x, y))
        if after[key] != want:
            out.append(f"b[{key[0]}, {key[1]}]: mutation {want}, flip {after[key]}")
    for name, factors, arrows in (
        ("side", data.side_factors, {x: b[x, m] for x in t.edges}),
        ("coside", data.coside_factors, {y: b[m, y] for y in t.edges}),
    ):
        if Counter(factors) != +Counter(arrows):
            out.append(f"{name} factors {factors}, arrows {dict(+Counter(arrows))}")
    return out
