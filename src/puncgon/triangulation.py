"""Triangulations of the punctured polygon: maximal non-crossing sets of
tagged edges, fans, flips, exchange factors, and endomorphism quivers.

Every compatibility decision here (validation, flips, enumeration) reads
one bitmask per edge from :mod:`crossing`: bit i is set iff the edge
does not cross the edge at canonical index i.  The index formula of
:mod:`geometry` also encodes and decodes every member.  The laws of
the paper (|T| = n, a flip pair crosses once, at most three exchange
factors a side and none exactly in the translate case, End(a) = 1) are
proven in tests/test_triangulations.py, not re-checked on every call.

:func:`maximal_noncrossing_sets` returns each maximal set as the int
bitset of its members over those canonical indices.  It searches only the
sets through the radius ``0|+`` and turns and tag-swaps them into the
rest.  The two facts that rests on (both maps keep every compatibility
mask, and every maximal set has a radius) are proven in the tests.

The exchange factors and the quiver are combinatorial: both read the
skew-symmetric matrix b that :func:`_corner_matrix` builds from the
corners of T (Fomin-Shapiro-Thurston, Def. 4.1).  The side factors of a
flip of m are the arrows into m, the coside factors the arrows out of
m, and a flip mutates b (Buan-Marsh-Reiten).  The tests prove b equal
to an independent Hom-kernel quiver and certify the factors against a
brute-force approximation search.
"""

from __future__ import annotations

from collections import Counter

from .crossing import _compat_mask, crossing_number
from .geometry import _EDGES, TaggedEdge, _require_polygon, edge_index
from .geometry import edge_of_index, enumerate_tagged_edges
from .record import Record

DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_LEMMA3_BOUND = 10


class ExchangeError(RuntimeError):
    """The flip/exchange structure failed an internal consistency check."""


class Triangulation(Record):
    """A maximal set of pairwise non-crossing tagged edges.

    Has exactly n elements (proven in ``test_counts_against_formula``,
    not counted here); an edge listed twice is rejected, as is an n that
    is not an int or is below 3.  Every construction looks each member up
    in the edge table once, for its bit in the members' bitset, then
    validates with one walk over the members in canonical order, which
    is also the order the edges are stored in: the first crossing pair in
    that order is reported, and the set is maximal iff the AND of the
    member masks is the members' own bits.  The bitset stays on the instance as ``_members``; it is
    not a field, so ``==``, ``hash`` and ``repr`` read only n and the
    edges.
    """

    _fields = ("n", "edges")
    __slots__ = _fields + ("_members",)

    def __init__(self, n: int, edges):
        super().__init__(n, edges)
        self.__post_init__()  # wrapped by name in perfbench/spans.py

    def __post_init__(self):
        n = self.n
        _require_polygon(n)
        try:
            given, members = tuple(self.edges), 0
        except TypeError:
            raise ValueError(f"edges must be an iterable of edges, got {self.edges!r}") from None
        for e in given:
            bit = _bit(n, e)
            if not bit or members & bit:
                _reject_listing(n, given)
            members |= bit
        edges, common = sorted(given, key=edge_index), -1
        for a in edges:
            mask = _compat_mask(a)
            # later members a crosses; an earlier one it crosses crossed it first
            crossed = members & ~mask
            if crossed:
                b = _lowest_edge(n, crossed)
                raise ValueError(f"edges {a} and {b} cross (e={crossing_number(a, b)})")
            common &= mask
        missing = common & ~members
        if missing:
            e = _lowest_edge(n, missing)
            raise ValueError(f"set is not maximal: {e} is compatible with every member")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_members", members)

    @classmethod
    def of(cls, edges) -> "Triangulation":
        """The triangulation of ``edges`` in the polygon of the first one."""
        try:
            edges = tuple(edges)
        except TypeError:
            raise ValueError(f"edges must be an iterable of edges, got {edges!r}") from None
        if not edges:
            raise ValueError("empty edge set")
        n = getattr(edges[0], "n", None)
        if not isinstance(n, int):  # no polygon to check the rest against
            raise ValueError(f"member 0 is not an edge: {_describe(edges[0])}")
        return cls(n, edges)

    def __contains__(self, e: TaggedEdge) -> bool:
        return bool(self._members & _bit(self.n, e))

    def __iter__(self):
        return iter(self.edges)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.edges)

    def replace(self, old: TaggedEdge, new: TaggedEdge) -> "Triangulation":
        if old not in self:
            _reject_member(self.n, old)
        return Triangulation(self.n, tuple(e for e in self.edges if e != old) + (new,))


def _reject_listing(n: int, edges) -> None:
    """Raise for the first listed member that is not an interned edge; or
    else for an edge listed twice, or else for an edge of another polygon,
    naming the first such edge in canonical order."""
    for i, e in enumerate(edges):
        if not _is_edge(e):
            raise ValueError(f"member {i} is not an edge of the {n}-gon: {_describe(e)}")
    counts = Counter(edges)
    twice = [e for e in edges if counts[e] > 1]
    if twice:
        raise ValueError(f"edge {min(twice, key=edge_index)} is listed more than once")
    e = min((e for e in edges if e.n != n), key=edge_index)
    raise ValueError(f"edge {e} belongs to n={e.n}, not n={n}")


def _reject_member(n: int, e) -> None:
    """Raise for an ``e`` that is not a member of a triangulation of the
    n-gon, naming why: not an edge, an edge of another polygon, or an edge
    of this one that the triangulation lacks."""
    if not _is_edge(e):
        raise ValueError(f"not an edge of the {n}-gon: {_describe(e)}")
    if e.n != n:
        raise ValueError(f"edge {e} belongs to n={e.n}, not n={n}")
    raise ValueError(f"edge {e} is not in the triangulation")


def _bit(n: int, e) -> int:
    """``1 << edge_index(e)`` for an interned edge of the n-gon, else 0:
    one lookup in the edge table."""
    try:
        if _EDGES.get((n, e.start, e.end, e.tag)) is e:
            return 1 << edge_index(e)
    except (AttributeError, TypeError):  # no edge fields, or unhashable ones
        pass
    return 0


def _is_edge(e) -> bool:
    """Whether ``e`` is an interned :class:`TaggedEdge`, of any polygon."""
    return bool(_bit(getattr(e, "n", None), e))


def _describe(e) -> str:
    """A listed member that is not an interned edge, as errors name it."""
    return "a TaggedEdge not in the edge table" if isinstance(e, TaggedEdge) else repr(e)


def _common(edges) -> int:
    """Bitset of the edges compatible with every one of ``edges``."""
    out = -1
    for e in edges:
        out &= _compat_mask(e)
    return out


def _lowest_edge(n: int, bitset: int) -> TaggedEdge:
    """The canonically first edge of a nonempty bitset."""
    return edge_of_index(n, (bitset & -bitset).bit_length() - 1)


def fan_triangulation(n: int, base: int = 0) -> Triangulation:
    """All chords out of the base vertex plus both tagged radii there."""
    edges = [TaggedEdge.central(n, base, 1), TaggedEdge.central(n, base, -1)]
    edges += [TaggedEdge(n, base, (base + k) % n, 1) for k in range(2, n)]
    return Triangulation(n, tuple(edges))


def maximal_noncrossing_sets(n: int) -> list[int]:
    """Every maximal pairwise non-crossing set, of whatever size, as the
    int bitset of its members (bit i for the edge at canonical index i,
    as in ``Triangulation._members``), in the order the search finds
    them; no caller reads that order.  :func:`_indices` decodes a set
    into the increasing tuple of its indices.

    Turning the polygon one vertex counterclockwise (rho) and swapping the
    two tags of every radius pair (sigma) keep crossing numbers, so they
    map maximal sets to maximal sets.  In the canonical order rho turns
    the block of n(n - 2) plain bits by n - 2 bits and the block of 2n
    radius bits by 2 bits, and sigma swaps the two bits of each radius
    pair.  So the search finds only the sets through the radius ``0|+``
    (4,862 of the 35,750 at n = 9), and each such base set B yields g(B)
    for every g = rho^k sigma^e that makes g(0|+) the lowest radius of
    g(B): that is every k below n - a, with a the highest vertex of a
    radius in B, and e = 1 only when ``0|-`` is not in B.  Every set
    comes out once, from the g that carries ``0|+`` to its lowest radius.

    That rests on two facts the tests prove, not every call: rho and sigma
    map each edge's compatibility mask to its image's mask (n = 3..16),
    and every maximal set has a radius (n = 3..10).
    """
    nbrs = [_compat_mask(e) & ~(1 << i) for i, e in enumerate(enumerate_tagged_edges(n))]
    plain, step = n * (n - 2), n - 2
    plain_bits = (1 << plain) - 1
    plus = sum(1 << (plain + 2 * a) for a in range(n))  # the bits of the a|+

    out: list[int] = []
    emit = out.append
    for base in _maximal_cliques(nbrs, 1 << plain, nbrs[plain]):
        rest, radii = base & plain_bits, base & ~plain_bits
        # the g with g(0|+) lowest: no radius of B turned past vertex n - 1,
        # and no swap (sigma) when 0|- in B would land below the image of 0|+
        swapped = 0 if (radii >> plain) & 2 else ((radii & plus) << 1) | ((radii >> 1) & plus)
        # rho^k turns the plain block up by k(n - 2) bits: the block's bits
        # are those of the doubled block from bit plain - k(n - 2) up
        doubled = rest | rest << plain
        for k in range(n - ((radii.bit_length() - plain - 1) >> 1)):
            turned = doubled >> (plain - k * step) & plain_bits
            emit(turned | radii << 2 * k)
            if swapped:
                emit(turned | swapped << 2 * k)
    return out


def _indices(bits: int) -> tuple[int, ...]:
    """The set bits of ``bits``, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _maximal_cliques(nbrs: list[int], chosen: int = 0, candidates: int | None = None) -> list[int]:
    """Every maximal clique of the graph whose vertex i has the neighbour
    bitmask ``nbrs[i]`` (no self-loops) that contains the clique
    ``chosen`` and draws the rest from ``candidates`` (default: every
    vertex), each as the bitset of its vertices, in search order.
    Every candidate must be adjacent to all of ``chosen``, and the
    candidates must be all such vertices, so nothing is excluded at the
    root.  The empty graph has one clique, the empty one.

    Bron-Kerbosch on bitsets with the Tomita pivot: each node branches
    only on P minus N(u), for the u in P | X maximising |P & N(u)|.  The
    parent settles a child R + v itself when c = P & N(v) has at most two
    vertices, with x = X & N(v): for c empty, R + v is maximal iff x is
    empty; for c = {w}, R + v + w iff x & N(w) is empty; for c = {a, b}
    with a, b adjacent, R + v + a + b iff x & N(a) & N(b) is empty; for
    a, b not adjacent, R + v + a iff x & N(a) is empty, and the same for
    b.  Those are the leaves the child's own recursion would emit, so
    only children with three or more candidates are called.  Each leaf is
    emitted as ``chosen | bits``.
    """
    if candidates is None:
        candidates = (1 << len(nbrs)) - 1
    if not candidates:
        return [chosen]
    leaves: list[int] = []
    emit = leaves.append

    def extend(chosen: int, candidates: int, excluded: int):
        pool, best, branch = candidates | excluded, -1, 0
        while pool:
            low = pool & -pool
            kept = candidates & nbrs[low.bit_length() - 1]
            if kept.bit_count() > best:
                best, branch = kept.bit_count(), candidates & ~kept
            pool ^= low
        while branch:
            low = branch & -branch
            nv = nbrs[low.bit_length() - 1]
            c, x = candidates & nv, excluded & nv
            size = c.bit_count()
            if size > 2:
                extend(chosen | low, c, x)
            elif not size:
                if not x:
                    emit(chosen | low)
            elif size == 1:
                if not x & nbrs[c.bit_length() - 1]:
                    emit(chosen | low | c)
            else:
                a = c & -c
                na, nb = nbrs[a.bit_length() - 1], nbrs[c.bit_length() - 1]
                if na & c:
                    if not x & na & nb:
                        emit(chosen | low | c)
                else:
                    if not x & na:
                        emit(chosen | low | a)
                    if not x & nb:
                        emit(chosen | low | (c ^ a))
            candidates ^= low
            excluded |= low
            branch ^= low

    extend(chosen, candidates, 0)
    return leaves


def _require_bound(n: int, max_n: int, what: str = "enumeration", flag: str = "--max-enum") -> None:
    if n > max_n:
        raise ValueError(f"{what} for n={n} exceeds the configured bound {max_n}; "
                         f"pass a larger max_n ({flag}) to override")


def _triangulation_indices(n: int, max_n: int) -> list[tuple[int, ...]]:
    """Every triangulation as the increasing tuple of its members' indices
    in :func:`enumerate_tagged_edges`, in lexicographic order.  The search
    is exponential; n above ``max_n`` is refused unless the bound is
    raised."""
    _require_polygon(n)
    _require_bound(n, max_n)
    return sorted(map(_indices, maximal_noncrossing_sets(n)))


def enumerate_triangulations(
    n: int, max_n: int = DEFAULT_ENUMERATION_BOUND
) -> list[Triangulation]:
    """All triangulations, in the order of :func:`_triangulation_indices`."""
    sets = _triangulation_indices(n, max_n)
    return [Triangulation(n, tuple(edge_of_index(n, i) for i in s)) for s in sets]


def flip(t: Triangulation, m: TaggedEdge) -> tuple[Triangulation, TaggedEdge]:
    """Exchange m for the unique other edge completing t minus m: the one
    bit left after AND-ing the masks of the n - 1 remaining members and
    clearing the members' bits.

    The replacement exists and is unique, or the exchange property the
    engine is built on fails and flip aborts loudly; it crosses m once
    (proven by ``test_exchange_invariants_everywhere``).
    """
    if m not in t:
        _reject_member(t.n, m)
    free = _common(e for e in t.edges if e != m) & ~t._members
    if free.bit_count() != 1:
        raise ExchangeError(f"flip of {m} in {t} has {free.bit_count()} completions, expected 1")
    new = _lowest_edge(t.n, free)
    return t.replace(m, new), new


class ExchangeData(Record):
    """Flip of one edge together with the factors of its exchange relation.

    A factor multiset has at most three members.  It is empty exactly when
    that side of the exchange quadrilateral lies entirely on the boundary,
    which happens precisely when the removed edge is the translate of the
    inserted one (or vice versa); the empty product renders as 1.
    ``after`` is the flipped triangulation, validated once by :func:`flip`.
    """

    __slots__ = _fields = ("removed", "inserted", "side_factors", "coside_factors", "after")

    def relation_string(self) -> str:
        def prod(factors):
            return "*".join(f"x[{f}]" for f in factors) if factors else "1"

        return (
            f"x[{self.removed}] * x[{self.inserted}] = "
            f"{prod(self.side_factors)} + {prod(self.coside_factors)}"
        )


def _corner_matrix(t: Triangulation) -> Counter:
    """The skew-symmetric exchange matrix b of t, over indices into
    ``t.edges``, read off its corners (Fomin-Shapiro-Thurston, Def. 4.1).

    At each vertex v the members at v fill slots in the order of the
    elementary moves about v: the out-chords (v, v+2), ..., (v, v-1), the
    radius slot (a tag pair fills one slot), the in-chords (v+1, v), ...,
    (v-2, v).  Each two consecutive slots x, y are a corner, adding 1 to
    b[x, y] and -1 to b[y, x].  Radii at k >= 3 vertices add the cyclic
    corners around the puncture, from the radius at each vertex to the
    next one counterclockwise; with two vertices those would cancel.
    ``test_corner_quiver_matches_the_oracle`` proves b equal to the
    Hom-kernel quiver of End(T).
    """
    outs: list[list[int]] = [[] for _ in range(t.n)]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(t.n)]
    radii: dict[int, list[int]] = {}
    for i, e in enumerate(t.edges):  # plain edges by (start, span), then radii
        if e.start == e.end:
            radii.setdefault(e.start, []).append(i)
        else:
            outs[e.start].append(i)
            ins[e.end].append((-e.span, i))
    corners = []
    for v in range(t.n):
        slots = [[i] for i in outs[v]] + [radii.get(v, [])] + [[i] for _, i in sorted(ins[v])]
        slots = [slot for slot in slots if slot]  # no radius at v, no radius slot
        corners += [(x, y) for xs, ys in zip(slots, slots[1:]) for x in xs for y in ys]
    if len(radii) >= 3:  # then one radius a vertex, in vertex order
        around = [r for r, in radii.values()]
        corners += zip(around, around[1:] + around[:1])
    b: Counter = Counter()
    for x, y in corners:
        b[x, y] += 1
        b[y, x] -= 1
    return b


def exchange_sides(t: Triangulation, m: TaggedEdge) -> ExchangeData:
    """Flip m in t and return the factors of its exchange relation.

    The side factors are the summands of the minimal right approximation
    of m over t minus m, and the coside factors those of its flip partner
    m': the arrows into m and the arrows out of m in the quiver of t
    (:func:`_corner_matrix`), counted with multiplicity, in the members'
    edge_sort_key order.  ``test_exchange_invariants_everywhere`` (every
    flip, n = 3..6) and ``test_flips_mutate_quiver_and_exchange_factors``
    (walks, n = 4..16) prove the quadrilateral's laws: e = 1, at most
    three factors per side, an empty side exactly in the translate case.
    The factors are drawn from t minus m, which lies in both
    triangulations, so they cross neither diagonal.
    """
    after, inserted = flip(t, m)
    b, k = _corner_matrix(t), t.edges.index(m)
    sides = tuple(c for i, c in enumerate(t.edges) for _ in range(b[i, k]))
    cosides = tuple(c for i, c in enumerate(t.edges) for _ in range(b[k, i]))
    return ExchangeData(m, inserted, sides, cosides, after)


class QuiverPresentation(Record):
    """Gabriel quiver of the endomorphism algebra of a triangulation; its
    arrows are (source index, target index, multiplicity)."""

    __slots__ = _fields = ("vertices", "arrows")

    def transposed(self) -> "QuiverPresentation":
        return QuiverPresentation(self.vertices, tuple((b, a, k) for a, b, k in self.arrows))


def quiver_of_triangulation(t: Triangulation) -> QuiverPresentation:
    """The Gabriel quiver of End(T): an arrow (i, j, b[i, j]) for each
    positive entry of :func:`_corner_matrix`, in (i, j) order.  It has no
    loops, since every End(T_i) is one-dimensional
    (``test_end_is_one_dimensional``)."""
    arrows = tuple((i, j, v) for (i, j), v in sorted(_corner_matrix(t).items()) if v > 0)
    return QuiverPresentation(t.edges, arrows)
