"""Triangulations of the punctured polygon: maximal non-crossing sets of
tagged edges, fans, flips, exchange factors, and endomorphism quivers.

Every compatibility decision here (validation, flips, enumeration) reads
one cached bitmask per edge from :mod:`crossing`: bit i is set iff the
edge does not cross the i-th edge of the canonical order.  The laws of
the paper (|T| = n, a flip pair crosses once, at most three exchange
factors a side and none exactly in the translate case, End(a) = 1) are
proven in tests/test_triangulations.py, not re-checked on every call.

:func:`maximal_noncrossing_sets` returns each maximal set as the int
bitset of its members over those canonical bits.  It searches only the
sets through the radius ``0|+`` and turns and tag-swaps them into the
rest, so on every call it first checks the two facts that rests on:
turning the polygon and swapping the radius tags map every edge's mask
to its image edge's mask, and no maximal set lacks a radius.  A failure
raises :class:`SymmetryError`.

Exchange factors are the indecomposable summands of minimal right
approximations over the rest of the triangulation, and those are the
arrows of the Gabriel quiver: the side factors of a flip of m are the
arrows into m in the quiver of T, the coside factors the arrows into
its partner m' in the quiver of the flipped T'.  So the factors, the
quiver and its chosen arrow representatives all come from one kernel,
:func:`_arrows`: dim Hom(a, b) minus the rank of the compositions
through the other members, spanned in plain ints by
:class:`linalg.IntElim` over an explicit Hom basis.  A pivot other than
-1 or 1 there raises :class:`ExchangeError`.  The test suite certifies
the factors against a separate brute-force approximation search.
"""

from __future__ import annotations

from collections import Counter

from .crossing import _canonical_bits, _compat_mask, crossing_number
from .geometry import _EDGES, TaggedEdge, edge_sort_key
from .linalg import IntElim, PivotError
from .mesh import Morphism, compose, morphism_space
from .record import Record

DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_LEMMA3_BOUND = 10


class ExchangeError(RuntimeError):
    """The flip/exchange structure failed an internal consistency check."""


class SymmetryError(RuntimeError):
    """The compatibility graph lacks a symmetry the enumeration of maximal
    non-crossing sets relies on."""


class Triangulation(Record):
    """A maximal set of pairwise non-crossing tagged edges.

    Has exactly n elements (proven in ``test_counts_against_formula``,
    not counted here); an edge listed twice is rejected, as is an n that
    is not an int.  Every construction validates with one walk over the
    members' bitset in canonical order, which is also the order the edges
    are stored in: the first crossing pair in that order is reported, and
    the set is maximal iff the AND of the member masks is the members'
    own bits.  The bitset stays on the instance as ``_members``; it is
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
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"polygon size must be an integer, got n={n!r}")
        # below n = 3 there are no edges, so every listed edge is foreign
        order, bits = _canonical_bits(n) if n >= 3 else ((), {})
        try:
            given, members = tuple(self.edges), 0
        except TypeError:
            raise ValueError(f"edges must be an iterable of edges, got {self.edges!r}") from None
        try:
            for e in given:
                bit = bits.get(e, 0)
                if not bit or members & bit:
                    _reject_listing(n, given)
                members |= bit
        except TypeError:  # an unhashable member
            _reject_listing(n, given)
        edges, common, rest = [], -1, members
        while rest:
            low = rest & -rest
            a = order[low.bit_length() - 1]
            mask = _compat_mask(a)
            crossed = rest & ~mask  # later members a crosses
            if crossed:
                b = _lowest_edge(n, crossed)
                raise ValueError(f"edges {a} and {b} cross (e={crossing_number(a, b)})")
            common &= mask
            edges.append(a)
            rest ^= low
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
        try:
            return bool(self._members & _canonical_bits(self.n)[1].get(e, 0))
        except TypeError:  # an unhashable is no member
            return False

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
    naming the first such edge in :func:`edge_sort_key` order."""
    for i, e in enumerate(edges):
        if not _is_edge(e):
            raise ValueError(f"member {i} is not an edge of the {n}-gon: {_describe(e)}")
    counts = Counter(edges)
    twice = [e for e in edges if counts[e] > 1]
    if twice:
        raise ValueError(f"edge {min(twice, key=edge_sort_key)} is listed more than once")
    e = min((e for e in edges if e.n != n), key=edge_sort_key)
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


def _is_edge(e) -> bool:
    """Whether ``e`` is an interned :class:`TaggedEdge`."""
    fields = tuple(getattr(e, f, None) for f in ("n", "start", "end", "tag"))
    return isinstance(e, TaggedEdge) and _EDGES.get(fields) is e


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
    return _canonical_bits(n)[0][(bitset & -bitset).bit_length() - 1]


def fan_triangulation(n: int, base: int = 0) -> Triangulation:
    """All chords out of the base vertex plus both tagged radii there."""
    edges = [TaggedEdge.central(n, base, 1), TaggedEdge.central(n, base, -1)]
    edges += [TaggedEdge(n, base, (base + k) % n, 1) for k in range(2, n)]
    return Triangulation(n, tuple(edges))


def maximal_noncrossing_sets(n: int) -> list[int]:
    """Every maximal pairwise non-crossing set, of whatever size, as the
    int bitset of its members (bit i for the i-th edge of
    :func:`enumerate_tagged_edges`, as in ``Triangulation._members``), in
    ascending order of those ints.  :func:`_indices` decodes a set into
    the increasing tuple of its indices.

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

    That rests on two facts, both checked on every call, or
    :class:`SymmetryError` is raised: rho and sigma map the compatibility
    mask of every edge to the mask of its image, and the search with
    every radius excluded finds no maximal set, so every maximal set has
    a radius.
    """
    edges = _canonical_bits(n)[0]
    masks = [_compat_mask(e) for e in edges]
    plain, step = n * (n - 2), n - 2
    plain_bits = (1 << plain) - 1
    radius_bits = ((1 << 2 * n) - 1) << plain
    plus = sum(1 << (plain + 2 * a) for a in range(n))  # the bits of the a|+

    def turn_plain(bits: int) -> int:
        return ((bits << step) & plain_bits) | (bits >> (plain - step))

    def turn(bits: int) -> int:  # rho
        radii = bits & radius_bits
        radii = ((radii << 2) | (radii >> (2 * n - 2))) & radius_bits
        return turn_plain(bits & plain_bits) | radii

    def swap(bits: int) -> int:  # sigma
        return (bits & plain_bits) | ((bits & plus) << 1) | ((bits >> 1) & plus)

    for name, g in (("turning the polygon", turn), ("swapping the radius tags", swap)):
        for i, mask in enumerate(masks):
            j = g(1 << i).bit_length() - 1
            if g(mask) != masks[j]:
                raise SymmetryError(f"{name} maps the compatibility mask of {edges[i]} "
                                    f"to a set that is not the mask of {edges[j]}")
    nbrs = [mask & ~(1 << i) for i, mask in enumerate(masks)]
    free = _maximal_cliques(nbrs, 0, plain_bits, radius_bits)
    if free:
        names = ",".join(str(edges[i]) for i in _indices(free[0]))
        raise SymmetryError(f"the set {names} has no radius and is maximal")
    out: list[int] = []
    emit = out.append
    for base in _maximal_cliques(nbrs, 1 << plain, nbrs[plain], 0):
        rest, radii = base & plain_bits, base & radius_bits
        # the g with g(0|+) lowest: no radius of B turned past vertex n - 1,
        # and no swap when 0|- in B would land below the image of 0|+
        swapped = 0 if (radii >> plain) & 2 else swap(radii)
        for k in range(n - ((radii.bit_length() - plain - 1) >> 1)):
            emit(rest | radii << 2 * k)
            if swapped:
                emit(rest | swapped << 2 * k)
            rest = turn_plain(rest)
    out.sort()
    return out


def _indices(bits: int) -> tuple[int, ...]:
    """The set bits of ``bits``, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _maximal_cliques(
    nbrs: list[int], chosen: int = 0, candidates: int | None = None, excluded: int = 0
) -> list[int]:
    """Every maximal clique of the graph whose vertex i has the neighbour
    bitmask ``nbrs[i]`` (no self-loops) that contains the clique
    ``chosen``, draws the rest from ``candidates`` (default: every
    vertex) and lies in no larger clique through a vertex of
    ``excluded``; each as the bitset of its vertices, in ascending order.
    The root state must be a Bron-Kerbosch state: every candidate and
    every excluded vertex adjacent to all of ``chosen``.  On the whole
    graph the empty graph has one clique, the empty one.

    Bron-Kerbosch on bitsets with the Tomita pivot: each node branches
    only on P minus N(u), for the u in P | X maximising |P & N(u)|.  The
    parent settles a child R + v itself when c = P & N(v) has at most two
    vertices, with x = X & N(v): for c empty, R + v is maximal iff x is
    empty; for c = {w}, R + v + w iff x & N(w) is empty; for c = {a, b}
    with a, b adjacent, R + v + a + b iff x & N(a) & N(b) is empty; for
    a, b not adjacent, R + v + a iff x & N(a) is empty, and the same for
    b.  Those are the leaves the child's own recursion would emit, so
    only children with three or more candidates are called.  Each leaf is
    emitted as ``chosen | bits``; sorting the ints once fixes the order.
    """
    if candidates is None:
        candidates = (1 << len(nbrs)) - 1
    if not candidates and not excluded:
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

    extend(chosen, candidates, excluded)
    leaves.sort()
    return leaves


def _require_bound(n: int, max_n: int, what: str = "enumeration", flag: str = "--max-enum") -> None:
    if n > max_n:
        raise ValueError(f"{what} for n={n} exceeds the configured bound {max_n}; "
                         f"pass a larger max_n ({flag}) to override")


def enumerate_triangulations(
    n: int, max_n: int = DEFAULT_ENUMERATION_BOUND
) -> list[Triangulation]:
    """All triangulations, in deterministic order.  The search is
    exponential; n above ``max_n`` is refused unless the bound is raised."""
    _require_bound(n, max_n)
    edges = _canonical_bits(n)[0]
    sets = sorted(map(_indices, maximal_noncrossing_sets(n)))
    return [Triangulation(n, tuple(edges[i] for i in s)) for s in sets]


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


def exchange_sides(t: Triangulation, m: TaggedEdge) -> ExchangeData:
    """Flip m in t and return the factors of its exchange relation.

    The side factors are the summands of the minimal right approximation
    of m over t minus m, and the coside factors those of its flip partner
    m': the arrows into m in the quiver of t, and the arrows into m' in
    the quiver of the flipped triangulation, counted with multiplicity.
    ``test_exchange_invariants_everywhere`` (every flip, n = 3..6) and
    ``test_flips_mutate_quiver_and_exchange_factors`` (walks, n = 4..16)
    prove the quadrilateral's laws: e = 1, at most three factors per
    side, an empty side exactly in the translate case.  The factors are
    drawn from t minus m, which lies in both triangulations, so they
    cross neither diagonal.
    """
    after, inserted = flip(t, m)
    context = [e for e in t.edges if e != m]
    # context is in edge_sort_key order, as every Triangulation's edges are
    sides = tuple(c for c in context for _ in range(_arrows(c, m, t.edges)[0]))
    cosides = tuple(c for c in context for _ in range(_arrows(c, inserted, after.edges)[0]))
    return ExchangeData(m, inserted, sides, cosides, after)


class QuiverPresentation(Record):
    """Gabriel quiver of the endomorphism algebra of a triangulation; its
    arrows are (source index, target index, multiplicity)."""

    __slots__ = _fields = ("vertices", "arrows")

    def transposed(self) -> "QuiverPresentation":
        return QuiverPresentation(self.vertices, tuple((b, a, k) for a, b, k in self.arrows))


def quiver_with_representatives(
    t: Triangulation,
) -> tuple[QuiverPresentation, dict[tuple[int, int], list[Morphism]]]:
    """The Gabriel quiver together with chosen irreducible representatives:
    arrow count i -> j is dim Hom(T_i, T_j) minus the span of compositions
    through the other members.  The quiver has no loops, since every
    End(T_i) is one-dimensional (``test_end_is_one_dimensional``)."""
    verts = list(t.edges)
    arrows: list[tuple[int, int, int]] = []
    reps: dict[tuple[int, int], list[Morphism]] = {}
    for i, a in enumerate(verts):
        for j, b in enumerate(verts):
            if i == j:
                continue
            mult, span = _arrows(a, b, verts)
            if mult == 0:
                continue
            # the basis elements that extend the span, in order
            reps[(i, j)] = [
                mor for mor in morphism_space(a, b).basis() if _extend(span, mor.coords, a, b)
            ]
            arrows.append((i, j, mult))
    return QuiverPresentation(tuple(verts), tuple(arrows)), reps


def quiver_of_triangulation(t: Triangulation) -> QuiverPresentation:
    return quiver_with_representatives(t)[0]
