"""Triangulations of the punctured polygon: maximal non-crossing sets of
tagged edges, fans, flips, exchange factors, and endomorphism quivers.

Every compatibility decision here (validation, flips, enumeration) reads
one cached bitmask per edge from :mod:`crossing`: bit i is set iff the
edge does not cross the i-th edge of the canonical order.  Every maximal
non-crossing set has exactly n elements; the enumeration below does not
assume this (it collects maximal sets of any size), so the size law
stays independently falsifiable.  Exchange factors are the
indecomposable summands of minimal right approximations over the rest of
the triangulation; they and the Gabriel quiver arrows are both read off
the same kernel, the span of compositions through the other members
inside an explicit Hom basis.  The test suite certifies the factors
against a separate brute-force approximation search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossing import _canonical_bits, _compat_mask, crossing_number
from .geometry import TaggedEdge, edge_sort_key, tau
from .linalg import FractionElim
from .mesh import Morphism, compose, morphism_space

DEFAULT_ENUMERATION_BOUND = 6
DEFAULT_LEMMA3_BOUND = 10


class ExchangeError(RuntimeError):
    """The flip/exchange structure failed an internal consistency check."""


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of pairwise non-crossing tagged edges.

    Always has exactly n elements; the constructor enforces this and
    rejects an edge listed twice, and the enumeration suite re-derives
    the size without assuming it.  Every construction validates with
    O(n) mask operations: the first crossing pair in canonical order is
    reported, and the set is maximal iff the AND of the member masks is
    the members' own bits.
    """

    n: int
    edges: tuple[TaggedEdge, ...]

    def __post_init__(self):
        edges = tuple(sorted(self.edges, key=edge_sort_key))
        seen: set[TaggedEdge] = set()
        for e in edges:
            if e in seen:
                raise ValueError(f"edge {e} is listed more than once")
            seen.add(e)
        object.__setattr__(self, "edges", edges)
        for e in edges:
            if e.n != self.n:
                raise ValueError(f"edge {e} belongs to n={e.n}, not n={self.n}")
        bits = _canonical_bits(self.n)[1]
        members = _bits_of(edges)
        for a in edges:
            crossed = members & -bits[a] & ~_compat_mask(a)  # later members a crosses
            if crossed:
                b = _lowest_edge(self.n, crossed)
                raise ValueError(f"edges {a} and {b} cross (e={crossing_number(a, b)})")
        missing = _common(edges) & ~members
        if missing:
            e = _lowest_edge(self.n, missing)
            raise ValueError(f"set is not maximal: {e} is compatible with every member")
        if len(edges) != self.n:
            raise ValueError(
                f"maximal non-crossing set of unexpected size {len(edges)} != {self.n}"
            )

    @classmethod
    def of(cls, edges) -> "Triangulation":
        edges = list(edges)
        if not edges:
            raise ValueError("empty edge set")
        return cls(edges[0].n, tuple(edges))

    def __contains__(self, e: TaggedEdge) -> bool:
        return e in self.edges

    def __iter__(self):
        return iter(self.edges)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.edges)

    def replace(self, old: TaggedEdge, new: TaggedEdge) -> "Triangulation":
        return Triangulation(self.n, tuple(e for e in self.edges if e != old) + (new,))


def _bits_of(edges) -> int:
    """The set of edges (all of one polygon) as a bitset over the
    canonical order."""
    out = 0
    for e in edges:
        out |= _canonical_bits(e.n)[1][e]
    return out


def _common(edges) -> int:
    """Bitset of the edges compatible with every one of ``edges``."""
    out = -1
    for e in edges:
        out &= _compat_mask(e)
    return out


def _lowest_edge(n: int, bitset: int) -> TaggedEdge:
    """The canonically first edge of a nonempty bitset."""
    return _canonical_bits(n)[0][(bitset & -bitset).bit_length() - 1]


def is_triangulation(edges) -> bool:
    """True iff the set is pairwise non-crossing and maximal: the edges
    compatible with every member are exactly the members."""
    edges = list(edges)
    if not edges:
        return False
    n = edges[0].n
    if any(e.n != n for e in edges):
        return False
    return _common(edges) == _bits_of(edges)


def fan_triangulation(n: int, base: int = 0) -> Triangulation:
    """All chords out of the base vertex plus both tagged radii there."""
    edges = [TaggedEdge.central(n, base, 1), TaggedEdge.central(n, base, -1)]
    edges += [TaggedEdge(n, base, (base + k) % n, 1) for k in range(2, n)]
    return Triangulation(n, tuple(edges))


def maximal_noncrossing_sets(n: int) -> list[tuple[int, ...]]:
    """Every maximal pairwise non-crossing set, of whatever size, as the
    strictly increasing tuple of its indices into
    :func:`enumerate_tagged_edges`; the list is in lexicographic order of
    those tuples.

    Bron-Kerbosch on bitsets of those indices, with the Tomita pivot: each
    node branches only on P minus N(u), for the u in P | X maximising
    |P & N(u)|.  Sorting the leaves once fixes the order.
    """
    edges = _canonical_bits(n)[0]
    nbrs = [_compat_mask(e) & ~(1 << i) for i, e in enumerate(edges)]
    leaves: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], candidates: int, excluded: int):
        if not candidates and not excluded:
            leaves.append(tuple(sorted(chosen)))
            return
        pool, best, branch = candidates | excluded, -1, 0
        while pool:
            low = pool & -pool
            kept = candidates & nbrs[low.bit_length() - 1]
            if kept.bit_count() > best:
                best, branch = kept.bit_count(), candidates & ~kept
            pool ^= low
        while branch:
            v = (branch & -branch).bit_length() - 1
            extend(chosen + (v,), candidates & nbrs[v], excluded & nbrs[v])
            candidates ^= 1 << v
            excluded |= 1 << v
            branch ^= 1 << v

    extend((), (1 << len(edges)) - 1, 0)
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
    return [Triangulation(n, tuple(edges[i] for i in s)) for s in maximal_noncrossing_sets(n)]


def flip(t: Triangulation, m: TaggedEdge) -> tuple[Triangulation, TaggedEdge]:
    """Exchange m for the unique other edge completing t minus m: the one
    bit left after AND-ing the masks of the n - 1 remaining members and
    clearing the members' bits.

    The replacement always exists, is unique, and crosses m exactly once;
    anything else aborts loudly, since it would falsify the exchange
    property the engine is built on.
    """
    if m not in t:
        raise ValueError(f"edge {m} is not in the triangulation")
    free = _common(e for e in t.edges if e != m) & ~_bits_of(t.edges)
    if free.bit_count() != 1:
        raise ExchangeError(f"flip of {m} in {t} has {free.bit_count()} completions, expected 1")
    new = _lowest_edge(t.n, free)
    return t.replace(m, new), new


@dataclass(frozen=True)
class ExchangeData:
    """Flip of one edge together with the factors of its exchange relation.

    A factor multiset has at most three members.  It is empty exactly when
    that side of the exchange quadrilateral lies entirely on the boundary,
    which happens precisely when the removed edge is the translate of the
    inserted one (or vice versa); the empty product renders as 1.
    """

    removed: TaggedEdge
    inserted: TaggedEdge
    side_factors: tuple[TaggedEdge, ...]
    coside_factors: tuple[TaggedEdge, ...]

    @property
    def has_boundary_side(self) -> bool:
        return not self.side_factors or not self.coside_factors

    def relation_string(self) -> str:
        def prod(factors):
            return "*".join(f"x[{f}]" for f in factors) if factors else "1"

        return (
            f"x[{self.removed}] * x[{self.inserted}] = "
            f"{prod(self.side_factors)} + {prod(self.coside_factors)}"
        )


def _composite_span(a: TaggedEdge, b: TaggedEdge, through) -> FractionElim:
    """Span, inside Hom(a, b) in its flat coordinates, of the compositions
    a -> c -> b over every c in ``through``.  It stops as soon as the span
    is all of Hom(a, b): past that point only its rank is read, and no
    further composition can change it."""
    space = morphism_space(a, b)
    full = space.total_dim
    elim = FractionElim(full)
    for c in through:
        gs = morphism_space(c, b).basis()
        for f in morphism_space(a, c).basis():
            for g in gs:
                elim.add(space.flatten(compose(f, g)))
                if elim.rank == full:
                    return elim
    return elim


def _top_multiplicities(
    context: list[TaggedEdge], target: TaggedEdge
) -> dict[TaggedEdge, int]:
    """Multiplicity of each context edge in the minimal right approximation
    of the target: the part of Hom(C, target) not reached by compositions
    through the other context edges."""
    mult: dict[TaggedEdge, int] = {}
    for c in context:
        dim = morphism_space(c, target).total_dim
        if dim == 0:
            continue
        top = dim - _composite_span(c, target, [d for d in context if d != c]).rank
        if top:
            mult[c] = top
    return mult


def _factors_tuple(multiset: dict[TaggedEdge, int]) -> tuple[TaggedEdge, ...]:
    out: list[TaggedEdge] = []
    for e in sorted(multiset, key=edge_sort_key):
        out.extend([e] * multiset[e])
    return tuple(out)


def exchange_sides(t: Triangulation, m: TaggedEdge) -> ExchangeData:
    """Flip m in t and return the factors of its exchange relation.

    The side factors are the summands of the minimal right approximation
    of m over t minus m, and the coside factors those of its flip partner.
    The result is checked for the combinatorics of the exchange
    quadrilateral (at most three factors per side, an empty side exactly
    in the translate case, factors in t crossing neither diagonal); a
    failure raises :class:`ExchangeError`.
    """
    _, inserted = flip(t, m)
    if crossing_number(m, inserted) != 1:
        raise ExchangeError(f"flip pair {m}, {inserted} has e != 1")
    context = [e for e in t.edges if e != m]
    sides = _top_multiplicities(context, m)
    cosides = _top_multiplicities(context, inserted)
    data = ExchangeData(m, inserted, _factors_tuple(sides), _factors_tuple(cosides))
    for factors, tgt, other in (
        (data.side_factors, m, inserted),
        (data.coside_factors, inserted, m),
    ):
        if len(factors) > 3:
            raise ExchangeError(
                f"exchange factor multiset {factors} has more than 3 members"
            )
        # empty side = all-boundary quadrilateral side, exactly the tau case
        if bool(factors) == (tgt == tau(other)):
            raise ExchangeError(
                f"factor multiset for {tgt} is {'empty' if not factors else 'nonempty'} "
                f"but {tgt} {'is' if tgt == tau(other) else 'is not'} the translate of {other}"
            )
        for f in factors:
            if f not in context:
                raise ExchangeError(f"factor {f} escaped the triangulation")
            if crossing_number(f, m) != 0 or crossing_number(f, inserted) != 0:
                raise ExchangeError(f"factor {f} crosses an exchange diagonal")
    return data


@dataclass(frozen=True)
class QuiverPresentation:
    """Gabriel quiver of the endomorphism algebra of a triangulation."""

    vertices: tuple[TaggedEdge, ...]
    arrows: tuple[tuple[int, int, int], ...]  # (source index, target index, multiplicity)

    def transposed(self) -> "QuiverPresentation":
        return QuiverPresentation(self.vertices, tuple((b, a, k) for a, b, k in self.arrows))


def quiver_with_representatives(
    t: Triangulation,
) -> tuple[QuiverPresentation, dict[tuple[int, int], list[Morphism]]]:
    """The Gabriel quiver together with chosen irreducible representatives:
    arrow count i -> j is dim Hom(T_i, T_j) minus the span of compositions
    through the other members."""
    verts = list(t.edges)
    arrows: list[tuple[int, int, int]] = []
    reps: dict[tuple[int, int], list[Morphism]] = {}
    for i, a in enumerate(verts):
        if morphism_space(a, a).total_dim != 1:
            raise ExchangeError(f"End({a}) is not one-dimensional")
        for j, b in enumerate(verts):
            if i == j:
                continue
            space = morphism_space(a, b)
            dim = space.total_dim
            if dim == 0:
                continue
            elim = _composite_span(a, b, [c for c in verts if c not in (a, b)])
            mult = dim - elim.rank
            if mult == 0:
                continue
            chosen = []
            for idx, mor in enumerate(space.basis()):
                if elim.add([int(i == idx) for i in range(dim)]):
                    chosen.append(mor)
                    if len(chosen) == mult:
                        break
            arrows.append((i, j, mult))
            reps[(i, j)] = chosen
    return QuiverPresentation(tuple(verts), tuple(arrows)), reps


def quiver_of_triangulation(t: Triangulation) -> QuiverPresentation:
    return quiver_with_representatives(t)[0]
