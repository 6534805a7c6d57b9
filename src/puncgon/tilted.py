"""Cluster-tilted algebras of a triangulation T: dimension vectors of the
quotient-category modules, the AR quivers, and zero-relation probes.
One type, :class:`ArQuiver`, holds the AR quiver of the category and
that of mod End(T)^op, which is the category's with T deleted.

A module over End(T)^op is determined here only by its dimension vector,
whose coordinate at T_i is the crossing number with T_i; the stacked
"Loewy" text rendering orders the support along the quiver's arrow flow
and is display sugar only.
"""

from __future__ import annotations

from .crossing import crossing_row
from .geometry import (
    TaggedEdge,
    edge_sort_key,
    elementary_moves,
    enumerate_tagged_edges,
    tau,
)
from .mesh import Morphism, compose, morphism_space
from .record import Record
from .triangulation import (
    ExchangeError,
    QuiverPresentation,
    Triangulation,
    quiver_of_triangulation,
)


class DimensionVector(Record):
    """Integer vector indexed by the edges of a triangulation."""

    __slots__ = _fields = ("labels", "coords")

    def __getitem__(self, edge: TaggedEdge) -> int:
        if edge not in self.labels:
            raise ValueError(f"{edge} is not a label: the labels are the edges of T")
        return self.coords[self.labels.index(edge)]

    @property
    def support(self) -> tuple[TaggedEdge, ...]:
        return tuple(e for e, c in zip(self.labels, self.coords) if c)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def dimension_vector(m: TaggedEdge, t: Triangulation) -> DimensionVector:
    """Coordinate at T_i is the crossing number e(m, T_i); zero exactly on
    members of t, and each coordinate is at most 2."""
    if m.n != t.n:
        raise ValueError(f"edge has n={m.n}, triangulation n={t.n}")
    return DimensionVector(t.edges, tuple(crossing_row(m, t.edges)))


class ArQuiver(Record):
    """AR quiver of the category: all n**2 tagged edges, arrows the
    elementary moves, translation tau.  With a ``triangulation`` T, that
    of mod End(T)^op: T deleted and each survivor labeled by its
    dimension vector in ``dimvecs``.  Both are None for the category."""

    __slots__ = _fields = ("n", "triangulation", "vertices", "dimvecs", "arrows", "tau_pairs")

    def require_dimvecs(self) -> tuple[DimensionVector, ...]:
        """``dimvecs``, or a ValueError for the quiver of the category."""
        if self.dimvecs is None:
            raise ValueError("the AR quiver of the category has no T, so no dimension vectors")
        return self.dimvecs

    def dimvec(self, m: TaggedEdge) -> DimensionVector:
        dimvecs = self.require_dimvecs()
        if m not in self.vertices:
            raise ValueError(f"{m} is not a vertex: the vertices are the edges not in T")
        return dimvecs[self.vertices.index(m)]

    def transposed(self) -> "ArQuiver":
        arrows = tuple((b, a) for a, b in self.arrows)
        return ArQuiver(self.n, self.triangulation, self.vertices, self.dimvecs, arrows,
                        self.tau_pairs)


def ar_quiver_of_category(n: int) -> ArQuiver:
    vertices = tuple(enumerate_tagged_edges(n))
    arrows = tuple(
        (m, target)
        for m in vertices
        for target in sorted(elementary_moves(m), key=edge_sort_key)
    )
    tau_pairs = tuple((m, tau(m)) for m in vertices)
    return ArQuiver(n, None, vertices, None, arrows, tau_pairs)


def ar_quiver_of_tilted(t: Triangulation) -> ArQuiver:
    full = ar_quiver_of_category(t.n)
    deleted = set(t.edges)
    vertices = tuple(v for v in full.vertices if v not in deleted)
    dimvecs = tuple(dimension_vector(v, t) for v in vertices)
    arrows = tuple(
        (a, b) for a, b in full.arrows if a not in deleted and b not in deleted
    )
    tau_pairs = tuple(
        (a, b) for a, b in full.tau_pairs if a not in deleted and b not in deleted
    )
    return ArQuiver(t.n, t, vertices, dimvecs, arrows, tau_pairs)


class VanishingEntry(Record):
    """An arrow path, as (source, target) pairs of quiver vertex indices,
    and whether its composite is zero."""

    __slots__ = _fields = ("arrows", "is_zero")

    def __init__(self, arrows: tuple[tuple[int, int], ...], is_zero: bool):
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "is_zero", is_zero)

    def path_string(self, names) -> str:
        """The path as vertex names; ``names[i]`` is the string of quiver
        vertex i, rendered once per report (:attr:`VanishingReport.names`)."""
        return " -> ".join([names[self.arrows[0][0]]] + [names[a[1]] for a in self.arrows])


class VanishingReport(Record):
    """Every path of length 2..``maxlen`` of ``quiver``, as ``entries``."""

    __slots__ = _fields = ("quiver", "maxlen", "entries")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(str(v) for v in self.quiver.vertices)

    def zero_paths(self) -> tuple[VanishingEntry, ...]:
        return tuple(e for e in self.entries if e.is_zero)

    def nonzero_paths(self) -> tuple[VanishingEntry, ...]:
        return tuple(e for e in self.entries if not e.is_zero)


_PATH_CAP = 20000


def vanishing_paths_report(t: Triangulation, maxlen: int) -> VanishingReport:
    """Evaluate every arrow path of length 2..maxlen in the Gabriel quiver
    of End(T) and report which compositions vanish.

    Each arrow i -> j stands for its irreducible map, the basis of
    Hom(T_i, T_j).  Type D is of finite type, so every arrow has count 1
    (Fomin-Zelevinsky, Invent. Math. 154, 2003), and its Hom space has
    dimension 1 (``test_corner_quiver_matches_the_oracle``), so no
    composite through another member reaches it.  An arrow with another
    count or dimension would need a complement of the composites, so it
    raises."""
    if maxlen < 2:
        raise ValueError(f"maxlen must be at least 2, got {maxlen}")
    quiver = quiver_of_triangulation(t)
    arrows = []  # (i, j, the arrow's morphism), in quiver order
    by_source: dict[int, list[tuple[int, int, Morphism]]] = {}
    for i, j, mult in quiver.arrows:
        a, b = quiver.vertices[i], quiver.vertices[j]
        space = morphism_space(a, b)
        if mult != 1 or space.total_dim != 1:
            raise ExchangeError(f"arrows {a} -> {b}: {mult}, but dim Hom is {space.total_dim}")
        arrows.append((i, j, space.basis()[0]))
        by_source.setdefault(i, []).append(arrows[-1])
    entries: list[VanishingEntry] = []
    # each path carries its composite, or None once it is zero: every
    # extension of a zero path is zero
    frontier = [(((i, j),), mor) for i, j, mor in arrows]
    length = 1
    while length < maxlen and frontier:
        nxt = []
        for path, mor in frontier:
            for i, j, rep in by_source.get(path[-1][1], ()):
                composite = None if mor is None else compose(mor, rep)
                if composite is not None and composite.is_zero():
                    composite = None
                longer = path + ((i, j),)
                entries.append(VanishingEntry(longer, composite is None))
                nxt.append((longer, composite))
                if len(entries) > _PATH_CAP:
                    raise ValueError(
                        f"more than {_PATH_CAP} arrow paths; lower maxlen"
                    )
        frontier = nxt
        length += 1
    return VanishingReport(quiver, maxlen, tuple(entries))


def loewy_string(dv: DimensionVector, quiver: QuiverPresentation) -> str:
    """Stacked rendering of the support, ordered along the quiver's arrow
    flow (top = closest to the arrows' sources)."""
    idx = {e: i for i, e in enumerate(quiver.vertices)}
    seq: list[int] = []
    for e, c in zip(dv.labels, dv.coords):
        seq.extend([idx[e]] * c)
    if not seq:
        return "0"
    arrows = {(a, b) for a, b, _ in quiver.arrows}
    ordered: list[int] = []
    remaining = list(seq)
    while remaining:
        head = None
        for cand in remaining:
            if all((other, cand) not in arrows for other in remaining if other != cand):
                head = cand
                break
        if head is None:
            head = remaining[0]
        ordered.append(head)
        remaining.remove(head)
    return "/".join(str(v + 1) for v in ordered)
