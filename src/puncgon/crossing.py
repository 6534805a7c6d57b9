"""Crossing numbers of tagged edges via lifts to the universal cover.

The punctured polygon retracts to an annulus whose outer boundary carries
the vertices; the universal cover is a strip with the vertex set lifted
to the integers.  A plain edge a-b lifts to the chord family
(a + kn, a + ((b - a) mod n) + kn), a central edge at a to the ray family
{a + kn}.  Two tagged edges achieve minimal position simultaneously, so
the crossing number is the number of translates of one lift that
strictly interleave a fixed lift of the other:

  plain-plain      count k with  a~ < c~+kn < b~ < d~+kn  or
                                 c~+kn < a~ < d~+kn < b~
  central-plain    count k with  c~ < a~+kn < d~   (0 or 1)
  central-central  1 if the vertices differ and the tags differ, else 0

Shared lifted endpoints never count, and tags are ignored outside the
central-central case.  Values always lie in {0, 1, 2}.

Each window is shorter than n, so at most one translate can start inside
it, and :func:`crossing_number` counts in closed form.  With
w = (end - start) mod n the window width of a plain edge, s = (c - a)
mod n and t = (a - c) mod n:

  plain-plain      [0 < s < w_m and s + w_o > w_m]
                   + [0 < t < w_o and w_o - t < w_m]
  central-plain    [0 < (ray - lo) mod n < w]

The first bracket is the translate of the other edge's chord that starts
inside m's window and ends beyond it, the second the one that starts
before m's window and ends inside it.

:func:`crossing_number` is the one closed form, and :func:`crossing_row`
maps it over a row of targets.  The pair is the kernel here, unlike Hom,
where a pairwise Hom is a row of one (:mod:`puncgon.mesh`): rows serve
only the n base rows of :func:`crossing_table` and of the compatibility
masks, and the dimension vectors.

Turning the polygon by one vertex maps tagged edges to tagged edges,
keeps every tag, and keeps every crossing number: the closed form reads
only differences mod n.  :func:`crossing_table` uses that symmetry for
the all-pairs table over :func:`enumerate_tagged_edges`.  In that order
the first n(n - 2) edges are plain, grouped by start vertex (n - 2 per
vertex), and the last 2n central, two per vertex.  Turning m by a steps
moves every target's start by a, so the row of an edge with start a is
the row of its class at vertex 0 (same width, same tag) with the plain
block shifted right by a(n - 2) entries and the central block by 2a.
So the table needs :func:`crossing_row` only n times, once per class.
The compatibility masks turn the same way: over the canonical indices
of :mod:`puncgon.geometry` the mask of an edge with start a is its
class mask turned cyclically by a(n - 2) bits in the plain block and by
2a bits in the radius block, so all n**2 masks cost n rows.  The n
class masks of each n (n**3 bits) and the masks turned from them are
cached; no table of the edges or of their bits is.
"""

from __future__ import annotations

from functools import cache

from .geometry import TaggedEdge, _require_same_n, enumerate_tagged_edges


def crossing_number(m: TaggedEdge, other: TaggedEdge) -> int:
    """Minimal number of interior intersection points of two tagged edges."""
    _require_same_n(m, other)
    n = m.n
    a, c = m.start, other.start
    if m.end == a:
        if other.end == c:
            return 1 if (a != c and m.tag != other.tag) else 0
        return 1 if 0 < (a - c) % n < (other.end - c) % n else 0
    w_m = (m.end - a) % n
    if other.end == c:
        return 1 if 0 < (c - a) % n < w_m else 0
    w_o = (other.end - c) % n
    s, t = (c - a) % n, (a - c) % n
    return (0 < s < w_m and s + w_o > w_m) + (0 < t < w_o and w_o - t < w_m)


def crossing_row(m: TaggedEdge, targets) -> list[int]:
    """``[crossing_number(m, o) for o in targets]``."""
    return [crossing_number(m, o) for o in targets]


def crossing_table(n: int):
    """Yield ``crossing_row(m, edges)`` for every m of ``edges =
    enumerate_tagged_edges(n)``, in that order, computing only the n rows
    of the edges at vertex 0 and rotating them for the rest (see the
    module docstring).  Holds n base rows, never the whole table; every
    row yielded is a new list."""
    edges = enumerate_tagged_edges(n)
    plain, total = n * (n - 2), n * n
    base: dict[tuple[int, int], list[int]] = {}
    for m in edges:
        a = m.start
        key = ((m.end - a) % n, m.tag)
        if not a:
            row = base[key] = crossing_row(m, edges)
            yield row[:]
            continue
        row = base[key]  # vertex 0 comes first in each class
        p, c = plain - a * (n - 2), total - 2 * a
        yield row[p:plain] + row[:p] + row[c:] + row[plain:c]


@cache
def _class_masks(n: int) -> dict[tuple[int, int], int]:
    """The compatibility mask of each class, keyed by (width, tag): of its
    edge at vertex 0, bit i set iff that edge does not cross the edge at
    canonical index i (see :mod:`puncgon.geometry`), its own bit included.
    One :func:`crossing_row` over one edge list for each of the n classes."""
    edges = enumerate_tagged_edges(n)
    return {
        (m.end, m.tag): sum(1 << i for i, c in enumerate(crossing_row(m, edges)) if not c)
        for m in edges
        if not m.start
    }


@cache
def _compat_mask(m: TaggedEdge) -> int:
    """Bits of every edge that m does not cross, as in :func:`_class_masks`:
    the mask of m's class turned by m's start (see the module docstring).
    Cached per edge, since a flip walk asks for each member's mask again
    at every step."""
    n, a = m.n, m.start
    mask, plain = _class_masks(n)[(m.end - a) % n, m.tag], n * (n - 2)
    return (
        _turn(mask & ((1 << plain) - 1), plain, a * (n - 2))
        | _turn(mask >> plain, 2 * n, 2 * a) << plain
    )


def _turn(bits: int, width: int, k: int) -> int:
    """A block of ``width`` bits turned cyclically up by 0 <= k < width."""
    high = bits >> (width - k)  # the bits that wrap round
    return (bits << k) ^ (high << width) | high
