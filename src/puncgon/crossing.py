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

:func:`crossing_row` applies the same closed form from one edge to a
whole row of targets, with m's start, width and tag read once; the
crossing table, dimension vectors and the all-pairs check take their
values from it.  :func:`crossing_number` stays the pairwise reference,
and the per-edge compatibility masks (computed once per edge) use it.
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
    """``[crossing_number(m, o) for o in targets]``, with m read once."""
    n, a = m.n, m.start
    w_m = (m.end - a) % n
    out = []
    append = out.append
    for o in targets:
        if o.n != n:
            _require_same_n(m, o)
        c = o.start
        w_o = (o.end - c) % n
        if not w_m:
            if not w_o:
                append(1 if (a != c and m.tag != o.tag) else 0)
            else:
                append(1 if 0 < (a - c) % n < w_o else 0)
        elif not w_o:
            append(1 if 0 < (c - a) % n < w_m else 0)
        else:
            s, t = (c - a) % n, (a - c) % n
            append((0 < s < w_m and s + w_o > w_m) + (0 < t < w_o and w_o - t < w_m))
    return out


@cache
def _canonical_bits(n: int) -> tuple[tuple[TaggedEdge, ...], dict[TaggedEdge, int]]:
    """The edges of :func:`enumerate_tagged_edges` and the bit of each:
    the i-th edge owns bit 1 << i."""
    edges = tuple(enumerate_tagged_edges(n))
    return edges, {e: 1 << i for i, e in enumerate(edges)}


@cache
def _compat_mask(m: TaggedEdge) -> int:
    """Bits (as in :func:`_canonical_bits`) of every edge that m does not
    cross, its own bit included; computed once per edge."""
    edges, bits = _canonical_bits(m.n)
    return sum(bits[e] for e in edges if crossing_number(m, e) == 0)
