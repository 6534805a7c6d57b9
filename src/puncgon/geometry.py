"""The once-punctured polygon: tagged edges, elementary moves, translation.

The model surface is a regular polygon with vertices 0, ..., n-1 in
counterclockwise order and one puncture at the center.  A *tagged edge*
is an ordered vertex pair (a, b) with a tag in {+1, -1}; edges with
a != b always carry tag +1 (plain edges, drawn as arcs homotopic to the
counterclockwise boundary path from a to b), while each vertex a carries
the two *central* edges a|+ and a|- running from a to the puncture.  For
fixed n there are exactly n**2 tagged edges.

The canonical order lists the plain edges by (start, span), then the
central edges by (vertex, tag with + first).  So each position is a
formula, which :func:`edge_index` states and :func:`edge_of_index`
inverts:

  plain a-b of span s    a(n - 2) + s - 3        (0 .. n(n - 2) - 1)
  central a|+ and a|-    n(n - 2) + 2a, plus 1   (n(n - 2) .. n**2 - 1)

Every edge list, table row and member bitset of the package follows
this order: bit i of a bitset stands for the edge at index i.

Construction of a :class:`TaggedEdge` enforces four validity conditions,
reported by code on failure:

  E1  both endpoints are vertices in {0, ..., n-1};
  E2  the tag is +1 or -1;
  E3  a plain edge (start != end) is untagged, i.e. has tag +1;
  E4  the counterclockwise boundary path from start to end carries at
      least 3 vertices (end is never the counterclockwise neighbor of
      start).

Edges are interned: each (n, start, end, tag) is validated once, when it
is first built, and every later construction, copy or unpickling returns
that same object.  So ``==`` and ``hash`` are object identity, the
C-level slots of ``object``, in every set and dict that holds edges.  The
table keeps the n**2 edges of every polygon size built so far and is
never freed.

Serialized forms are ``"a-b"`` for plain edges and ``"a|+"`` / ``"a|-"``
for central edges; positions print as ``"(i,j)"``.
"""

from __future__ import annotations

from collections import namedtuple

from .record import Frozen

Vertex = int


class InvalidEdgeError(ValueError):
    """A tagged-edge validity condition failed; ``code`` is one of E1-E4."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{message} (violates edge condition {code})")
        self.code = code


def ccw_neighbor(n: int, v: Vertex) -> Vertex:
    return (v + 1) % n


def delta_len(n: int, a: Vertex, b: Vertex) -> int:
    """Number of vertices on the counterclockwise boundary path from a to b.

    Both endpoints are counted; the closed path from a around the polygon
    back to a counts a twice, giving n + 1.  Values lie in {2, ..., n+1},
    and b is the counterclockwise neighbor of a exactly when the value
    is 2.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"vertices must lie in 0..{n - 1}, got {a}, {b}")
    if a == b:
        return n + 1
    return ((b - a - 1) % n) + 2


def _require_polygon(n) -> None:
    """Refuse a polygon size that is not an int, or is a bool, or is below
    3.  Runs before any cache keyed on n is read, since 5.0 == 5 and
    True == 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"polygon size must be an integer, got n={n!r}")
    if n < 3:
        raise ValueError(f"polygon size must be >= 3, got n={n}")


def _validate(n: int, start: Vertex, end: Vertex, tag: int) -> None:
    """Conditions E1-E4 on the fields of a tagged edge.  Each field must be
    an int and not a bool: the first edge built for a key is the one every
    equal key returns, so neither 1.0 nor True may get into the table."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, start, end)):
        raise InvalidEdgeError("E1", f"n and vertices must be integers, got {n}, {start}, {end}")
    if n < 3:
        raise InvalidEdgeError("E1", f"polygon size must be >= 3, got n={n}")
    if not (0 <= start < n and 0 <= end < n):
        raise InvalidEdgeError("E1", f"vertices must lie in 0..{n - 1}, got ({start}, {end})")
    if not isinstance(tag, int) or isinstance(tag, bool) or tag not in (1, -1):
        raise InvalidEdgeError("E2", f"tag must be +1 or -1, got {tag}")
    if start != end:
        if tag != 1:
            raise InvalidEdgeError("E3", f"plain edge {start}-{end} must have tag +1")
        if delta_len(n, start, end) < 3:
            raise InvalidEdgeError(
                "E4",
                f"invalid edge {start}-{end}: end is the counterclockwise "
                "neighbor of start, boundary span must be at least 3",
            )


# The interned edges, keyed by (n, start, end, tag); never freed.
_EDGES: dict[tuple[int, int, int, int], "TaggedEdge"] = {}


class TaggedEdge(Frozen):
    """One of the n**2 tagged edges of the punctured n-gon.

    Interned: ``TaggedEdge(n, start, end, tag)`` returns the one instance
    for those fields, validated when it is first built, so ``==`` and
    ``hash`` are object identity.  ``__new__`` sets the fields, on a miss
    only, together with the serialized name that ``str`` returns; they
    are frozen slots.
    """

    __slots__ = ("n", "start", "end", "tag", "_name")

    def __new__(cls, n: int, start: Vertex, end: Vertex, tag: int = 1) -> "TaggedEdge":
        key = (n, start, end, tag)
        edge = _EDGES.get(key)
        if edge is None:
            _validate(n, start, end, tag)
            edge = object.__new__(cls)
            for name, value in zip(("n", "start", "end", "tag"), key):
                object.__setattr__(edge, name, value)
            text = f"{start}|{'+' if tag == 1 else '-'}" if start == end else f"{start}-{end}"
            object.__setattr__(edge, "_name", text)
            edge = _EDGES.setdefault(key, edge)
        return edge

    def __reduce__(self):
        return TaggedEdge, (self.n, self.start, self.end, self.tag)

    @property
    def is_central(self) -> bool:
        return self.start == self.end

    @property
    def span(self) -> int:
        """|delta| of the defining boundary path (n + 1 for central edges);
        :func:`delta_len` on fields that construction already validated."""
        if self.start == self.end:
            return self.n + 1
        return (self.end - self.start - 1) % self.n + 2

    @classmethod
    def central(cls, n: int, a: Vertex, tag: int) -> "TaggedEdge":
        return cls(n, a, a, tag)

    @classmethod
    def parse(cls, n: int, text: str) -> "TaggedEdge":
        """Parse the serialized form "a-b", "a|+" or "a|-".  A vertex is
        ASCII decimal digits, with whitespace allowed around it; signs,
        underscores and other digits are refused, not read as ``int``
        would read them."""
        s = text.strip()
        if "|" in s:
            a, t = s.split("|", 1)
            b, tag = a, {"+": 1, "-": -1}.get(t.strip())
        else:
            a, _, b = s.rpartition("-")
            tag = 1
        a, b = a.strip(), b.strip()
        if not (tag and a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise InvalidEdgeError("E1", f"cannot parse edge {text!r}")
        return cls(n, int(a), int(b), tag)

    def __str__(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"TaggedEdge({self.n}, {self!s})"


def _require_same_n(m: TaggedEdge, other: TaggedEdge):
    if m.n != other.n:
        raise ValueError(f"edges built for different polygons: n={m.n} vs n={other.n}")


def edge_index(e: TaggedEdge) -> int:
    """Position of e in the canonical order (see the module docstring)."""
    n = e.n
    if e.start == e.end:
        return n * (n - 2) + 2 * e.start + (e.tag == -1)
    return e.start * (n - 2) + (e.end - e.start - 2) % n  # span - 3


# The canonical order is the order of the indices.
edge_sort_key = edge_index


def edge_of_index(n: int, i: int) -> TaggedEdge:
    """The edge at position i of the canonical order: the inverse of
    :func:`edge_index`.  An i outside 0..n**2 - 1 decodes to a vertex
    outside the polygon, which construction refuses (E1)."""
    plain = n * (n - 2)
    if i < plain:
        a, k = divmod(i, n - 2)
        return TaggedEdge(n, a, (a + k + 2) % n, 1)
    a, minus = divmod(i - plain, 2)
    return TaggedEdge(n, a, a, -1 if minus else 1)


def enumerate_tagged_edges(n: int) -> list[TaggedEdge]:
    """All n**2 tagged edges, in the canonical order."""
    _require_polygon(n)
    return [edge_of_index(n, i) for i in range(n * n)]


def elementary_moves(m: TaggedEdge) -> list[TaggedEdge]:
    """Targets of all elementary moves out of m.

    An elementary move advances one endpoint of the edge by one
    counterclockwise step (the model's irreducible morphisms).  With
    c, d the counterclockwise neighbors of start and end:

      * advancing the start gives (c, end), valid only when the span is
        at least 4;
      * advancing the end gives (start, d) when the span is below n, and
        splits into the two tagged central edges at start when the span
        is exactly n (then d coincides with start);
      * a central edge moves only to (c, start).

    Plain edges therefore have 1, 2 or 3 moves (for n = 3 the span-n
    case leaves just the two central targets), central edges exactly 1.
    """
    n = m.n
    c = ccw_neighbor(n, m.start)
    if m.is_central:
        return [TaggedEdge(n, c, m.start, 1)]
    out = []
    if m.span >= 4:
        out.append(TaggedEdge(n, c, m.end, 1))
    if m.span <= n - 1:
        out.append(TaggedEdge(n, m.start, ccw_neighbor(n, m.end), 1))
    else:
        out.append(TaggedEdge.central(n, m.start, 1))
        out.append(TaggedEdge.central(n, m.start, -1))
    return out


def tau(m: TaggedEdge) -> TaggedEdge:
    return tau_power(m, 1)


def tau_power(m: TaggedEdge, k: int) -> TaggedEdge:
    """Translation tau**k: rotate both endpoints k steps clockwise (k may
    be negative), negating the tag of a central edge when k is odd."""
    n = m.n
    if m.is_central:
        return TaggedEdge.central(n, (m.start - k) % n, m.tag * (-1) ** (k % 2))
    return TaggedEdge(n, (m.start - k) % n, (m.end - k) % n, 1)


class Position(namedtuple("Position", ("column", "level"))):
    """Grid coordinates of a tagged edge: column in {1..n}, level in {1..n}."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.column},{self.level})"


def grid_column(m: TaggedEdge) -> int:
    return m.start + 1


def _fork_level(n: int, tag: int, column: int) -> int:
    """Level of the central edge with this tag in the given column.

    Central edges occupy the two fork levels n-1 and n.  The top level n
    holds, in column c, the tag with tag * (-1)**(c+1) == +1, so the
    plus-tagged central edge of vertex 0 sits at level n.  The
    column may be absolute (shift * n + grid column): the rule follows its
    parity, negative columns included.  The convention is pinned by the
    translation and Hom agreement suites.
    """
    return n if tag == (1 if column % 2 else -1) else n - 1


def _fork_tag(n: int, level: int, column: int) -> int:
    """Inverse of :func:`_fork_level`: the tag at fork level n-1 or n."""
    return 1 if level == _fork_level(n, 1, column) else -1


def grid_level(m: TaggedEdge) -> int:
    if not m.is_central:
        return m.span - 2
    return _fork_level(m.n, m.tag, grid_column(m))


def pos(m: TaggedEdge) -> Position:
    """Bijection from the n**2 tagged edges onto {1..n} x {1..n}.

    The plain edge of span 3 at vertex 0 goes to (1, 1); plain
    edges sit at level span - 2, central edges at the fork levels
    n-1 and n by the tag/parity rule of :func:`_fork_level`.
    """
    return Position(grid_column(m), grid_level(m))


def edge_at(n: int, cell: tuple[int, int]) -> TaggedEdge:
    """The tagged edge at a (column, level) cell, 1 <= level <= n.  The
    column may be absolute (shift * n + grid column), as in the repetition
    quiver of :mod:`puncgon.mesh`: a fork tag follows its parity, so for
    odd n consecutive shifted copies of one central edge swap fork levels."""
    c, j = cell
    a = (c - 1) % n
    if j <= n - 2:
        return TaggedEdge(n, a, (a + j + 1) % n, 1)
    return TaggedEdge.central(n, a, _fork_tag(n, j, c))


def pos_inv(n: int, p: Position | tuple[int, int]) -> TaggedEdge:
    """Inverse of :func:`pos`; rejects coordinates outside the grid."""
    i, j = p
    if not (1 <= i <= n):
        raise ValueError(f"column must lie in 1..{n}, got {i}")
    if not (1 <= j <= n):
        raise ValueError(f"level must lie in 1..{n}, got {j}")
    return edge_at(n, (i, j))


def parse_edge_list(n: int, text: str) -> list[TaggedEdge]:
    """Parse a comma-separated list of edge strings.  An empty item (as in
    ``"0-2,,0-3"`` or a trailing comma) is rejected, not skipped."""
    items = text.split(",")
    if not all(part.strip() for part in items):
        raise InvalidEdgeError("E1", f"empty item in edge list {text!r}")
    return [TaggedEdge.parse(n, part) for part in items]
