"""Translation-quiver engine for morphism spaces between tagged edges.

The shifted-edge quiver has vertex set Z x E (E the tagged edges).  Fix
the fan triangulation at vertex 0, i.e. the edges whose start vertex is
0; an elementary move M -> N gives an arrow (k, M) -> (k, N) unless N
lies in the fan with M outside it, in which case the arrow is
(k, M) -> (k+1, N).  This quiver is a stable translation quiver: it is
the repetition quiver ZD_n (Happel 1988) of the linear orientation

    1 -> 2 -> ... -> (n-2) -> {n-1, n}

under the identification

    (k, M)  <->  (n*k + column(M), level(M))

with column/level the grid coordinates of :mod:`puncgon.geometry`.  All
computations below run in these (column, level) coordinates: arrows go
up one level within a column or drop to the next column, the translation
shifts columns by -1, and the mesh ending at x is the set of 2-paths
from tau(x) through the in-arrows of x.

Morphism spaces are spaces of paths modulo the mesh ideal (all
mesh-relation coefficients are +1).  :class:`HomSweep` computes the
quotient by eliminating column by column (each vertex keeps an explicit
reduced basis of path classes), which avoids the exponential path blowup
on wide strips.  The elimination is :class:`linalg.IntElim`, over plain
ints: every pivot it meets is -1 or 1, so each stored projection ``proj`` holds only the ints
-1, 0 and 1, and a pivot of any other value raises
:class:`MeshClosureError`.  Composition works in the same ints.  The
test suite certifies the sweep against a literal oracle that enumerates
every path and subtracts the exact rank of the relations u * m_X * v.

Hom spaces in the quotient by the full rotation rho (which shifts k by
one, i.e. columns by n) are direct sums over shifts, and at most one
summand is nonzero.  Hom(x, -) vanishes past tau^-(n-2) x, which is
relative column n - 2, and the shifted copies of a target lie n columns
apart, so only the copy at relative column d = (co - cm) mod n can carry
Hom, with cm, co the grid columns of m and o: shift 0 when co >= cm and
shift 1 otherwise.  So Hom(m, o) is one cell of the sweep out of m, and
the sweep is the strip of relative columns 0..n - 1.  That placement rule
is written once, in :meth:`RowTargets.window`, which maps each target to
its shift and its cell.  Every Hom reader takes its cell from there: the
row kernels :func:`hom_row_cluster` and :func:`hom_row_closed_form`,
whose pair functions are rows of one, and :class:`MorphismSpace`.

A Hom element has one form.  A :class:`Morphism` is its tuple of int
coordinates over the basis paths of its :class:`MorphismSpace`, and
:func:`compose` reads and writes that tuple directly.  A basis path is a
tuple of sweep cells; it is shown as the tuple of tagged edges it passes
through, each named by :func:`puncgon.geometry.edge_at`.
"""

from __future__ import annotations

from functools import cached_property

from .geometry import (
    TaggedEdge,
    _fork_level,
    _require_same_n,
    edge_at,
    grid_column,
    grid_level,
)
from .linalg import IntElim, PivotError
from .record import Record

ZqVertex = tuple[int, int]  # (column, level)


# ---------------------------------------------------------------------------
# the repetition quiver in (column, level) coordinates


def zq_in_arrows(n: int, v: ZqVertex) -> list[ZqVertex]:
    c, j = v
    ins: list[ZqVertex] = []
    if j >= n - 1:
        ins.append((c, n - 2))
    elif j >= 2:
        ins.append((c, j - 1))
    if j <= n - 3:
        ins.append((c - 1, j + 1))
    elif j == n - 2:
        ins.append((c - 1, n - 1))
        ins.append((c - 1, n))
    return ins


def zq_tau(v: ZqVertex) -> ZqVertex:
    return (v[0] - 1, v[1])


class MeshClosureError(RuntimeError):
    """Internal consistency failure of the sweep or of a composite: a mesh
    relation with a pivot other than -1 or 1, or a path that leaves the
    cell it must end at."""


# ---------------------------------------------------------------------------
# exact column sweep: Hom(source, -) with explicit path-class bases

_MAX_N = 2000


class _Space:
    __slots__ = ("dim", "paths", "ins", "offs", "proj")

    def __init__(self, dim, paths, ins, offs, proj):
        self.dim = dim
        self.paths = paths  # basis representatives, as tuples of ZqVertex
        self.ins = ins  # predecessors with nonzero spaces, canonical order
        self.offs = offs  # block offset of each predecessor
        self.proj = proj  # int rows in {-1, 0, 1}: incoming-sum -> basis coordinates


_ZERO_SPACE = _Space(0, (), (), (), ())


class HomSweep:
    """Hom spaces out of one source vertex, swept column by column.

    The source sits at relative column 0.  The constructor builds the
    strip of relative columns 0..n - 1 once, every cell a window can
    name; off it :meth:`space` is the zero space, since Hom out of the
    source vanishes past column n - 2.  Each vertex x of the strip stores
    a basis of Hom(source, x) given by lexicographically first
    independent paths, together with the projection of every incoming
    composition onto that basis.  At vertex x the incoming direct sum over the in-arrows y is
    divided by the image of Hom(source, tau x) under the mesh map; this
    is the path space modulo all relations u * m_X * v, peeled off one
    final arrow at a time.

    One reduced echelon form per vertex decides both.  Its columns are
    the incoming coordinates, indexed by their candidate paths in
    descending order, and its rows are the mesh relations, read from the
    tau x column of each predecessor's projection.  A pivot is the first
    nonzero entry of its row, so the pivot columns are the paths that
    are combinations of relations and smaller paths; the free columns,
    ascending, are the basis.  A free unit projects to itself and a pivot
    unit to minus its reduced row on the free columns.  The elimination
    is over ints: each pivot must be -1 or 1, and any other pivot raises
    :class:`MeshClosureError`, since the integrality of the projections
    rests on it.
    """

    def __init__(self, n: int, src_level: int):
        self.n = n
        self.src: ZqVertex = (0, src_level)
        self._spaces: dict[ZqVertex, _Space] = {}
        for c in range(n):
            for j in range(1, n + 1):
                self._spaces[(c, j)] = self._compute((c, j))

    def space(self, v: ZqVertex) -> _Space:
        return self._spaces.get(v, _ZERO_SPACE)

    def dim(self, v: ZqVertex) -> int:
        return self.space(v).dim

    def _arrow_apply(self, z: ZqVertex, y: ZqVertex, vec):
        """Image in V(y) of a V(z) vector under composition with arrow z -> y."""
        ysp = self._spaces[y]
        iz = ysp.ins.index(z)
        off = ysp.offs[iz]
        return [sum(row[off + t] * vec[t] for t in range(len(vec))) for row in ysp.proj]

    def _compute(self, x: ZqVertex) -> _Space:
        n = self.n
        if x == self.src:
            return _Space(1, ((x,),), (), (), ())
        ins = [
            y
            for y in zq_in_arrows(n, x)
            if y[0] >= 0 and self._spaces.get(y, _ZERO_SPACE).dim > 0
        ]
        if not ins:
            return _ZERO_SPACE
        offs = []
        paths = []  # candidate path of each incoming-sum coordinate
        for y in ins:
            offs.append(len(paths))
            paths.extend(p + (x,) for p in self._spaces[y].paths)
        total = len(paths)
        # elimination column i holds the coordinate order[i]: descending paths
        order = sorted(range(total), key=paths.__getitem__, reverse=True)
        col = {u: i for i, u in enumerate(order)}
        # mesh relations: the tau x column of each predecessor's projection
        t = zq_tau(x)
        elim = IntElim(total)
        for u in range(self.space(t).dim):
            row = [0] * total
            for y, off in zip(ins, offs):
                ysp = self._spaces[y]
                tcol = ysp.offs[ysp.ins.index(t)] + u
                for b, prow in enumerate(ysp.proj):
                    row[col[off + b]] = prow[tcol]
            try:
                elim.add(row)
            except PivotError as exc:
                raise MeshClosureError(
                    f"mesh relation at vertex {x} has pivot {exc.pivot}, not 1 or -1"
                ) from None
        reduced = elim.rows  # pivot column -> row, reduced echelon form
        # pivots are the rejected paths; the free columns, ascending, are the basis
        basis = [i for i in reversed(range(total)) if i not in reduced]
        proj = tuple(
            tuple(
                -reduced[col[u]][b] if col[u] in reduced else int(col[u] == b)
                for u in range(total)
            )
            for b in basis
        )
        return _Space(
            len(basis), tuple(paths[order[b]] for b in basis), tuple(ins), tuple(offs), proj
        )

    def _walk(
        self, prev: ZqVertex, coords: list[int], steps: tuple[ZqVertex, ...]
    ) -> tuple[ZqVertex, list[int]]:
        """Continue the coordinates of a path class ending at ``prev`` along
        the arrows to ``steps``."""
        for v in steps:
            sp = self.space(v)
            if sp.dim == 0:
                return v, []
            if any(coords):
                coords = self._arrow_apply(prev, v, coords)
            else:
                coords = [0] * sp.dim
            prev = v
        return prev, coords


_SWEEPS: dict[tuple[int, int], HomSweep] = {}


def _sweep(n: int, src_level: int) -> HomSweep:
    """The cached sweep out of (0, src_level).  Its strip has n columns of
    n cells, so an n above ``_MAX_N`` is refused as an input error before
    any column is built."""
    key = (n, src_level)
    sw = _SWEEPS.get(key)
    if sw is None:
        if n > _MAX_N:
            raise ValueError(
                f"n={n} is too large for the mesh engine; n must be at most {_MAX_N}"
            )
        sw = _SWEEPS[key] = HomSweep(n, src_level)
    return sw


# ---------------------------------------------------------------------------
# dimensions


def hom_dim_cluster(m: TaggedEdge, other: TaggedEdge) -> int:
    """Total Hom dimension in the rotation quotient, read at the window
    cell: the row of :func:`hom_row_cluster` to the one target ``other``."""
    return hom_row_cluster(m, RowTargets(m.n, (other,)))[0]


def _closed_form_cell(n: int, mm: int, i: int, j: int) -> int:
    """Hom dimension out of grid position (1, mm) into (i, j), 1 <= i, j <= n.

    The inequality regions: two at plain source levels, a chord region
    plus two parity-alternating fork rows at fork source levels.  The
    value 2 occurs only in a corner of the first plain region.
    """
    if mm <= n - 2:
        if 1 <= i <= mm and i + j >= mm + 1:
            return 2 if 2 <= i and 2 <= j <= n - 2 and i + j >= n else 1
        return 1 if mm + 1 <= i <= n - 1 and n <= i + j <= n + mm - 1 else 0
    mprime = (n - 1) + n - mm
    return 1 if (
        (2 <= i <= n - 1 and i + j >= n and j <= n - 2)
        or (1 <= i <= n - 1 and j == mm and i % 2 == 1)
        or (1 <= i <= n - 1 and j == mprime and i % 2 == 0)
    ) else 0


def hom_dim_closed_form(m: TaggedEdge, other: TaggedEdge) -> int:
    """Closed-form Hom dimension from grid positions: the row of
    :func:`hom_row_closed_form` to the one target ``other``."""
    return hom_row_closed_form(m, RowTargets(m.n, (other,)))[0]


class RowTargets:
    """The targets of a Hom row, in the caller's order, with the grid data
    every Hom reader needs worked out once.

    ``cells`` holds, per target, its column co and its levels at the
    absolute columns co and co + n.  A plain level is the same at both; a
    fork level follows the parity of the absolute column.  :meth:`window`
    places them.
    """

    __slots__ = ("n", "cells", "_windows")

    def __init__(self, n: int, edges):
        self.n = n
        cells = []
        for e in edges:
            _require_same_n(self, e)
            co = grid_column(e)
            if e.is_central:
                cells.append((co, _fork_level(n, e.tag, co), _fork_level(n, e.tag, co + n)))
            else:
                level = grid_level(e)
                cells.append((co, level, level))
        self.cells = tuple(cells)
        self._windows = {}  # source column -> window, at most n of them

    def window(self, cm: int) -> tuple[tuple[int, ZqVertex], ...]:
        """Per target, for a source in grid column cm: the one shift k, 0 or
        1, that can carry Hom and its sweep cell, at relative column
        (co - cm) mod n.  Built once per column and kept."""
        win = self._windows.get(cm)
        if win is None:
            n, win = self.n, []
            for co, here, next_copy in self.cells:
                win.append((0, (co - cm, here)) if co >= cm else (1, (co - cm + n, next_copy)))
            win = self._windows[cm] = tuple(win)
        return win


def hom_row_cluster(m: TaggedEdge, targets: RowTargets) -> list[int]:
    """Total Hom dimension from m to every target: the sweep dimension at
    the target's window cell.  The source's sweep is looked up once for
    the whole row."""
    _require_same_n(m, targets)
    spaces = _sweep(m.n, grid_level(m))._spaces
    return [spaces[cell].dim for _, cell in targets.window(grid_column(m))]


def hom_row_closed_form(m: TaggedEdge, targets: RowTargets) -> list[int]:
    """Closed-form Hom dimension from m to every target: with m rotated to
    column 1 at level mm and (c, j) the window cell of the target, the
    value of :func:`_closed_form_cell` at (c + 1, j)."""
    _require_same_n(m, targets)
    n, mm = m.n, grid_level(m)
    cell = _closed_form_cell
    return [cell(n, mm, c + 1, j) for _, (c, j) in targets.window(grid_column(m))]


# ---------------------------------------------------------------------------
# morphism spaces: explicit graded bases, composition


class MorphismSpace:
    """Graded Hom space between two tagged edges in the rotation quotient.

    Only the window's one shift can carry Hom, so the space is one sweep
    cell: ``shift`` and ``cell`` are the target's window placement, and
    ``paths`` the cell's basis, the lexicographically first independent
    set of paths modulo the mesh relations, as tuples of (column, level)
    cells relative to the source.  Their order is the coordinate order of
    a :class:`Morphism`.  ``shifts`` lists the shifts with nonzero Hom
    (``shift`` or none), and ``components`` maps each to its paths as the
    tuples of tagged edges they pass through, built on first access.
    """

    def __init__(self, source: TaggedEdge, target: TaggedEdge):
        self.source = source
        self.target = target
        self.n = source.n
        ((self.shift, self.cell),) = RowTargets(self.n, (target,)).window(grid_column(source))
        self.paths = _sweep(self.n, grid_level(source)).space(self.cell).paths

    @property
    def shifts(self) -> list[int]:
        return [self.shift] if self.paths else []

    @cached_property
    def components(self) -> dict[int, tuple[tuple[TaggedEdge, ...], ...]]:
        n, col0 = self.n, grid_column(self.source)
        return {
            k: tuple(tuple(edge_at(n, (c + col0, j)) for (c, j) in p) for p in self.paths)
            for k in self.shifts
        }

    def dim(self, shift: int) -> int:
        return len(self.paths) if shift == self.shift else 0

    @property
    def total_dim(self) -> int:
        return len(self.paths)

    def basis(self) -> list["Morphism"]:
        """The basis morphisms, in ``paths`` order: the unit coordinate rows."""
        total = len(self.paths)
        return [
            Morphism(self.source, self.target, (0,) * u + (1,) + (0,) * (total - 1 - u))
            for u in range(total)
        ]


_SPACES: dict[tuple[TaggedEdge, TaggedEdge], MorphismSpace] = {}


def morphism_space(source: TaggedEdge, target: TaggedEdge) -> MorphismSpace:
    key = (source, target)
    sp = _SPACES.get(key)
    if sp is None:
        sp = _SPACES[key] = MorphismSpace(source, target)
    return sp


class Morphism(Record):
    """Element of a graded Hom space: its int coordinates over the stored
    basis of ``morphism_space(source, target)``, in ``paths`` order."""

    __slots__ = _fields = ("source", "target", "coords")

    def __init__(self, source: TaggedEdge, target: TaggedEdge, coords: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not any(self.coords)


def _translate_path(path, off: int, n: int, flip_forks: bool):
    """Shift a path by off columns; the rotation power this realizes swaps
    the two fork levels when it moves an odd number of columns."""
    out = []
    for (c, lev) in path:
        if flip_forks and lev >= n - 1:
            lev = 2 * n - 1 - lev
        out.append((c + off, lev))
    return tuple(out)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Composite of f: M -> N followed by g: N -> P.

    The representative of g is translated by the rotation power matching
    f's shift, concatenated after f's representative, and reduced modulo
    the mesh relations into the stored basis of Hom(M, P).  Only g's
    arrows are walked, once per basis path of g: the walk is linear, so
    it carries f's whole coordinate tuple over the stored basis at f's
    end cell.  The
    coordinates are ints, as are those of the sweep it walks; a tuple of
    the wrong length for its space raises ``ValueError``, and a nonzero
    walk that ends off the cell of Hom(M, P) raises
    :class:`MeshClosureError`.
    """
    if f.target != g.source:
        raise ValueError(
            f"morphisms not composable: {f.source}->{f.target} then {g.source}->{g.target}"
        )
    m, nn, p = f.source, f.target, g.target
    n = m.n
    sweep = _sweep(n, grid_level(m))
    space_f = morphism_space(m, nn)
    space_g = morphism_space(nn, p)
    space_out = morphism_space(m, p)
    for mor, space in ((f, space_f), (g, space_g)):
        if len(mor.coords) != space.total_dim:
            raise ValueError(
                f"morphism {mor.source}->{mor.target} has {len(mor.coords)} "
                f"coordinates, its space has dimension {space.total_dim}"
            )
    out = [0] * space_out.total_dim
    end = space_f.cell  # every basis path of f ends at its space's cell
    flip = (space_f.shift * n) % 2 == 1
    for path_g, b in zip(space_g.paths, g.coords):
        if not b or not any(f.coords):
            continue
        # g's path is translated to start at f's end
        shifted = _translate_path(path_g, end[0], n, flip)
        if shifted[0] != end:
            raise MeshClosureError(
                f"translated path of g starts at {shifted[0]}, not at f's end {end}"
            )
        last, coords = sweep._walk(end, list(f.coords), shifted[1:])
        if not any(coords):
            continue
        if last != space_out.cell:
            raise MeshClosureError(
                f"composite ends at {last}, not at the cell {space_out.cell} of its space"
            )
        for idx, c in enumerate(coords):
            out[idx] += b * c
    return Morphism(m, p, tuple(out))
