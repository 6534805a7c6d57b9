import random

import pytest

from puncgon import mesh, suites
from puncgon.geometry import (
    TaggedEdge,
    edge_at,
    elementary_moves,
    enumerate_tagged_edges,
    pos_inv,
    tau,
)
from puncgon.mesh import (
    HomSweep,
    MeshClosureError,
    Morphism,
    RowTargets,
    compose,
    hom_dim_closed_form,
    hom_dim_cluster,
    hom_row_closed_form,
    hom_row_cluster,
    morphism_space,
    zq_in_arrows,
    zq_tau,
    _sweep,
)

from oracles import (
    hom_dim_mesh_by_rank,
    hom_dims_by_knitting,
    int_rank,
    relative_cell,
    window_shifts,
    zq_cell,
    zq_out_arrows,
)

# Hom dimensions out of grid position (1, 3) at n = 6; levels 1..6, columns
# 1..6.  Frozen reference values for the worked example table.
N6_GRID = {
    1: (0, 0, 1, 0, 1, 0),
    2: (0, 1, 1, 1, 1, 0),
    3: (1, 1, 2, 1, 1, 0),
    4: (1, 2, 2, 1, 0, 0),
    5: (1, 1, 1, 0, 0, 0),
    6: (1, 1, 1, 0, 0, 0),
}


# ---------------------------------------------------------------------------
# the repetition quiver


def test_fan_slice_is_linear_type_d_quiver():
    n = 6
    column = [(1, j) for j in range(1, n + 1)]
    outs = {(x, y) for x in column for y in zq_out_arrows(n, x) if y[0] == 1}
    ins = {(y, x) for x in column for y in zq_in_arrows(n, x) if y[0] == 1}
    assert outs == ins
    arrows = {(str(edge_at(n, x)), str(edge_at(n, y))) for x, y in outs}
    assert arrows == {
        ("0-2", "0-3"),
        ("0-3", "0-4"),
        ("0-4", "0-5"),
        ("0-5", "0|+"),
        ("0-5", "0|-"),
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_window_is_stable_translation_quiver(n):
    """On the window of columns 0..2n of the repetition quiver."""
    vertices = [(c, j) for c in range(2 * n + 1) for j in range(1, n + 1)]
    for x in vertices:
        ins, outs = zq_in_arrows(n, x), zq_out_arrows(n, x)
        assert len(set(ins)) == len(ins) and len(set(outs)) == len(outs)  # no multiple arrows
        assert x not in ins and x not in outs  # no loops
        assert all(x in zq_out_arrows(n, y) for y in ins)
        assert all(x in zq_in_arrows(n, y) for y in outs)
        # the mesh ending at x: tau x has an arrow to y exactly when y has one to x
        assert sorted(ins) == sorted(zq_out_arrows(n, zq_tau(x)))
        assert sorted(map(zq_tau, ins)) == sorted(zq_in_arrows(n, zq_tau(x)))


def test_window_tau_matches_edge_translation():
    n = 5
    for c in range(1, 2 * n + 1):
        for j in range(1, n + 1):
            x = (c, j)
            assert edge_at(n, zq_tau(x)) == tau(edge_at(n, x))


def test_edge_at_roundtrip():
    """The package's naming of (column, level) vertices inverts the
    oracle's placement of (shift, edge) vertices, the shift being the
    copy of the grid that holds the absolute column."""
    for n in range(3, 9):
        for c in range(-3, 3 * n):
            for j in range(1, n + 1):
                assert zq_cell(edge_at(n, (c, j)), (c - 1) // n) == (c, j), (n, c, j)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize("n", range(3, 7))
def test_identity_and_translation_rigidity(n):
    for m in enumerate_tagged_edges(n):
        assert 0 in window_shifts(m, m) and morphism_space(m, m).dim(0) == 1
        assert hom_dim_cluster(m, m) >= 1
        assert hom_dim_cluster(m, tau(m)) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cluster_dims_bounded_by_two(n):
    for m in enumerate_tagged_edges(n):
        for other in enumerate_tagged_edges(n):
            assert hom_dim_cluster(m, other) in (0, 1, 2)


@pytest.mark.parametrize("n", range(3, 13))
def test_hom_vanishes_beyond_the_window(n):
    """The law the one-cell placement rests on: out of every source
    level, the knitted dimensions vanish at every relative column from
    n - 1 to 4n, so no cell past the sweep's strip of columns 0..n - 1
    carries Hom, and the sweep agrees with them on all of columns 0..4n."""
    last = 4 * n
    for level in range(1, n + 1):
        knit = hom_dims_by_knitting(n, level, last)
        sweep = _sweep(n, level)
        for c in range(last + 1):
            for j in range(1, n + 1):
                assert sweep.dim((c, j)) == knit[(c, j)], (n, level, (c, j))
                assert c <= n - 2 or knit[(c, j)] == 0, (n, level, (c, j))


@pytest.mark.parametrize("n", range(3, 11))
def test_hom_sits_in_the_oracle_window_cells(n):
    """Against the oracle's own placement, for every pair: the window
    holds exactly two shifts, the later cell is zero, the morphism space
    keeps the sweep basis of the first cell (each basis path ends at its
    cell), and both pair functions sum the window cells."""
    edges = enumerate_tagged_edges(n)
    for m in edges:
        sweep = _sweep(n, zq_cell(m, 0)[1])
        for other in edges:
            cells = {k: relative_cell(m, other, k) for k in window_shifts(m, other)}
            assert len(cells) == 2, (m, other)
            first, later = sorted(cells)
            assert sweep.dim(cells[later]) == 0, (m, other)
            space = morphism_space(m, other)
            kept = {k: sweep.space(cell).paths for k, cell in cells.items() if sweep.dim(cell)}
            assert space.shifts == sorted(kept), (m, other)
            assert space.paths == sweep.space(cells[first]).paths, (m, other)
            assert all(p[-1] == cells[first] for p in space.paths), (m, other)
            total = sum(sweep.dim(cell) for cell in cells.values())
            assert hom_dim_cluster(m, other) == hom_dim_closed_form(m, other) == total
            assert space.total_dim == total, (m, other)


def test_literal_rank_oracle_exhaustive_n3():
    edges = enumerate_tagged_edges(3)
    for m in edges:
        for other in edges:
            space = morphism_space(m, other)
            for k in window_shifts(m, other):
                assert space.dim(k) == hom_dim_mesh_by_rank(m, other, k)


def test_literal_rank_oracle_n4_narrow():
    edges = enumerate_tagged_edges(4)
    for m in edges:
        for other in edges:
            space = morphism_space(m, other)
            for k in window_shifts(m, other):
                if relative_cell(m, other, k)[0] <= 4:
                    assert space.dim(k) == hom_dim_mesh_by_rank(m, other, k)


def test_literal_rank_oracle_samples_wide():
    # a few expensive wide-strip cases, one per polygon size
    cases = [
        (TaggedEdge(4, 0, 2), TaggedEdge.central(4, 2, 1), 1),
        (TaggedEdge(4, 1, 3), TaggedEdge(4, 2, 0), 1),
        (TaggedEdge(5, 0, 2), TaggedEdge(5, 1, 3), 1),
        (TaggedEdge.central(5, 0, 1), TaggedEdge.central(5, 2, -1), 1),
    ]
    for m, other, k in cases:
        assert k in window_shifts(m, other)
        assert morphism_space(m, other).dim(k) == hom_dim_mesh_by_rank(m, other, k)


@pytest.mark.parametrize(
    "n, source, target, dim",
    [(5, "0-2", "3-0", 1), (5, "0-4", "2-0", 2), (6, "0-2", "4-0", 1), (6, "0-5", "3-0", 2)],
)
def test_literal_rank_oracle_nonzero(n, source, target, dim):
    m, other = TaggedEdge.parse(n, source), TaggedEdge.parse(n, target)
    assert 0 in window_shifts(m, other)
    assert hom_dim_mesh_by_rank(m, other, 0) == dim
    assert morphism_space(m, other).dim(0) == dim


# Nonzero graded components that the literal oracle certifies: shifts
# k >= 1 (dimension 1 and 2) and fork levels at either end, as
# (n, source, target, shift, dim).
ORACLE_NONZERO_CASES = [
    (4, "3-2", "0-3", 1, 2),
    (4, "3-2", "1-0", 1, 1),
    (4, "3-2", "0|-", 1, 1),
    (4, "3|-", "1-3", 1, 1),
    (4, "3|-", "1|-", 1, 1),
    (4, "1|-", "3-2", 0, 1),
    (4, "1|-", "3|-", 0, 1),
    (5, "4-3", "2-4", 1, 1),
    (5, "4-3", "1-0", 1, 2),
    (5, "3-2", "0-4", 1, 2),
    (5, "4-3", "1|-", 1, 1),
    (5, "3-2", "0|+", 1, 1),
    (5, "4|-", "2-4", 1, 1),
    (5, "2|-", "0-3", 1, 1),
    (5, "4|-", "2|-", 1, 1),
    (5, "2|+", "0|+", 1, 1),
    (5, "2-1", "4|-", 0, 1),
    (5, "1|-", "4-3", 0, 1),
    (5, "1|-", "4|-", 0, 1),
]


@pytest.mark.parametrize("n, source, target, shift, dim", ORACLE_NONZERO_CASES)
def test_literal_rank_oracle_shifted_and_fork_cases(n, source, target, shift, dim):
    m, other = TaggedEdge.parse(n, source), TaggedEdge.parse(n, target)
    assert shift in window_shifts(m, other)
    assert shift >= 1 or max(zq_cell(m, 0)[1], zq_cell(other, 0)[1]) >= n - 1
    assert hom_dim_mesh_by_rank(m, other, shift) == dim
    assert morphism_space(m, other).dim(shift) == dim


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([], 0),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[1, 2], [2, 4]], 1),
        ([[2, 3], [3, 2]], 2),
        ([[1, 0, 1], [1, 0, 1], [0, 1, 0]], 2),
        ([[1, 1, 0], [0, 1, 1], [1, 0, -1]], 2),
        ([[2, 4, 1], [1, 2, 0], [0, 0, 3]], 2),
        ([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]], 4),
        ([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0]], 2),
        ([[1, 2], [2, 4], [3, 6], [0, 1], [1, 3]], 2),
    ],
)
def test_int_rank_known_matrices(rows, rank):
    assert int_rank(rows) == rank


def _unit_paths(sweep, x, sp):
    """Candidate path of every incoming-sum coordinate of x, by coordinate."""
    out = []
    for y in sp.ins:
        out.extend(p + (x,) for p in sweep.space(y).paths)
    return out


def _mesh_rows(sweep, x, sp):
    """Image of each basis unit of tau x in the incoming sum of x."""
    t = zq_tau(x)
    rows = []
    for u in range(sweep.dim(t)):
        row = []
        for y in sp.ins:
            ysp = sweep.space(y)
            col = ysp.offs[ysp.ins.index(t)] + u if t in ysp.ins else None
            row.extend(0 if col is None else r[col] for r in ysp.proj)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", range(3, 10))
def test_sweep_spaces_are_greedy_lex_bases(n):
    """Each stored space is the quotient of the incoming sum by the tau x
    mesh rows, with the lexicographically first independent paths as basis
    and each path projected onto basis paths sorting before it.  These
    properties, with the knitted dimension, fix basis and projection.
    The i-th basis path also reduces to the i-th unit vector, which lets
    compose start after f's representative without walking it.  The
    sweeps are the cached ones that production code reads."""
    last = 2 * n + 1
    for level in range(1, n + 1):
        knit = hom_dims_by_knitting(n, level, last)
        sweep = _sweep(n, level)
        for c in range(last + 1):
            for j in range(1, n + 1):
                x = (c, j)
                sp = sweep.space(x)
                assert sp.dim == knit[x], (n, level, x)
                assert list(sp.paths) == sorted(set(sp.paths)), (n, level, x)
                for i, path in enumerate(sp.paths):
                    unit = [int(r == i) for r in range(sp.dim)]
                    assert sweep._walk(sweep.src, [1], path[1:]) == (x, unit), (n, level, path)
                if x == sweep.src or sp.dim == 0:
                    continue
                paths = _unit_paths(sweep, x, sp)
                assert all(v in (-1, 0, 1) for r in sp.proj for v in r), (n, level, x)
                for col, path in enumerate(paths):
                    image = [r[col] for r in sp.proj]
                    if path in sp.paths:
                        b = sp.paths.index(path)
                        assert image == [int(r == b) for r in range(sp.dim)], (n, level, x)
                    else:
                        assert all(sp.paths[r] < path for r, v in enumerate(image) if v)
                for row in _mesh_rows(sweep, x, sp):
                    assert all(sum(a * b for a, b in zip(r, row)) == 0 for r in sp.proj)


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_reference_grid_n6():
    src = pos_inv(6, (1, 3))
    for level, row in N6_GRID.items():
        got = tuple(
            hom_dim_closed_form(src, pos_inv(6, (col, level))) for col in range(1, 7)
        )
        assert got == row, (level, got)


def test_closed_form_double_cell():
    # n=6, source level 3: target (3,3) satisfies every overlap condition
    src = pos_inv(6, (1, 3))
    assert hom_dim_closed_form(src, pos_inv(6, (3, 3))) == 2


def test_closed_form_identity_cell():
    src = pos_inv(6, (1, 1))
    assert hom_dim_closed_form(src, src) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cluster_equals_closed_form(n):
    for m in enumerate_tagged_edges(n):
        for other in enumerate_tagged_edges(n):
            assert hom_dim_cluster(m, other) == hom_dim_closed_form(m, other), (
                m,
                other,
            )


def _assert_rows_match_pairs(m, targets):
    row_targets = RowTargets(m.n, targets)
    closed = hom_row_closed_form(m, row_targets)
    assert closed == [hom_dim_closed_form(m, t) for t in targets], m
    mesh = hom_row_cluster(m, row_targets)
    assert mesh == [hom_dim_cluster(m, t) for t in targets], m
    assert mesh == closed, m


@pytest.mark.parametrize("n", range(3, 10))
def test_row_forms_match_pair_functions(n):
    """Every source, over the canonical targets and over their tau images
    (the targets verify_theorem2 reads)."""
    edges = enumerate_tagged_edges(n)
    for targets in (edges, [tau(e) for e in edges]):
        for m in edges:
            _assert_rows_match_pairs(m, targets)


@pytest.mark.parametrize("n", range(12, 21))
def test_row_forms_match_pair_functions_seeded(n):
    """Closed form against sweep, as rows and pair by pair, on seeded
    random sources at sizes the exhaustive tests do not reach."""
    edges = enumerate_tagged_edges(n)
    for m in random.Random(f"rows:{n}").sample(edges, 8):
        _assert_rows_match_pairs(m, edges)


@pytest.mark.parametrize("n", range(3, 11))
def test_window_is_the_oracle_placement(n):
    """For every source and every target, plain and tau-shifted (odd n
    swaps the fork levels between the two copies): the window holds the
    first of the oracle's two window shifts and the oracle's cell of it,
    and the oracle's cell at the second shift has knitted dimension 0."""
    edges = enumerate_tagged_edges(n)
    knit = {
        level: hom_dims_by_knitting(n, level, 2 * n - 1) for level in range(1, n + 1)
    }
    for targets in (edges, [tau(e) for e in edges]):
        row_targets = RowTargets(n, targets)
        for m in edges:
            want = []
            for other in targets:
                first, second = window_shifts(m, other)
                assert second == first + 1, (m, other)
                assert knit[zq_cell(m, 0)[1]][relative_cell(m, other, second)] == 0, (m, other)
                want.append((first, relative_cell(m, other, first)))
            assert row_targets.window(zq_cell(m, 0)[0]) == tuple(want), m


def test_every_hom_reader_follows_the_window(monkeypatch):
    """One placement rule, three readers: with ``window`` corrupted to put
    every target at the cells of one decoy, both row kernels and the
    morphism space read the decoy's Hom instead of the target's."""
    n = 6
    m, decoy = TaggedEdge.parse(n, "0-5"), TaggedEdge.parse(n, "3-0")
    want = morphism_space(m, decoy)
    assert want.total_dim == 2
    others = [o for o in enumerate_tagged_edges(n) if hom_dim_closed_form(m, o) != 2]
    window = RowTargets.window

    def corrupted(self, cm):
        return window(RowTargets(self.n, (decoy,)), cm) * len(self.cells)

    monkeypatch.setattr(RowTargets, "window", corrupted)
    monkeypatch.setattr(mesh, "_SPACES", {})
    targets = RowTargets(n, others)
    assert hom_row_cluster(m, targets) == [2] * len(others)
    assert hom_row_closed_form(m, targets) == [2] * len(others)
    for other in others:
        space = morphism_space(m, other)
        assert (space.shifts, space.paths) == (want.shifts, want.paths), other


@pytest.mark.parametrize("n", [5, 6])
def test_prop22_keeps_at_most_n_windows_per_target_set(monkeypatch, n):
    """One prop22 pass builds each source column's window once per
    RowTargets: the all-pairs targets hold n windows, the n = 6 reference
    grid one."""
    made = []

    class Recorded(RowTargets):
        def __init__(self, n, edges):
            super().__init__(n, edges)
            made.append(self)

    monkeypatch.setattr(suites, "RowTargets", Recorded)
    assert suites.suite_prop22(n).passed
    assert [len(t._windows) for t in made] == ([n, 1] if n == 6 else [n])


def test_row_forms_reject_mixed_polygons():
    with pytest.raises(ValueError, match="different polygons"):
        RowTargets(5, [TaggedEdge(5, 0, 2), TaggedEdge(6, 0, 2)])
    targets = RowTargets(6, enumerate_tagged_edges(6))
    for row in (hom_row_closed_form, hom_row_cluster):
        with pytest.raises(ValueError, match="different polygons"):
            row(TaggedEdge(5, 0, 2), targets)


# ---------------------------------------------------------------------------
# morphism spaces and composition


def test_morphism_space_grading_matches_dims():
    """Every pair at n = 3..7: each shift holds dim(k) basis paths, each
    running from the source to the target by elementary moves."""
    for n in range(3, 8):
        edges = enumerate_tagged_edges(n)
        for m in edges:
            for other in edges:
                sp = morphism_space(m, other)
                assert sp.total_dim == hom_dim_cluster(m, other)
                assert list(sp.components) == sp.shifts
                for k, basis in sp.components.items():
                    assert k in window_shifts(m, other)
                    assert len(basis) == sp.dim(k) > 0, (m, other, k)
                    for p in basis:
                        assert p[0] == m and p[-1] == other, (m, other, p)
                        # consecutive representative edges are elementary moves
                        for a, b in zip(p, p[1:]):
                            assert b in elementary_moves(a), (m, other, p)


def _identity(m):
    return morphism_space(m, m).basis()[0]


def _arrow(src, dst):
    """The morphism of the elementary move src -> dst: the one basis
    element whose representative is the single arrow."""
    sp = morphism_space(src, dst)
    (arrow,) = [f for f, p in zip(sp.basis(), sp.paths) if len(p) == 2]
    return arrow


def test_identity_composition_laws():
    """compose(id_a, f) == f == compose(f, id_b) for every basis element f
    of every Hom space at n = 3..6, the second element of each
    dimension-2 space included."""
    for n in range(3, 7):
        edges = enumerate_tagged_edges(n)
        ids = {m: _identity(m) for m in edges}
        for a in edges:
            for b in edges:
                for f in morphism_space(a, b).basis():
                    assert compose(ids[a], f) == f == compose(f, ids[b]), (a, b, str(f))


@pytest.mark.parametrize("n", [4, 5])
def test_full_mesh_compositions_vanish(n):
    for x in enumerate_tagged_edges(n):
        tx = tau(x)
        space = morphism_space(tx, x)
        total = [0] * space.total_dim
        for y in elementary_moves(tx):
            assert x in elementary_moves(y)
            terms = compose(_arrow(tx, y), _arrow(y, x)).coords
            total = [a + b for a, b in zip(total, terms)]
        assert not any(total), (x, total)


def test_composition_associativity_seeded():
    edges = enumerate_tagged_edges(5)
    rng = random.Random(20240229)
    checked = 0
    while checked < 50:
        a, b, c, d = (rng.choice(edges) for _ in range(4))
        sps = [morphism_space(a, b), morphism_space(b, c), morphism_space(c, d)]
        if not all(sp.total_dim for sp in sps):
            continue
        f, g, h = (rng.choice(sp.basis()) for sp in sps)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        checked += 1


def _combo(a, f, b, f2):
    """The morphism a*f + b*f2, for f and f2 in one Hom space."""
    return Morphism(f.source, f.target, tuple(a * x + b * y for x, y in zip(f.coords, f2.coords)))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_compose_is_bilinear(n):
    """compose(a*f + b*f', g) == a*compose(f, g) + b*compose(f', g), and the
    same in g, for f, f' (and g, g') the two basis elements of every
    dimension-2 space, composed with every nonzero space on either side:
    so each f and g is a combination of two paths, with coefficients
    other than 0 and 1."""
    edges = enumerate_tagged_edges(n)
    bases = {(x, y): morphism_space(x, y).basis() for x in edges for y in edges}
    two = 0
    for (x, y), left in bases.items():
        for z in edges:
            right = bases[y, z]
            if not left or not right or len(left) + len(right) < 3:
                continue
            two += len(left) == 2
            f, f2, g, g2 = left[0], left[-1], right[0], right[-1]
            for a, b in ((1, 1), (1, -1), (2, -3)):
                assert compose(_combo(a, f, b, f2), g) == _combo(
                    a, compose(f, g), b, compose(f2, g)), (str(f), str(f2), str(g))
                assert compose(f, _combo(a, g, b, g2)) == _combo(
                    a, compose(f, g), b, compose(f, g2)), (str(f), str(g), str(g2))
    assert two  # the spaces of dimension 2 are there


def test_compose_rejects_mismatched_objects():
    f = _identity(TaggedEdge(5, 0, 2))
    g = _identity(TaggedEdge(5, 0, 3))
    with pytest.raises(ValueError):
        compose(f, g)
    # a coordinate tuple of the wrong length for its space
    for bad in (f.coords + (0,), ()):
        wrong = Morphism(f.source, f.target, bad)
        with pytest.raises(ValueError, match="coordinates"):
            compose(wrong, f)
        with pytest.raises(ValueError, match="coordinates"):
            compose(f, wrong)


def test_compose_checks_both_lengths_when_one_side_is_zero():
    """A zero morphism on one side still has its partner's length checked:
    no coordinate of the zero side is nonzero, so no loop reaches the
    other tuple."""
    e = TaggedEdge(5, 0, 2)  # End(e) is 1-dimensional
    zero, unit = Morphism(e, e, (0,)), Morphism(e, e, (1,))
    for bad in ((1, 1, 1), (0, 0), ()):
        wrong = Morphism(e, e, bad)
        with pytest.raises(ValueError, match=f"has {len(bad)} coordinates"):
            compose(zero, wrong)
        with pytest.raises(ValueError, match=f"has {len(bad)} coordinates"):
            compose(wrong, zero)
    assert compose(zero, unit) == zero == compose(unit, zero)


def test_compose_refuses_a_term_beyond_its_output_block(monkeypatch):
    """The output cell check: with the cell of Hom(0-2, 0-4) moved off the
    cell where the composite of the arrows 0-2 -> 0-3 -> 0-4 ends, the
    nonzero composite ends outside its space, which is refused.  f, g and
    their composite lie in three different spaces, so the translated
    start of g, read off f's space, still matches."""
    a, b, c = (TaggedEdge(5, 0, end) for end in (2, 3, 4))
    (f,), (g,) = morphism_space(a, b).basis(), morphism_space(b, c).basis()
    space_out = morphism_space(a, c)
    assert compose(f, g) == space_out.basis()[0]
    cell = space_out.cell
    moved = (cell[0] + 1, cell[1])
    monkeypatch.setattr(space_out, "cell", moved)
    with pytest.raises(MeshClosureError) as info:
        compose(f, g)
    assert str(info.value) == f"composite ends at {cell}, not at the cell {moved} of its space"


def test_compose_refuses_a_path_of_g_translated_off_fs_end(monkeypatch):
    """The translated-start check: with the cell of Hom(0-2, 0-3) moved one
    level up, the basis path of g, translated by that cell's column, starts
    one level below where f's paths are taken to end, which is refused.
    (Moving the column instead would move the translated start with it.)"""
    a, b, c = (TaggedEdge(5, 0, end) for end in (2, 3, 4))
    space_f = morphism_space(a, b)
    (f,), (g,) = space_f.basis(), morphism_space(b, c).basis()
    assert compose(f, g) == morphism_space(a, c).basis()[0]
    cell = space_f.cell
    moved = (cell[0], cell[1] + 1)
    monkeypatch.setattr(space_f, "cell", moved)
    with pytest.raises(MeshClosureError) as info:
        compose(f, g)
    assert str(info.value) == f"translated path of g starts at {cell}, not at f's end {moved}"


def test_compose_coefficients_are_ints():
    edges = enumerate_tagged_edges(5)
    seen = set()
    for a in edges[:10]:
        for b in edges:
            for f in morphism_space(a, b).basis():
                for c in edges:
                    for g in morphism_space(b, c).basis():
                        coords = compose(f, g).coords
                        assert all(type(v) is int for v in coords), (f, g)
                        seen.update(coords)
    assert {-1, 1} <= seen


def test_sweep_refuses_a_pivot_outside_plus_minus_one(monkeypatch):
    """The integrality check: with the projection of (0, 2) onto its one
    in-arrow from the source corrupted from 1 to 2, the mesh relation at
    (1, 1), whose translate is the source, has pivot 2."""
    sweep = HomSweep(4, 1)  # a fresh sweep, so the cached ones stay intact
    space = sweep.space((0, 2))
    assert space.proj == ((1,),)
    monkeypatch.setattr(space, "proj", ((2,),))
    with pytest.raises(MeshClosureError, match=r"vertex \(1, 1\) has pivot 2,"):
        sweep._compute((1, 1))


def test_sweep_refuses_a_strip_beyond_the_column_limit():
    """n = 2000 is the largest n the mesh engine sweeps; the next is an
    input error, refused before any sweep is built or cached."""
    assert mesh._MAX_N == 2000
    with pytest.raises(ValueError) as info:
        _sweep(2001, 1)
    assert str(info.value) == "n=2001 is too large for the mesh engine; n must be at most 2000"
    assert (2001, 1) not in mesh._SWEEPS
