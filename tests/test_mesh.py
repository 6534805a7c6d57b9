import random

import pytest

from puncgon.geometry import (
    TaggedEdge,
    elementary_moves,
    enumerate_tagged_edges,
    pos_inv,
    tau,
)
from puncgon.mesh import (
    HomSweep,
    MeshClosureError,
    build_window,
    cluster_shifts,
    compose,
    hom_dim_closed_form,
    hom_dim_cluster,
    hom_dim_mesh,
    identity_morphism,
    mesh_vertex_at,
    morphism_space,
    move_morphism,
    zero_morphism,
    zq_tau,
    _relative_column,
    _sweep,
)

from oracles import hom_dim_mesh_by_rank, hom_dims_by_knitting, int_rank

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
# windows


@pytest.mark.parametrize("n", [3, 5, 6])
def test_window_vertex_and_column_counts(n):
    w = build_window(n, 0, 2 * n)
    assert len(w.vertices()) == (2 * n + 1) * n


def test_window_rejects_empty_range():
    with pytest.raises(ValueError):
        build_window(5, 3, 2)
    with pytest.raises(ValueError):
        build_window(2, 0, 5)


def test_fan_slice_is_linear_type_d_quiver():
    w = build_window(6, 1, 1)
    arrows = [(str(a.edge), str(b.edge)) for a, b in w.arrows()]
    assert set(arrows) == {
        ("0-2", "0-3"),
        ("0-3", "0-4"),
        ("0-4", "0-5"),
        ("0-5", "0|+"),
        ("0-5", "0|-"),
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_window_is_stable_translation_quiver(n):
    w = build_window(n, 0, 2 * n)
    arrows = {(a.zq, b.zq) for a, b in w.arrows()}
    assert len(arrows) == len(w.arrows())  # no multiple arrows
    assert all(a != b for a, b in arrows)  # no loops
    for x in w.vertices():
        mesh = w.mesh(x)
        if mesh is None:
            continue
        t, middles = mesh
        for y in middles:
            assert ((y.zq, x.zq) in arrows) == ((t.zq, y.zq) in arrows)


def test_window_tau_matches_edge_translation():
    w = build_window(5, 0, 10)
    for x in w.vertices():
        img = w.tau(x)
        if img is not None:
            assert img.edge == tau(x.edge)


def test_mesh_vertex_roundtrip():
    for n in (4, 5):
        for c in range(-3, 3 * n):
            for j in range(1, n + 1):
                v = mesh_vertex_at(n, (c, j))
                assert v.zq == (c, j)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize("n", range(3, 7))
def test_identity_and_translation_rigidity(n):
    for m in enumerate_tagged_edges(n):
        assert hom_dim_mesh(m, m, 0) == 1
        assert hom_dim_cluster(m, m) >= 1
        assert hom_dim_cluster(m, tau(m)) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cluster_dims_bounded_by_two(n):
    for m in enumerate_tagged_edges(n):
        for other in enumerate_tagged_edges(n):
            assert hom_dim_cluster(m, other) in (0, 1, 2)


def test_literal_rank_oracle_exhaustive_n3():
    edges = enumerate_tagged_edges(3)
    for m in edges:
        for other in edges:
            for k in cluster_shifts(m, other):
                assert hom_dim_mesh(m, other, k) == hom_dim_mesh_by_rank(m, other, k)


def test_literal_rank_oracle_n4_narrow():
    edges = enumerate_tagged_edges(4)
    for m in edges:
        for other in edges:
            for k in cluster_shifts(m, other):
                if _relative_column(m, other, k) <= 4:
                    assert hom_dim_mesh(m, other, k) == hom_dim_mesh_by_rank(
                        m, other, k
                    )


def test_literal_rank_oracle_samples_wide():
    # a few expensive wide-strip cases, one per polygon size
    cases = [
        (TaggedEdge(4, 0, 2), TaggedEdge.central(4, 2, 1), 1),
        (TaggedEdge(4, 1, 3), TaggedEdge(4, 2, 0), 1),
        (TaggedEdge(5, 0, 2), TaggedEdge(5, 1, 3), 1),
        (TaggedEdge.central(5, 0, 1), TaggedEdge.central(5, 2, -1), 1),
    ]
    for m, other, k in cases:
        assert hom_dim_mesh(m, other, k) == hom_dim_mesh_by_rank(m, other, k)


@pytest.mark.parametrize(
    "n, source, target, dim",
    [(5, "0-2", "3-0", 1), (5, "0-4", "2-0", 2), (6, "0-2", "4-0", 1), (6, "0-5", "3-0", 2)],
)
def test_literal_rank_oracle_nonzero(n, source, target, dim):
    m, other = TaggedEdge.parse(n, source), TaggedEdge.parse(n, target)
    assert hom_dim_mesh_by_rank(m, other, 0) == dim
    assert hom_dim_mesh(m, other, 0) == dim


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


@pytest.mark.parametrize("n", range(3, 7))
def test_mesh_dims_vanish_outside_strip(n):
    for m in enumerate_tagged_edges(n)[:4]:
        for other in enumerate_tagged_edges(n)[:6]:
            ks = cluster_shifts(m, other)
            assert hom_dim_mesh(m, other, min(ks) - 1) == 0


@pytest.mark.parametrize("n", range(3, 7))
def test_knitting_consistency(n):
    for j in range(1, n + 1):
        knit = hom_dims_by_knitting(n, j, 2 * n + 1)
        sweep = _sweep(n, j)
        sweep.ensure(2 * n + 1)
        for c in range(0, 2 * n + 2):
            for lv in range(1, n + 1):
                assert knit[(c, lv)] == sweep.dim((c, lv)), (n, j, c, lv)


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
    compose start after f's representative without walking it."""
    last = 2 * n + 1
    for level in range(1, n + 1):
        knit = hom_dims_by_knitting(n, level, last)
        sweep = HomSweep(n, level)
        sweep.ensure(last)
        for c in range(last + 1):
            for j in range(1, n + 1):
                x = (c, j)
                sp = sweep.space(x)
                assert sp.dim == knit[x], (n, level, x)
                assert list(sp.paths) == sorted(set(sp.paths)), (n, level, x)
                for i, path in enumerate(sp.paths):
                    unit = [int(r == i) for r in range(sp.dim)]
                    assert sweep.reduce_path(path) == (x, unit), (n, level, path)
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


# ---------------------------------------------------------------------------
# morphism spaces and composition


def test_morphism_space_grading_matches_dims():
    for m in enumerate_tagged_edges(5)[:8]:
        for other in enumerate_tagged_edges(5)[:8]:
            sp = morphism_space(m, other)
            assert sp.total_dim == hom_dim_cluster(m, other)
            for k, basis in sp.components.items():
                assert len(basis) == hom_dim_mesh(m, other, k)
                for p in basis:
                    assert p.vertices[0].edge == m and p.vertices[-1].edge == other
                    # consecutive representative vertices form arrows
                    for a, b in p.arrows:
                        assert b.edge in elementary_moves(a.edge)


def test_identity_composition_laws():
    f = move_morphism(TaggedEdge(5, 0, 2), TaggedEdge(5, 0, 3))
    assert compose(identity_morphism(TaggedEdge(5, 0, 2)), f) == f
    assert compose(f, identity_morphism(TaggedEdge(5, 0, 3))) == f


@pytest.mark.parametrize("n", [4, 5])
def test_full_mesh_compositions_vanish(n):
    for x in enumerate_tagged_edges(n):
        tx = tau(x)
        total = zero_morphism(tx, x)
        for y in elementary_moves(tx):
            assert x in elementary_moves(y)
            total = total.plus(compose(move_morphism(tx, y), move_morphism(y, x)))
        assert total.is_zero(), (x, str(total))


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


def test_compose_rejects_mismatched_objects():
    f = identity_morphism(TaggedEdge(5, 0, 2))
    g = identity_morphism(TaggedEdge(5, 0, 3))
    with pytest.raises(ValueError):
        compose(f, g)


def test_sweep_guard_raises_instead_of_diverging():
    sweep = _sweep(3, 1)
    with pytest.raises(MeshClosureError):
        sweep.ensure(10_000)
