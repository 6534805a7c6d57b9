"""Acceptance suite: every criterion is exact (zero tolerance) and decided
by exhaustive enumeration at the stated sizes.  Each test prints one
PASS line on success; a failed assertion is the FAIL signal.
"""

from collections import Counter
from math import comb

from puncgon.clusterops import ar_triangle, ext1_dim, verify_theorem2
from puncgon.crossing import crossing_number
from puncgon.geometry import (
    TaggedEdge,
    edge_at,
    elementary_moves,
    enumerate_tagged_edges,
    pos_inv,
    tau,
    tau_power,
)
from puncgon.mesh import (
    hom_dim_closed_form,
    hom_dim_cluster,
    zq_in_arrows,
)
from puncgon.tilted import ar_quiver_of_tilted, vanishing_paths_report
from puncgon.triangulation import (
    Triangulation,
    exchange_sides,
    flip,
    maximal_noncrossing_sets,
    quiver_of_triangulation,
)

from oracles import zq_cell

N6_GRID = {
    1: (0, 0, 1, 0, 1, 0),
    2: (0, 1, 1, 1, 1, 0),
    3: (1, 1, 2, 1, 1, 0),
    4: (1, 2, 2, 1, 0, 0),
    5: (1, 1, 1, 0, 0, 0),
    6: (1, 1, 1, 0, 0, 0),
}


def test_criterion_1_extension_dims_equal_crossing_numbers():
    for n in range(3, 9):
        report = verify_theorem2(n, method="closed")
        assert report.passed, report.failures[:5]
        assert report.pairs_checked == n ** 4
    for n in range(3, 7):
        report = verify_theorem2(n, method="mesh")
        assert report.passed, report.failures[:5]
    print("ACCEPTANCE 1 ext1 == crossing number (closed n=3..8, mesh n=3..6): PASS")


def test_criterion_2_mesh_agrees_with_closed_form():
    for n in range(3, 7):
        for m in enumerate_tagged_edges(n):
            for other in enumerate_tagged_edges(n):
                assert hom_dim_cluster(m, other) == hom_dim_closed_form(m, other)
    src = pos_inv(6, (1, 3))
    for level, row in N6_GRID.items():
        for col, want in enumerate(row, start=1):
            assert hom_dim_closed_form(src, pos_inv(6, (col, level))) == want
    print("ACCEPTANCE 2 mesh Hom == closed form (n=3..6) + reference grid: PASS")


def test_criterion_3_maximal_sets_have_size_n():
    for n in range(3, 7):
        sizes = {s.bit_count() for s in maximal_noncrossing_sets(n)}
        assert sizes == {n}
    count4 = len(maximal_noncrossing_sets(4))
    assert count4 == 50
    assert count4 == (3 * 4 - 2) * comb(6, 3) // 4
    print("ACCEPTANCE 3 maximal non-crossing sets have size n; n=4 count 50: PASS")


def test_criterion_4_translation_and_duality_laws():
    for n in (4, 6, 8, 10):
        for m in enumerate_tagged_edges(n):
            assert tau_power(m, n) == m
    for n in (3, 5, 7, 9):
        for m in enumerate_tagged_edges(n):
            once = tau_power(m, n)
            if m.is_central:
                assert once == TaggedEdge.central(n, m.start, -m.tag)
            else:
                assert once == m
            assert tau_power(m, 2 * n) == m
    for n in range(3, 9):
        edges = enumerate_tagged_edges(n)
        moves = {m: set(elementary_moves(m)) for m in edges}
        for m in edges:
            for other in edges:
                assert (other in moves[m]) == (m in moves[tau(other)])
    print("ACCEPTANCE 4 translation periods and move duality: PASS")


def test_criterion_5_ar_triangles_match_mesh_predecessors():
    for n in range(3, 9):
        for m in enumerate_tagged_edges(n):
            tri = ar_triangle(m)
            assert tri.left == tau(m)
            assert 1 <= len(tri.middle) <= 3
            mesh_middle = [edge_at(n, y) for y in zq_in_arrows(n, zq_cell(m, 1))]
            assert sorted(map(str, mesh_middle)) == sorted(map(str, tri.middle))
            # case shapes (at n = 3 the span-n case keeps only the radii)
            left = tri.left
            if left.is_central:
                assert len(tri.middle) == 1 and not tri.middle[0].is_central
            elif left.span == n:
                tags = sorted(e.tag for e in tri.middle if e.is_central)
                assert tags == [-1, 1]
                assert len(tri.middle) == (3 if n >= 4 else 2)
            elif left.span == 3:
                assert len(tri.middle) == 1
            else:
                assert len(tri.middle) == 2
    print("ACCEPTANCE 5 AR triangle middles == mesh predecessors (n=3..8): PASS")


def test_criterion_6_worked_example_end_to_end():
    t1, t2 = TaggedEdge(4, 3, 1), TaggedEdge.central(4, 3, 1)
    t3, t4 = TaggedEdge(4, 1, 3), TaggedEdge.central(4, 1, 1)
    t = Triangulation.of([t1, t2, t3, t4])
    q = quiver_of_triangulation(t)
    arrows = {(q.vertices[a], q.vertices[b]) for a, b, k in q.arrows}
    assert arrows == {(t1, t2), (t2, t3), (t3, t4), (t4, t1)}
    report = vanishing_paths_report(t, 3)
    len2 = [e for e in report.entries if len(e.arrows) == 2]
    len3 = [e for e in report.entries if len(e.arrows) == 3]
    assert len(len2) == 4 and all(not e.is_zero for e in len2)
    assert len(len3) == 4 and all(e.is_zero for e in len3)
    tilted = ar_quiver_of_tilted(t)
    assert len(tilted.vertices) == 12
    label = {t1: 1, t2: 2, t3: 3, t4: 4}
    supports = Counter(
        frozenset(label[e] for e in dv.support) for dv in tilted.dimvecs
    )
    expected = Counter(
        [
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}),
            frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}),
            frozenset({1, 4}), frozenset({1, 2, 4}), frozenset({1, 2, 3}),
            frozenset({2, 3, 4}), frozenset({1, 3, 4}),
        ]
    )
    assert supports == expected
    print("ACCEPTANCE 6 worked n=4 example (quiver, relations, modules): PASS")


def test_criterion_7_exchange_combinatorics():
    from puncgon.triangulation import enumerate_triangulations

    for n in (3, 4, 5):
        for t in enumerate_triangulations(n):
            for m in t.edges:
                t2, inserted = flip(t, m)
                assert inserted != m and inserted not in t.edges
                assert crossing_number(m, inserted) == 1
                t3, back = flip(t2, inserted)
                assert back == m and t3.edges == t.edges
                data = exchange_sides(t, m)
                for factors, tgt, other in (
                    (data.side_factors, m, inserted),
                    (data.coside_factors, inserted, m),
                ):
                    # 1..3 factors; the all-boundary side (empty product)
                    # occurs exactly when the target is the translate of
                    # the other diagonal
                    if tgt == tau(other):
                        assert factors == ()
                    else:
                        assert 1 <= len(factors) <= 3
                    for f in factors:
                        assert f in t.edges and f != m
    # figure configurations
    t_left = Triangulation.of(
        [
            TaggedEdge(8, 0, 4), TaggedEdge.central(8, 0, 1),
            TaggedEdge.central(8, 0, -1), TaggedEdge(8, 0, 2),
            TaggedEdge(8, 2, 4), TaggedEdge(8, 4, 6), TaggedEdge(8, 6, 0),
            TaggedEdge(8, 0, 6),
        ]
    )
    data = exchange_sides(t_left, TaggedEdge(8, 0, 4))
    assert data.inserted == TaggedEdge(8, 2, 6)
    assert {
        frozenset(map(str, data.side_factors)),
        frozenset(map(str, data.coside_factors)),
    } == {frozenset({"0-2", "4-6"}), frozenset({"0-6", "2-4"})}
    t_right = Triangulation.of(
        [
            TaggedEdge(8, 6, 5), TaggedEdge.central(8, 5, 1),
            TaggedEdge.central(8, 5, -1), TaggedEdge(8, 6, 1),
            TaggedEdge(8, 1, 5), TaggedEdge(8, 1, 3), TaggedEdge(8, 1, 4),
            TaggedEdge(8, 6, 0),
        ]
    )
    data = exchange_sides(t_right, TaggedEdge(8, 6, 5))
    assert data.inserted == TaggedEdge(8, 5, 1)
    assert {
        frozenset(map(str, data.side_factors)),
        frozenset(map(str, data.coside_factors)),
    } == {frozenset({"6-1", "5|+", "5|-"}), frozenset({"1-5"})}
    print("ACCEPTANCE 7 exchange combinatorics (n=3..5) + figure sides: PASS")


def test_criterion_8_symmetry():
    for n in range(3, 9):
        edges = enumerate_tagged_edges(n)
        for i, m in enumerate(edges):
            for other in edges[i:]:
                assert crossing_number(m, other) == crossing_number(other, m)
                assert ext1_dim(m, other) == ext1_dim(other, m)
    print("ACCEPTANCE 8 crossing and ext1 symmetry (n=3..8): PASS")
