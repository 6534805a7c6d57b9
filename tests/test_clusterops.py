import pytest

from puncgon import crossing, mesh, suites
from puncgon.clusterops import ArTriangle, ar_triangle, ext1_dim, verify_theorem2
from puncgon.crossing import crossing_number
from puncgon.geometry import (
    TaggedEdge,
    edge_at,
    elementary_moves,
    enumerate_tagged_edges,
    grid_column,
    grid_level,
    pos_inv,
    tau,
)
from puncgon.mesh import hom_dim_closed_form, zq_in_arrows
from puncgon.suites import suite_prop22

from oracles import zq_cell


@pytest.mark.parametrize("n", range(3, 7))
def test_ext1_rigidity(n):
    for m in enumerate_tagged_edges(n):
        assert ext1_dim(m, m) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ext1_symmetric_and_bounded(n):
    edges = enumerate_tagged_edges(n)
    for m in edges:
        for other in edges:
            v = ext1_dim(m, other)
            assert v == ext1_dim(other, m)
            assert v <= 2


@pytest.mark.parametrize("n", [3, 4])
def test_ext1_engines_agree(n):
    edges = enumerate_tagged_edges(n)
    for m in edges:
        for other in edges:
            assert ext1_dim(m, other, method="mesh") == ext1_dim(m, other)


def test_ext1_rejects_unknown_method():
    m = TaggedEdge(5, 0, 2)
    with pytest.raises(ValueError):
        ext1_dim(m, m, method="float")
    message = "unknown method 'bogus', expected 'closed' or 'mesh'"
    with pytest.raises(ValueError, match=message):
        ext1_dim(m, m, method="bogus")
    with pytest.raises(ValueError, match=message):
        verify_theorem2(5, method="bogus")


def test_verify_theorem2_small():
    rep = verify_theorem2(3)
    assert rep.pairs_checked == 81 and rep.passed


def test_verify_theorem2_detects_corruption(monkeypatch):
    """The crossing side corrupted (radius pairs at distinct vertices
    flipped), applied pair by pair across each crossing row: both engines
    report exactly the pairs the corrupted rule gets wrong."""

    def corrupted(m, other):
        v = crossing_number(m, other)
        if m.is_central and other.is_central:
            return 1 - v if m.start != other.start else v
        return v

    monkeypatch.setattr(
        crossing, "crossing_row", lambda m, targets: [corrupted(m, o) for o in targets]
    )
    rep = verify_theorem2(4)
    assert not rep.passed
    assert len(rep.failures) > 0
    edges = enumerate_tagged_edges(4)
    expected = []
    for m in edges:
        for other in edges:
            e1, cn = hom_dim_closed_form(m, tau(other)), corrupted(m, other)
            if e1 != cn:
                expected.append((str(m), str(other), e1, cn))
    assert list(rep.failures) == expected
    assert rep.pairs_checked == 4 ** 4
    mesh = verify_theorem2(4, method="mesh")
    assert mesh.failures == rep.failures and mesh.pairs_checked == 4 ** 4


def test_prop22_reports_a_corrupted_closed_form_cell(monkeypatch):
    """One cell of the closed-form kernel lowered: the suite names exactly
    the pairs that read it, with the mesh value and the corrupted one, in
    canonical order."""
    n, mm, i, j = 6, 3, 3, 3  # the double cell of the n = 6 reference grid
    kernel = mesh._closed_form_cell

    def corrupted(n_, mm_, i_, j_):
        value = kernel(n_, mm_, i_, j_)
        return value - 1 if (n_, mm_, i_, j_) == (n, mm, i, j) else value

    monkeypatch.setattr(mesh, "_closed_form_cell", corrupted)
    result = suite_prop22(n)
    assert not result.passed
    # every source at level 3 reads the cell at the target two columns on
    expected = []
    for m in enumerate_tagged_edges(n):
        if grid_level(m) == mm:
            col = grid_column(m) + i - 1
            other = pos_inv(n, ((col - 1) % n + 1, j))
            expected.append([str(m), str(other), 2, 1])
    assert len(expected) == n
    # the reference grid out of position (1, 3) reads the same cell
    expected.append(["grid(3,3)", str(pos_inv(n, (1, 3))), 1, 2])
    assert result.details["failures"] == expected
    assert f"{n ** 4} pairs mesh vs closed form, {n + 1} failures" in result.summary


def test_ar_triangles_suite_catches_a_dropped_summand(monkeypatch):
    """The suite checks the middle against the move sources into M, not
    against the move targets of tau M that ``ar_triangle`` is built from:
    a triangle missing one summand fails, and only that triangle."""
    n, short = 6, TaggedEdge(6, 2, 1)  # tau M spans n: three summands

    def dropped(m):
        tri = ar_triangle(m)
        return ArTriangle(tri.left, tri.middle[1:], tri.right) if m == short else tri

    monkeypatch.setattr(suites, "ar_triangle", dropped)
    result = suites.suite_ar_triangles(n)
    assert not result.passed
    assert result.summary == f"{n * n} triangles checked, 1 failures"
    assert result.details == {
        "failures": [[str(short), "middle is not the set of move sources into M"]]
    }


def test_ar_triangle_case_shapes():
    # tau M plain with span 3: single middle summand
    m = TaggedEdge(8, 1, 3)  # tau m = 0-2
    tri = ar_triangle(m)
    assert tri.left == TaggedEdge(8, 0, 2)
    assert tri.middle == (TaggedEdge(8, 0, 3),)
    # middle spans: two plain summands
    m = TaggedEdge(8, 1, 5)
    tri = ar_triangle(m)
    assert set(tri.middle) == {TaggedEdge(8, 1, 4), TaggedEdge(8, 0, 5)}
    # tau M of span n: both tagged radii appear
    m = TaggedEdge(8, 2, 1)  # tau m = 1-0, span 8
    tri = ar_triangle(m)
    assert set(tri.middle) == {
        TaggedEdge(8, 2, 0),
        TaggedEdge.central(8, 1, 1),
        TaggedEdge.central(8, 1, -1),
    }
    # central M: single plain middle
    m = TaggedEdge.central(8, 3, 1)
    tri = ar_triangle(m)
    assert tri.left == TaggedEdge.central(8, 2, -1)
    assert tri.middle == (TaggedEdge(8, 3, 2),)


@pytest.mark.parametrize("n", range(3, 7))
def test_ar_triangle_structure(n):
    for m in enumerate_tagged_edges(n):
        tri = ar_triangle(m)
        assert tri.left == tau(m)
        assert 1 <= len(tri.middle) <= 3
        assert set(tri.middle) == set(elementary_moves(tri.left))
        for s in tri.middle:
            assert m in elementary_moves(s)
            # irreducible morphism witnesses on both sides of the mesh
            assert hom_dim_closed_form(tri.left, s) >= 1
            assert hom_dim_closed_form(s, m) >= 1
        # middle summands match the in-arrows of m in the repetition quiver
        preds = [edge_at(n, y) for y in zq_in_arrows(n, zq_cell(m, 1))]
        assert sorted(map(str, preds)) == sorted(str(s) for s in tri.middle)
