import random
from collections import Counter

import pytest

from puncgon.crossing import crossing_number
from puncgon.geometry import TaggedEdge, elementary_moves, enumerate_tagged_edges, pos, tau
from puncgon import tilted
from puncgon.render import dimvec_table_text
from puncgon.tilted import (
    ar_quiver_of_category,
    ar_quiver_of_tilted,
    dimension_vector,
    loewy_string,
    vanishing_paths_report,
)
from puncgon.triangulation import (
    ExchangeError,
    Triangulation,
    enumerate_triangulations,
    fan_triangulation,
    flip,
    quiver_of_triangulation,
)

from oracles import knitted_module_dimvecs


def paper_example_triangulation():
    """n=4: both arcs between vertices 1 and 3 plus a plain-tagged radius
    at each; the cluster-tilted algebra is the 4-cycle with all length-3
    paths zero."""
    return Triangulation.of(
        [
            TaggedEdge(4, 3, 1),
            TaggedEdge.central(4, 3, 1),
            TaggedEdge(4, 1, 3),
            TaggedEdge.central(4, 1, 1),
        ]
    )


T1 = TaggedEdge(4, 3, 1)
T2 = TaggedEdge.central(4, 3, 1)
T3 = TaggedEdge(4, 1, 3)
T4 = TaggedEdge.central(4, 1, 1)


def test_dimension_vector_zero_iff_member():
    t = paper_example_triangulation()
    for m in enumerate_tagged_edges(4):
        dv = dimension_vector(m, t)
        assert dv.is_zero() == (m in t.edges)
        assert all(0 <= c <= 2 for c in dv.coords)


@pytest.mark.parametrize("n", [4, 5])
def test_simple_modules_exist(n):
    t = fan_triangulation(n, 0)
    seen = set()
    for m in enumerate_tagged_edges(n):
        dv = dimension_vector(m, t)
        if sum(dv.coords) == 1:
            seen.add(dv.coords.index(1))
    assert seen == set(range(n))


def test_worked_example_quiver_is_four_cycle():
    t = paper_example_triangulation()
    q = quiver_of_triangulation(t)
    arrows = {(q.vertices[a], q.vertices[b]) for a, b, k in q.arrows}
    assert len(q.arrows) == 4 and all(k == 1 for _, _, k in q.arrows)
    assert arrows == {(T1, T2), (T2, T3), (T3, T4), (T4, T1)}


def test_worked_example_relations():
    t = paper_example_triangulation()
    report = vanishing_paths_report(t, 3)
    len2 = [e for e in report.entries if len(e.arrows) == 2]
    len3 = [e for e in report.entries if len(e.arrows) == 3]
    assert len(len2) == 4 and all(not e.is_zero for e in len2)
    assert len(len3) == 4 and all(e.is_zero for e in len3)


def test_worked_example_modules():
    t = paper_example_triangulation()
    quiver = ar_quiver_of_tilted(t)
    assert len(quiver.vertices) == 12
    by_label = lambda dv: frozenset(
        {T1: 1, T2: 2, T3: 3, T4: 4}[e] for e in dv.support
    )
    supports = Counter(by_label(dv) for dv in quiver.dimvecs)
    expected = Counter(
        [
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}),
            frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, 1}),
            frozenset({4, 1, 2}), frozenset({1, 2, 3}), frozenset({2, 3, 4}),
            frozenset({3, 4, 1}),
        ]
    )
    assert supports == expected
    # the module with radical series 4/1/2 is the minus radius at vertex 0
    dv = quiver.dimvec(TaggedEdge.central(4, 0, -1))
    assert dv[T4] == dv[T1] == dv[T2] == 1 and dv[T3] == 0


def test_worked_example_loewy_rendering():
    t = paper_example_triangulation()
    gabriel = quiver_of_triangulation(t)
    quiver = ar_quiver_of_tilted(t)
    dv = quiver.dimvec(TaggedEdge.central(4, 0, -1))
    idx = {e: i + 1 for i, e in enumerate(gabriel.vertices)}
    rendered = loewy_string(dv, gabriel)
    # support ordered along the arrow flow T4 -> T1 -> T2
    assert rendered == "/".join(str(idx[e]) for e in (T4, T1, T2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_category_quiver_shape(n):
    q = ar_quiver_of_category(n)
    assert len(q.vertices) == n * n
    out_deg = Counter(a for a, _ in q.arrows)
    for v in q.vertices:
        p = pos(v)
        if v.is_central:
            assert out_deg[v] == 1
        elif p.level == n - 2:
            assert out_deg[v] == (3 if n >= 4 else 2)
        elif p.level == 1:
            assert out_deg[v] == 1
        else:
            assert out_deg[v] == 2
    # stable translation law on the cyclic quotient
    arrows = set(q.arrows)
    tau_of = dict(q.tau_pairs)
    for a, b in arrows:
        assert (tau_of[b], a) in arrows


@pytest.mark.parametrize("n", [4, 5, 6])
def test_category_quiver_tau_orbits(n):
    q = ar_quiver_of_category(n)
    tau_of = dict(q.tau_pairs)
    seen = set()
    for v in q.vertices:
        if v in seen:
            continue
        orbit = [v]
        cur = tau_of[v]
        while cur != v:
            orbit.append(cur)
            cur = tau_of[cur]
        seen.update(orbit)
        if n % 2 == 0 or not v.is_central:
            assert len(orbit) == n
        else:
            assert len(orbit) == 2 * n


@pytest.mark.parametrize("n", [4, 5])
def test_tilted_quiver_counts(n):
    for t in enumerate_triangulations(n)[:12]:
        quiver = ar_quiver_of_tilted(t)
        assert len(quiver.vertices) == n * n - n
        for a, b in quiver.arrows:
            assert a not in t.edges and b not in t.edges


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transposed_twice_is_the_quiver(n):
    for q in (ar_quiver_of_category(n), ar_quiver_of_tilted(fan_triangulation(n))):
        once = q.transposed()
        assert once.arrows == tuple((b, a) for a, b in q.arrows)
        assert once.tau_pairs == q.tau_pairs and once.vertices == q.vertices
        assert once.transposed() == q


def test_dimvec_refuses_a_quiver_without_t_and_a_member_of_t():
    # the dimension-vector table refuses a quiver without T the same way
    t = paper_example_triangulation()
    category = ar_quiver_of_category(4)
    for read in (lambda: category.dimvec(TaggedEdge(4, 0, 2)),
                 lambda: dimvec_table_text(category, quiver_of_triangulation(t))):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "the AR quiver of the category has no T, so no dimension vectors"
    with pytest.raises(ValueError) as info:
        ar_quiver_of_tilted(t).dimvec(T1)
    assert str(info.value) == f"{T1} is not a vertex: the vertices are the edges not in T"


def test_dimension_vector_names_an_edge_that_is_not_a_label():
    t = paper_example_triangulation()
    dv = dimension_vector(TaggedEdge(4, 0, 2), t)
    assert [dv[e] for e in t.edges] == list(dv.coords)
    m = next(e for e in enumerate_tagged_edges(4) if e not in t)
    with pytest.raises(ValueError) as info:
        dv[m]
    assert str(info.value) == f"{m} is not a label: the labels are the edges of T"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fan_tilted_matches_classical_knitting(n):
    fan = fan_triangulation(n, 0)
    tilted = ar_quiver_of_tilted(fan)
    order = sorted(range(n), key=lambda i: pos(fan.edges[i]).level)
    geo = Counter(tuple(dv.coords[i] for i in order) for dv in tilted.dimvecs)
    assert geo == Counter(knitted_module_dimvecs(n))


@pytest.mark.parametrize("n", [4, 5])
def test_mesh_additivity_inequality_in_tilted_quiver(n):
    for t in enumerate_triangulations(n)[:8]:
        quiver = ar_quiver_of_tilted(t)
        survivors = set(quiver.vertices)
        for m in quiver.vertices:
            left = tau(m)
            from puncgon.geometry import elementary_moves

            middles = elementary_moves(left)
            if left not in survivors or any(s not in survivors for s in middles):
                continue
            lhs = [
                a + b
                for a, b in zip(quiver.dimvec(left).coords, quiver.dimvec(m).coords)
            ]
            rhs = [0] * n
            for s in middles:
                rhs = [a + b for a, b in zip(rhs, quiver.dimvec(s).coords)]
            assert all(r >= l for l, r in zip(lhs, rhs)), (t, m)


@pytest.mark.parametrize("n", range(3, 11))
def test_crossing_numbers_satisfy_the_mesh_law(n):
    """Dimension vectors are additive on meshes up to the two ends:
    e(tau M, X) + e(M, X) - sum over arrows E -> M of e(E, X) equals
    [X = M] + [X = tau M], for every pair M, X."""
    edges = enumerate_tagged_edges(n)
    into = {m: [] for m in edges}
    for e in edges:
        for m in elementary_moves(e):
            into[m].append(e)
    for m in edges:
        tm = tau(m)
        for x in edges:
            defect = crossing_number(tm, x) + crossing_number(m, x)
            defect -= sum(crossing_number(e, x) for e in into[m])
            assert defect == (x == m) + (x == tm), (str(m), str(x), defect)


@pytest.mark.parametrize("n", range(4, 17))
def test_tilted_dimension_vectors_add_on_meshes(n):
    """On every mesh of the tilted AR quiver whose ends M and tau M both
    survive, dim(tau M) + dim(M) is the sum over the arrows E -> M; a
    middle term in T has dimension vector zero and is deleted."""
    rng = random.Random(f"meshes:{n}")
    t = fan_triangulation(n, rng.randrange(n))
    for _ in range(3 * n):
        t = flip(t, rng.choice(t.edges))[0]
    quiver = ar_quiver_of_tilted(t)
    into = {m: [] for m in quiver.vertices}
    for e, m in quiver.arrows:
        into[m].append(e)
    meshes = 0
    for m, tm in quiver.tau_pairs:
        total = [0] * n
        for e in into[m]:
            total = [a + b for a, b in zip(total, quiver.dimvec(e).coords)]
        ends = [a + b for a, b in zip(quiver.dimvec(tm).coords, quiver.dimvec(m).coords)]
        assert ends == total, (str(t), str(m))
        meshes += 1
    assert meshes == n * n - 2 * n


def test_fan_has_no_relations():
    for n in (4, 5, 6):
        report = vanishing_paths_report(fan_triangulation(n, 0), n)
        assert not report.zero_paths()


def test_vanishing_report_rejects_short_maxlen():
    with pytest.raises(ValueError):
        vanishing_paths_report(paper_example_triangulation(), 1)


def test_vanishing_report_refuses_an_arrow_with_a_larger_hom_space(monkeypatch):
    """An arrow whose Hom space is bigger than its count would need a
    complement of the composites for its representative; with dim Hom(3-1,
    3|+) forced to 2, the report raises and names the pair."""
    real = tilted.morphism_space

    class Wider:
        total_dim = 2

    def widened(a, b):
        return Wider() if (str(a), str(b)) == ("3-1", "3|+") else real(a, b)

    monkeypatch.setattr(tilted, "morphism_space", widened)
    with pytest.raises(ExchangeError) as info:
        vanishing_paths_report(paper_example_triangulation(), 3)
    assert str(info.value) == "arrows 3-1 -> 3|+: 1, but dim Hom is 2"
