import itertools
import random
import sys
from collections import Counter
from math import comb

import pytest

from puncgon.crossing import _compat_mask, crossing_number, crossing_table
from puncgon.geometry import TaggedEdge, edge_index, enumerate_tagged_edges, tau
from puncgon import suites, triangulation
from puncgon.linalg import FractionElim, IntElim
from puncgon.suites import suite_lemma3
from puncgon.tilted import ar_quiver_of_category
from puncgon.mesh import Morphism, compose, morphism_space
from puncgon.triangulation import (
    ExchangeData,
    ExchangeError,
    Triangulation,
    _indices,
    enumerate_triangulations,
    exchange_sides,
    fan_triangulation,
    flip,
    maximal_noncrossing_sets,
    quiver_of_triangulation,
)

import oracles
from oracles import (
    _arrows,
    admits_surjections,
    brute_force_maximal_cliques,
    int_rank,
    lowest_first_maximal_sets,
    minimal_approximation,
    mutation_mismatches,
    oracle_quiver,
)


def type_d_cluster_count(n: int) -> int:
    return (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def test_fan_shape():
    t = fan_triangulation(8, 0)
    assert {str(e) for e in t.edges} == {
        "0-2", "0-3", "0-4", "0-5", "0-6", "0-7", "0|+", "0|-",
    }
    assert len(t.edges) == 8
    assert Triangulation.of(t.edges).edges == t.edges


def test_all_radii_triangulation():
    for tag in (1, -1):
        edges = [TaggedEdge.central(5, a, tag) for a in range(5)]
        assert set(Triangulation.of(edges).edges) == set(edges)


def test_single_edge_not_maximal():
    with pytest.raises(ValueError) as info:
        Triangulation.of([TaggedEdge(5, 0, 2)])
    assert str(info.value) == "set is not maximal: 0-3 is compatible with every member"


def _assert_rejected_in_any_order(n, edges, message, seed):
    """The same message for the given order and five seeded shuffles."""
    listed = [TaggedEdge.parse(n, e) for e in edges.split(",")]
    rng = random.Random(seed)
    for _ in range(6):
        with pytest.raises(ValueError) as info:
            Triangulation(n, tuple(listed))
        assert str(info.value) == message, listed
        rng.shuffle(listed)


def test_crossing_set_rejected():
    # the message names the first crossing pair in canonical edge order
    for seed, (n, edges, message) in enumerate([
        (5, "0-2,1-3", "edges 0-2 and 1-3 cross (e=1)"),
        (6, "0-3,1-4,2-5,0-2", "edges 0-2 and 1-4 cross (e=1)"),
        (5, "0|+,1|-,2|-", "edges 0|+ and 1|- cross (e=1)"),
    ]):
        _assert_rejected_in_any_order(n, edges, message, seed)


def test_not_maximal_set_rejected_in_any_order():
    for seed, (n, edges, message) in enumerate([
        (6, "0-2,0-4,0|+", "set is not maximal: 0-3 is compatible with every member"),
        (5, "1|-,3|-,1-3", "set is not maximal: 3-0 is compatible with every member"),
    ]):
        _assert_rejected_in_any_order(n, edges, message, seed)


def test_duplicate_edge_rejected():
    fan = fan_triangulation(5, 0)
    with pytest.raises(ValueError, match="edge 0-2 is listed more than once"):
        Triangulation(5, fan.edges + (TaggedEdge(5, 0, 2),))
    # an iterator is read once, also on the way to the error
    with pytest.raises(ValueError, match="edge 0-2 is listed more than once"):
        Triangulation(5, iter(fan.edges + (TaggedEdge(5, 0, 2),)))


@pytest.mark.parametrize("n", [5.0, 5.5, "5", None, True, False])
def test_polygon_size_that_is_not_an_int_rejected(n):
    """One ValueError names an n that is not an int, or is a bool, from
    every call that takes a polygon size, also when the caches of n = 5
    are warm (5.0 == 5 and True == 1 would find them)."""
    fan = fan_triangulation(5, 0)
    calls = [
        lambda k: Triangulation(k, fan.edges),
        enumerate_tagged_edges,
        maximal_noncrossing_sets,
        lambda k: list(crossing_table(k)),
        ar_quiver_of_category,
        enumerate_triangulations,
    ]
    for call in calls:
        call(5)
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == f"polygon size must be an integer, got n={n!r}"


@pytest.mark.parametrize("n", [2, 1, 0, -1])
def test_polygon_size_below_three_rejected(n):
    """Below n = 3 there are no edges, so the size itself is refused, ahead
    of any listed member."""
    calls = [
        lambda k: Triangulation(k, ()),
        lambda k: Triangulation(k, (TaggedEdge(5, 0, 2),)),
        maximal_noncrossing_sets,
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == f"polygon size must be >= 3, got n={n}"


def test_foreign_edge_rejected():
    fan = fan_triangulation(6, 0)
    assert TaggedEdge(6, 0, 2) in fan and TaggedEdge(5, 0, 2) not in fan
    with pytest.raises(ValueError) as info:
        Triangulation(6, fan.edges[:-1] + (TaggedEdge(5, 1, 3),))
    assert str(info.value) == "edge 1-3 belongs to n=5, not n=6"
    # a foreign edge is reported before a crossing pair
    with pytest.raises(ValueError) as info:
        Triangulation(5, (TaggedEdge(5, 1, 3), TaggedEdge(5, 0, 2), TaggedEdge(6, 3, 5)))
    assert str(info.value) == "edge 3-5 belongs to n=6, not n=5"


def test_member_that_is_not_an_edge_rejected():
    """A string, None, an unhashable list, or a TaggedEdge that is not the
    interned edge of its fields (as after the edge table is rebuilt, or
    with no fields at all) is named by its position, ahead of a duplicate
    and of an edge of another polygon.  An edge argument that is not
    iterable gets its own error."""
    real, other = TaggedEdge(5, 0, 2), TaggedEdge(5, 1, 3)
    stale = object.__new__(TaggedEdge)
    for name in TaggedEdge.__slots__:
        object.__setattr__(stale, name, getattr(real, name))
    assert stale is not real and str(stale) == str(real)
    missing = "a TaggedEdge not in the edge table"
    for member, what in [
        ("0-2", "'0-2'"),
        (None, "None"),
        (["0-3"], "['0-3']"),
        (stale, missing),
        (object.__new__(TaggedEdge), missing),
    ]:
        for edges in [(real, other, member), (real, real, member, TaggedEdge(6, 0, 2))]:
            with pytest.raises(ValueError) as info:
                Triangulation(5, edges)
            assert str(info.value) == f"member 2 is not an edge of the 5-gon: {what}"
    for edges in [5, None]:
        with pytest.raises(ValueError) as info:
            Triangulation(5, edges)
        assert str(info.value) == f"edges must be an iterable of edges, got {edges}"


def test_of_refuses_a_non_iterable_and_a_first_member_that_is_not_an_edge():
    """Triangulation.of reads the polygon off member 0, so it refuses a
    non-iterable, or a member 0 that is not an edge, itself, in the
    constructor's words; the constructor names any later member."""
    for edges, message in [
        (5, "edges must be an iterable of edges, got 5"),
        (["0-2"], "member 0 is not an edge: '0-2'"),
        ([None, TaggedEdge(5, 0, 2)], "member 0 is not an edge: None"),
        ([object.__new__(TaggedEdge)], "member 0 is not an edge: a TaggedEdge not in the edge table"),
        ([TaggedEdge(5, 0, 2), "0-3"], "member 1 is not an edge of the 5-gon: '0-3'"),
        ([], "empty edge set"),
    ]:
        with pytest.raises(ValueError) as info:
            Triangulation.of(edges)
        assert str(info.value) == message


def test_duplicate_reported_before_crossing_and_foreign_edges():
    e02, e13 = TaggedEdge(5, 0, 2), TaggedEdge(5, 1, 3)
    for edges in [(e02, e13, e02), (e13, e02, e13), (TaggedEdge(6, 0, 2), e13, e13)]:
        with pytest.raises(ValueError) as info:
            Triangulation(5, edges)
        assert str(info.value) == f"edge {edges[-1]} is listed more than once"


@pytest.mark.parametrize("n", range(3, 10))
def test_counts_against_formula(n):
    sets = maximal_noncrossing_sets(n)
    assert len(sets) == type_d_cluster_count(n)
    assert all(s.bit_count() == n for s in sets)
    tris = enumerate_triangulations(n, max_n=9)
    edges = enumerate_tagged_edges(n)
    assert [t.edges for t in tris] == [tuple(edges[i] for i in s)
                                       for s in sorted(map(_indices, sets))]
    assert sorted(t._members for t in tris) == sets
    if n == 9:
        return  # a second run of the 35,750 triangulations would add about 1 s
    # deterministic order
    again = enumerate_triangulations(n, max_n=8)
    assert [str(t) for t in tris] == [str(t) for t in again]


@pytest.mark.parametrize("n", range(3, 9))
def test_pivoted_search_keeps_lowest_first_order(n):
    # decoded and sorted as index tuples, the same sets in the same order
    # as the unpivoted lowest-first search
    sets = maximal_noncrossing_sets(n)
    assert sets == sorted(sets)
    assert sorted(map(_indices, sets)) == lowest_first_maximal_sets(n)


def _whole_graph(n):
    """Neighbour masks of the compatibility graph over the canonical edges."""
    edges = enumerate_tagged_edges(n)
    return [_compat_mask(e) & ~(1 << i) for i, e in enumerate(edges)]


@pytest.mark.parametrize("n", range(3, 11))
def test_symmetry_search_matches_the_whole_graph_search(n):
    # the sets through 0|+ turned and tag-swapped give exactly the sets
    # the generic search finds on the whole compatibility graph, and each
    # of those has a radius (a bit past the n(n - 2) plain ones)
    whole = triangulation._maximal_cliques(_whole_graph(n))
    assert all(s >> n * (n - 2) for s in whole)
    assert maximal_noncrossing_sets(n) == sorted(whole)


def _turn(e):
    """rho: both endpoints one vertex counterclockwise, the tag kept."""
    return TaggedEdge(e.n, (e.start + 1) % e.n, (e.end + 1) % e.n, e.tag)


def _swap(e):
    """sigma: a radius's tag negated, every chord fixed."""
    return TaggedEdge(e.n, e.start, e.end, -e.tag) if e.is_central else e


@pytest.mark.parametrize("n", range(3, 17))
def test_turning_and_swapping_tags_keep_compatibility(n):
    # the edges compatible with g(e) are the images under g of the edges
    # compatible with e, for g = rho and g = sigma, read off crossing_number
    # pair by pair: the masks are built by this turn, so they cannot prove it
    edges = enumerate_tagged_edges(n)
    compatible = {e: {f for f in edges if crossing_number(e, f) == 0} for e in edges}
    for e in edges:
        for g in (_turn, _swap):
            assert compatible[g(e)] == {g(f) for f in compatible[e]}, (str(e), g.__name__)


def test_lemma3_passes_at_its_default_bound():
    result = suite_lemma3(10)
    assert result.passed
    assert result.details == {"count": 136_136, "sizes": [10]}


def _neighbour_masks(vertices, edges):
    nbrs = [0] * vertices
    for a, b in edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return nbrs


def _clique_cases():
    """Seeded random graphs on 0..10 vertices at several densities, then
    the edgeless and complete graphs on 0..10 vertices."""
    rng = random.Random(20)
    for i in range(400):
        vertices, density = rng.randrange(11), rng.random()
        pairs = itertools.combinations(range(vertices), 2)
        yield f"random{i}", vertices, [p for p in pairs if rng.random() < density]
    for vertices in range(11):
        yield f"edgeless{vertices}", vertices, []
        yield f"complete{vertices}", vertices, list(itertools.combinations(range(vertices), 2))


def test_maximal_cliques_match_brute_force_on_any_graph():
    # tagged-edge graphs never give a child that an excluded vertex
    # blocks, so the parent's blocking checks are only tested here
    for name, vertices, edges in _clique_cases():
        got = triangulation._maximal_cliques(_neighbour_masks(vertices, edges))
        assert sorted(map(_indices, got)) == brute_force_maximal_cliques(vertices, edges), name


def test_maximal_cliques_blocked_compatible_pair():
    # The root pivot is 1, so the root branches on 0, 1 and 2.  The branch
    # on 2 has the adjacent candidates {3, 6} and the excluded 0, which is
    # adjacent to both: {2, 3, 6} is not maximal, since 0 extends it.
    edges = [(0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 6)]
    got = triangulation._maximal_cliques(_neighbour_masks(7, edges))
    decoded = sorted(map(_indices, got))
    assert decoded == brute_force_maximal_cliques(7, edges)
    assert (2, 3, 6) not in decoded and (0, 2, 3, 6) in decoded


@pytest.mark.parametrize("n", range(3, 8))
def test_every_search_call_has_three_candidates(n):
    # the parent settles every child with at most two candidates, so past
    # its root no call of the search through 0|+ sees fewer than three
    roots, sizes = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend":
            size = frame.f_locals["candidates"].bit_count()
            (sizes if frame.f_back.f_code.co_name == "extend" else roots).append(size)

    sys.setprofile(profile)
    try:
        maximal_noncrossing_sets(n)
    finally:
        sys.setprofile(None)
    through = _compat_mask(TaggedEdge.central(n, 0, 1)).bit_count() - 1
    assert roots == [through]
    assert min(sizes, default=3) >= 3


@pytest.mark.parametrize("n", range(3, 9))
def test_maximal_sets_are_increasing_index_tuples(n):
    # bitsets over the n * n canonical bits, ascending, each decoding to a
    # strictly increasing index tuple that names its bits
    sets = maximal_noncrossing_sets(n)
    assert all(a < b for a, b in zip(sets, sets[1:]))
    for s in sets:
        assert type(s) is int and 0 < s < 1 << n * n
        t = _indices(s)
        assert type(t) is tuple
        assert all(type(i) is int and 0 <= i < n * n for i in t)
        assert all(a < b for a, b in zip(t, t[1:]))
        assert sum(1 << i for i in t) == s


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lemma3_fails_on_a_set_of_the_wrong_size(n, monkeypatch):
    # the suite re-derives the sizes, so one short set must fail it
    real = suites.maximal_noncrossing_sets
    monkeypatch.setattr(suites, "maximal_noncrossing_sets",
                        lambda k: real(k) + [(1 << k - 1) - 1])
    result = suite_lemma3(n)
    assert not result.passed
    assert result.details == {"count": type_d_cluster_count(n) + 1, "sizes": [n - 1, n]}


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_lemma3_fails_on_a_missing_set(n, monkeypatch):
    # every set left has size n, so only the type D_n count can fail it
    real = suites.maximal_noncrossing_sets
    monkeypatch.setattr(suites, "maximal_noncrossing_sets", lambda k: real(k)[1:])
    result = suite_lemma3(n)
    count = type_d_cluster_count(n)
    assert not result.passed
    assert result.details == {"count": count - 1, "sizes": [n]}
    assert result.summary == f"{count - 1} maximal non-crossing sets, sizes [{n}], expected {count}"


def test_n3_shape_classes():
    # the three shapes: all radii; a chord with both radii at one endpoint;
    # a chord with one same-tag radius at each endpoint
    tris = enumerate_triangulations(3)
    assert len(tris) == 14
    all_radii = [t for t in tris if all(e.is_central for e in t.edges)]
    assert len(all_radii) == 2
    doubled = []
    split = []
    for t in tris:
        chords = [e for e in t.edges if not e.is_central]
        radii = [e for e in t.edges if e.is_central]
        if len(chords) != 1:
            continue
        assert len(radii) == 2
        if radii[0].start == radii[1].start:
            assert radii[0].tag != radii[1].tag
            doubled.append(t)
        else:
            assert radii[0].tag == radii[1].tag
            split.append(t)
    assert len(doubled) == 6 and len(split) == 6


def test_enumeration_bound():
    with pytest.raises(ValueError, match="n=7 exceeds the configured bound 6"):
        enumerate_triangulations(7)
    with pytest.raises(ValueError, match="n=11 exceeds the configured bound 10"):
        suite_lemma3(11)
    with pytest.raises(ValueError, match="bound 3"):
        suite_lemma3(4, max_n=3)
    # explicit override accepted
    assert len(enumerate_triangulations(4, max_n=7)) == 50


def test_sizes_from_unconstrained_search():
    for n in (3, 4, 5):
        sizes = {s.bit_count() for s in maximal_noncrossing_sets(n)}
        assert sizes == {n}


@pytest.mark.parametrize("n", [3, 4])
def test_flip_involution_everywhere(n):
    for t in enumerate_triangulations(n):
        for m in t.edges:
            t2, new = flip(t, m)
            assert crossing_number(m, new) == 1
            assert new != m and new not in t.edges
            t3, back = flip(t2, new)
            assert back == m and t3.edges == t.edges


def test_flip_requires_membership():
    t = fan_triangulation(5, 0)
    with pytest.raises(ValueError):
        flip(t, TaggedEdge(5, 1, 3))


def test_replace_refuses_an_edge_that_is_not_a_member():
    """``replace`` names the missing edge in ``flip``'s wording, not a
    crossing pair of the set it would build."""
    t, old, new = fan_triangulation(5), TaggedEdge(5, 1, 3), TaggedEdge(5, 1, 4)
    for call in (lambda: t.replace(old, new), lambda: flip(t, old)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "edge 1-3 is not in the triangulation"


@pytest.mark.parametrize("old, message", [
    (TaggedEdge(6, 0, 2), "edge 0-2 belongs to n=6, not n=5"),
    ([1], "not an edge of the 5-gon: [1]"),
    ("0-2", "not an edge of the 5-gon: '0-2'"),
    (None, "not an edge of the 5-gon: None"),
    (object.__new__(TaggedEdge), "not an edge of the 5-gon: a TaggedEdge not in the edge table"),
])
def test_flip_and_replace_name_a_foreign_or_non_edge(old, message):
    """An edge of another polygon is named as such, not as missing from
    the triangulation, and an unhashable gets the same ValueError as any
    other non-edge, not a TypeError."""
    t = fan_triangulation(5)
    for call in (lambda: t.replace(old, TaggedEdge(5, 1, 3)), lambda: flip(t, old)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert old not in t


@pytest.mark.parametrize("extra, count", [(False, 0), (True, 2)])
def test_flip_refuses_other_than_one_completion(monkeypatch, extra, count):
    """With the masks' AND forced to leave no free edge, or two, flip
    raises instead of picking one."""
    t = fan_triangulation(5, 0)
    m = t.edges[0]
    _, new = flip(t, m)
    spare = next(e for e in enumerate_tagged_edges(5) if e not in t.edges and e != new)
    common = triangulation._common
    monkeypatch.setattr(
        triangulation,
        "_common",
        lambda edges: common(edges) | 1 << edge_index(spare) if extra else 0,
    )
    with pytest.raises(ExchangeError, match=f"has {count} completions, expected 1"):
        flip(t, m)


def test_fan_radius_flip_partner():
    # flipping the plus radius of the fan inserts the minus radius at the
    # clockwise-adjacent vertex, not the fan's own minus radius
    t = fan_triangulation(5, 0)
    _, new = flip(t, TaggedEdge.central(5, 0, 1))
    assert new == TaggedEdge.central(5, 4, -1)


@pytest.mark.parametrize("n, seed", [(20, 3), (30, 4)])
def test_seeded_flip_walk_large_n(n, seed):
    rng = random.Random(seed)
    t = fan_triangulation(n, rng.randrange(n))
    for _ in range(100):
        m = rng.choice(t.edges)
        t2, new = flip(t, m)
        assert crossing_number(m, new) == 1
        assert new not in t.edges and Triangulation.of(t2.edges).edges == t2.edges
        t3, back = flip(t2, new)
        assert back == m and t3.edges == t.edges
        t = t2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flip_graph_connected_from_fan(n):
    start = fan_triangulation(n, 0)
    seen = {start.edges}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for m in t.edges:
                t2, _ = flip(t, m)
                if t2.edges not in seen:
                    seen.add(t2.edges)
                    nxt.append(t2)
        frontier = nxt
    assert len(seen) == len(enumerate_triangulations(n))


def left_figure() -> tuple[Triangulation, TaggedEdge]:
    """The n = 8 exchange configuration with two factors on each side."""
    t = Triangulation.of(
        [
            TaggedEdge(8, 0, 4),
            TaggedEdge.central(8, 0, 1),
            TaggedEdge.central(8, 0, -1),
            TaggedEdge(8, 0, 2),
            TaggedEdge(8, 2, 4),
            TaggedEdge(8, 4, 6),
            TaggedEdge(8, 6, 0),
            TaggedEdge(8, 0, 6),
        ]
    )
    return t, TaggedEdge(8, 0, 4)


def right_figure() -> tuple[Triangulation, TaggedEdge]:
    """The n = 8 exchange configuration with both tagged radii on one side."""
    t = Triangulation.of(
        [
            TaggedEdge(8, 6, 5),
            TaggedEdge.central(8, 5, 1),
            TaggedEdge.central(8, 5, -1),
            TaggedEdge(8, 6, 1),
            TaggedEdge(8, 1, 5),
            TaggedEdge(8, 1, 3),
            TaggedEdge(8, 1, 4),
            TaggedEdge(8, 6, 0),
        ]
    )
    return t, TaggedEdge(8, 6, 5)


def test_exchange_left_figure_configuration():
    data = exchange_sides(*left_figure())
    assert data.inserted == TaggedEdge(8, 2, 6)
    pairs = {
        frozenset(map(str, data.side_factors)),
        frozenset(map(str, data.coside_factors)),
    }
    assert pairs == {frozenset({"0-2", "4-6"}), frozenset({"0-6", "2-4"})}
    assert "x[0-4] * x[2-6]" in data.relation_string()


def test_exchange_right_figure_configuration():
    data = exchange_sides(*right_figure())
    assert data.inserted == TaggedEdge(8, 5, 1)
    pairs = {
        frozenset(map(str, data.side_factors)),
        frozenset(map(str, data.coside_factors)),
    }
    # one side carries both tagged radii at the flip vertex
    assert pairs == {frozenset({"6-1", "5|+", "5|-"}), frozenset({"1-5"})}
    sizes = sorted((len(data.side_factors), len(data.coside_factors)))
    assert sizes == [1, 3]


def oracle_disagreements(t, data) -> list[str]:
    """Sides of ``data`` whose factor multiset differs from the smallest
    approximation found by the brute-force search over t minus the
    removed edge."""
    context = [e for e in t.edges if e != data.removed]
    rng = random.Random(f"exchange:{t}:{data.removed}")
    out = []
    for name, target, factors in (
        ("side", data.removed, data.side_factors),
        ("coside", data.inserted, data.coside_factors),
    ):
        found = minimal_approximation(context, target, rng)
        if found != dict(Counter(factors)):
            out.append(f"{name} of {target}: search {found}, exchange {factors}")
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exchange_factors_match_approximation_search_everywhere(n):
    for t in enumerate_triangulations(n):
        for m in t.edges:
            assert oracle_disagreements(t, exchange_sides(t, m)) == [], (str(t), str(m))


@pytest.mark.parametrize("figure", [left_figure, right_figure])
def test_exchange_factors_match_approximation_search_figures(figure):
    t, m = figure()
    assert oracle_disagreements(t, exchange_sides(t, m)) == []


@pytest.mark.parametrize("n, seed", [(8, 81), (10, 101)])
def test_exchange_factors_match_approximation_search_on_walks(n, seed):
    rng = random.Random(seed)
    t = fan_triangulation(n, 0)
    for _ in range(10):
        m = rng.choice(t.edges)
        data = exchange_sides(t, m)
        assert oracle_disagreements(t, data) == [], (str(t), str(m))
        t = data.after


def test_approximation_oracle_rejects_corrupted_factors():
    t, m = left_figure()
    data = exchange_sides(t, m)
    dropped = ExchangeData(data.removed, data.inserted, data.side_factors[1:],
                           data.coside_factors, data.after)
    assert oracle_disagreements(t, dropped) != []
    # the search is not merely picky: a sum missing a factor admits no
    # map onto m that is surjective on every Hom(T_j, -)
    context = [e for e in t.edges if e != m]
    rng = random.Random(0)
    assert admits_surjections(context, m, dict(Counter(data.side_factors)), rng)
    assert not admits_surjections(context, m, dict(Counter(dropped.side_factors)), rng)


def assert_exchange_laws(t, data):
    """The paper's laws of the exchange quadrilateral, which
    ``exchange_sides`` does not re-check: the flip pair crosses once, and
    each side has at most three factors, drawn from t minus the removed
    edge and crossing neither diagonal."""
    assert crossing_number(data.removed, data.inserted) == 1
    for factors, tgt, other in (
        (data.side_factors, data.removed, data.inserted),
        (data.coside_factors, data.inserted, data.removed),
    ):
        assert len(factors) <= 3
        # a side is empty exactly when its target is the translate
        # of the other diagonal (all-boundary quadrilateral side)
        assert bool(factors) == (tgt != tau(other))
        for f in factors:
            assert f in t.edges and f != data.removed
            assert crossing_number(f, data.removed) == 0
            assert crossing_number(f, data.inserted) == 0


@pytest.mark.parametrize("n", range(3, 7))
def test_exchange_invariants_everywhere(n):
    """Every flip of every triangulation: 4,032 flips at n = 6."""
    for t in enumerate_triangulations(n):
        for m in t.edges:
            assert_exchange_laws(t, exchange_sides(t, m))


def test_exchange_boundary_side_relation_renders_as_one():
    t = Triangulation.of(
        [
            TaggedEdge(3, 0, 2),
            TaggedEdge.central(3, 0, 1),
            TaggedEdge.central(3, 0, -1),
        ]
    )
    data = exchange_sides(t, TaggedEdge(3, 0, 2))
    assert not data.side_factors or not data.coside_factors
    assert "= 1 +" in data.relation_string() or "+ 1" in data.relation_string()


def test_fan_quiver_is_linear_orientation():
    for n in (4, 5, 6):
        t = fan_triangulation(n, 0)
        q = quiver_of_triangulation(t)
        named = [
            (str(q.vertices[a]), str(q.vertices[b]), k) for a, b, k in q.arrows
        ]
        expected = [(f"0-{j}", f"0-{j + 1}", 1) for j in range(2, n - 1)]
        expected += [(f"0-{n - 1}", "0|+", 1), (f"0-{n - 1}", "0|-", 1)]
        assert sorted(named) == sorted(expected)


@pytest.mark.parametrize("n", range(3, 13))
def test_end_is_one_dimensional(n):
    """Every tagged edge has a one-dimensional endomorphism space, so no
    Gabriel quiver of a triangulation has a loop."""
    for e in enumerate_tagged_edges(n):
        assert morphism_space(e, e).total_dim == 1, str(e)


@pytest.mark.parametrize("n", [3, 4])
def test_quiver_has_no_loops_or_two_cycles_with_radii(n):
    # no loops: one-dimensional endomorphism spaces, proven for every
    # edge by test_end_is_one_dimensional; here just confirm no (i, i)
    # arrows survive
    for t in enumerate_triangulations(n)[:10]:
        q = quiver_of_triangulation(t)
        assert all(a != b for a, b, _ in q.arrows)


@pytest.mark.parametrize("n", range(4, 17))
def test_flips_mutate_quiver_and_exchange_factors(n):
    """Seeded flip walks: each flip mutates the Gabriel quiver at the
    flipped vertex, its exchange factors are that vertex's in- and
    out-neighbours and keep the exchange laws, and every triangulation
    visited has n members."""
    rng = random.Random(f"mutation:{n}")
    t = fan_triangulation(n, rng.randrange(n))
    for _ in range(10):
        assert len(t.edges) == n
        m = rng.choice(t.edges)
        assert mutation_mismatches(t, m) == [], (str(t), str(m))
        data = exchange_sides(t, m)
        assert_exchange_laws(t, data)
        t = data.after
    assert len(t.edges) == n


def assert_corner_quiver(t):
    """The quiver read off the corners of t is the Hom-kernel quiver of the
    oracle, and each of its arrows a -> b has count 1 and dim Hom(a, b) = 1,
    so the whole Hom space is irreducible."""
    q = quiver_of_triangulation(t)
    assert q == oracle_quiver(t), str(t)
    for i, j, mult in q.arrows:
        a, b = q.vertices[i], q.vertices[j]
        assert mult == morphism_space(a, b).total_dim == 1, (str(t), str(a), str(b))


@pytest.mark.parametrize("n", range(3, 8))
def test_corner_quiver_matches_the_oracle(n):
    """Every triangulation: 2,508 at n = 7."""
    for t in enumerate_triangulations(n, max_n=7):
        assert_corner_quiver(t)


@pytest.mark.parametrize("n", range(8, 17))
def test_corner_quiver_matches_the_oracle_on_walks(n):
    rng = random.Random(f"corners:{n}")
    t = fan_triangulation(n, rng.randrange(n))
    for _ in range(10):
        assert_corner_quiver(t)
        t = flip(t, rng.choice(t.edges))[0]
    assert_corner_quiver(t)


def test_corner_quiver_turns_counterclockwise_around_the_puncture():
    """Radii at three vertices: the corners around the puncture run from
    the radius at each vertex to the next one counterclockwise, closing
    the triangle of each chord 0-2, 2-4, 4-0 with its two radii."""
    t = Triangulation.of(
        [TaggedEdge(6, 0, 2), TaggedEdge(6, 2, 4), TaggedEdge(6, 4, 0)]
        + [TaggedEdge.central(6, a, 1) for a in (0, 2, 4)]
    )
    q = quiver_of_triangulation(t)
    named = {(str(q.vertices[i]), str(q.vertices[j]), k) for i, j, k in q.arrows}
    assert named == {
        ("0|+", "2|+", 1), ("2|+", "4|+", 1), ("4|+", "0|+", 1),
        ("0-2", "0|+", 1), ("2|+", "0-2", 1),
        ("2-4", "2|+", 1), ("4|+", "2-4", 1),
        ("4-0", "4|+", 1), ("0|+", "4-0", 1),
    }
    assert_corner_quiver(t)


def test_mutation_oracle_rejects_swapped_sides(monkeypatch):
    real = oracles.exchange_sides

    def swapped(t, m):
        data = real(t, m)
        return ExchangeData(data.removed, data.inserted, data.coside_factors,
                            data.side_factors, data.after)

    t, m = left_figure()
    assert mutation_mismatches(t, m) == []
    monkeypatch.setattr(oracles, "exchange_sides", swapped)
    assert mutation_mismatches(t, m) != []


def composite_span_inputs(n):
    """For every ordered pair a != b of members of every triangulation of
    the n-gon: the triangulation, the pair and the flat coordinates in
    Hom(a, b) of every composition a -> c -> b through another member c,
    in the order the arrow kernel composes them."""
    products = {}

    def through(a, c, b):
        if (a, c, b) not in products:
            products[a, c, b] = [
                compose(f, g).coords
                for f in morphism_space(a, c).basis()
                for g in morphism_space(c, b).basis()
            ]
        return products[a, c, b]

    for t in enumerate_triangulations(n):
        for a in t.edges:
            for b in t.edges:
                if a != b:
                    yield t, a, b, [row for c in t.edges if c not in (a, b) for row in through(a, c, b)]


@pytest.mark.parametrize("n", range(3, 7))
def test_composite_span_stops_at_the_full_rank(n):
    """The span stops once it is all of Hom(a, b); its rank is still the
    rank of every composition a -> c -> b through the other members."""
    for t, a, b, rows in composite_span_inputs(n):
        mult, span = _arrows(a, b, t.edges)
        assert span.rank == int_rank(rows), (str(t), a, b)
        assert mult == morphism_space(a, b).total_dim - span.rank


@pytest.mark.parametrize("n", range(3, 7))
def test_integer_span_matches_the_rational_reference(n):
    """Fed every composition of every composite span in turn, the integer
    elimination accepts the same vectors as FractionElim and keeps the
    same reduced echelon rows at the same pivot columns."""
    for t, a, b, rows in composite_span_inputs(n):
        width = morphism_space(a, b).total_dim
        ints, fracs = IntElim(width), FractionElim(width)
        for row in rows:
            assert ints.add(row) == fracs.add(row), (str(t), a, b)
            assert ints.rank == fracs.rank
            assert sorted(ints.rows.items()) == fracs.pivots, (str(t), a, b)


def test_composite_span_refuses_a_pivot_outside_plus_minus_one(monkeypatch):
    """The integrality check of the oracle's arrow kernel: with the first
    coefficient of every composite doubled, the first nonzero composite
    it meets on the exchange of the left figure (the arrows into m in t,
    then into the inserted 2-6 in the flipped t) has pivot 2, and the
    error names the pair."""

    def doubled(f, g):
        mor = compose(f, g)
        coords = list(mor.coords)
        for i, c in enumerate(coords):
            if c:
                coords[i] *= 2
                break
        return Morphism(mor.source, mor.target, tuple(coords))

    monkeypatch.setattr(oracles, "compose", doubled)
    t, m = left_figure()
    after, inserted = flip(t, m)
    context = [c for c in t.edges if c != m]
    with pytest.raises(ExchangeError) as info:
        for target, members in ((m, t.edges), (inserted, after.edges)):
            for c in context:
                _arrows(c, target, members)
    assert str(info.value) == "compositions 6-0 -> 2-6 have pivot 2, not 1 or -1"
