import copy
import pickle
import random

import pytest

from puncgon import geometry
from puncgon.geometry import (
    InvalidEdgeError,
    Position,
    TaggedEdge,
    delta_len,
    edge_at,
    edge_index,
    edge_of_index,
    edge_sort_key,
    elementary_moves,
    enumerate_tagged_edges,
    pos,
    pos_inv,
    tau,
    tau_power,
)

from oracles import two_loop_edge_order


def test_delta_len_examples():
    assert delta_len(8, 2, 2) == 9
    assert delta_len(8, 3, 4) == 2
    assert delta_len(5, 0, 3) == 4


@pytest.mark.parametrize("n", range(3, 9))
def test_delta_len_range(n):
    for a in range(n):
        for b in range(n):
            assert 2 <= delta_len(n, a, b) <= n + 1


def test_delta_len_rejects_bad_input():
    with pytest.raises(ValueError):
        delta_len(2, 0, 1)
    with pytest.raises(ValueError):
        delta_len(5, 0, 5)


@pytest.mark.parametrize("n,count", [(3, 9), (4, 16), (8, 64)])
def test_enumeration_count(n, count):
    edges = enumerate_tagged_edges(n)
    assert len(edges) == count
    assert len(set(edges)) == count


def test_enumeration_split_n4():
    edges = enumerate_tagged_edges(4)
    central = [e for e in edges if e.is_central]
    plain = [e for e in edges if not e.is_central]
    assert len(central) == 8 and len(plain) == 8


def test_enumeration_order_is_canonical():
    rng = random.Random(31)
    for n in range(3, 13):
        edges = enumerate_tagged_edges(n)
        assert edges == two_loop_edge_order(n), n
        shuffled = rng.sample(edges, len(edges))
        assert sorted(shuffled, key=edge_sort_key) == edges, n
        assert str(edges[0]) == "0-2"
        # central edges come last, plus tag before minus
        assert str(edges[-2]) == f"{n - 1}|+" and str(edges[-1]) == f"{n - 1}|-"


@pytest.mark.parametrize("n", range(3, 41))
def test_edge_index_formula_matches_the_two_loop_order(n):
    # the index formula and its inverse agree with the order written as
    # loops, and each undoes the other
    for i, e in enumerate(two_loop_edge_order(n)):
        assert edge_index(e) == i, (n, str(e))
        assert edge_of_index(n, i) is e, (n, i)


@pytest.mark.parametrize("i", [-1, -16, 25, 26, 40])
def test_edge_of_index_refuses_an_index_outside_the_order(i):
    with pytest.raises(InvalidEdgeError, match="vertices must lie in 0..4") as info:
        edge_of_index(5, i)
    assert info.value.code == "E1"


def test_enumeration_rejects_small_n():
    for n in (2, 1, 0, -1):
        with pytest.raises(ValueError, match=rf"^polygon size must be >= 3, got n={n}$"):
            enumerate_tagged_edges(n)


def test_validation_codes():
    with pytest.raises(InvalidEdgeError) as e1:
        TaggedEdge(5, 0, 5)
    assert e1.value.code == "E1"
    with pytest.raises(InvalidEdgeError) as e2:
        TaggedEdge(5, 0, 0, 2)
    assert e2.value.code == "E2"
    with pytest.raises(InvalidEdgeError) as e3:
        TaggedEdge(5, 0, 2, -1)
    assert e3.value.code == "E3"
    with pytest.raises(InvalidEdgeError) as e4:
        TaggedEdge(5, 0, 1)
    assert e4.value.code == "E4"


def test_edges_are_interned():
    m = TaggedEdge(5, 0, 2)
    assert m is TaggedEdge.parse(5, "0-2") is TaggedEdge(n=5, start=0, end=2, tag=1)
    assert TaggedEdge.central(5, 3, -1) is TaggedEdge.parse(5, "3|-")
    for e in enumerate_tagged_edges(5):
        assert tau_power(e, 10) is e
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy([m, {m: (m,)}]) == [m, {m: (m,)}]


def test_replace_validates_interned_edges():
    """Building an edge from another's fields with one changed validates
    and interns it; an edge refuses assignment and keeps its fields."""
    plain = TaggedEdge(5, 0, 2)
    with pytest.raises(InvalidEdgeError) as e3:
        TaggedEdge(plain.n, plain.start, plain.end, -1)
    assert e3.value.code == "E3"
    assert TaggedEdge(plain.n, plain.start, 3, plain.tag) is TaggedEdge(5, 0, 3)
    with pytest.raises(AttributeError):
        plain.end = 3
    assert (plain.n, plain.start, plain.end, plain.tag) == (5, 0, 2, 1)
    assert plain is TaggedEdge(5, 0, 2) and str(plain) == "0-2"


def test_invalid_edge_leaves_no_table_entry():
    size = len(geometry._EDGES)
    for fields in [(5, 0, 5), (5, 0, 0, 2), (5, 0, 2, -1), (5, 0, 1), (2, 0, 0), (7, 3, 4)]:
        with pytest.raises(InvalidEdgeError):
            TaggedEdge(*fields)
        assert fields + (1,) * (4 - len(fields)) not in geometry._EDGES
    assert len(geometry._EDGES) == size
    # a float that equals an int field must not become the interned edge
    for fields in [(41.0, 0, 2), (41, 0.0, 2), (41, 0, 0, 1.0)]:
        with pytest.raises(InvalidEdgeError):
            TaggedEdge(*fields)
    assert type(TaggedEdge(41, 0, 2).n) is int
    assert TaggedEdge(41.0, 0, 2) is TaggedEdge(41, 0, 2)


def test_a_bool_field_does_not_enter_the_edge_table():
    """True == 1 with the same hash, so on a miss of the edge table a bool
    field would intern an edge that prints ``True-3`` and that every later
    equal int key returns.  It is refused: E1 for n, start or end, E2 for
    the tag."""
    cases = [
        ((43, True, 3), "E1"),
        ((43, 3, True), "E1"),
        ((True, 0, 0), "E1"),
        ((43, 2, 2, True), "E2"),
        ((43, 1, 3, True), "E2"),
    ]
    keys = [fields + (1,) * (4 - len(fields)) for fields, _ in cases]
    assert not any(key in geometry._EDGES for key in keys)
    for (fields, code), key in zip(cases, keys):
        with pytest.raises(InvalidEdgeError) as info:
            TaggedEdge(*fields)
        assert info.value.code == code, fields
        assert key not in geometry._EDGES
    e = TaggedEdge(43, 1, 3)
    assert type(e.start) is int and str(e) == "1-3"
    assert type(TaggedEdge(43, 2, 2).tag) is int and str(TaggedEdge(43, 2, 2)) == "2|+"


def test_equality_and_hash_are_identity():
    # a field-wise __eq__ or __hash__ would hash four fields
    # at every set or dict lookup
    assert TaggedEdge.__hash__ is object.__hash__
    assert TaggedEdge.__eq__ is object.__eq__
    assert TaggedEdge(6, 1, 4) != TaggedEdge(7, 1, 4)
    assert len({TaggedEdge(6, 1, 4), TaggedEdge.parse(6, " 1-4 ")}) == 1


def test_parse_roundtrip():
    for e in enumerate_tagged_edges(5):
        assert TaggedEdge.parse(5, str(e)) == e
    with pytest.raises(InvalidEdgeError):
        TaggedEdge.parse(5, "0~2")
    with pytest.raises(InvalidEdgeError):
        TaggedEdge.parse(5, "0-1")


@pytest.mark.parametrize("text", [
    "1_0-2", "+1-3", "1-+3", "-1-3", "0-\u0663", "\uff11-3", "\u00b2-4", "1_0|+", "+1|-",
    "0x1-3", "1 0-3", "-", "|+", "1|", "1|+1", "",
])
def test_parse_reads_ascii_digits_only(text):
    # int() would read 1_0 as 10, +1 as 1 and other scripts' digits as
    # their values; each of these is refused as unparseable (E1)
    with pytest.raises(InvalidEdgeError) as info:
        TaggedEdge.parse(12, text)
    assert info.value.code == "E1"
    assert str(info.value) == f"cannot parse edge {text!r} (violates edge condition E1)"


def test_parse_allows_whitespace_around_each_part():
    assert TaggedEdge.parse(12, " 10 - 2 ") is TaggedEdge(12, 10, 2)
    assert TaggedEdge.parse(12, "\t3 | - ") is TaggedEdge.central(12, 3, -1)


def test_moves_span3():
    m = TaggedEdge(8, 0, 2)
    assert elementary_moves(m) == [TaggedEdge(8, 0, 3)]


def test_moves_middle_spans():
    m = TaggedEdge(8, 0, 4)
    assert elementary_moves(m) == [TaggedEdge(8, 1, 4), TaggedEdge(8, 0, 5)]


def test_moves_span_n_splits_to_tags():
    m = TaggedEdge(8, 1, 0)
    assert elementary_moves(m) == [
        TaggedEdge(8, 2, 0),
        TaggedEdge.central(8, 1, 1),
        TaggedEdge.central(8, 1, -1),
    ]


def test_moves_central():
    for tag in (1, -1):
        m = TaggedEdge.central(8, 3, tag)
        assert elementary_moves(m) == [TaggedEdge(8, 4, 3)]


@pytest.mark.parametrize("n", range(3, 8))
def test_moves_counts_by_span(n):
    for m in enumerate_tagged_edges(n):
        moves = elementary_moves(m)
        assert all(t.n == n for t in moves)
        if m.is_central:
            expected = 1
        elif m.span == n:
            expected = 3 if n >= 4 else 2
        elif m.span == 3:
            expected = 1
        else:
            expected = 2
        assert len(moves) == expected, (m, moves)


def test_tau_central_negates_tag():
    assert tau(TaggedEdge.central(8, 2, 1)) == TaggedEdge.central(8, 1, -1)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_tau_period_even(n):
    for m in enumerate_tagged_edges(n):
        assert tau_power(m, n) == m


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_tau_period_odd(n):
    for m in enumerate_tagged_edges(n):
        once = tau_power(m, n)
        if m.is_central:
            assert once == TaggedEdge.central(n, m.start, -m.tag)
        else:
            assert once == m
        assert tau_power(m, 2 * n) == m


@pytest.mark.parametrize("n", range(3, 8))
def test_tau_inverse_and_power_consistency(n):
    for m in enumerate_tagged_edges(n):
        assert tau_power(tau(m), -1) == m
        assert tau(tau_power(m, -1)) == m
        step = m
        for k in range(1, 2 * n + 1):
            step = tau(step)
            assert step == tau_power(m, k)


@pytest.mark.parametrize("n", range(3, 8))
def test_move_duality(n):
    # move M -> N exists iff move tau N -> M exists
    edges = enumerate_tagged_edges(n)
    moves = {m: set(elementary_moves(m)) for m in edges}
    for m in edges:
        for other in edges:
            assert (other in moves[m]) == (m in moves[tau(other)])


def test_pos_examples():
    assert pos(TaggedEdge(6, 0, 2)) == Position(1, 1)
    assert pos(TaggedEdge.central(6, 0, 1)) == Position(1, 6)
    assert pos(TaggedEdge.central(6, 0, -1)) == Position(1, 5)
    # level of a plain edge is its boundary span minus 2
    for e in enumerate_tagged_edges(6):
        if not e.is_central:
            assert pos(e).level == e.span - 2


@pytest.mark.parametrize("n", range(3, 9))
def test_pos_bijection(n):
    edges = enumerate_tagged_edges(n)
    seen = set()
    for e in edges:
        p = pos(e)
        assert 1 <= p.column <= n and 1 <= p.level <= n
        assert p not in seen
        seen.add(p)
        assert pos_inv(n, p) == e
    assert len(seen) == n * n
    # pos_inv names a grid cell through the one cell-to-edge map
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert edge_at(n, (i, j)) is pos_inv(n, (i, j)), (n, i, j)


def test_pos_inv_rejects_out_of_grid():
    with pytest.raises(ValueError):
        pos_inv(6, (0, 1))
    with pytest.raises(ValueError):
        pos_inv(6, (7, 1))
    with pytest.raises(ValueError):
        pos_inv(6, (1, 0))
    with pytest.raises(ValueError):
        pos_inv(6, (1, 7))


@pytest.mark.parametrize("n", [5, 6])
def test_pos_of_tau_drops_column(n):
    for m in enumerate_tagged_edges(n):
        p, q = pos(m), pos(tau(m))
        assert q.column == (p.column - 2) % n + 1
        if p.column > 1:
            assert q.level == p.level
        elif n % 2 == 0 or not m.is_central:
            assert q.level == p.level
        else:
            # odd n: the wraparound swaps the two fork levels
            assert {p.level, q.level} == {n - 1, n}


@pytest.mark.parametrize("n", [4, 5])
def test_fork_tag_is_an_int_at_every_column(n):
    """Absolute columns may be negative (shifted copies left of the
    sweep's source); the fork tag there must still be the int +1 or -1,
    or an edge built from it fails E2 on a miss of the edge table."""
    for c in range(-2 * n, 2 * n):
        assert {geometry._fork_level(n, tag, c) for tag in (1, -1)} == {n - 1, n}
        for level in (n - 1, n):
            tag = geometry._fork_tag(n, level, c)
            assert type(tag) is int and tag in (1, -1), (n, level, c)
            assert geometry._fork_level(n, tag, c) == level
            assert geometry._fork_level(n, tag, c + 1) != level


def test_position_string():
    assert str(Position(2, 5)) == "(2,5)"
    assert str(TaggedEdge(6, 0, 3)) == "0-3"
    assert str(TaggedEdge.central(6, 2, -1)) == "2|-"


# ---------------------------------------------------------------------------
# seeded properties up to n = 40


def _random_edges(rng, count):
    """Seeded random tagged edges of random polygons with 3 <= n <= 40,
    drawn from the raw fields; invalid draws are redrawn."""
    out = []
    while len(out) < count:
        n = rng.randint(3, 40)
        a = rng.randrange(n)
        if rng.random() < 0.2:
            out.append(TaggedEdge.central(n, a, rng.choice((1, -1))))
            continue
        b = rng.randrange(n)
        if b not in (a, (a + 1) % n):
            out.append(TaggedEdge(n, a, b))
    return out


def test_parse_print_roundtrip_seeded():
    rng = random.Random(20240401)
    for e in _random_edges(rng, 2000):
        text = str(e)
        assert TaggedEdge.parse(e.n, text) == e, text
        assert TaggedEdge.parse(e.n, f"  {text} ") == e, text
        assert str(TaggedEdge.parse(e.n, text)) == text


def test_pos_bijection_seeded():
    """pos_inv inverts pos on random edges, and pos inverts pos_inv on
    random grid cells, so pos is a bijection onto {1..n} x {1..n}."""
    rng = random.Random(20240402)
    for e in _random_edges(rng, 2000):
        p = pos(e)
        assert 1 <= p.column <= e.n and 1 <= p.level <= e.n
        assert pos_inv(e.n, p) == e, e
    for _ in range(2000):
        n = rng.randint(3, 40)
        cell = (rng.randint(1, n), rng.randint(1, n))
        assert tuple(pos(pos_inv(n, cell))) == cell, (n, cell)


def test_tau_periods_seeded():
    """tau^n is the identity for even n; for odd n it negates exactly the
    central tags, and tau^(2n) is the identity.  The one-step form tau is
    iterated here against the k-step form tau_power."""
    rng = random.Random(20240403)
    for m in _random_edges(rng, 400):
        n = m.n
        step = m
        for _ in range(n):
            step = tau(step)
        if n % 2 == 0 or not m.is_central:
            assert step == m, m
        else:
            assert step == TaggedEdge.central(n, m.start, -m.tag), m
        assert step == tau_power(m, n)
        for _ in range(n):
            step = tau(step)
        assert step == m == tau_power(m, 2 * n), m
