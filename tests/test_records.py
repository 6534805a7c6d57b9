"""The record types: frozen ones refuse assignment and deletion, and every
record with ``==`` compares and hashes by its fields."""

import copy
import pickle

import pytest

from puncgon.clusterops import ar_triangle, verify_theorem2
from puncgon.geometry import TaggedEdge
from puncgon.mesh import morphism_space
from puncgon.suites import SuiteResult
from puncgon.tilted import (
    ar_quiver_of_category,
    ar_quiver_of_tilted,
    dimension_vector,
    vanishing_paths_report,
)
from puncgon.triangulation import (
    Triangulation,
    exchange_sides,
    fan_triangulation,
    quiver_of_triangulation,
)


def _fan():
    return fan_triangulation(5, 0)


# Each frozen record type: a function that builds a fresh instance, and
# the type's fields.  Calling the function twice gives two distinct
# records with equal fields.
FROZEN = {
    "Triangulation": (lambda: Triangulation(5, _fan().edges), ("n", "edges")),
    "ExchangeData": (
        lambda: exchange_sides(_fan(), TaggedEdge(5, 0, 3)),
        ("removed", "inserted", "side_factors", "coside_factors", "after"),
    ),
    "QuiverPresentation": (lambda: quiver_of_triangulation(_fan()), ("vertices", "arrows")),
    "Morphism": (
        lambda: morphism_space(TaggedEdge(5, 0, 2), TaggedEdge(5, 0, 3)).basis()[0],
        ("source", "target", "coords"),
    ),
    "DimensionVector": (
        lambda: dimension_vector(TaggedEdge(5, 1, 3), _fan()), ("labels", "coords"),
    ),
    "ArQuiver": (
        lambda: ar_quiver_of_tilted(_fan()),
        ("n", "triangulation", "vertices", "dimvecs", "arrows", "tau_pairs"),
    ),
    "VanishingEntry": (lambda: vanishing_paths_report(_fan(), 3).entries[0], ("arrows", "is_zero")),
    "VanishingReport": (lambda: vanishing_paths_report(_fan(), 3), ("quiver", "maxlen", "entries")),
    "TheoremReport": (lambda: verify_theorem2(4), ("n", "pairs_checked", "failures")),
    "ArTriangle": (lambda: ar_triangle(TaggedEdge(6, 2, 1)), ("left", "middle", "right")),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_refuses_assignment_and_deletion(name):
    build, fields = FROZEN[name]
    record = build()
    assert type(record).__name__ == name
    before = [getattr(record, f) for f in fields]
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert [getattr(record, f) for f in fields] == before
    assert not hasattr(record, "extra")


def test_frozen_edge_refuses_assignment_and_deletion():
    e = TaggedEdge(5, 0, 2)
    for f in ("n", "start", "end", "tag", "extra"):
        with pytest.raises(AttributeError):
            setattr(e, f, 3)
        with pytest.raises(AttributeError):
            delattr(e, f)
    assert (e.n, e.start, e.end, e.tag, str(e)) == (5, 0, 2, 1, "0-2")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_records_with_equal_fields_are_equal(name):
    """Two records built apart with equal fields are ``==`` and hash
    equal; a copy or a pickled round trip is an equal record; a record is
    never equal to a tuple of its fields."""
    build, fields = FROZEN[name]
    a, b = build(), build()
    assert a is not b
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    assert a != tuple(getattr(a, f) for f in fields)


def test_records_with_different_fields_differ():
    assert ar_quiver_of_tilted(_fan()) != ar_quiver_of_tilted(fan_triangulation(5, 1))
    assert ar_quiver_of_category(5) != ar_quiver_of_category(5).transposed()
    assert ar_quiver_of_category(5) == ar_quiver_of_category(5).transposed().transposed()
    assert verify_theorem2(4) != verify_theorem2(5)


def test_triangulation_compares_on_n_and_edges_only():
    """The members' bitset is no field: it is not in ``repr``, and a
    triangulation listed in another order is the same one."""
    fan = _fan()
    assert Triangulation(5, fan.edges[::-1]) == fan
    assert hash(Triangulation(5, fan.edges[::-1])) == hash(fan)
    assert repr(fan) == f"Triangulation(n=5, edges={fan.edges!r})"


def test_suite_result_is_mutable_and_unhashable():
    a = SuiteResult("lemma2", 5, True, "ok")
    assert a.details == {} and a.details is not SuiteResult("x", 5, True, "ok").details
    assert a == SuiteResult("lemma2", 5, True, "ok", {})
    a.passed = False
    assert a != SuiteResult("lemma2", 5, True, "ok")
    with pytest.raises(TypeError):
        hash(a)


def test_record_takes_exactly_its_fields():
    e = TaggedEdge(6, 2, 1)
    with pytest.raises(TypeError):
        type(ar_triangle(e))(e, ())
    with pytest.raises(TypeError):
        type(verify_theorem2(3))(3, 81, (), None)
