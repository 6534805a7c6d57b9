import contextlib
import io
import json
import random

import pytest

from puncgon.cli import main
from puncgon import crossing
from puncgon.crossing import (
    _class_masks,
    _compat_mask,
    crossing_number,
    crossing_row,
    crossing_table,
)
from puncgon.geometry import TaggedEdge, edge_index, enumerate_tagged_edges

from oracles import lift_scan_crossing, n3_case_rule_crossing


def reference_table(n):
    """The full table over the canonical edge order, pair by pair from
    the reference ``crossing_number``."""
    edges = enumerate_tagged_edges(n)
    return tuple(tuple(crossing_number(m, o) for o in edges) for m in edges)


def test_central_central_rule():
    a = TaggedEdge.central(8, 2, 1)
    assert crossing_number(a, TaggedEdge.central(8, 2, -1)) == 0
    assert crossing_number(a, TaggedEdge.central(8, 5, -1)) == 1
    assert crossing_number(a, TaggedEdge.central(8, 5, 1)) == 0


def test_plain_plain_examples():
    # frozen from the wide-scan lift oracle
    assert crossing_number(TaggedEdge(5, 0, 4), TaggedEdge(5, 3, 2)) == 2
    assert crossing_number(TaggedEdge(4, 1, 3), TaggedEdge(4, 3, 1)) == 0
    assert lift_scan_crossing(TaggedEdge(5, 0, 4), TaggedEdge(5, 3, 2)) == 2
    assert lift_scan_crossing(TaggedEdge(4, 1, 3), TaggedEdge(4, 3, 1)) == 0


@pytest.mark.parametrize("n", range(3, 17))
def test_matches_wide_scan_oracle(n):
    edges = enumerate_tagged_edges(n)
    for m in edges:
        for other in edges:
            assert crossing_number(m, other) == lift_scan_crossing(m, other), (m, other)


def _random_edge(rng, n):
    a = rng.randrange(n)
    if rng.randrange(n) == 0:
        return TaggedEdge.central(n, a, rng.choice((1, -1)))
    return TaggedEdge(n, a, (a + rng.randrange(2, n)) % n)


@pytest.mark.parametrize("n", range(17, 41))
def test_random_pairs_beyond_exhaustive_range(n):
    """Seeded pairs at sizes too large to scan exhaustively: the closed
    form agrees with the lift oracle, is symmetric and lies in {0, 1, 2}.
    In every other pair the second edge is a chord ending where the first
    ends, where an off-by-one in the window bounds shows."""
    rng = random.Random(f"crossing:{n}")
    for i in range(600):
        m, other = _random_edge(rng, n), _random_edge(rng, n)
        if i % 2:
            other = TaggedEdge(n, (m.end - rng.randrange(2, n)) % n, m.end)
        value = crossing_number(m, other)
        assert value == lift_scan_crossing(m, other), (m, other)
        assert value == crossing_number(other, m), (m, other)
        assert value in (0, 1, 2), (m, other)


@pytest.mark.parametrize("n", range(3, 17))
def test_row_kernel_matches_pairwise_reference(n):
    edges = enumerate_tagged_edges(n)
    for m in edges:
        assert crossing_row(m, edges) == [crossing_number(m, o) for o in edges], m


@pytest.mark.parametrize("n", range(17, 41))
def test_row_kernel_on_seeded_sources(n):
    """The seeded pairs of test_random_pairs_beyond_exhaustive_range: each
    of the first 40 sources over every edge, and every source over the
    seeded targets (half of them chords ending where their source ends)."""
    rng = random.Random(f"crossing:{n}")
    pairs = []
    for i in range(600):
        m, other = _random_edge(rng, n), _random_edge(rng, n)
        if i % 2:
            other = TaggedEdge(n, (m.end - rng.randrange(2, n)) % n, m.end)
        pairs.append((m, other))
    edges = enumerate_tagged_edges(n)
    for m, _ in pairs[:40]:
        assert crossing_row(m, edges) == [crossing_number(m, o) for o in edges], m
    targets = [other for _, other in pairs]
    for k, (m, _) in enumerate(pairs):
        window = targets[k:k + 30]
        assert crossing_row(m, window) == [crossing_number(m, o) for o in window], m


def test_row_kernel_rejects_mixed_n_like_the_pairwise_form():
    m, alien = TaggedEdge(5, 0, 2), TaggedEdge(6, 0, 2)
    with pytest.raises(ValueError) as pairwise:
        crossing_number(m, alien)
    with pytest.raises(ValueError) as row:
        crossing_row(m, [TaggedEdge(5, 1, 3), alien])
    assert str(row.value) == str(pairwise.value)
    with pytest.raises(ValueError, match="n=5 vs n=6"):
        crossing_row(TaggedEdge.central(5, 0, -1), [alien])


@pytest.mark.parametrize("n", range(3, 41))
def test_rotated_table_matches_the_row_kernel(n):
    """Every row of the table, rotated from a vertex-0 row or not, is the
    row the kernel computes directly."""
    edges = enumerate_tagged_edges(n)
    assert list(crossing_table(n)) == [crossing_row(m, edges) for m in edges]


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_table_computes_one_row_per_class(n, monkeypatch):
    """n classes (width, tag) at vertex 0, so n kernel rows per table, all
    of them for edges at vertex 0; the rows yielded are fresh lists."""
    calls = []
    kernel = crossing.crossing_row

    def counting(m, targets):
        calls.append(m)
        return kernel(m, targets)

    monkeypatch.setattr(crossing, "crossing_row", counting)
    rows = list(crossing_table(n))
    assert len(calls) == n and all(m.start == 0 for m in calls)
    assert len({id(r) for r in rows}) == n * n


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_rows_and_table_are_pair_calls(n, monkeypatch):
    """crossing_number is the one crossing kernel: a row makes one pair
    call per target and returns their values, and the table makes n pair
    calls per target, one row per class at vertex 0."""
    values = []
    kernel = crossing.crossing_number

    def counting(m, other):
        values.append(kernel(m, other))
        return values[-1]

    monkeypatch.setattr(crossing, "crossing_number", counting)
    edges = enumerate_tagged_edges(n)
    for m in edges:
        values.clear()
        assert crossing_row(m, edges) == values and len(values) == len(edges), m
    values.clear()
    list(crossing_table(n))
    assert len(values) == n * n * n


def test_streamed_table_matches_json_dumps():
    """``crossings --format json`` writes one row at a time; its bytes are
    those of json.dumps over the whole table (the golden corpus stops at
    n = 8)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["crossings", "--n", "24", "--max-pairs", "24", "--format", "json"])
    assert code == 0
    edges = enumerate_tagged_edges(24)
    table = {"n": 24, "edges": [str(e) for e in edges], "matrix": reference_table(24)}
    assert buf.getvalue() == json.dumps(table, indent=2) + "\n"


def test_streamed_text_table_matches_whole_rendering():
    """``crossings`` (text) writes the header from the labels' width and
    then one row at a time; its bytes are those of the table rendered
    whole, with every label and value right-aligned to the widest label."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["crossings", "--n", "24", "--max-pairs", "24"])
    assert code == 0
    labels = [str(e) for e in enumerate_tagged_edges(24)]
    width = max(len(s) for s in labels)
    lines = [" " * (width + 1) + " ".join(s.rjust(width) for s in labels)]
    for label, row in zip(labels, reference_table(24)):
        lines.append(label.rjust(width) + " " + " ".join(str(v).rjust(width) for v in row))
    assert buf.getvalue() == "\n".join(lines) + "\n"


def test_n3_table_matches_case_rules():
    edges = enumerate_tagged_edges(3)
    table = reference_table(3)
    for i, m in enumerate(edges):
        for j, other in enumerate(edges):
            assert table[i][j] == n3_case_rule_crossing(m, other)
    # row sums against the independent hand count
    for i, m in enumerate(edges):
        assert sum(table[i]) == sum(
            n3_case_rule_crossing(m, other) for other in edges
        )


@pytest.mark.parametrize("n", range(3, 8))
def test_symmetry_range_diagonal(n):
    edges = enumerate_tagged_edges(n)
    for i, m in enumerate(edges):
        assert crossing_number(m, m) == 0
        for other in edges[i + 1 :]:
            a, b = crossing_number(m, other), crossing_number(other, m)
            assert a == b
            assert a in (0, 1, 2)
            if m.is_central or other.is_central:
                assert a < 2


@pytest.mark.parametrize("n", range(3, 8))
def test_shared_endpoint_properties(n):
    for m in enumerate_tagged_edges(n):
        for other in enumerate_tagged_edges(n):
            if m.is_central and not other.is_central:
                if m.start in (other.start, other.end):
                    assert crossing_number(m, other) == 0
            if not m.is_central and not other.is_central:
                if {m.start, m.end} & {other.start, other.end}:
                    assert crossing_number(m, other) <= 1


def test_matrix_shape_and_symmetry():
    t = reference_table(4)
    assert len(t) == 16 and all(len(r) == 16 for r in t)
    assert t == tuple(zip(*t))
    assert all(t[i][i] == 0 for i in range(16))
    with pytest.raises(ValueError):
        reference_table(2)


def test_rejects_mixed_n():
    with pytest.raises(ValueError):
        crossing_number(TaggedEdge(5, 0, 2), TaggedEdge(6, 0, 2))


@pytest.mark.parametrize("n", range(3, 17))
def test_compat_masks_match_crossing_number(n):
    # the mask of m has the bit of each edge at that edge's canonical index
    edges = enumerate_tagged_edges(n)
    for m in edges:
        mask = _compat_mask(m)
        assert mask >> (n * n) == 0
        for other in edges:
            bit = (mask >> edge_index(other)) & 1
            assert bit == (crossing_number(m, other) == 0), (m, other)


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_masks_cost_one_crossing_row_per_class(n, monkeypatch):
    """The masks of all n**2 edges make n**3 pair calls: one row of n**2
    targets for each of the n classes at vertex 0, every other mask turned
    from its class's.  Asking again makes none: the class masks are kept."""
    calls = []
    kernel = crossing.crossing_number

    def counting(m, other):
        calls.append(m)
        return kernel(m, other)

    monkeypatch.setattr(crossing, "crossing_number", counting)
    caches = (_class_masks, _compat_mask)
    for c in caches:
        c.cache_clear()
    try:
        masks = [_compat_mask(m) for m in enumerate_tagged_edges(n)]
        _compat_mask.cache_clear()  # the class masks alone serve every edge again
        assert [_compat_mask(m) for m in enumerate_tagged_edges(n)] == masks
    finally:
        for c in caches:
            c.cache_clear()
    assert len(calls) == n * n * n and all(m.start == 0 for m in calls)
    assert len(set(calls)) == n and len(set(masks)) == n * n
