"""``render.write_json`` writes the bytes of ``json.dumps(obj, indent=2)``,
and so do the records it writes by shape, at any depth, against the
list-of-dicts builders they replace; the crossing writers accept only
crossing numbers, and no public render function returns encoded text."""

import functools
import inspect
import json
import pathlib
import random
from fractions import Fraction

import pytest

from puncgon import render
from puncgon.cli import main
from puncgon.crossing import crossing_table
from puncgon.geometry import TaggedEdge, enumerate_tagged_edges
from puncgon.mesh import morphism_space
from puncgon.render import write_crossing_json, write_crossing_text, write_json
from puncgon.tilted import (
    VanishingEntry,
    VanishingReport,
    ar_quiver_of_category,
    ar_quiver_of_tilted,
    vanishing_paths_report,
)
from puncgon.triangulation import (
    QuiverPresentation,
    enumerate_triangulations,
    fan_triangulation,
    flip,
    quiver_of_triangulation,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())
# ``ext`` prints compact one-line JSON; every other JSON case is indented.
INDENTED = sorted(k for k in MANIFEST if k.endswith(".json") and not k.startswith("ext-"))


def written(obj) -> str:
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


def test_indented_cases_are_every_json_case_but_ext():
    compact = [k for k in MANIFEST if k.startswith("ext-") and k.endswith(".json")]
    assert compact and INDENTED
    for name in compact:
        assert "\n" not in (GOLDEN / name).read_text().rstrip("\n")
    for name in INDENTED:
        assert "\n  " in (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", INDENTED)
def test_golden_case(name):
    text = (GOLDEN / name).read_text()
    obj = json.loads(text)
    assert written(obj) == json.dumps(obj, indent=2) == text[:-1]


ALPHABET = ['"', "\\", "/", "\n", "\t", "\r", "\x00", "\x1f", "\x7f", "\u00e9", "\u00df", "\u4e2d",
            "\u2028", "\U0001f600", "a", "Z", " ", "0", "'", "-"]


def random_str(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randrange(-10**20, 10**20)
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return random_str(rng)
    return rng.randrange(-3, 4)


def random_obj(rng, depth):
    kind = rng.randrange(6) if depth else 5
    if kind == 0:
        return {random_str(rng): random_obj(rng, depth - 1) for _ in range(rng.randrange(4))}
    if kind == 1:
        return [random_obj(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return tuple(random_obj(rng, depth - 1) for _ in range(rng.randrange(3)))
    if kind == 3:  # flat ints, with a bool or None mixed in now and then
        row = [rng.randrange(-2, 3) for _ in range(rng.randrange(5))]
        if row and rng.randrange(2):
            row[rng.randrange(len(row))] = rng.choice((True, False, None))
        return row
    if kind == 4:
        return [random_str(rng) for _ in range(rng.randrange(4))]
    return random_scalar(rng)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_nested_objects(seed):
    rng = random.Random(f"write_json:{seed}")
    for _ in range(25):
        obj = random_obj(rng, 4)
        assert written(obj) == json.dumps(obj, indent=2), obj


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}, ()]},
    [1, True, 2], [0, False], [3, None], [True, False, None], [1, "1"], ["a", 1],
    ('"', "\\", "\x00\x08\x0c\x1f"), "naïve – 中文 \U0001f600", {"k\"\\\n": "v"},
    0, -1, 10**30, True, False, None, "",
])
def test_edge_cases(obj):
    assert written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), {1, 2}])
def test_other_types_raise(bad):
    for obj in (bad, [bad], [1, bad], {"k": bad}, {"k": [{"j": bad}]}):
        with pytest.raises(TypeError):
            written(obj)
    with pytest.raises(TypeError):
        written({1: "int key"})


@pytest.mark.parametrize("bad", [3, -1, "1", None])
def test_crossing_writers_refuse_a_value_outside_0_1_2(bad):
    """An entry a crossing number cannot take raises KeyError, in either
    format, rather than being written."""
    edges = enumerate_tagged_edges(3)
    rows = [[0] * 9, [0, 1, 2, bad, 0, 0, 0, 0, 0]]
    with pytest.raises(KeyError):
        write_crossing_json(3, edges, iter(rows), [].append)
    with pytest.raises(KeyError):
        write_crossing_text(edges, iter(rows), [].append)


def test_public_render_functions_return_text_none_or_plain_data():
    """The tracer sizes what each public render function returns with
    ``json.dumps``, so none may return encoded text in a list: each
    returns a str, None, or data that ``write_json`` and ``json.dumps``
    write alike.  Every public function is called."""
    t = fan_triangulation(5, 0)
    edges = enumerate_tagged_edges(5)
    quiver, space = quiver_of_triangulation(t), morphism_space(edges[0], edges[7])
    calls = {
        "write_json": lambda: write_json({"n": 5}, [].append),
        "write_crossing_json": lambda: write_crossing_json(5, edges, crossing_table(5), [].append),
        "write_crossing_text": lambda: write_crossing_text(edges, crossing_table(5), [].append),
        "edges_json": lambda: render.edges_json(5),
        "edges_text": lambda: render.edges_text(5),
        "hom_json": lambda: render.hom_json(space),
        "hom_text": lambda: render.hom_text(space, show_basis=True),
        "hom_grid_text": lambda: render.hom_grid_text(5, TaggedEdge.parse(5, "0-2")),
        "quiver_json": lambda: render.quiver_json(quiver, t),
        "quiver_text": lambda: render.quiver_text(quiver),
        "quiver_dot": lambda: render.quiver_dot(quiver),
        "ar_quiver_dot": lambda: render.ar_quiver_dot(ar_quiver_of_tilted(t)),
        "dimvec_table_text": lambda: render.dimvec_table_text(ar_quiver_of_tilted(t), quiver),
    }
    public = {name for name, fn in vars(render).items()
              if inspect.isfunction(fn) and fn.__module__ == render.__name__
              and not name.startswith("_")}
    assert public == set(calls)
    for name, call in calls.items():
        result = call()
        if result is not None and type(result) is not str:
            assert written(result) == json.dumps(result, indent=2), name


# ---------------------------------------------------------------------------
# the records written by shape, against the list-of-dicts builders they replace


def oracle_vanishing_paths(report):
    names = report.names
    return [{"path": e.path_string(names), "zero": e.is_zero} for e in report.entries]


def oracle_ar_quiver(q):
    t, dimvecs = q.triangulation, q.dimvecs or [None] * len(q.vertices)
    return {
        "n": q.n,
        "T": None if t is None else [str(e) for e in t.edges],
        "vertices": [
            {"edge": str(v), "dimvec": None if dv is None else list(dv.coords)}
            for v, dv in zip(q.vertices, dimvecs)
        ],
        "arrows": [[str(a), str(b)] for a, b in q.arrows],
        "tau": [[str(a), str(b)] for a, b in q.tau_pairs],
    }


def oracle_report(t, no_op=False):
    """The object ``report --format json`` prints, built as a list of dicts."""
    vanishing = vanishing_paths_report(t, t.n)
    shown = vanishing.quiver.transposed() if no_op else vanishing.quiver
    return {
        "n": t.n,
        "T": [str(e) for e in t.edges],
        "quiver": {
            "n": t.n,
            "T": [str(e) for e in t.edges],
            "vertices": [str(e) for e in shown.vertices],
            "arrows": [[str(shown.vertices[a]), str(shown.vertices[b]), k]
                       for a, b, k in shown.arrows],
        },
        "vanishing_paths": oracle_vanishing_paths(vanishing),
        "boundary_note": "factors on boundary segments contribute 1",
        "modules": oracle_ar_quiver(ar_quiver_of_tilted(t)),
    }


def printed(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def nested(value, depth: int):
    """``value`` as the innermost of ``depth`` nested one-key objects."""
    for _ in range(depth):
        value = {"k": value}
    return value


def walk_triangulations():
    """Seeded random flip walks from fans, 3 at each n = 8..12."""
    out = []
    for n in range(8, 13):
        for seed in range(3):
            rng = random.Random(f"render-walk:{n}:{seed}")
            t = fan_triangulation(n, rng.randrange(n))
            for _ in range(4 * n):
                t, _ = flip(t, rng.choice(t.edges))
            out.append(t)
    return out


WALKS = walk_triangulations()
REPORT_CASES = [t for n in (4, 5, 6) for t in enumerate_triangulations(n)] + WALKS


@functools.cache
def paths_report(t):
    return vanishing_paths_report(t, t.n)


def test_report_cases_cover_every_kind_of_vanishing_list():
    """Zero and nonzero paths, empty lists, and radii at three or more
    vertices all occur among the report cases."""
    kinds = set()
    for t in REPORT_CASES:
        zeros = {e.is_zero for e in paths_report(t).entries}
        kinds.add(frozenset(zeros))
        kinds.add(len({e.start for e in t.edges if e.is_central}) >= 3)
    assert {frozenset(), frozenset({True, False}), True} <= kinds


@pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 10, 11, 12])
def test_report_json_is_the_list_of_dicts_dump(capsys, n):
    for t in (t for t in REPORT_CASES if t.n == n):
        argv = ["report", "--n", str(n), "--T", ",".join(map(str, t.edges)), "--format", "json"]
        assert printed(capsys, *argv) == json.dumps(oracle_report(t), indent=2) + "\n", t
    # and the last case transposed
    assert printed(capsys, *argv, "--no-op") == json.dumps(oracle_report(t, True), indent=2) + "\n"


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_ar_quiver_json_is_the_list_of_dicts_dump(capsys, n):
    """With and without T, and transposed, at the top level through the
    CLI and at depths 0 to 3 through ``write_json``."""
    t = next((t for t in WALKS if t.n == n), fan_triangulation(n, n - 1))
    edges = ",".join(map(str, t.edges))
    for q, extra in ((ar_quiver_of_category(n), ()), (ar_quiver_of_tilted(t), ("--T", edges))):
        argv = ["ar-quiver", "--n", str(n), "--format", "json", *extra]
        assert printed(capsys, *argv) == json.dumps(oracle_ar_quiver(q), indent=2) + "\n"
        transposed = json.dumps(oracle_ar_quiver(q.transposed()), indent=2)
        assert printed(capsys, *argv, "--no-op") == transposed + "\n"
        for shown in (q, q.transposed()):
            for depth in (0, 1, 2, 3):
                oracle = nested(oracle_ar_quiver(shown), depth)
                assert written(nested(shown, depth)) == json.dumps(oracle, indent=2)


def test_every_path_string_is_built_from_its_prefix():
    """Every report case, at depths 0 to 3."""
    for t in REPORT_CASES:
        report = paths_report(t)
        for depth in (0, 1, 2, 3):
            oracle = nested(oracle_vanishing_paths(report), depth)
            assert written(nested(report, depth)) == json.dumps(oracle, indent=2), (t, depth)


def test_a_prefix_out_of_order_is_refused():
    """The prefix cursor finds each prefix or raises: two entries of one
    level with different prefixes, swapped, or the levels reversed."""
    report = paths_report(WALKS[-1])
    entries = list(report.entries)
    i = next(i for i, (a, b) in enumerate(zip(entries, entries[1:]))
             if len(a.arrows) == len(b.arrows) and a.arrows[:-1] != b.arrows[:-1])
    swapped = entries[:i] + [entries[i + 1], entries[i]] + entries[i + 2:]
    for bad in (swapped, entries[::-1]):
        for depth in (0, 1, 2, 3):
            with pytest.raises(IndexError):
                written(nested(VanishingReport(report.quiver, report.maxlen, tuple(bad)), depth))


def random_report(rng) -> VanishingReport:
    """Every path of length 2..4 of a random quiver whose vertex names
    need escaping, breadth-first as ``vanishing_paths_report`` lists them."""
    names = [random_str(rng) + str(i) for i in range(rng.randrange(1, 5))]
    arrows = tuple(sorted({(rng.randrange(len(names)), rng.randrange(len(names)), 1)
                           for _ in range(rng.randrange(7))}))
    entries, frontier = [], [((i, j),) for i, j, _ in arrows]
    for _ in range(3):
        frontier = [path + ((i, j),)
                    for path in frontier for i, j, _ in arrows if i == path[-1][1]]
        entries += [VanishingEntry(path, rng.random() < 0.5) for path in frontier]
    return VanishingReport(QuiverPresentation(tuple(names), arrows), 4, tuple(entries))


@pytest.mark.parametrize("seed", range(20))
def test_vanishing_paths_json_escapes_names_once(seed):
    """Escaped and non-ASCII names, at depths 0 to 3."""
    rng = random.Random(f"vanishing:{seed}")
    for _ in range(10):
        report = random_report(rng)
        for depth in (0, 1, 2, 3):
            oracle = nested(oracle_vanishing_paths(report), depth)
            assert written(nested(report, depth)) == json.dumps(oracle, indent=2)

