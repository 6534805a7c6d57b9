"""``render.write_json`` writes the bytes of ``json.dumps(obj, indent=2)``;
the crossing writers accept only crossing numbers."""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from puncgon.geometry import enumerate_tagged_edges
from puncgon.render import write_crossing_json, write_crossing_text, write_json

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
