"""Text, JSON, and DOT renderings of the engine's artifacts.

``ext`` prints compact one-line JSON with ``json.dumps``; every other
``--format json`` goes through :func:`write_json`, which writes the bytes
of ``json.dumps(obj, indent=2)`` piece by piece (with ``indent`` set,
``json`` falls back to its pure-Python encoder).  Its ``_write`` is the
one general path, one value at a time.  Two records are written by
shape instead, one template per item, at the indent of the place where
``_write`` meets them: a :class:`tilted.ArQuiver` as its ar-quiver object
and a :class:`tilted.VanishingReport` as the ``vanishing_paths`` list of
``report``.  Each item is written as it is made, so no list of item
texts is held.
``crossings`` writes its matrix one row at a time with
:func:`write_crossing_json`; the text table streams the same way through
:func:`write_crossing_text`.  Both crossing writers join each row from
the three digit strings of ``_DIGITS`` rather than formatting every int,
so an entry outside {0, 1, 2} raises ``KeyError`` instead of being
written.

JSON schemas (stable, documented in the README):

  edges      {"n", "edges": [{"edge", "position": [i, j]}]}
  crossings  {"n", "edges": [str], "matrix": [[int]]}
  hom        {"n", "source", "target", "components": {shift: dim},
              "total", "closed_form"}
  quiver     {"n", "T": [str], "vertices": [str],
              "arrows": [[from, to, mult]]}
  ar-quiver  {"n", "T": [str] | null,
              "vertices": [{"edge", "dimvec" | null}],
              "arrows": [[from, to]], "tau": [[from, to]]}
  report     {"n", "T", "quiver", "vanishing_paths": [{"path", "zero"}],
              "boundary_note", "modules": ar-quiver}

Both AR quivers are one :class:`tilted.ArQuiver`, so each ar-quiver
format has one writer, whether or not the quiver has a T.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .geometry import TaggedEdge, enumerate_tagged_edges, pos, pos_inv
from .mesh import MorphismSpace, RowTargets, hom_dim_closed_form, hom_row_closed_form
from .tilted import ArQuiver, VanishingReport, loewy_string
from .triangulation import QuiverPresentation, Triangulation


def write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2)`` through ``write``, in pieces.

    Only the CLI's shapes are accepted: dicts with str keys, lists and
    tuples, str, int, bool and None, and at any depth an
    :class:`ArQuiver`, written as its ar-quiver object, and a
    :class:`VanishingReport`, written as its ``vanishing_paths`` list
    (the JSON schemas above).  Anything else, floats and ``Fraction``
    included, raises ``TypeError``.
    """
    _write(obj, write, "\n")


def _write(obj, write, nl: str) -> None:
    """Write obj whose first line is already indented; ``nl`` is the
    newline and indent of obj's own level."""
    kind = type(obj)
    if kind is str:
        write(_quote(obj))
    elif kind is int:
        write(int.__repr__(obj))
    elif obj is None or kind is bool:
        write("null" if obj is None else "true" if obj else "false")
    elif kind is dict:
        if not obj:
            write("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            write(sep + _quote(key) + ": ")
            _write(value, write, inner)
            sep = "," + inner
        write(nl + "}")
    elif kind is list or kind is tuple:
        if not obj:
            write("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))  # a flat list of one kind is joined at once
        if kinds == {int}:
            write("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
        elif kinds == {str}:
            write("[" + inner + ("," + inner).join(map(_quote, obj)) + nl + "]")
        else:
            sep = "[" + inner
            for value in obj:
                write(sep)
                _write(value, write, inner)
                sep = "," + inner
            write(nl + "]")
    elif kind is ArQuiver:
        _write_ar_quiver(obj, write, nl)
    elif kind is VanishingReport:
        _write_items(_path_items(obj, nl + "  "), write, nl)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_items(items, write, nl: str) -> None:
    """Write the list of the JSON texts ``items``, each encoded for the
    indent ``nl + "  "``, one ``write`` per item."""
    sep = first = "[" + nl + "  "
    rest = "," + nl + "  "
    for item in items:
        write(sep + item)
        sep = rest
    write("[]" if sep is first else nl + "]")


# Crossing numbers lie in {0, 1, 2}; the crossing writers look each
# entry up here, so any other value raises KeyError.
_DIGITS = {0: "0", 1: "1", 2: "2"}


def write_crossing_json(n: int, edges, rows, write) -> None:
    """Write ``json.dumps({"n": n, "edges": [str(e) for e in edges],
    "matrix": list(rows)}, indent=2)`` with ``rows`` yielding at least one
    non-empty row, so no more than one row is held."""
    write('{\n  "n": ' + int.__repr__(n) + ',\n  "edges": ')
    _write([str(e) for e in edges], write, "\n  ")
    write(',\n  "matrix": [')
    sep = "\n    [\n      "
    digit = _DIGITS.__getitem__
    for row in rows:
        write(sep + ",\n      ".join(map(digit, row)) + "\n    ]")
        sep = ",\n    [\n      "
    write("\n  ]\n}")


def edges_json(n: int) -> dict:
    return {
        "n": n,
        "edges": [
            {"edge": str(e), "position": list(pos(e))} for e in enumerate_tagged_edges(n)
        ],
    }


def edges_text(n: int) -> str:
    lines = [f"{e}\t{pos(e)}" for e in enumerate_tagged_edges(n)]
    return "\n".join(lines)


def write_crossing_text(edges, rows, write) -> None:
    """Write the crossing table as right-aligned text, a header of edge
    labels and then one labelled line per row of ``rows``; only the
    labels' width is needed up front, so no more than one row is held.
    No newline follows the last line."""
    labels = [str(e) for e in edges]
    width = max(len(s) for s in labels)
    write(" " * (width + 1) + " ".join(s.rjust(width) for s in labels))
    digit = {v: s.rjust(width) for v, s in _DIGITS.items()}.__getitem__
    for label, row in zip(labels, rows):
        write("\n" + label.rjust(width) + " " + " ".join(map(digit, row)))


def hom_json(space: MorphismSpace) -> dict:
    return {
        "n": space.n,
        "source": str(space.source),
        "target": str(space.target),
        "components": {str(k): space.dim(k) for k in space.shifts},
        "total": space.total_dim,
        "closed_form": hom_dim_closed_form(space.source, space.target),
    }


def hom_text(space: MorphismSpace, show_basis: bool = False) -> str:
    lines = [
        f"Hom({space.source}, {space.target}): total dimension {space.total_dim}"
    ]
    for k in space.shifts:
        lines.append(f"  shift {k}: dimension {space.dim(k)}")
        if show_basis:
            for p in space.components[k]:
                lines.append("    " + " -> ".join(map(str, p)))
    return "\n".join(lines)


def hom_grid_text(n: int, source: TaggedEdge) -> str:
    """Paper-style table of Hom dimensions out of one edge: rows are levels
    n..1, columns 1..n, dots for zero, source position marked with *.
    Each line is one closed-form Hom row over its n targets."""
    src_pos = pos(source)
    rows = []
    for level in range(n, 0, -1):
        targets = RowTargets(n, [pos_inv(n, (col, level)) for col in range(1, n + 1)])
        cells = []
        for col, val in enumerate(hom_row_closed_form(source, targets), start=1):
            cell = "." if val == 0 else str(val)
            if (col, level) == src_pos:
                cell = "*" + cell
            cells.append(cell.rjust(2))
        rows.append(f"level {level:2d} |" + " ".join(cells))
    return "\n".join(rows)


def _dot(name: str, nodes: list[tuple[str, str]], arrows: list[tuple[str, str]]) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node_id, label in nodes:
        lines.append(f'  "{node_id}" [label="{label}"];')
    for a, b in arrows:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


def quiver_json(q: QuiverPresentation, t: Triangulation) -> dict:
    return {
        "n": t.n,
        "T": [str(e) for e in t.edges],
        "vertices": [str(e) for e in q.vertices],
        "arrows": [[str(q.vertices[a]), str(q.vertices[b]), k] for a, b, k in q.arrows],
    }


def quiver_text(q: QuiverPresentation) -> str:
    lines = [
        "vertices: "
        + ", ".join(f"T{i + 1}={e}" for i, e in enumerate(q.vertices))
    ]
    for a, b, k in q.arrows:
        mult = f" (x{k})" if k > 1 else ""
        lines.append(f"  T{a + 1} -> T{b + 1}{mult}")
    return "\n".join(lines)


def quiver_dot(q: QuiverPresentation) -> str:
    nodes = [(str(e), f"T{i + 1}: {e}") for i, e in enumerate(q.vertices)]
    arrows = []
    for a, b, k in q.arrows:
        arrows.extend([(str(q.vertices[a]), str(q.vertices[b]))] * k)
    return _dot("endomorphism_quiver", nodes, arrows)


def _path_items(report: VanishingReport, nl: str):
    """The text of ``{"path": e.path_string(names), "zero": e.is_zero}``
    for each entry of ``report``, at the indent ``nl``.

    :func:`tilted.vanishing_paths_report` lists the entries level by
    level, each level in the order of the prefixes it extends, so a
    cursor over the level before finds each prefix; an entry out of that
    order runs the cursor off its level and raises ``IndexError``.  JSON
    escapes a string character by character, so each name is escaped
    once, and each path's escaped text is its prefix's text and one more
    name."""
    names = [_quote(s)[1:-1] for s in report.names]
    steps = [" -> " + s for s in names]
    field = nl + "  "
    head = "{" + field + '"path": "'
    tails = tuple(f'",{field}"zero": {zero}{nl}}}' for zero in ("false", "true"))
    # (path, text) over the level before, then over this level
    before = [(((i, j),), names[i] + steps[j]) for i, j, _ in report.quiver.arrows]
    level, k = [], 0
    for e in report.entries:
        path = e.arrows
        prefix = path[:-1]
        if len(prefix) != len(before[0][0]):
            before, level, k = level, [], 0
        while before[k][0] != prefix:
            k += 1
        text = before[k][1] + steps[path[-1][1]]
        level.append((path, text))
        yield f"{head}{text}{tails[e.is_zero]}"


def _write_ar_quiver(q: ArQuiver, write, nl: str) -> None:
    """Write the ar-quiver object of ``q``, its ``vertices``, ``arrows``
    and ``tau`` from one template per item."""
    t = q.triangulation
    fields = nl + "  "
    item, item_field, coord = fields + "  ", fields + "    ", fields + "      "
    quoted = {v: _quote(str(v)) for v in q.vertices}  # every arrow and tau pair joins vertices
    head = f'{{{item_field}"edge": '
    if q.dimvecs is None:
        tail = f',{item_field}"dimvec": null{item}}}'
        vertices = (f"{head}{quoted[v]}{tail}" for v in q.vertices)
    else:
        sep, tail = "," + coord, f"{item_field}]{item}}}"
        dimvec = f',{item_field}"dimvec": [{coord}'
        vertices = (
            f"{head}{quoted[v]}{dimvec}{sep.join(map(int.__repr__, dv.coords))}{tail}"
            for v, dv in zip(q.vertices, q.dimvecs)
        )
    arrows, tau = (
        (f"[{item_field}{quoted[a]},{item_field}{quoted[b]}{item}]" for a, b in pairs)
        for pairs in (q.arrows, q.tau_pairs)
    )
    write(f'{{{fields}"n": {q.n},{fields}"T": ')
    _write(None if t is None else [str(e) for e in t.edges], write, fields)
    for key, items in (("vertices", vertices), ("arrows", arrows), ("tau", tau)):
        write(f',{fields}"{key}": ')
        _write_items(items, write, fields)
    write(nl + "}")


def ar_quiver_dot(q: ArQuiver) -> str:
    """Label each node by its grid position, or by its dimension vector."""
    if q.dimvecs is None:
        name, labels = "ar_quiver", map(pos, q.vertices)
    else:
        name, labels = "tilted_ar_quiver", q.dimvecs
    nodes = [(str(v), f"{v} {label}") for v, label in zip(q.vertices, labels)]
    return _dot(name, nodes, [(str(a), str(b)) for a, b in q.arrows])


def dimvec_table_text(q: ArQuiver, gabriel: QuiverPresentation) -> str:
    lines = ["edge\tdimvec\tloewy"]
    for v, dv in zip(q.vertices, q.require_dimvecs()):
        lines.append(f"{v}\t{dv}\t{loewy_string(dv, gabriel)}")
    return "\n".join(lines)
