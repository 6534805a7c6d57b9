"""Command-line front end.

Subcommands: edges, crossings, hom, ext, verify, triangulations,
flipwalk, report, ar-quiver.  All randomized behavior takes an explicit
--seed; outputs are deterministic given the arguments.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import render
from .clusterops import ext1_dim
from .crossing import crossing_number, crossing_table
from .geometry import TaggedEdge, enumerate_tagged_edges, parse_edge_list
from .mesh import morphism_space
from .suites import DEFAULT_PAIRS_BOUND, SUITES, run_suites
from .tilted import (
    ar_quiver_of_category,
    ar_quiver_of_tilted,
    vanishing_paths_report,
)
from .triangulation import (
    DEFAULT_ENUMERATION_BOUND,
    DEFAULT_LEMMA3_BOUND,
    Triangulation,
    _require_bound,
    _triangulation_indices,
    exchange_sides,
    quiver_of_triangulation,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first call (not at
    import); parsing leaves it unchanged, so every command shares it."""
    p = argparse.ArgumentParser(
        prog="puncgon",
        description="Tagged-edge engine for the once-punctured polygon",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt=("text", "json")):
        sp.add_argument("--n", type=int, required=True, help="number of polygon vertices")
        sp.add_argument("--format", choices=fmt, default="text")

    sp = sub.add_parser("edges", help="list all tagged edges with grid positions")
    common(sp)

    sp = sub.add_parser("crossings", help="full crossing-number table")
    common(sp)
    sp.add_argument("--max-pairs", type=int, default=DEFAULT_PAIRS_BOUND,
                    help="size bound of the n^4-entry table")

    sp = sub.add_parser("hom", help="graded Hom space between two edges")
    common(sp)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--basis", action="store_true", help="print basis path classes")
    sp.add_argument("--grid", action="store_true", help="print the full Hom grid out of the source")

    sp = sub.add_parser("ext", help="extension dimension between two edges")
    common(sp)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--method", choices=("closed", "mesh"), default="closed")

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument(
        "--suite",
        default="all",
        help="comma-separated suite names, or 'all': " + ", ".join(sorted(SUITES)),
    )
    sp.add_argument("--method", choices=("closed", "mesh"), default="closed")
    sp.add_argument("--max-enum", type=int, default=DEFAULT_LEMMA3_BOUND, help="lemma3 size bound")
    sp.add_argument("--max-pairs", type=int, default=DEFAULT_PAIRS_BOUND,
                    help="size bound of the all-pairs suites (theorem2, prop22, lemma2)")

    sp = sub.add_parser("triangulations", help="enumerate all triangulations")
    common(sp)
    sp.add_argument("--max-enum", type=int, default=DEFAULT_ENUMERATION_BOUND,
                    help="enumeration size bound")

    sp = sub.add_parser("flipwalk", help="apply a sequence of flips")
    common(sp)
    sp.add_argument("--T", required=True, help="starting triangulation, comma-separated edges")
    sp.add_argument("--script", default=None, help="comma-separated edges to flip, in order")
    sp.add_argument("--random", type=int, default=0, metavar="K", help="append K random flips")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("report", help="full cluster-tilted report for a triangulation")
    common(sp, fmt=("text", "json", "dot"))
    sp.add_argument("--T", required=True)
    sp.add_argument("--maxlen", type=int, default=None, help="zero-relation probe length (default n)")
    sp.add_argument("--no-op", action="store_true", help="transpose quiver arrows")

    sp = sub.add_parser("ar-quiver", help="AR quiver of the category, or of End(T) after deleting T")
    common(sp, fmt=("text", "json", "dot"))
    sp.add_argument("--T", default=None)
    sp.add_argument("--no-op", action="store_true", help="transpose quiver arrows")
    return p


def _parse_triangulation(n: int, text: str) -> Triangulation:
    return Triangulation(n, tuple(parse_edge_list(n, text)))


def _print_json(obj) -> None:
    """Print ``json.dumps(obj, indent=2)``, written piece by piece."""
    write = sys.stdout.write
    render.write_json(obj, write)
    write("\n")


def cmd_edges(args) -> int:
    if args.format == "json":
        _print_json(render.edges_json(args.n))
    else:
        print(render.edges_text(args.n))
    return 0


def cmd_crossings(args) -> int:
    _require_bound(args.n, args.max_pairs, "crossing table", "--max-pairs")
    edges = enumerate_tagged_edges(args.n)
    rows = crossing_table(args.n)
    write = sys.stdout.write
    if args.format == "json":
        render.write_crossing_json(args.n, edges, rows, write)
    else:
        render.write_crossing_text(edges, rows, write)
    write("\n")
    return 0


def cmd_hom(args) -> int:
    if args.format == "json" and (args.basis or args.grid):
        raise ValueError("--basis and --grid print text; drop them or use --format text")
    src = TaggedEdge.parse(args.n, args.source)
    tgt = TaggedEdge.parse(args.n, args.target)
    space = morphism_space(src, tgt)
    if args.format == "json":
        _print_json(render.hom_json(space))
    else:
        print(render.hom_text(space, show_basis=args.basis))
        if args.grid:
            print(render.hom_grid_text(args.n, src))
    return 0


def cmd_ext(args) -> int:
    src = TaggedEdge.parse(args.n, args.source)
    tgt = TaggedEdge.parse(args.n, args.target)
    val = ext1_dim(src, tgt, method=args.method)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "source": str(src),
                    "target": str(tgt),
                    "ext1": val,
                    "crossing": crossing_number(src, tgt),
                    "method": args.method,
                }
            )
        )
    else:
        print(f"ext1({src}, {tgt}) = {val}")
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    results = run_suites(names, args.n, method=args.method, max_enum=args.max_enum,
                         max_pairs=args.max_pairs)
    ok = all(r.passed for r in results)
    if args.format == "json":
        _print_json({
            "n": args.n,
            "passed": ok,
            "suites": [r.to_json() for r in results],
        })
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} (n={r.n}): {r.summary}")
    return 0 if ok else 1


def cmd_triangulations(args) -> int:
    # the search's own sets; the CLI tests re-check them as Triangulations
    indices = _triangulation_indices(args.n, args.max_enum)
    names = [str(e) for e in enumerate_tagged_edges(args.n)]
    sets = [[names[i] for i in s] for s in indices]
    if args.format == "json":
        _print_json({"n": args.n, "count": len(sets), "triangulations": sets})
    else:
        print(f"{len(sets)} triangulations of the punctured {args.n}-gon")
        for s in sets:
            print("  " + ",".join(s))
    return 0


def cmd_flipwalk(args) -> int:
    import random  # only this command draws random flips

    t = _parse_triangulation(args.n, args.T)
    script = [] if args.script is None else parse_edge_list(args.n, args.script)
    if args.random < 0:
        raise ValueError(f"--random must be at least 0, got {args.random}")
    rng = random.Random(args.seed)
    # random steps are placeholders, chosen at walk time
    steps = itertools.chain(script, itertools.repeat(None, args.random))
    out = {"n": args.n, "start": [str(e) for e in t.edges], "steps": []}
    current = t
    for chosen in steps:
        edge = chosen if chosen is not None else rng.choice(current.edges)
        if edge not in current:
            raise ValueError(f"edge {edge} is not in the current triangulation {current}")
        data = exchange_sides(current, edge)
        current = data.after
        relation = data.relation_string()
        if args.format == "text":
            print(f"flip {data.removed} -> {data.inserted}: {relation}")
            continue
        out["steps"].append({
            "removed": str(data.removed),
            "inserted": str(data.inserted),
            "crossing": crossing_number(data.removed, data.inserted),
            "side_factors": [str(f) for f in data.side_factors],
            "coside_factors": [str(f) for f in data.coside_factors],
            "relation": relation,
            "triangulation": [str(e) for e in current.edges],
        })
    out["final"] = [str(e) for e in current.edges]
    if args.format == "json":
        _print_json(out)
    else:
        print(f"final: {current}")
    return 0


def cmd_report(args) -> int:
    t = _parse_triangulation(args.n, args.T)
    maxlen = args.maxlen if args.maxlen is not None else args.n
    vanishing = vanishing_paths_report(t, maxlen)
    quiver = vanishing.quiver
    shown = quiver.transposed() if args.no_op else quiver
    tilted = ar_quiver_of_tilted(t)
    if args.format == "dot":
        print(render.quiver_dot(shown))
        print(render.ar_quiver_dot(tilted))
        return 0
    if args.format == "json":
        _print_json({
            "n": args.n,
            "T": [str(e) for e in t.edges],
            "quiver": render.quiver_json(shown, t),
            "vanishing_paths": render.vanishing_paths_json(vanishing, "\n  "),
            "boundary_note": "factors on boundary segments contribute 1",
            "modules": render.ar_quiver_json(tilted, "\n  "),
        })
        return 0
    print(f"triangulation T = {t}")
    print("endomorphism quiver" + (" (op transposed)" if args.no_op else "") + ":")
    print(render.quiver_text(shown))
    zero, names = vanishing.zero_paths(), vanishing.names
    print(f"vanishing arrow paths up to length {maxlen}: {len(zero)}")
    for e in zero:
        print(f"  0 = {e.path_string(names)}")
    print("nonzero arrow paths: " + str(len(vanishing.nonzero_paths())))
    print("module dimension vectors (coordinates over T, stacked rendering):")
    print(render.dimvec_table_text(tilted, quiver))
    print(
        f"module category AR quiver: {len(tilted.vertices)} vertices, "
        f"{len(tilted.arrows)} arrows, {len(tilted.tau_pairs)} translation pairs"
    )
    for a, b in tilted.arrows:
        print(f"  {a} -> {b}")
    return 0


def cmd_ar_quiver(args) -> int:
    if args.no_op and args.T is not None and args.format == "text":
        raise ValueError("--no-op transposes arrows, which the text table of modules "
                         "does not show; use --format json or dot")
    t = None if args.T is None else _parse_triangulation(args.n, args.T)
    q = ar_quiver_of_category(args.n) if t is None else ar_quiver_of_tilted(t)
    if args.no_op:
        q = q.transposed()
    if args.format == "dot":
        print(render.ar_quiver_dot(q))
    elif args.format == "json":
        _print_json(render.ar_quiver_json(q))
    elif t is None:
        print(f"{len(q.vertices)} vertices, {len(q.arrows)} arrows")
        for a, b in q.arrows:
            print(f"  {a} -> {b}")
    else:
        gabriel = quiver_of_triangulation(t)
        print(f"{len(q.vertices)} modules over End({t})^op")
        print(render.dimvec_table_text(q, gabriel))
    return 0


COMMANDS = {
    "edges": cmd_edges,
    "crossings": cmd_crossings,
    "hom": cmd_hom,
    "ext": cmd_ext,
    "verify": cmd_verify,
    "triangulations": cmd_triangulations,
    "flipwalk": cmd_flipwalk,
    "report": cmd_report,
    "ar-quiver": cmd_ar_quiver,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. ``| head``).  Point stdout at
        # devnull so the flush at exit cannot fail again, as the ``signal``
        # docs recommend, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
