"""Outside-in span tracer for the puncgon modules.

Functions are wrapped from outside the package: each wrapper replaces
the original in every ``puncgon.*`` namespace that holds it (including
the suite table), so calls made through any imported name are seen.
A span records its name, start, end and parent; spans stay in memory in
flat arrays and are reduced to per-name totals once, after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# Public names that are wrapped besides every public module-level function.
# The value is the span name used for the method.
METHODS = {
    ("triangulation", "Triangulation", "__post_init__"): "triangulation.Triangulation.validate",
    ("linalg", "FractionElim", "add"): "linalg.FractionElim.add",
    ("linalg", "FractionElim", "reduce"): "linalg.FractionElim.reduce",
}

MODULES = (
    "geometry",
    "crossing",
    "mesh",
    "linalg",
    "clusterops",
    "triangulation",
    "tilted",
    "suites",
    "render",
    "cli",
)

# Only the entry point of the CLI is wrapped: its self time is argument
# parsing, the subcommand bodies, json.dumps and print.
CLI_FUNCTIONS = ("main",)

# Public helpers too small to trace: each is called up to a million times
# a pass and costs less than the wrapper.  Their time counts toward the
# span of their caller.
UNTRACED = {
    "crossing.lift",
    "geometry.ccw_neighbor",
    "geometry.cw_neighbor",
    "geometry.delta_len",
    "geometry.edge_sort_key",
    "geometry.grid_column",
    "geometry.grid_level",
    "mesh.mesh_vertex_at",
    "mesh.zq_in_arrows",
    "mesh.zq_out_arrows",
    "mesh.zq_tau",
}


class Tracer:
    """Collects spans and per-name counts for one traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outermost = array("b")
        self._stack = [-1]
        self._active: list[int] = []
        self.counts: dict[str, int] = {}
        self.rendered: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, post=None):
        """A function that runs ``fn`` inside a span called ``name``;
        ``post(result)`` runs after the span has closed."""
        nid = self.name_id(name)
        clock = self.clock
        stack, active = self._stack, self._active
        names, parents, starts, ends, outer = (
            self.name, self.parent, self.start, self.end, self.outermost,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(active[nid] == 0)
            ends.append(0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            if self.outermost[i]:
                row["s"] += (self.end[i] - self.start[i]) / 1e9
            row["self_s"] += selfs[i] / 1e9
        return out

    def rendered_bytes(self) -> int:
        """Size of everything the render layer returned: text as UTF-8,
        dicts as compact JSON.  Measured after the pass, outside any span."""
        total = 0
        for result in self.rendered:
            if isinstance(result, str):
                total += len(result.encode())
            else:
                total += len(json.dumps(result).encode())
        return total


def self_times(start, end, parent) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once).  Spans
    must be listed in start order, as the tracer records them."""
    covered = [0] * len(start)
    reach = list(start)  # how far each span is already covered by its children
    for c, p in enumerate(parent):
        if p < 0:
            continue
        a, b = max(start[c], reach[p]), min(end[c], end[p])
        if b > a:
            covered[p] += b - a
            reach[p] = b
    return [e - s - c for s, e, c in zip(start, end, covered)]


def _post_hooks(tracer: Tracer) -> dict:
    """Counts taken from return values, keyed by span name."""

    def sets(result):
        tracer.count("triangulation.maximal_noncrossing_sets.sets", len(result))

    def compose_zero(result):
        tracer.count("mesh.compose.zero", result.is_zero())

    def accepted(result):
        tracer.count("linalg.FractionElim.add.accepted", bool(result))

    def paths(result):
        tracer.count("tilted.vanishing_paths_report.paths", len(result.entries))

    return {
        "triangulation.maximal_noncrossing_sets": sets,
        "mesh.compose": compose_zero,
        "linalg.FractionElim.add": accepted,
        "tilted.vanishing_paths_report": paths,
    }


def install(tracer: Tracer):
    """Wrap the public functions of every puncgon module for ``tracer``."""
    import puncgon.cli  # noqa: F401  (loads every module)

    mods = {m: sys.modules[f"puncgon.{m}"] for m in MODULES}
    hooks = _post_hooks(tracer)
    suite_names = {fn: key for key, fn in mods["suites"].SUITES.items()}
    replacements: dict[int, object] = {}

    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            if short == "cli" and attr not in CLI_FUNCTIONS:
                continue
            if f"{short}.{attr}" in UNTRACED:
                continue
            if fn in suite_names:
                name = f"suites.{suite_names[fn]}"
            else:
                name = f"{short}.{attr}"
            post = tracer.rendered.append if short == "render" else hooks.get(name)
            replacements[id(fn)] = tracer.wrap(name, fn, post)

    for (short, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], hooks.get(name)))

    modules = [sys.modules["puncgon"], *mods.values()]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements and inspect.isfunction(value):
                setattr(mod, attr, replacements[id(value)])
    table = mods["suites"].SUITES
    for key, fn in list(table.items()):
        table[key] = replacements.get(id(fn), fn)


# Per-layer metrics read from the span table: span name -> fields reported.
SPAN_FIELDS = (
    ("triangulation.maximal_noncrossing_sets", ("s",)),
    ("triangulation.Triangulation.validate", ("calls", "s")),
    ("crossing.crossing_number", ("calls",)),
    ("geometry.enumerate_tagged_edges", ("calls",)),
    ("triangulation.flip", ("calls", "self_s")),
    ("triangulation.exchange_sides", ("calls", "self_s")),
    ("triangulation.quiver_of_triangulation", ("s",)),
    ("mesh.compose", ("calls", "s")),
    ("mesh.morphism_space", ("calls", "s")),
    ("mesh.hom_dim_cluster", ("calls", "s")),
    ("mesh.hom_dim_closed_form", ("calls", "self_s")),
    ("linalg.FractionElim.add", ("calls",)),
    ("linalg.solve_exact", ("calls",)),
    ("tilted.vanishing_paths_report", ("s",)),
    ("tilted.ar_quiver_of_tilted", ("s",)),
    ("clusterops.verify_theorem2", ("s",)),
    ("suites.theorem2", ("s",)),
    ("suites.prop22", ("s",)),
    ("suites.lemma2", ("s",)),
    ("suites.lemma3", ("s",)),
    ("suites.tau-period", ("s",)),
    ("suites.ar-triangles", ("s",)),
)
COUNTS = (
    "triangulation.maximal_noncrossing_sets.sets",
    "tilted.vanishing_paths_report.paths",
)
# ratio metric -> (count of useful outcomes, span whose calls are the attempts)
RATIOS = {
    "mesh.compose.zero_ratio": ("mesh.compose.zero", "mesh.compose"),
    "linalg.FractionElim.add.accept_ratio": ("linalg.FractionElim.add.accepted", "linalg.FractionElim.add"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    for span, fields in SPAN_FIELDS:
        for f in fields:
            units[f"{span}.{f}"] = UNITS[f]
    for key in COUNTS:
        units[key] = "count"
    for key in RATIOS:
        units[key] = "ratio"
    units["render.bytes"] = "bytes"
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(tracer: Tracer, table: dict, stdout_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass from its span table (all but the
    overhead ratio, which needs an untraced pass to compare with)."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.startswith(module + ".")
        )
    for span, fields in SPAN_FIELDS:
        row = table.get(span, empty)
        for f in fields:
            out[f"{span}.{f}"] = row[f]
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0)
    for key, (useful, span) in RATIOS.items():
        calls = table.get(span, empty)["calls"]
        out[key] = tracer.counts.get(useful, 0) / calls if calls else 0.0
    out["render.bytes"] = tracer.rendered_bytes()
    out["cli.stdout_bytes"] = stdout_bytes
    return out
