"""Cluster-level operations: extension dimensions, the crossing-number
comparison over all pairs, and almost-split (AR) triangles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .crossing import crossing_table
from .geometry import TaggedEdge, edge_sort_key, elementary_moves, enumerate_tagged_edges, tau
from .mesh import RowTargets, hom_row_closed_form, hom_row_cluster


def _hom_engine(method: str) -> Callable[[TaggedEdge, RowTargets], list[int]]:
    """The row function of the Hom engine named by ``method``: "closed"
    evaluates the grid closed form (the bulk fast path), "mesh" reads the
    sweep dimension at each target's window cell.  The names resolve at
    call time, so a wrapper put on an engine function after import is the
    one returned."""
    if method == "closed":
        return hom_row_closed_form
    if method == "mesh":
        return hom_row_cluster
    raise ValueError(f"unknown method {method!r}, expected 'closed' or 'mesh'")


def ext1_dim(m: TaggedEdge, other: TaggedEdge, method: str = "closed") -> int:
    """dim Ext^1(m, other) = dim Hom(m, tau other), with the Hom engine
    picked by ``method`` ("closed" or "mesh"): its row to the one target
    tau(other)."""
    return _hom_engine(method)(m, RowTargets(m.n, (tau(other),)))[0]


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of comparing ext1_dim against the crossing number."""

    n: int
    pairs_checked: int
    failures: tuple[tuple[str, str, int, int], ...]  # (M, N, ext1, crossing)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_theorem2(n: int, method: str = "closed") -> TheoremReport:
    """Check ext1_dim == crossing_number on all n**4 ordered pairs: for
    each m, one Hom row of m over the tau images of all edges, each tau
    image computed once, against m's row of :func:`crossing_table`.  A row
    is walked pair by pair only when the two differ."""
    hom_row = _hom_engine(method)
    edges = enumerate_tagged_edges(n)
    shifted = RowTargets(n, map(tau, edges))
    failures = []
    checked = 0
    for m, cross in zip(edges, crossing_table(n)):
        ext = hom_row(m, shifted)
        checked += len(cross)
        if ext != cross:
            for other, e1, cn in zip(edges, ext, cross):
                if e1 != cn:
                    failures.append((str(m), str(other), e1, cn))
    return TheoremReport(n, checked, tuple(failures))


@dataclass(frozen=True)
class ArTriangle:
    """Almost-split triangle tau M -> L -> M, with L given by its summands."""

    left: TaggedEdge
    middle: tuple[TaggedEdge, ...]
    right: TaggedEdge


def ar_triangle(m: TaggedEdge) -> ArTriangle:
    """The AR triangle ending at m.

    The middle summands are exactly the elementary-move targets of tau m
    (equivalently the move sources into m): one summand when tau m is
    central or spans only 3 boundary vertices, three when it spans n, two
    otherwise.
    """
    left = tau(m)
    middle = tuple(sorted(elementary_moves(left), key=edge_sort_key))
    return ArTriangle(left, middle, m)
