"""Exact linear algebra: incremental reduced echelon forms, no floating
point.  :class:`IntElim`, over plain ints, serves every production path;
any pivot other than -1 or 1 would break its exactness, so it raises
:class:`PivotError`.  :class:`FractionElim` is the rational reference it
is tested against, also used by the test suite's approximation oracle."""

from __future__ import annotations

from fractions import Fraction


class PivotError(ArithmeticError):
    """An integer elimination met ``pivot``, which is not -1 or 1."""

    def __init__(self, pivot: int):
        super().__init__(f"pivot {pivot}, not 1 or -1")
        self.pivot = pivot


class IntElim:
    """Incremental row reduction over plain ints.

    ``rows`` maps each pivot column to its row, in reduced echelon form:
    the pivot is the row's first nonzero entry, equal to 1, and every
    other row is zero there.  ``add`` inserts the nonzero residual of a
    vector and reports whether the rank grew."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        v = list(vec)
        width, rows = self.width, self.rows
        # a row is zero at every other pivot, so the order of reduction is free
        for p, row in rows.items():
            c = v[p]
            if c:
                for i in range(p, width):
                    v[i] -= c * row[i]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        if v[p] == -1:
            v = [-x for x in v]
        elif v[p] != 1:
            raise PivotError(v[p])
        for other in rows.values():
            c = other[p]
            if c:
                for i in range(p, width):
                    other[i] -= c * v[i]
        rows[p] = v
        return True


class FractionElim:
    """Incremental row-reduction over the rationals.

    Rows are kept in reduced echelon form: ``pivots`` lists (column, row)
    pairs by column, each row's pivot is its first nonzero entry, equal to
    1, and every other row is zero there.  ``reduce`` returns the residual
    of a vector against the span, ``add`` additionally inserts a nonzero
    residual and reports whether the rank grew.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[tuple[int, list[Fraction]]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for p, row in self.pivots:
            c = v[p]
            if c:
                for i in range(p, self.width):
                    v[i] -= c * row[i]
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        for p in range(self.width):
            if v[p]:
                inv = Fraction(1) / v[p]
                row = [x * inv for x in v]
                for q, other in self.pivots:
                    c = other[p]
                    if c:
                        for i in range(self.width):
                            other[i] -= c * row[i]
                self.pivots.append((p, row))
                self.pivots.sort(key=lambda pr: pr[0])
                return True
        return False
