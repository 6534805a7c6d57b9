"""Exact linear algebra: incremental rational row reduction.  No floating
point anywhere."""

from __future__ import annotations

from fractions import Fraction


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

