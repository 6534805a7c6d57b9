"""Exact linear algebra: small rational eliminations and solves.  No
floating point anywhere."""

from __future__ import annotations

from fractions import Fraction


class FractionElim:
    """Incremental row-reduction over the rationals.

    Rows are kept in reduced echelon form; ``reduce`` returns the residual
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


def solve_exact(basis: list[list[Fraction]], target: list[Fraction]) -> list[Fraction]:
    """Coefficients c with sum(c_i * basis_i) == target; raises if unsolvable."""
    if not basis:
        if any(target):
            raise ValueError("inconsistent system: nonzero target, empty basis")
        return []
    width = len(basis[0])
    k = len(basis)
    # augmented columns: basis vectors | target, eliminate over rows
    aug = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(width)]
    pivot_of_col: list[int | None] = [None] * k
    r = 0
    for c in range(k):
        piv = None
        for rr in range(r, width):
            if aug[rr][c]:
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for rr in range(width):
            if rr != r and aug[rr][c]:
                f = aug[rr][c]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
        pivot_of_col[c] = r
        r += 1
    for rr in range(r, width):
        if aug[rr][k]:
            raise ValueError("inconsistent system: target outside span")
    sol = [Fraction(0)] * k
    for c, pr in enumerate(pivot_of_col):
        if pr is not None:
            sol[c] = aug[pr][k]
    return sol
