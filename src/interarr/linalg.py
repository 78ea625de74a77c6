"""Small exact integer linear algebra helpers (ranks and residuals).

Everything operates on tuples/lists of Python ints; sizes are tiny
(dimension <= 8, a few dozen rows), so clarity beats asymptotics.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def gcd_reduced(v) -> tuple[int, ...]:
    """v divided by the gcd of its entries, signs kept; a zero v is kept."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_vector(v) -> tuple[int, ...]:
    """Divide by the gcd and make the first nonzero entry positive."""
    w = gcd_reduced(v)
    first = next((x for x in w if x), 0)
    if first == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(-x for x in w) if first < 0 else w


class EchelonBasis:
    """Incrementally maintained integer row-echelon basis of a row space.

    Supports O(rank * n) residuals and rank-preserving insertion; used for
    ranks, the covers of a flat and the subset-sum characteristic
    polynomial.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def copy(self) -> "EchelonBasis":
        nb = EchelonBasis()
        nb.rows = [r[:] for r in self.rows]
        nb.pivots = self.pivots[:]
        return nb

    def residual(self, v) -> list[int]:
        """v reduced against every row in turn, each step a nonzero multiple
        of v minus a combination of rows.  The result is zero at every
        pivot, and all zero exactly when v is in the span of the rows."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Insert v; returns True if the rank grew."""
        red = self.residual(v)
        for p, x in enumerate(red):
            if x != 0:
                self.rows.append(list(gcd_reduced(red)))
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)

