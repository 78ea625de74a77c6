"""Small exact integer linear algebra helpers (ranks, kernels, solves).

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

    Supports O(rank * n) membership tests and rank-preserving insertion;
    used for ranks, matroid closures and the subset-sum characteristic
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

    def _reduce(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def add(self, v) -> bool:
        """Insert v; returns True if the rank grew."""
        red = self._reduce(v)
        for p, x in enumerate(red):
            if x != 0:
                self.rows.append(list(gcd_reduced(red)))
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def integer_kernel_basis(rows, n: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^n : M x = 0} via unimodular column ops."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    m = [list(r) for r in rows]
    r = len(m)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U

    def col_op(j, k, q):
        # column_j -= q * column_k, applied to both m and u
        for row in m:
            row[j] -= q * row[k]
        for row in u:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    c = 0
    for i in range(r):
        live = [j for j in range(c, n) if m[i][j] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(m[i][j]))
            a = live[0]
            nxt = []
            for j in live[1:]:
                q = m[i][j] // m[i][a]
                col_op(j, a, q)
                if m[i][j] != 0:
                    nxt.append(j)
            live = [a] + nxt
        if live[0] != c:
            col_swap(live[0], c)
        c += 1
        if c == n:
            break
    # columns c..n-1 of m are zero in all processed rows, hence in all rows
    return [tuple(u[i][j] for i in range(n)) for j in range(c, n)]


def bareiss_det(rows) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    d = len(m)
    if d == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, d) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def solve_square_int(rows, rhs) -> tuple[list[int], int] | None:
    """Solve an integer square system by Cramer; returns (numerators, det).

    None if singular.  The exact solution is numerators / det.
    """
    det = bareiss_det(rows)
    if det == 0:
        return None
    d = len(rows)
    nums = []
    for c in range(d):
        modified = [list(r[:c]) + [rhs[i]] + list(r[c + 1:]) for i, r in enumerate(rows)]
        nums.append(bareiss_det(modified))
    return nums, det

