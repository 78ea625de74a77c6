"""Exact rational feasibility oracle for strict homogeneous inequality systems.

The core question, everywhere in chamber and wall computations, is whether
{x : r . x > 0 for all rows r} is nonempty.  By homogeneity this is the
solvability of {r . x >= 1}, decided by a phase-1 simplex over Fractions
(Bland's rule, so termination is guaranteed).  Witnesses are returned as
integer vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import dot, scale_to_int


class CertificateError(RuntimeError):
    """An exact witness, wall or chamber-set check failed: a bug, not bad input."""


def _phase1_simplex(a_rows, n: int):
    """Feasibility of A x >= 1 with x free; returns a Fraction solution or None.

    Standard form: A u - A v - w + s = 1 with u, v, w, s >= 0 and artificial
    block s started as the basis; minimize sum(s).
    """
    m = len(a_rows)
    if m == 0:
        return [Fraction(0)] * n
    ncols = 2 * n + m + m
    rows = []
    for i, r in enumerate(a_rows):
        row = [Fraction(0)] * (ncols + 1)
        for j, v in enumerate(r):
            row[j] = Fraction(v)
            row[n + j] = Fraction(-v)
        row[2 * n + i] = Fraction(-1)          # surplus
        row[2 * n + m + i] = Fraction(1)       # artificial
        row[ncols] = Fraction(1)               # rhs
        rows.append(row)
    # objective: minimize sum of artificials; store negated reduced costs
    obj = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= rows[i][j]
        obj[2 * n + m + i] += Fraction(1)
    basis = [2 * n + m + i for i in range(m)]

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter == -1:
            break
        leave = -1
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][ncols] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave == -1:
            break  # unbounded improving direction cannot happen in phase 1
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    if obj[ncols] != 0:  # residual artificial mass: infeasible
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] += rows[i][ncols]
        elif b < 2 * n:
            x[b - n] -= rows[i][ncols]
    return x


def feasible_strict(rows, n: int) -> tuple[int, ...] | None:
    """Integer witness of {x : r . x > 0 for all r}, or None if empty."""
    sol = _phase1_simplex(list(rows), n)
    if sol is None:
        return None
    w = scale_to_int(sol)
    if any(dot(r, w) <= 0 for r in rows):
        raise CertificateError("simplex returned a non-witness; oracle bug")
    return w


def generic_point(normals, dim: int) -> tuple[int, ...]:
    """Deterministic integer point off every hyperplane.

    Tries descending geometric points (b^(n-1), ..., b, 1) over growing bases;
    each normal's pairing is a nonzero polynomial in b, so some base works.
    """
    if dim == 0:
        return ()
    base = 2
    while True:
        p = tuple(base ** (dim - 1 - i) for i in range(dim))
        if all(dot(a, p) != 0 for a in normals):
            return p
        base += 1
        if base > 10 * (len(normals) + 2) * dim:
            raise AssertionError("no generic point found; degenerate input?")
