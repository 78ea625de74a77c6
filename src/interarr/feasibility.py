"""Exact integer feasibility oracle for strict homogeneous inequality systems.

The core question, everywhere in chamber and wall computations, is whether
{x : r . x > 0 for all rows r} is nonempty.  By homogeneity this is the
solvability of {r . x >= 1}, decided by a phase-1 simplex (Bland's rule, so
termination is guaranteed) on a fraction-free integer tableau.  Witnesses
are integer vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

from .linalg import dot, gcd_reduced


class CertificateError(RuntimeError):
    """An exact witness, wall or chamber-set check failed: a bug, not bad input."""


def _phase1_simplex(a_rows, n: int):
    """Feasibility of A x >= 1 with x free; returns integer numerators of a
    solution (over a positive common denominator) or None.

    Standard form: A u - A v - w + s = 1 with u, v, w, s >= 0 and artificial
    block s started as the basis; minimize sum(s).  The tableau is kept
    fraction-free (Edmonds; Bareiss): the actual tableau is T / den with
    den > 0 the last pivot, and a pivot on (r, c) keeps row r and maps every
    other row to (T[r][c] T[i] - T[i][c] T[r]) / den, an exact division.

    The artificial columns are not stored; the basis names them by their
    column numbers 2n+m+i, so ties of the leaving rule fall as with them.
    None of them ever enters a feasible system: once no u, v or w column
    has a negative reduced cost, the simplex multipliers y satisfy
    y^T A = 0 and y >= 0, and if some x has A x >= 1 then
    0 = y^T A x >= sum(y) forces y = 0, so the objective is 0 and every
    artificial reduced cost is 1.  Bland's rule scans the artificial
    columns last, so the pivots, and the witness, are those of the full
    tableau; in an infeasible system the loop stops at the same point with
    positive artificial mass instead of pivoting further.
    """
    m = len(a_rows)
    ncols = 2 * n + m
    rows = []
    for i, r in enumerate(a_rows):
        row = [0] * (ncols + 1)
        for j, v in enumerate(r):
            row[j] = v
            row[n + j] = -v
        row[2 * n + i] = -1                    # surplus
        row[ncols] = 1                         # rhs
        rows.append(row)
    # objective: minimize sum of artificials; store negated reduced costs
    obj = [0] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= rows[i][j]
    basis = [ncols + i for i in range(m)]      # the artificials, by column number
    den = 1

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter == -1:
            break
        leave = -1  # least rhs / entry over positive entries, cross-multiplied
        for i in range(m):
            e = rows[i][enter]
            if e > 0:
                if leave == -1:
                    leave = i
                    continue
                diff = rows[i][ncols] * rows[leave][enter] - rows[leave][ncols] * e
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave == -1:
            break  # unbounded improving direction cannot happen in phase 1
        prow = rows[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                f = rows[i][enter]
                rows[i] = [(piv * x - f * y) // den for x, y in zip(rows[i], prow)]
        f = obj[enter]
        obj = [(piv * x - f * y) // den for x, y in zip(obj, prow)]
        den = piv
        basis[leave] = enter

    if obj[ncols] != 0:  # residual artificial mass: infeasible
        return None
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] += rows[i][ncols]
        elif b < 2 * n:
            x[b - n] -= rows[i][ncols]
    return x


def feasible_strict(rows, n: int) -> tuple[int, ...] | None:
    """Integer witness, gcd-reduced, of {x : r . x > 0 for all r}, or None if empty."""
    sol = _phase1_simplex(list(rows), n)
    if sol is None:
        return None
    w = gcd_reduced(sol)
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
