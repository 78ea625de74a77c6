import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from interarr.feasibility import feasible_strict, generic_point
from interarr.linalg import EchelonBasis, dot, gcd_reduced, primitive_vector

# Test oracle: the Fraction phase-1 simplex and `scale_to_int` that the
# library ran before its fraction-free tableau, kept verbatim but for the
# optional record of entering columns.  The integer simplex must make the
# same pivots, so verdicts and witnesses agree exactly.


def _phase1_simplex_fraction(a_rows, n: int, entered=None):
    """Feasibility of A x >= 1 with x free; returns a Fraction solution or None.

    Standard form: A u - A v - w + s = 1 with u, v, w, s >= 0 and artificial
    block s started as the basis; minimize sum(s).  Every entering column
    is appended to `entered` when it is a list.
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
        if entered is not None:
            entered.append(enter)
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


def scale_to_int(values) -> tuple[int, ...]:
    """Clear denominators of a Fraction vector and gcd-reduce."""
    from math import lcm

    denom = 1
    for v in values:
        denom = lcm(denom, Fraction(v).denominator)
    ints = [int(Fraction(v) * denom) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def feasible_strict_fraction(rows, n: int):
    """The Fraction oracle's witness, scaled as `feasible_strict` scaled it."""
    sol = _phase1_simplex_fraction(list(rows), n)
    return None if sol is None else scale_to_int(sol)


def test_feasible_strict_witness():
    rows = [(1, -1), (1, 1), (1, 0), (0, 1)]
    w = feasible_strict(rows, 2)
    assert w is not None and all(dot(r, w) > 0 for r in rows)


def test_feasible_strict_infeasible():
    assert feasible_strict([(1, -1), (-1, 1)], 2) is None
    assert feasible_strict([(1, 0), (-1, 0)], 1) is None


def test_feasible_strict_random_cross_check():
    # compare against a dumb grid search on small 2d systems
    rng = random.Random(3)
    grid = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    for _ in range(120):
        rows = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        brute = any(all(dot(r, p) > 0 for r in rows) for p in grid)
        got = feasible_strict(rows, 2)
        if got is not None:
            assert all(dot(r, got) > 0 for r in rows)
        # witness existence must match the grid whenever the grid finds one
        if brute:
            assert got is not None


def test_integer_simplex_matches_fraction_oracle():
    # the same verdict and the same witness tuple, zero rows and entries included
    assert feasible_strict([], 3) == feasible_strict_fraction([], 3) == (0, 0, 0)
    rng = random.Random(14)
    for _ in range(150):
        dim = rng.randint(1, 5)
        rows = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(0, 12))]
        assert feasible_strict(rows, dim) == feasible_strict_fraction(rows, dim), rows


def test_integer_simplex_matches_fraction_oracle_on_large_coefficients():
    rng = random.Random(40)
    for _ in range(40):
        dim = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) * rng.randint(1, 1 << 42) for _ in range(dim))
                for _ in range(rng.randint(1, 8))]
        assert feasible_strict(rows, dim) == feasible_strict_fraction(rows, dim), rows


def test_no_artificial_column_enters_a_feasible_system():
    # the library's tableau stores no artificial columns: on every feasible
    # system the full Fraction tableau never lets one enter, and the two
    # agree on every verdict and witness, zero, repeated, doubled and
    # opposite rows included.  The first system breaks a leaving tie
    # between a row with an artificial and a row with a surplus in its basis.
    rng = random.Random(2424)
    cases = [(4, [(1, 2, 2, -1), (0, -2, -1, 2), (2, -1, 1, 0), (1, 1, 0, 1),
                  (-2, -1, -1, 2), (-2, 1, -2, 1), (2, 2, 0, 2)])]
    for _ in range(600):
        dim = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(0, 7))]
        for _ in range(rng.randint(0, 3)):
            r = rng.choice(rows + [(0,) * dim])
            rows.insert(rng.randint(0, len(rows)),
                        rng.choice([r, tuple(2 * x for x in r), tuple(-x for x in r)]))
        cases.append((dim, rows))
    feasible = infeasible = artificial_in_infeasible = 0
    for dim, rows in cases:
        entered = []
        sol = _phase1_simplex_fraction(rows, dim, entered)
        assert feasible_strict(rows, dim) == (None if sol is None else scale_to_int(sol)), rows
        if sol is None:
            infeasible += 1
            artificial_in_infeasible += any(j >= 2 * dim + len(rows) for j in entered)
        else:
            feasible += 1
            assert all(j < 2 * dim + len(rows) for j in entered), rows
    assert feasible > 100 and infeasible > 300
    # the infeasible systems do go on pivoting artificials in the full tableau
    assert artificial_in_infeasible


def test_library_imports_no_fractions():
    # one number type: every module of the library computes in Python ints
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "interarr").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(mod.split(".")[0] != "fractions" for mod in modules), path.name

def test_generic_point_avoids_hyperplanes():
    normals = [(1, -1, 0), (1, 1, 0), (1, 0, -1), (2, -1, 0)]
    p = generic_point(normals, 3)
    assert all(dot(a, p) != 0 for a in normals)


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((-2, 4)) == (1, -2)
    assert gcd_reduced((-2, 4)) == (-1, 2) and gcd_reduced((0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_int_rank_and_residual():
    eb = EchelonBasis()
    assert eb.add((1, 2)) and not eb.add((2, 4)) and eb.rank == 1
    eb = EchelonBasis()
    assert eb.add((2, 4, 6)) and eb.add((0, 3, 5))
    # zero at every pivot, and a nonzero multiple of v modulo the rows
    r = eb.residual((1, 1, 1))
    assert [r[p] for p in eb.pivots] == [0, 0] and any(r)
    assert eb.residual((2, 7, 11)) == [0, 0, 0]


# Test oracle: the one-pass Gauss-Jordan solve that the simplicial walk ran
# for a chamber's witness before the ray walk and the LP replaced it, kept
# verbatim; the facet-solve walk oracle of test_arrangement reads it.


def solve_square_int(rows, rhs) -> tuple[list[int], int] | None:
    """Solve an integer square system: (numerators, den), the solution being
    numerators / den and |den| the determinant's absolute value; None if
    singular.  One fraction-free Gauss-Jordan pass (Bareiss) over
    [rows | rhs]: each division by the previous pivot is exact, and the last
    pivot ends up on the whole diagonal, so the last column holds the
    numerators."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    d = len(m)
    prev = 1
    for k in range(d):
        piv = next((r for r in range(k, d) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        rk, pk = m[k], m[k][k]
        for i, ri in enumerate(m):
            if i != k:
                f = ri[k]
                for j in range(k + 1, d + 1):
                    ri[j] = (pk * ri[j] - f * rk[j]) // prev
        prev = pk
    return [r[d] for r in m], prev


# Test oracle: the Cramer solve the library ran before its one-pass
# Gauss-Jordan elimination, kept verbatim with its Bareiss determinant.


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


def solve_square_cramer(rows, rhs) -> tuple[list[int], int] | None:
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


def test_bareiss_and_solve():
    assert bareiss_det([(1, 2), (3, 4)]) == -2
    assert bareiss_det([(1, 2), (2, 4)]) == 0
    nums, den = solve_square_int([(2, 0), (1, 1)], (4, 5))
    assert [n / den for n in nums] == [2.0, 3.0]
    assert solve_square_int([(1, 1), (2, 2)], (1, 1)) is None
    assert solve_square_int([], []) == ([], 1)


def test_solve_matches_cramer_oracle():
    rng = random.Random(4242)
    singular = 0
    for d in range(1, 8):
        for _ in range(60):
            bound = rng.choice([1, 3, 50])
            rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
            if d > 1 and rng.random() < 0.3:
                # a dependent row, or a zero column, makes the system singular
                i, j = rng.sample(range(d), 2)
                if rng.random() < 0.5:
                    c = rng.randint(-3, 3)
                    rows[i] = [c * x for x in rows[j]]
                else:
                    for r in rows:
                        r[i] = 0
            rhs = [rng.randint(-bound, bound) for _ in range(d)]
            got, want = solve_square_int(rows, rhs), solve_square_cramer(rows, rhs)
            det = bareiss_det(rows)
            if want is None:
                singular += 1
                assert got is None and det == 0, (rows, rhs)
                continue
            nums, den = got
            assert abs(den) == abs(det), (rows, rhs)
            assert [x * want[1] for x in nums] == [y * den for y in want[0]], (rows, rhs)
    assert singular > 20


def test_echelon_basis():
    eb = EchelonBasis()
    assert eb.add((1, -1, 0)) and eb.add((0, 1, -1)) and not eb.add((1, 0, -1))
    assert not any(eb.residual((2, -1, -1))) and any(eb.residual((1, 1, 1)))
    assert eb.rank == 2
