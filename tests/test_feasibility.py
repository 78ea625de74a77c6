import random

from interarr.feasibility import feasible_strict, generic_point
from interarr.linalg import (EchelonBasis, bareiss_det, dot, int_rank,
                             integer_kernel_basis, primitive_vector,
                             solve_square_int)


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


def test_generic_point_avoids_hyperplanes():
    normals = [(1, -1, 0), (1, 1, 0), (1, 0, -1), (2, -1, 0)]
    p = generic_point(normals, 3)
    assert all(dot(a, p) != 0 for a in normals)


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((-2, 4)) == (1, -2)


def test_int_rank_and_kernel():
    assert int_rank([(1, 2), (2, 4)]) == 1
    kb = integer_kernel_basis([(1, 1, 1)], 3)
    assert len(kb) == 2 and all(dot((1, 1, 1), v) == 0 for v in kb)
    kb2 = integer_kernel_basis([(2, 4, 6), (0, 0, 5)], 3)
    assert len(kb2) == 1 and dot((2, 4, 6), kb2[0]) == 0 and kb2[0][2] == 0


def test_bareiss_and_solve():
    assert bareiss_det([(1, 2), (3, 4)]) == -2
    assert bareiss_det([(1, 2), (2, 4)]) == 0
    nums, den = solve_square_int([(2, 0), (1, 1)], (4, 5))
    assert [n / den for n in nums] == [2.0, 3.0]
    assert solve_square_int([(1, 1), (2, 2)], (1, 1)) is None


def test_echelon_basis():
    eb = EchelonBasis()
    assert eb.add((1, -1, 0)) and eb.add((0, 1, -1)) and not eb.add((1, 0, -1))
    assert eb.contains((2, -1, -1)) and not eb.contains((1, 1, 1))
    assert eb.rank == 2
