"""Permutation statistics and the closed-form h-polynomials built on them.

Two rise-fall statistics with different boundary conventions live here:
peaks pad the permutation with 0 on the left and n+1 on the right, maxima
pad with 0 on both sides.  They are deliberately separate functions.
"""

from __future__ import annotations

from itertools import permutations

from .poly import GammaVector, IntPolynomial, gamma_to_h


class OddSumError(ArithmeticError):
    """Raised when a sum that must halve exactly turns out odd."""


def peaks(u) -> int:
    """Rise-then-fall positions with boundary values u_0 = 0, u_(n+1) = n+1."""
    n = len(u)
    padded = (0,) + tuple(u) + (n + 1,)
    return sum(1 for i in range(1, n + 1)
               if padded[i - 1] < padded[i] > padded[i + 1])


def maxima(u) -> int:
    """Rise-then-fall positions with boundary values u_0 = u_(n+1) = 0."""
    padded = (0,) + tuple(u) + (0,)
    return sum(1 for i in range(1, len(u) + 1)
               if padded[i - 1] < padded[i] > padded[i + 1])


def inversion_sequence(sigma) -> tuple[int, ...]:
    """a_i = #{j >= i : sigma_j <= sigma_i}; bijects S_n with the box
    {1..n} x {1..n-1} x ... x {1}."""
    n = len(sigma)
    return tuple(sum(1 for j in range(i, n) if sigma[j] <= sigma[i])
                 for i in range(n))


def _phi(u) -> int:
    if u[0] < u[1] < u[2]:
        return 2
    if u[1] < u[0] < u[2]:
        return 0
    return 1


def _halve(p: IntPolynomial) -> IntPolynomial:
    if any(c % 2 for c in p.coeffs):
        raise OddSumError(f"sum is not exactly halvable: {p.to_text()}")
    return IntPolynomial(tuple(c // 2 for c in p.coeffs))


def _census(n: int, stat, weight=None) -> dict[int, int]:
    """For each value k of `stat`, the total weight (1 each by default) of
    the permutations u of [n] with stat(u) = k."""
    out: dict[int, int] = {}
    for u in permutations(range(1, n + 1)):
        k = stat(u)
        out[k] = out.get(k, 0) + (weight(u) if weight else 1)
    return out


def _census_poly(census: dict[int, int], n: int) -> IntPolynomial:
    """sum over the census of c * (4t)^k (1+t)^(n-2k): the census scaled by
    4^k is a gamma vector of degree n."""
    return gamma_to_h(GammaVector(
        tuple(census.get(k, 0) * 4 ** k for k in range(max(census) + 1)), n))


def h_b_closed(n: int) -> IntPolynomial:
    """h-polynomial of the full type-B arrangement via the peak census:
    sum over S_n of (4t)^p(u) (1+t)^(n-2p(u))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _census_poly(_census(n, peaks), n)


def h_d_closed(n: int) -> IntPolynomial:
    """h-polynomial of the type-D arrangement: the peak census weighted by
    the first-three-entries pattern, halved exactly.  Needs n >= 3 since the
    weight inspects u_1, u_2, u_3."""
    if n < 3:
        raise ValueError("the type-D closed form needs n >= 3")
    return _halve(_census_poly(_census(n, peaks, _phi), n))


def increment_closed(n: int) -> IntPolynomial:
    """The h-increment between consecutive intermediate arrangements:
    half the maxima census of S_(n-1), sum (4t)^m(u) (1+t)^(n-2m(u))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _halve(_census_poly(_census(n - 1, maxima), n))


def maxima_census(n: int) -> dict[int, int]:
    """How many permutations of [n] have k maxima, for each k."""
    return _census(n, maxima)
