"""Chow polynomials of geometric lattices by four independent routes.

1. labeled-chain sums over any R-labeling, aggregated by a rank-order
   sweep of prefix sums over each element's sorted last labels, with
   descent histograms packed into one int whose digits cannot carry
   (`labeling.enumerate_filtered_chains` streams the same chains),
2. a closed form for the rank-n braid lattice,
3. a closed form for the full type-B lattice,
4. the recursion through reduced characteristic polynomials of minors,
   reading chi of every [F, F'] from one `lattice.characteristic_polys`
   pass per flat F.

The chain route and the closed forms count their chains or tuples by
descents, and that histogram is the Chow polynomial's gamma vector, which
`poly.gamma_to_h` expands.

Also `characteristic_poly` of one interval (a lookup in that pass), the
oracle that checks it (Whitney's subset sum, grouped by span, reading
ranks and closures through `EchelonBasis` only), the closed forms' two
weights over one tuple domain, and the arithmeticity verifiers for the
intermediate-arrangement family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import prod

from .arrangement import Arrangement, make_family
from .labeling import el_label, filtered_descent_counts
from .lattice import GradedLattice, NotComparableError, characteristic_polys
from .linalg import EchelonBasis
from .permstats import maxima_census
from .poly import GammaVector, IntPolynomial, gamma_to_h, h_to_gamma, is_palindromic
from .signed_partitions import enumerate_lattice
from .topegraph import h_via_indegree


class NonDivisibleError(ArithmeticError):
    """Raised when a characteristic polynomial fails to vanish at t = 1."""


def characteristic_poly(lat: GradedLattice, lo: int, hi: int) -> IntPolynomial:
    """chi of the interval [lo, hi] in the corank convention:
    sum of mu(a) * t^(rank(hi) - rank(a))."""
    if not lat.leq(lo, hi):
        raise NotComparableError(f"element {lo} is not below {hi}")
    return IntPolynomial(characteristic_polys(lat, lo)[hi])


def divide_by_t_minus_1(p: IntPolynomial) -> IntPolynomial:
    """Exact synthetic division by (t - 1); loud failure on a remainder."""
    if p.is_zero():
        return p
    cs = p.coeffs
    q = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry += cs[i]
        q[i - 1] = carry
    if carry + cs[0] != 0:
        raise NonDivisibleError(f"(t - 1) does not divide {p.to_text()}")
    return IntPolynomial(q)


def char_poly_bruteforce(a: Arrangement) -> IntPolynomial:
    """Whitney's subset sum, sum over hyperplane subsets S of
    (-1)^|S| t^(k - rank(S)), grouped by span.  The hyperplanes are added
    one at a time, keeping for each span of the subsets seen so far (its
    closure as a hyperplane mask, with one echelon basis) their signed
    count.  Leaving hyperplane i out keeps a subset's span.  Taking i into a
    span that already holds it keeps the span and flips the sign, so the
    two cancel; taking it into any other span makes one new basis, whose
    closure is read from residuals.  Spans whose count is 0 are dropped, so
    the work is about m times the number of flats, not 2^m.  The
    independent oracle for the Moebius route."""
    normals = a.normals
    bases = {0: EchelonBasis()}
    counts = {0: 1}
    for i, v in enumerate(normals):
        taken: dict[int, int] = {}
        for mask, count in counts.items():
            span = mask
            if not mask >> i & 1:
                basis = bases[mask].copy()
                basis.add(v)
                span |= 1 << i
                for j, w in enumerate(normals):
                    if not span >> j & 1 and not any(basis.residual(w)):
                        span |= 1 << j
                bases.setdefault(span, basis)
            taken[span] = taken.get(span, 0) - count
        for span, count in taken.items():
            counts[span] = counts.get(span, 0) + count
        counts = {mask: count for mask, count in counts.items() if count}
    k = a.rank()
    coeffs = [0] * (k + 1)
    for mask, count in counts.items():
        coeffs[k - bases[mask].rank] += count
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# chain route


def chain_sum(descent_counts: dict[int, int], n: int) -> IntPolynomial:
    """sum over descent counts d of count(d) * t^d (t+1)^(n-1-2d), the Chow
    polynomial of a rank-n lattice (n >= 1) from its filtered chains: the
    histogram is its gamma vector of degree n - 1."""
    top = max(descent_counts, default=-1)
    return gamma_to_h(GammaVector(
        tuple(descent_counts.get(d, 0) for d in range(top + 1)), n - 1))


def chow_via_chains(lat: GradedLattice, labeler) -> IntPolynomial:
    """sum over filtered maximal chains of t^des (t+1)^(n-1-2des), with the
    chains aggregated by the rank-order sweep."""
    if lat.height == 0:
        return IntPolynomial.one()
    return chain_sum(filtered_descent_counts(lat, labeler), lat.height)


# ---------------------------------------------------------------------------
# closed forms


def _tuple_domain(n: int):
    """Tuples (a_1..a_n), a_i in {1..n+1-i}, first step weakly ascending and
    every descent preceded by a weak ascent."""
    boxes = [range(1, n + 1 - i) for i in range(n)]
    for tup in product(*boxes):
        if n >= 2 and tup[0] > tup[1]:
            continue
        ok = True
        descents = 0
        for j in range(n - 1):
            if tup[j] > tup[j + 1]:
                if j >= 1 and tup[j - 1] > tup[j]:
                    ok = False
                    break
                descents += 1
        if ok:
            yield tup, descents


def _chow_closed(n: int, weight) -> IntPolynomial:
    """sum over `_tuple_domain(n)` of prod(weight(a_i)) * t^des (t+1)^(n-1-2des)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = Counter()
    for tup, des in _tuple_domain(n):
        weights[des] += prod(map(weight, tup))
    return chain_sum(weights, n)


def chow_type_a(n: int) -> IntPolynomial:
    """Closed form for the rank-n braid lattice: weight a_1 * ... * a_n."""
    return _chow_closed(n, lambda a: a)


def chow_type_b(n: int) -> IntPolynomial:
    """Closed form for the full type-B lattice: weight prod(2 a_i - 1)."""
    return _chow_closed(n, lambda a: 2 * a - 1)


# ---------------------------------------------------------------------------
# recursion through reduced characteristic polynomials


def chow_recursive(lat: GradedLattice) -> IntPolynomial:
    """H(lattice) = sum over flats F > bottom of chibar([bottom, F]) * H([F, top]).

    Upper intervals of a geometric lattice are determined by their lower
    end, so the flag sum collapses to the one-step recursion at every flat:
    H([F, top]) for each F, kept in one list and filled from the top id
    down, so each F' > F, which has a higher id, is done before F.
    """
    upper = [IntPolynomial.one()] * len(lat)
    for f in reversed(range(lat.top)):
        total = IntPolynomial.zero()
        for f2, chi in characteristic_polys(lat, f).items():
            if f2 != f:
                total = total + divide_by_t_minus_1(IntPolynomial(chi)) * upper[f2]
        upper[f] = total
    return upper[0]


# ---------------------------------------------------------------------------
# the intermediate family and its arithmeticity


def dns_lattice(n: int, s: int) -> GradedLattice:
    """Partition-side lattice of flats of the intermediate arrangement."""
    return enumerate_lattice(n, s)


def chow_dns(n: int, s: int) -> IntPolynomial:
    return chow_via_chains(dns_lattice(n, s), el_label)


@dataclass
class ArithmeticityReport:
    """Outcome of an arithmetic-in-s verification; empty failures = pass."""

    n: int
    increment: object
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_chow_arithmetic(values: list) -> ArithmeticityReport:
    """Chow polynomials H_0..H_n of one n: consecutive differences all
    equal, and n*H_s = s*H_B + (n-s)*H_D with cleared denominators."""
    n = len(values) - 1
    failures = []
    increment = values[1] - values[0]
    for s in range(1, n):
        if values[s + 1] - values[s] != increment:
            failures.append(f"increment changes at s={s}")
    h_b, h_d = values[n], values[0]
    for s in range(n + 1):
        if n * values[s] != s * h_b + (n - s) * h_d:
            failures.append(f"interpolation identity fails at s={s}")
    return ArithmeticityReport(n, increment, failures)


def verify_chow_arithmetic(n: int) -> ArithmeticityReport:
    """`check_chow_arithmetic` on the chain-route Chow polynomials of
    dns(n, 0..n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return check_chow_arithmetic([chow_dns(n, s) for s in range(n + 1)])


def gamma_increment_closed(n: int) -> GammaVector:
    """Per-coordinate gamma increment: half the maxima census of S_(n-1)
    scaled by 4^k."""
    census = maxima_census(n - 1)
    entries = []
    for k in range(n // 2 + 1):
        num = census.get(k, 0) * 4 ** k
        if num % 2:
            raise ArithmeticError("odd census total; statistic bug")
        entries.append(num // 2)
    while entries and entries[-1] == 0:
        entries.pop()
    return GammaVector(tuple(entries), n)


def check_gamma_arithmetic(hs: list) -> ArithmeticityReport:
    """h-polynomials h_0..h_n of one n: each palindromic, with constant
    increments whose gamma vector matches the closed maxima-census formula."""
    n = len(hs) - 1
    failures = [f"h is not palindromic at s={s}" for s, h in enumerate(hs)
                if not is_palindromic(h)]
    inc_h = hs[1] - hs[0]
    for s in range(1, n):
        if hs[s + 1] - hs[s] != inc_h:
            failures.append(f"h increment changes at s={s}")
    closed = gamma_increment_closed(n)
    observed = h_to_gamma(inc_h, d=n)
    if observed.entries != closed.entries:
        failures.append(
            f"gamma increment {observed.entries} differs from closed form {closed.entries}")
    return ArithmeticityReport(n, observed, failures)


def verify_gamma_arithmetic(n: int) -> ArithmeticityReport:
    """`check_gamma_arithmetic` on the tope-graph h-polynomials of
    dns(n, 0..n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return check_gamma_arithmetic(
        [h_via_indegree(make_family("dns", n, s)) for s in range(n + 1)])
