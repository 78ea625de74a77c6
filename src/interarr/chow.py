"""Chow polynomials of geometric lattices by four independent routes.

1. labeled-chain sums over any R-labeling (pruned DFS, or the same sum
   aggregated by a rank-layer sweep for the big lattices),
2. a closed form for the rank-n braid lattice,
3. a closed form for the full type-B lattice,
4. the recursion through reduced characteristic polynomials of minors.

Also the Moebius/characteristic-polynomial machinery these need, the
2^m subset-sum oracle, and the arithmeticity verifiers for the
intermediate-arrangement family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .arrangement import Arrangement, make_family
from .labeling import el_label, enumerate_filtered_chains, filtered_descent_counts
from .lattice import GradedLattice
from .linalg import EchelonBasis
from .permstats import maxima_census
from .poly import GammaVector, IntPolynomial, h_to_gamma, one_plus_t_power
from .signed_partitions import enumerate_lattice, variant_dns
from .topegraph import h_via_indegree


class NonDivisibleError(ArithmeticError):
    """Raised when a characteristic polynomial fails to vanish at t = 1."""


class TooLargeError(ValueError):
    """Raised when the subset-sum oracle is asked for more than 2^20 subsets."""


def moebius(lat: GradedLattice, base: int) -> dict[int, int]:
    """Moebius values on [base, top]: mu(base) = 1 and mu(a) = -sum of mu
    over [base, a), by rank order."""
    up = lat.up_set(base)
    up_mask = 0
    for v in up:
        up_mask |= 1 << v
    masks = lat._ensure_down_masks()
    values: dict[int, int] = {}
    for a in sorted(up, key=lambda v: lat.rank[v]):
        if a == base:
            values[a] = 1
            continue
        below = masks[a] & up_mask & ~(1 << a)
        total = 0
        while below:
            lsb = below & -below
            total += values[lsb.bit_length() - 1]
            below ^= lsb
        values[a] = -total
    return values


def characteristic_poly(lat: GradedLattice, lo: int, hi: int) -> IntPolynomial:
    """chi of the interval [lo, hi] in the corank convention:
    sum of mu(a) * t^(rank(hi) - rank(a))."""
    ids = lat.interval(lo, hi)  # raises NotComparableError
    mu = moebius(lat, lo)
    top_rank = lat.rank[hi]
    coeffs = [0] * (top_rank - lat.rank[lo] + 1)
    for a in ids:
        coeffs[top_rank - lat.rank[a]] += mu[a]
    return IntPolynomial(coeffs)


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


def reduced_characteristic_poly(lat: GradedLattice, lo: int, hi: int) -> IntPolynomial:
    return divide_by_t_minus_1(characteristic_poly(lat, lo, hi))


def char_poly_bruteforce(a: Arrangement) -> IntPolynomial:
    """Subset-sum characteristic polynomial: sum over all hyperplane subsets
    of (-1)^|S| t^(k - rank(S)).  The independent oracle for the Moebius
    route; guarded to 2^20 subsets."""
    if a.m > 20:
        raise TooLargeError(f"{a.m} hyperplanes exceed the 2^20 subset guard")
    k = a.rank()
    coeffs = [0] * (k + 1)
    normals = a.normals

    def rec(idx: int, basis: EchelonBasis, parity: int) -> None:
        if idx == len(normals):
            coeffs[k - basis.rank] += -1 if parity else 1
            return
        rec(idx + 1, basis, parity)
        b2 = basis.copy()
        b2.add(normals[idx])
        rec(idx + 1, b2, parity ^ 1)

    rec(0, EchelonBasis(), 0)
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# chain route


def _chain_weight(descents: int, n: int) -> IntPolynomial:
    return IntPolynomial.t_power(descents) * one_plus_t_power(n - 1 - 2 * descents)


def chow_via_chains(lat: GradedLattice, labeler, method: str = "auto") -> IntPolynomial:
    """sum over filtered maximal chains of t^des (t+1)^(n-1-2des).

    method "dfs" streams chains one by one; "layered" aggregates the same
    pruned prefix tree rank by rank; "auto" picks by lattice size.  Both
    compute the identical sum.
    """
    n = lat.height
    if n == 0:
        return IntPolynomial.one()
    if method == "auto":
        method = "dfs" if len(lat) <= 1000 else "layered"
    if method == "dfs":
        counts: dict[int, int] = {}
        for chain in enumerate_filtered_chains(lat, labeler):
            d = chain.descent_count
            counts[d] = counts.get(d, 0) + 1
    elif method == "layered":
        counts = filtered_descent_counts(lat, labeler)
    else:
        raise ValueError(f"unknown chain method {method!r}")
    acc = IntPolynomial.zero()
    for d, c in sorted(counts.items()):
        acc = acc + c * _chain_weight(d, n)
    return acc


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


def chow_type_a(n: int) -> IntPolynomial:
    """Closed form for the rank-n braid lattice: weight a_1 * ... * a_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = IntPolynomial.zero()
    for tup, des in _tuple_domain(n):
        w = 1
        for a in tup:
            w *= a
        acc = acc + w * _chain_weight(des, n)
    return acc


def chow_type_b(n: int) -> IntPolynomial:
    """Closed form for the full type-B lattice: weight prod(2 a_i - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = IntPolynomial.zero()
    for tup, des in _tuple_domain(n):
        w = 1
        for a in tup:
            w *= 2 * a - 1
        acc = acc + w * _chain_weight(des, n)
    return acc


# ---------------------------------------------------------------------------
# recursion through reduced characteristic polynomials


def chow_recursive(lat: GradedLattice, use_cache: bool = True) -> IntPolynomial:
    """H(lattice) = sum over flats F > bottom of chibar([bottom, F]) * H([F, top]).

    Upper intervals of a geometric lattice are determined by their lower
    end, so memoizing on F collapses the flag sum to the one-step recursion.
    `use_cache=False` expands the full flag sum instead (a soundness check).
    """
    top = lat.top
    top_rank = lat.rank[top]
    cache: dict[int, IntPolynomial] = {}

    def upper(f: int) -> IntPolynomial:
        if lat.rank[f] == top_rank:
            return IntPolynomial.one()
        if use_cache and f in cache:
            return cache[f]
        mu = moebius(lat, f)
        up = lat.up_set(f)
        masks = lat._ensure_down_masks()
        total = IntPolynomial.zero()
        for f2 in up:
            if f2 == f:
                continue
            r2 = lat.rank[f2]
            coeffs = [0] * (r2 - lat.rank[f] + 1)
            m2 = masks[f2]
            for b in up:
                if m2 >> b & 1:
                    coeffs[r2 - lat.rank[b]] += mu[b]
            chibar = divide_by_t_minus_1(IntPolynomial(coeffs))
            total = total + chibar * upper(f2)
        if use_cache:
            cache[f] = total
        return total

    return upper(lat.bottom)


# ---------------------------------------------------------------------------
# the intermediate family and its arithmeticity


def dns_lattice(n: int, s: int) -> GradedLattice:
    """Partition-side lattice of flats of the intermediate arrangement."""
    return enumerate_lattice(variant_dns(n, s))


def chow_dns(n: int, s: int) -> IntPolynomial:
    return chow_via_chains(dns_lattice(n, s), el_label)


@dataclass
class ArithmeticityReport:
    """Outcome of an arithmetic-in-s verification; empty failures = pass."""

    n: int
    values: list
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
    return ArithmeticityReport(n, values, increment, failures)


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
    """h-polynomials h_0..h_n of one n: constant increments whose gamma
    vector matches the closed maxima-census formula."""
    n = len(hs) - 1
    failures = []
    inc_h = hs[1] - hs[0]
    for s in range(1, n):
        if hs[s + 1] - hs[s] != inc_h:
            failures.append(f"h increment changes at s={s}")
    closed = gamma_increment_closed(n)
    observed = h_to_gamma(inc_h, d=n)
    if observed.entries != closed.entries:
        failures.append(
            f"gamma increment {observed.entries} differs from closed form {closed.entries}")
    return ArithmeticityReport(n, [h_to_gamma(h) for h in hs], observed, failures)


def verify_gamma_arithmetic(n: int) -> ArithmeticityReport:
    """`check_gamma_arithmetic` on the tope-graph h-polynomials of
    dns(n, 0..n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return check_gamma_arithmetic(
        [h_via_indegree(make_family("dns", n, s)) for s in range(n + 1)])
