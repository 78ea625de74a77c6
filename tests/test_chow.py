from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interarr.arrangement import (Arrangement, intersection_lattice, make_arrangement,
                                  make_family)
from interarr.chow import (NonDivisibleError, chain_sum,
                           char_poly_bruteforce, characteristic_poly,
                           check_chow_arithmetic, check_gamma_arithmetic, chow_dns,
                           chow_recursive, chow_type_a, chow_type_b,
                           chow_via_chains, divide_by_t_minus_1, dns_lattice,
                           gamma_increment_closed, verify_chow_arithmetic,
                           verify_gamma_arithmetic)
from interarr.fixtures import CHOW_A_EXAMPLES, CHOW_B_EXAMPLES, chow_table
from interarr.labeling import el_label, enumerate_filtered_chains, min_atom_label
from interarr.lattice import GradedLattice, NotComparableError, characteristic_polys
from interarr.linalg import EchelonBasis, primitive_vector
from interarr.poly import IntPolynomial, is_palindromic, one_plus_t_power
from interarr.topegraph import h_via_indegree
from test_arrangement import RANDOM_POOL


# Test oracles: the Moebius route before `characteristic_polys` fused it with
# the coefficient sums, one Moebius table per lower end and one interval per
# pair, kept verbatim apart from the interval's id list.


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


def characteristic_poly_oracle(lat: GradedLattice, lo: int, hi: int) -> IntPolynomial:
    """chi of [lo, hi] from `moebius` summed over the interval's ids."""
    ids = [v for v in lat.up_set(lo) if lat.leq(v, hi)]
    mu = moebius(lat, lo)
    top_rank = lat.rank[hi]
    coeffs = [0] * (top_rank - lat.rank[lo] + 1)
    for a in ids:
        coeffs[top_rank - lat.rank[a]] += mu[a]
    return IntPolynomial(coeffs)


def _mu(lat, base):
    """mu(base, hi) for every hi >= base: the constant terms of the library's chis."""
    return {hi: chi[0] for hi, chi in characteristic_polys(lat, base).items()}


def _oracle_lattices(pi_b, dns_lattices):
    lats = {"3-chain": GradedLattice(("a", "b", "c"), (0, 1, 2), ((1,), (2,), ()), 0, 2),
            "pi_b 3": pi_b[3], "a3": intersection_lattice(make_family("a", 3))}
    lats.update({f"dns 3 {s}": dns_lattices[(3, s)] for s in range(4)})
    lats.update({f"random {k}": intersection_lattice(a) for k, a in enumerate(RANDOM_POOL)})
    return lats


def test_characteristic_polys_match_the_moebius_oracle(pi_b, dns_lattices):
    for name, lat in _oracle_lattices(pi_b, dns_lattices).items():
        for lo in range(len(lat)):
            chis = characteristic_polys(lat, lo)
            assert sorted(chis) == sorted(lat.up_set(lo)), (name, lo)
            for hi, chi in chis.items():
                assert IntPolynomial(chi) == characteristic_poly_oracle(lat, lo, hi), \
                    (name, lo, hi)
                assert characteristic_poly(lat, lo, hi) == IntPolynomial(chi)
            assert _mu(lat, lo) == moebius(lat, lo), (name, lo)


def test_moebius_three_chain():
    lat = GradedLattice(("a", "b", "c"), (0, 1, 2), ((1,), (2,), ()), 0, 2)
    assert moebius(lat, 0) == _mu(lat, 0) == {0: 1, 1: -1, 2: 0}
    assert characteristic_polys(lat, 0) == {0: [1], 1: [-1, 1], 2: [0, -1, 1]}


def test_moebius_pi2(pi_b):
    lat = pi_b[2]
    table = _mu(lat, lat.bottom)
    assert table[lat.top] == 3
    assert sum(table.values()) == 0


def test_moebius_partial_sums_vanish(pi_b):
    lat = pi_b[3]
    for base in range(len(lat)):
        table = _mu(lat, base)
        for a in lat.up_set(base):
            total = sum(mu for b, mu in table.items() if lat.leq(b, a))
            assert total == (1 if a == base else 0)


def test_moebius_alternates_with_rank(pi_b):
    for n in (2, 3, 4):
        lat = pi_b[n]
        table = _mu(lat, lat.bottom)
        for i, mu in table.items():
            assert mu != 0
            assert (mu > 0) == (lat.rank[i] % 2 == 0)


def test_characteristic_poly_rank1():
    lat = GradedLattice(("a", "b"), (0, 1), ((1,), ()), 0, 1)
    assert characteristic_poly(lat, 0, 1) == IntPolynomial((-1, 1))
    assert divide_by_t_minus_1(characteristic_poly(lat, 0, 1)) == IntPolynomial((1,))


def test_characteristic_poly_b2():
    lat = intersection_lattice(make_family("b", 2))
    chi = characteristic_poly(lat, lat.bottom, lat.top)
    assert chi == IntPolynomial((3, -4, 1))
    assert divide_by_t_minus_1(chi) == IntPolynomial((-3, 1))


def test_characteristic_poly_not_comparable(pi_b):
    lat = pi_b[2]
    atoms = lat.atoms()
    with pytest.raises(NotComparableError):
        characteristic_poly(lat, atoms[0], atoms[1])


def test_char_poly_classical_b_factorization():
    for n in (2, 3, 4):
        lat = intersection_lattice(make_family("b", n))
        chi = characteristic_poly(lat, lat.bottom, lat.top)
        want = IntPolynomial((1,))
        for i in range(n):
            want = want * IntPolynomial((-(2 * i + 1), 1))
        assert chi == want


def test_char_poly_bruteforce_examples():
    b2 = make_family("b", 2)
    chi = char_poly_bruteforce(b2)
    assert chi == IntPolynomial((3, -4, 1))
    assert chi.coeffs[-1] == 1  # the empty subset contributes the leading term


def test_char_poly_bruteforce_takes_more_than_twenty_hyperplanes():
    # b5 has 25: the grouped sum works per flat, not per subset
    b5 = make_family("b", 5)
    lat = intersection_lattice(b5)
    assert char_poly_bruteforce(b5) == characteristic_poly(lat, lat.bottom, lat.top)


def test_char_poly_intermediate_closed_form():
    # chi of the intermediate family factors as
    # (t-1)(t-3)...(t-(2n-3)) * (t-(n+s-1)); derived cross-check
    for n in (3, 4):
        for s in range(n + 1):
            lat = intersection_lattice(make_family("dns", n, s))
            chi = characteristic_poly(lat, lat.bottom, lat.top)
            want = IntPolynomial((-(n + s - 1), 1))
            for i in range(1, n):
                want = want * IntPolynomial((-(2 * i - 1), 1))
            assert chi == want, (n, s)


def test_moebius_equals_subset_sum():
    cases = [(fam, n, None) for fam in "abd" for n in (3, 4)]
    cases += [("dns", n, s) for n in (3, 4) for s in range(n + 1)]
    for fam, n, s in cases:
        a = make_family(fam, n, s)
        lat = intersection_lattice(a)
        assert characteristic_poly(lat, lat.bottom, lat.top) == char_poly_bruteforce(a)


# Test oracle: Whitney's subset sum before it was grouped by span, one
# recursion over all 2^m subsets, kept verbatim apart from the guard.


def _char_poly_by_subsets(a) -> IntPolynomial:
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


def test_span_grouped_sum_matches_every_subset():
    # every a/b/d family and every dns(n, s) with at most 16 hyperplanes
    # (b_n and d_n are dns(n, n) and dns(n, 0), so each is summed once)
    cases = {}
    for n in range(1, 6):
        for fam, s in [("a", None), ("b", None), ("d", None)] + [("dns", s) for s in range(n + 1)]:
            a = make_family(fam, n, s)
            if a.m <= 16:
                cases.setdefault(a.normals, a)
    assert len(cases) == 18
    for a in list(cases.values()) + list(RANDOM_POOL):
        assert char_poly_bruteforce(a) == _char_poly_by_subsets(a), a.normals


@dataclass(frozen=True)
class _NormalList:
    """Integer normals read the way both subset sums read an `Arrangement`,
    without its checks: repeated, scaled and non-primitive normals pass."""

    dim: int
    normals: tuple[tuple[int, ...], ...]
    m = property(lambda self: len(self.normals))
    rank = Arrangement.rank


@st.composite
def _normal_lists(draw):
    """Up to 10 nonzero normals in dim 1..4: r <= dim independent generators
    (e_i plus a multiple of each later e_k; r < dim makes the arrangement
    non-essential), then combinations of them or copies of an earlier
    normal times one of -2, -1, 1, 2.  Hypothesis starts from the simplest
    draws, so r and the count are drawn from the top down."""
    dim = draw(st.integers(1, 4))
    r = draw(st.integers(1, dim).map(lambda r: dim + 1 - r))
    normals = [tuple(0 if k < i else 1 if k == i else draw(st.integers(-2, 2))
                     for k in range(dim)) for i in range(r)]
    gens = normals[:]
    weights = st.tuples(*[st.integers(-2, 2)] * r).filter(any)
    for _ in range(draw(st.integers(0, 10 - r).map(lambda k: 10 - r - k))):
        if draw(st.booleans()):
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            normals.append(tuple(c * x for x in draw(st.sampled_from(normals))))
        else:
            w = draw(weights)
            normals.append(tuple(sum(c * g[k] for c, g in zip(w, gens)) for k in range(dim)))
    return _NormalList(dim, tuple(normals))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_normal_lists())
@example(_NormalList(2, ((1, 0), (1, 0), (0, 1))))
@example(_NormalList(2, ((1, 2), (-2, -4), (1, -1))))
@example(_NormalList(3, ((1, 1, 0), (1, -1, 0), (2, 0, 0))))
def test_span_grouped_sum_property(multi):
    # repeats, scalar multiples and non-essential arrangements: the grouped
    # sum equals every subset's, and neither sees parallel copies
    chi = char_poly_bruteforce(multi)
    assert chi == _char_poly_by_subsets(multi), multi
    a = make_arrangement(multi.dim, sorted({primitive_vector(v) for v in multi.normals}))
    assert a.rank() == multi.rank()
    assert char_poly_bruteforce(a) == chi, multi
    if a.is_essential():
        lat = intersection_lattice(a)
        assert characteristic_poly(lat, lat.bottom, lat.top) == chi, multi


def test_divide_by_t_minus_1():
    assert divide_by_t_minus_1(IntPolynomial((-1, 0, 1))) == IntPolynomial((1, 1))
    with pytest.raises(NonDivisibleError):
        divide_by_t_minus_1(IntPolynomial((1, 1)))


def test_chow_type_a_examples():
    assert chow_type_a(1) == IntPolynomial((1,))
    for n, want in CHOW_A_EXAMPLES.items():
        assert chow_type_a(n) == want


def test_chow_type_b_examples():
    for n, want in CHOW_B_EXAMPLES.items():
        assert chow_type_b(n) == want
    assert chow_type_b(7) == IntPolynomial(
        (1, 28590, 1205199, 3724100, 1205199, 28590, 1))


# Test oracle: the chain sum before `poly.gamma_to_h` expanded it, one
# basis polynomial per descent count, kept verbatim.


def _chain_weight(descents: int, n: int) -> IntPolynomial:
    return IntPolynomial.t_power(descents) * one_plus_t_power(n - 1 - 2 * descents)


def chain_sum_by_weights(descent_counts: dict[int, int], n: int) -> IntPolynomial:
    acc = IntPolynomial.zero()
    for d, c in sorted(descent_counts.items()):
        acc = acc + c * _chain_weight(d, n)
    return acc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_sum_matches_the_basis_weights(data):
    n = data.draw(st.integers(1, 12))
    counts = data.draw(st.dictionaries(st.integers(0, (n - 1) // 2),
                                       st.integers(-10 ** 6, 10 ** 6)))
    assert chain_sum(counts, n) == chain_sum_by_weights(counts, n)


def test_chow_chain_methods_agree(dns_lattices):
    for (n, s), lat in dns_lattices.items():
        chains = enumerate_filtered_chains(lat, el_label)
        dfs = chain_sum(Counter(c.descent_count for c in chains), lat.height)
        sweep = chow_via_chains(lat, el_label)
        assert dfs == sweep, (n, s)
        assert dfs == chow_table()[n][s]


def test_chow_rank_zero_and_one():
    lat0 = GradedLattice(("x",), (0,), ((),), 0, 0)
    assert chow_via_chains(lat0, el_label) == IntPolynomial((1,))
    assert chow_recursive(lat0) == IntPolynomial((1,))
    lat1 = GradedLattice(("x", "y"), (0, 1), ((1,), ()), 0, 1)
    assert chow_recursive(lat1) == IntPolynomial((1,))


def test_chow_recursive_matches_chains(dns_lattices, pi_b):
    for (n, s) in [(2, 0), (3, 0), (3, 2), (4, 0), (4, 1), (4, 4)]:
        lat = dns_lattices[(n, s)]
        assert chow_recursive(lat) == chow_via_chains(lat, el_label), (n, s)
    assert chow_recursive(pi_b[3]) == IntPolynomial((1, 14, 1))


def _chow_flag_sum(lat):
    """Oracle for the memo of `chow_recursive`: the full flag sum over every
    chain bottom < F_1 < ... < top of the chibar of each step, unmemoized."""
    def upper(f):
        if f == lat.top:
            return IntPolynomial.one()
        total = IntPolynomial.zero()
        for f2 in lat.up_set(f):
            if f2 != f:
                chi = characteristic_poly_oracle(lat, f, f2)
                total = total + divide_by_t_minus_1(chi) * upper(f2)
        return total

    return upper(lat.bottom)


def test_chow_recursive_cache_soundness(dns_lattices):
    for s in range(4):
        lat = dns_lattices[(3, s)]
        assert chow_recursive(lat) == _chow_flag_sum(lat)


def test_chow_braid_lattice_matches_type_a():
    for n in (2, 3, 4):
        lat = intersection_lattice(make_family("a", n))
        got = chow_via_chains(lat, min_atom_label(lat))
        assert got == chow_type_a(n)
        assert chow_recursive(lat) == got


def test_chow_on_partition_lattice_via_min_atom_labeling():
    # the chain formula is labeling-independent: the generic least-atom
    # labeling of the arrangement-side lattice gives the same polynomial
    for n in (2, 3):
        lat = intersection_lattice(make_family("b", n))
        assert chow_via_chains(lat, min_atom_label(lat)) == chow_type_b(n)


def test_chow_palindromic(dns_lattices):
    for lat in dns_lattices.values():
        assert is_palindromic(chow_via_chains(lat, el_label))


def test_verify_chow_arithmetic_small():
    r2 = verify_chow_arithmetic(2)
    assert r2.ok and r2.increment.is_zero()
    r4 = verify_chow_arithmetic(4)
    assert r4.ok and r4.increment == IntPolynomial((0, 10, 10))
    r6 = verify_chow_arithmetic(6)
    assert r6.ok and r6.increment == IntPolynomial((0, 256, 4976, 4976, 256))


def test_verify_gamma_arithmetic_small():
    r3 = verify_gamma_arithmetic(3)
    assert r3.ok and r3.increment.entries == (0, 4)
    r4 = verify_gamma_arithmetic(4)
    assert r4.ok and r4.increment.entries == (0, 8, 16)


def test_arithmetic_checks_report_broken_values():
    # the checks that criterion 4 applies to the fixture values
    chows = [chow_dns(3, s) for s in range(4)]
    chows[1] = chows[1] + IntPolynomial.t_power(1)
    assert check_chow_arithmetic(chows).failures == [
        "increment changes at s=1", "increment changes at s=2",
        "interpolation identity fails at s=1"]
    # a bump growing linearly in s keeps the increments equal but moves
    # the increment's gamma vector off the closed form
    hs = [h_via_indegree(make_family("dns", 3, s)) + s * IntPolynomial((0, 1, 1))
          for s in range(4)]
    assert check_gamma_arithmetic(hs).failures == [
        "gamma increment (0, 5) differs from closed form (0, 4)"]
    # a bump that breaks the symmetry of every h but not the increments
    hs = [h_via_indegree(make_family("dns", 3, s)) + IntPolynomial((0, 1)) for s in range(4)]
    assert check_gamma_arithmetic(hs).failures == [
        f"h is not palindromic at s={s}" for s in range(4)]


def test_gamma_increment_closed_values():
    assert gamma_increment_closed(3).entries == (0, 4)
    assert gamma_increment_closed(4).entries == (0, 8, 16)
    assert gamma_increment_closed(5).entries == (0, 16, 128)


def test_chow_dns_nontrivial_row():
    assert chow_dns(5, 2) == IntPolynomial((1, 478, 2298, 478, 1))


def test_four_way_agreement_n5():
    table = chow_table()
    for s in range(6):
        lat = dns_lattice(5, s)
        chains = chow_via_chains(lat, el_label)
        assert chains == chow_recursive(lat) == table[5][s], s


def test_type_b_closed_matches_chains_up_to_6():
    from interarr.signed_partitions import enumerate_lattice, variant_b

    for n in (5, 6):
        lat = enumerate_lattice(variant_b(n))
        assert chow_via_chains(lat, el_label) == chow_type_b(n)


def test_type_a_closed_matches_chains_n5():
    lat = intersection_lattice(make_family("a", 5))
    assert chow_via_chains(lat, min_atom_label(lat)) == chow_type_a(5)


def test_reduced_char_poly_is_monic(pi_b):
    lat = pi_b[3]
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if lat.rank[hi] > lat.rank[lo]:
                chibar = divide_by_t_minus_1(characteristic_poly(lat, lo, hi))
                assert chibar.coeffs[-1] == 1


def test_chow_chi_vanishes_at_one(pi_b):
    lat = pi_b[3]
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if lat.rank[hi] > lat.rank[lo]:
                assert characteristic_poly(lat, lo, hi)(1) == 0
