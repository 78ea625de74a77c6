import pytest

from interarr.arrangement import intersection_lattice, make_family
from interarr.chow import (NonDivisibleError, TooLargeError,
                           char_poly_bruteforce, characteristic_poly,
                           check_chow_arithmetic, check_gamma_arithmetic, chow_dns,
                           chow_recursive, chow_type_a, chow_type_b,
                           chow_via_chains, divide_by_t_minus_1, dns_lattice,
                           gamma_increment_closed, moebius,
                           reduced_characteristic_poly, verify_chow_arithmetic,
                           verify_gamma_arithmetic)
from interarr.fixtures import CHOW_A_EXAMPLES, CHOW_B_EXAMPLES, chow_table
from interarr.labeling import el_label, min_atom_label
from interarr.lattice import GradedLattice, NotComparableError
from interarr.poly import IntPolynomial, is_palindromic
from interarr.topegraph import h_via_indegree


def test_moebius_three_chain():
    lat = GradedLattice(("a", "b", "c"), (0, 1, 2), ((1,), (2,), ()), 0, 2)
    assert moebius(lat, 0) == {0: 1, 1: -1, 2: 0}


def test_moebius_pi2(pi_b):
    lat = pi_b[2]
    table = moebius(lat, lat.bottom)
    assert table[lat.top] == 3
    assert sum(table.values()) == 0


def test_moebius_partial_sums_vanish(pi_b):
    lat = pi_b[3]
    for base in range(len(lat)):
        table = moebius(lat, base)
        masks = lat._ensure_down_masks()
        for a in lat.up_set(base):
            total = sum(mu for b, mu in table.items() if masks[a] >> b & 1)
            assert total == (1 if a == base else 0)


def test_moebius_alternates_with_rank(pi_b):
    for n in (2, 3, 4):
        lat = pi_b[n]
        table = moebius(lat, lat.bottom)
        for i, mu in table.items():
            assert mu != 0
            assert (mu > 0) == (lat.rank[i] % 2 == 0)


def test_characteristic_poly_rank1():
    lat = GradedLattice(("a", "b"), (0, 1), ((1,), ()), 0, 1)
    assert characteristic_poly(lat, 0, 1) == IntPolynomial((-1, 1))
    assert reduced_characteristic_poly(lat, 0, 1) == IntPolynomial((1,))


def test_characteristic_poly_b2():
    lat = intersection_lattice(make_family("b", 2))
    chi = characteristic_poly(lat, lat.bottom, lat.top)
    assert chi == IntPolynomial((3, -4, 1))
    assert reduced_characteristic_poly(lat, lat.bottom, lat.top) == IntPolynomial((-3, 1))


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


def test_char_poly_bruteforce_guard():
    with pytest.raises(TooLargeError):
        char_poly_bruteforce(make_family("b", 5))


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
    cases = [("a", 3, None), ("b", 3, None), ("d", 3, None)]
    cases += [("dns", 3, s) for s in range(4)]
    for fam, n, s in cases:
        a = make_family(fam, n, s)
        lat = intersection_lattice(a)
        assert characteristic_poly(lat, lat.bottom, lat.top) == char_poly_bruteforce(a)


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


def test_chow_chain_methods_agree(dns_lattices):
    for (n, s), lat in dns_lattices.items():
        dfs = chow_via_chains(lat, el_label, method="dfs")
        layered = chow_via_chains(lat, el_label, method="layered")
        assert dfs == layered, (n, s)
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


def test_chow_recursive_cache_soundness(dns_lattices):
    for s in range(4):
        lat = dns_lattices[(3, s)]
        assert chow_recursive(lat, use_cache=True) == chow_recursive(lat, use_cache=False)


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
        assert chow_via_chains(lat, el_label, method="layered") == chow_type_b(n)


def test_type_a_closed_matches_chains_n5():
    lat = intersection_lattice(make_family("a", 5))
    assert chow_via_chains(lat, min_atom_label(lat), method="dfs") == chow_type_a(5)


def test_reduced_char_poly_is_monic(pi_b):
    lat = pi_b[3]
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if lat.rank[hi] > lat.rank[lo]:
                chibar = reduced_characteristic_poly(lat, lo, hi)
                assert chibar.coeffs[-1] == 1


def test_chow_chi_vanishes_at_one(pi_b):
    lat = pi_b[3]
    for lo in range(len(lat)):
        for hi in lat.up_set(lo):
            if lat.rank[hi] > lat.rank[lo]:
                assert characteristic_poly(lat, lo, hi)(1) == 0
