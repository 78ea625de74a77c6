import random
from itertools import permutations

import pytest

from interarr.permstats import (_census, _halve, _phi, h_b_closed, h_d_closed,
                                increment_closed, inversion_sequence, maxima,
                                maxima_census, peaks)
from interarr.poly import IntPolynomial, h_to_gamma, one_plus_t_power


def horizontal_flip(u) -> tuple[int, ...]:
    """Entrywise complement (n+1-u_1, ..., n+1-u_n); an involution."""
    n = len(u)
    return tuple(n + 1 - x for x in u)


def test_descents_of_inversion_sequence_match():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 8)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        a = inversion_sequence(sigma)
        assert sum(x > y for x, y in zip(a, a[1:])) == \
            sum(x > y for x, y in zip(sigma, sigma[1:]))


def test_peaks():
    assert peaks((1, 2, 3)) == 0  # the right boundary n+1 kills the final rise
    assert peaks((1, 3, 2)) == 1
    census = {}
    for u in permutations(range(1, 4)):
        census[peaks(u)] = census.get(peaks(u), 0) + 1
    assert census == {0: 1, 1: 5}


def test_maxima():
    assert maxima((1, 2, 3)) == 1
    assert maxima((2, 1, 3)) == 2
    assert maxima_census(2) == {1: 2}


def test_horizontal_flip():
    assert horizontal_flip((1, 3, 2)) == (3, 1, 2)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 8)
        u = list(range(1, n + 1))
        rng.shuffle(u)
        assert horizontal_flip(horizontal_flip(u)) == tuple(u)


def test_peak_maxima_flip_law():
    # permutations starting with their maximum: peaks = maxima of the
    # flipped tail
    for n in range(2, 7):
        for tail in permutations(range(1, n)):
            u = (n,) + tail
            assert peaks(u) == maxima(horizontal_flip(tail))


def test_inversion_sequence_examples():
    assert inversion_sequence((1, 2, 3)) == (1, 1, 1)
    assert inversion_sequence((2, 1)) == (2, 1)


def test_inversion_sequence_bijectivity():
    for n in range(1, 8):
        seen = set()
        for sigma in permutations(range(1, n + 1)):
            inv = inversion_sequence(sigma)
            assert all(1 <= inv[i] <= n - i for i in range(n))
            seen.add(inv)
        assert len(seen) == len(list(permutations(range(n))))


def test_h_b_closed_values():
    assert h_b_closed(3) == IntPolynomial((1, 23, 23, 1))
    assert h_to_gamma(h_b_closed(3)).entries == (1, 20)


def test_h_d_closed_values():
    assert h_d_closed(3) == IntPolynomial((1, 11, 11, 1))
    assert h_to_gamma(h_d_closed(3)).entries == (1, 8)
    assert h_to_gamma(h_d_closed(4)).entries == (1, 40, 16)
    with pytest.raises(ValueError):
        h_d_closed(2)


def test_increment_closed_values():
    assert increment_closed(3) == IntPolynomial((0, 4, 4))
    assert h_to_gamma(increment_closed(4), d=4).entries == (0, 8, 16)


# Test oracle: the census sum before `poly.gamma_to_h` expanded it, one
# basis polynomial per census entry, kept verbatim.


def census_poly_by_basis(census: dict[int, int], n: int) -> IntPolynomial:
    acc = IntPolynomial.zero()
    for k, c in sorted(census.items()):
        acc = acc + IntPolynomial.t_power(k, c * 4 ** k) * one_plus_t_power(n - 2 * k)
    return acc


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_forms_match_the_census_loop(n):
    assert h_b_closed(n) == census_poly_by_basis(_census(n, peaks), n)
    if n >= 2:
        want = _halve(census_poly_by_basis(_census(n - 1, maxima), n))
        assert increment_closed(n) == want
    if n >= 3:
        want = _halve(census_poly_by_basis(_census(n, peaks, _phi), n))
        assert h_d_closed(n) == want


def test_b_minus_d_is_n_increments():
    for n in (3, 4, 5):
        assert h_b_closed(n) - h_d_closed(n) == n * increment_closed(n)


def test_gamma_b_closed():
    assert h_to_gamma(h_b_closed(1)).entries == (1,)
    assert h_to_gamma(h_b_closed(3)).entries == (1, 20)
    assert h_to_gamma(h_b_closed(4)).entries == (1, 72, 80)


def test_gamma_d_le_gamma_b():
    for n in range(3, 8):
        gd = h_to_gamma(h_d_closed(n), d=n).entries
        gb = h_to_gamma(h_b_closed(n)).entries
        assert len(gd) <= len(gb)
        assert all(d <= b for d, b in zip(gd, gb))


def test_closed_forms_match_tope_graph():
    from interarr.arrangement import make_family
    from interarr.topegraph import h_via_indegree

    for n in range(1, 6):
        assert h_b_closed(n) == h_via_indegree(make_family("b", n)), n
    for n in (3, 4):
        assert h_d_closed(n) == h_via_indegree(make_family("d", n)), n
