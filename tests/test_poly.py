import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interarr.poly import (GammaVector, IntPolynomial, NonPalindromicError,
                           f_to_h, gamma_to_h, h_to_gamma,
                           is_palindromic, one_plus_t_power)


def test_f_to_h_constant():
    assert f_to_h(IntPolynomial((1,))) == IntPolynomial((1,))


def test_f_to_h_worked_examples():
    # 24 chambers: the rank-3 arrangement with f = (1, 14, 36, 24)
    f = IntPolynomial((24, 36, 14, 1))
    assert f_to_h(f) == IntPolynomial((1, 11, 11, 1))
    # 8 rays, 8 chambers in rank 2
    f2 = IntPolynomial((8, 8, 1))
    assert f_to_h(f2) == IntPolynomial((1, 6, 1))


def test_h_to_f_inverts():
    assert IntPolynomial((1,)).shift_argument(1) == IntPolynomial((1,))
    assert IntPolynomial((1, 11, 11, 1)).shift_argument(1) == IntPolynomial((24, 36, 14, 1))
    assert IntPolynomial((1, 6, 1)).shift_argument(1) == IntPolynomial((8, 8, 1))


def test_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(300):
        p = IntPolynomial([rng.randint(-50, 50) for _ in range(rng.randint(0, 13))])
        assert f_to_h(p).shift_argument(1) == p
        assert f_to_h(p.shift_argument(1)) == p


def test_is_palindromic():
    assert is_palindromic(IntPolynomial((1, 6, 1)))
    assert not is_palindromic(IntPolynomial((3, 5, 1)))
    assert is_palindromic(IntPolynomial(()))


def test_h_to_gamma_examples():
    g = h_to_gamma(IntPolynomial((1, 11, 11, 1)))
    assert g.entries == (1, 8) and g.d == 3
    assert h_to_gamma(IntPolynomial((1,))).entries == (1,)
    assert h_to_gamma(IntPolynomial((1, 23, 23, 1))).entries == (1, 20)


def test_h_to_gamma_rejects_non_palindromic():
    with pytest.raises(NonPalindromicError):
        h_to_gamma(IntPolynomial((3, 5, 1)))


def test_gamma_to_h_examples():
    assert gamma_to_h(GammaVector((1,), 0)) == IntPolynomial((1,))
    assert gamma_to_h(GammaVector((1, 8), 3)) == IntPolynomial((1, 11, 11, 1))
    # (1+t)^4 + 40 t (1+t)^2 + 16 t^2, expanded by binomials
    want = one_plus_t_power(4) + 40 * IntPolynomial((0, 1)) * one_plus_t_power(2) \
        + IntPolynomial((0, 0, 16))
    assert gamma_to_h(GammaVector((1, 40, 16), 4)) == want
    assert want == IntPolynomial((1, 44, 102, 44, 1))


def test_gamma_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(0, 12)
        entries = tuple(rng.randint(-9, 9) for _ in range(d // 2 + 1))
        h = gamma_to_h(GammaVector(entries, d))
        if h.is_zero():
            continue
        back = h_to_gamma(h, d=d)
        assert gamma_to_h(back) == h


def test_gamma_vector_length_guard():
    with pytest.raises(ValueError):
        GammaVector((1, 2, 3), 2)


def test_explicit_d_expansion_of_deficient_degree():
    # difference of palindromic polynomials loses its top degree
    delta = IntPolynomial((0, 4, 4))
    g = h_to_gamma(delta, d=3)
    assert g.entries == (0, 4)
    assert gamma_to_h(g) == delta


def test_zero_polynomial_degree_is_undefined():
    z = IntPolynomial(())
    assert z.is_zero()
    with pytest.raises(ValueError):
        _ = z.degree


def test_text_rendering():
    assert IntPolynomial((3, -4, 1)).to_text() == "t^2 - 4*t + 3"
    assert IntPolynomial(()).to_text() == "0"
    assert IntPolynomial((1, 11, 11, 1)).to_text() == "t^3 + 11*t^2 + 11*t + 1"
    assert IntPolynomial((0, -1)).to_text() == "-t"


def test_json_coeff_round_trip():
    p = IntPolynomial((1, 0, -7, 123456789123456789))
    assert IntPolynomial.from_json_coeffs(p.to_json_coeffs()) == p


def test_arithmetic_and_eval():
    p = IntPolynomial((1, 2))
    q = IntPolynomial((0, 0, 3))
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p + q)(2) == 5 + 12
    assert (p - p).is_zero()
    assert (4 * p).coeffs == (4, 8)


# Test oracle: `h_to_gamma` before forward substitution, which subtracted one
# basis polynomial per index from a residual, kept verbatim.


def h_to_gamma_by_elimination(h: IntPolynomial, d: int | None = None) -> GammaVector:
    if h.is_zero():
        return GammaVector((), 0 if d is None else d)
    if d is None:
        if not is_palindromic(h):
            raise NonPalindromicError(f"not palindromic: {h.to_text()}")
        d = h.degree
    elif d < h.degree:
        raise ValueError("d smaller than the degree of h")
    residual = h
    entries = []
    for i in range(d // 2 + 1):
        g = residual[i]
        entries.append(g)
        if g:
            residual = residual - IntPolynomial.t_power(i, g) * one_plus_t_power(d - 2 * i)
    if not residual.is_zero():
        raise NonPalindromicError(f"gamma elimination left a remainder for {h.to_text()}")
    while entries and entries[-1] == 0:
        entries.pop()
    return GammaVector(tuple(entries), d)


def _outcome(fn, h, d):
    try:
        return fn(h, d)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=8),
       st.sampled_from(["as drawn", "odd mirror", "even mirror", "gamma"]),
       st.one_of(st.none(), st.integers(-1, 3)))
def test_h_to_gamma_matches_the_elimination(coeffs, shape, extra):
    # palindromic or not, with d or without: equal values, or the same
    # exception type and message
    if shape == "odd mirror":
        coeffs = coeffs + coeffs[-2::-1]
    elif shape == "even mirror":
        coeffs = coeffs + coeffs[::-1]
    if shape == "gamma":
        d = len(coeffs) + (extra or 0)
        h = gamma_to_h(GammaVector(tuple(coeffs[:d // 2 + 1]), d))
    else:
        h = IntPolynomial(coeffs)
    d = None if extra is None else (0 if h.is_zero() else h.degree) + extra
    assert _outcome(h_to_gamma, h, d) == _outcome(h_to_gamma_by_elimination, h, d)
