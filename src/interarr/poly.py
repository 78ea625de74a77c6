"""Exact integer polynomial arithmetic and the f/h/gamma basis transforms.

Polynomials are dense integer coefficient vectors, constant term first,
with trailing zeros trimmed.  The zero polynomial has an empty coefficient
tuple and no degree.  All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class NonPalindromicError(ValueError):
    """Raised when a gamma expansion is requested for a non-palindromic input."""


class IntPolynomial:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> IntPolynomial:
        return cls(())

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

    @classmethod
    def t_power(cls, k: int, coeff: int = 1) -> IntPolynomial:
        return cls((0,) * k + (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial.  Undefined (error) for zero."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_argument(self, c: int) -> IntPolynomial:
        """Return p(t + c), expanded exactly (Horner on t + c)."""
        acc = IntPolynomial(())
        step = IntPolynomial((c, 1))
        for a in reversed(self.coeffs):
            acc = acc * step + IntPolynomial((a,))
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical rendering, highest degree first, e.g. "t^2 - 4*t + 3"."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def to_json_coeffs(self) -> list[str]:
        """Decimal strings, constant term first (the CLI wire encoding)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, items) -> IntPolynomial:
        return cls(tuple(int(s) for s in items))


@dataclass(frozen=True)
class GammaVector:
    """Coefficients of a palindromic h-polynomial in the basis t^i (1+t)^(d-2i).

    `d` is the degree of the h-polynomial the entries expand; it is carried
    along because the expansion basis depends on it.
    """

    entries: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.entries and 2 * (len(self.entries) - 1) > self.d:
            raise ValueError("gamma vector longer than floor(d/2) + 1")


def one_plus_t_power(k: int) -> IntPolynomial:
    """(1 + t)^k via binomial coefficients."""
    if k < 0:
        raise ValueError("negative exponent")
    return IntPolynomial(tuple(comb(k, i) for i in range(k + 1)))


def f_to_h(f: IntPolynomial) -> IntPolynomial:
    """Substitute t -> t - 1, i.e. return f(t - 1)."""
    return f.shift_argument(-1)


def is_palindromic(h: IntPolynomial) -> bool:
    """True iff the coefficient list reads the same reversed."""
    return h.coeffs == tuple(reversed(h.coeffs))


def h_to_gamma(h: IntPolynomial, d: int | None = None) -> GammaVector:
    """Expand a palindromic h in the gamma basis t^i (1+t)^(d-2i), the
    inverse of `gamma_to_h`.

    The coefficient of t^j in the expansion is sum over i <= j of
    gamma_i C(d-2i, j-i), so forward substitution reads each gamma_j from
    the low half of h: gamma_j = h_j - sum over i < j of gamma_i C(d-2i, j-i).
    Expanding the result back must give h; if it does not, the input was not
    palindromic of the claimed degree.

    `d` defaults to the degree of h; passing it explicitly expands inputs of
    deficient degree (such as differences of palindromic polynomials).
    """
    if h.is_zero():
        return GammaVector((), 0 if d is None else d)
    if d is None:
        if not is_palindromic(h):
            raise NonPalindromicError(f"not palindromic: {h.to_text()}")
        d = h.degree
    elif d < h.degree:
        raise ValueError("d smaller than the degree of h")
    entries = []
    for j in range(d // 2 + 1):
        entries.append(h[j] - sum(g * comb(d - 2 * i, j - i) for i, g in enumerate(entries)))
    while entries and entries[-1] == 0:
        entries.pop()
    gamma = GammaVector(tuple(entries), d)
    if gamma_to_h(gamma) != h:
        raise NonPalindromicError(f"gamma elimination left a remainder for {h.to_text()}")
    return gamma


def gamma_to_h(g: GammaVector) -> IntPolynomial:
    """Exact expansion of sum gamma_i t^i (1+t)^(d-2i), the library's one
    expansion in this basis."""
    acc = IntPolynomial(())
    for i, gi in enumerate(g.entries):
        if gi:
            acc = acc + IntPolynomial.t_power(i, gi) * one_plus_t_power(g.d - 2 * i)
    return acc
