"""Outward-rounded interval arithmetic over dyadic rationals.

Endpoints are exact ``Fraction`` values.  Polynomial enclosures are the
hull of the exact Bernstein coefficients over the box, computed in
Python integers over one common denominator and rounded outward onto the
2**-PRECISION_BITS grid once per bound (lower endpoints down, upper
endpoints up), so every computed interval encloses the true range.  No
hardware rounding is involved anywhere, which makes results
reproducible bit-for-bit across platforms.

``poly_mul`` and ``poly_sub`` are the package's exact arithmetic on
univariate coefficient lists: ``Poly2.__sub__`` and
``certify.eliminated_system`` both build on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from typing import Sequence

PRECISION_BITS = 112


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Fraction | int) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def entirely_negative(self) -> bool:
        return self.hi < 0

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def halves(self) -> tuple["Interval", "Interval"]:
        mid = self.midpoint()
        return Interval(self.lo, mid), Interval(mid, self.hi)

    def __repr__(self):
        return f"[{float(self.lo):.6g}, {float(self.hi):.6g}]"


class Poly2:
    """Polynomial in (r, s) with exact rational coefficients, at most
    linear in s.  Written as p0(r) + s * p1(r), each part a coefficient
    list, lowest degree first."""

    __slots__ = ("p0", "p1", "_integer_form")

    def __init__(self, p0: Sequence[Fraction] = (), p1: Sequence[Fraction] = ()):
        self.p0 = _trim([_rational(c) for c in p0])
        self.p1 = _trim([_rational(c) for c in p1])
        self._integer_form = None

    def __sub__(self, other: "Poly2") -> "Poly2":
        return Poly2(poly_sub(self.p0, other.p0), poly_sub(self.p1, other.p1))

    def integer_normalization(self) -> tuple["Poly2", Fraction]:
        """Scale by the positive rational that makes all coefficients
        integers with content 1: the cached common denominator over the
        gcd of the numerators.  Zero sets and signs are unchanged; returns
        the scaled polynomial, whose coefficients are ``int``s, and the
        factor applied."""
        num0, num1, q = self._integers()
        content = gcd(*num0, *num1)
        if content == 0:
            return self, Fraction(1)
        return (
            Poly2([c // content for c in num0], [c // content for c in num1]),
            Fraction(q, content),
        )

    def _integers(self) -> tuple[list[int], list[int], int]:
        if self._integer_form is None:
            self._integer_form = _integer_form(self.p0, self.p1)
        return self._integer_form

    def eval_exact(self, r: Fraction, s: Fraction) -> Fraction:
        """Exact value at (r, s) by Horner's rule in integers over the
        common denominator of the coefficients, with r = a/b handled
        homogeneously (sum N_i a^i b^(n-i)); one ``Fraction`` at the end."""
        num0, num1, q = self._integers()
        a, b = r.numerator, r.denominator
        h0 = h1 = 0
        bpow = 1
        for c0, c1 in zip(reversed(num0), reversed(num1)):
            h0 = h0 * a + c0 * bpow
            h1 = h1 * a + c1 * bpow
            bpow *= b
        # bpow is now b^(n+1), one factor more than the b^n of the value
        return Fraction((h0 * s.denominator + s.numerator * h1) * b, q * s.denominator * bpow)

    def eval_box(self, r: Interval, s: Interval, bits: int = PRECISION_BITS) -> Interval:
        """Bernstein enclosure over a box.

        The polynomial is linear in s, so its range over the box is the
        hull of the ranges at the two s endpoints.  With the coefficients
        written as N_i / Q and the r side as [A/D, (A+W)/D], p(A/D + v/D)
        equals q(A + v) / (Q D^n) for the integer polynomial
        q(x) = sum N_i D^(n-i) x^i.  q is Taylor-shifted by A (exact
        synthetic division in integers) to coefficients c_i in v over
        [0, W].  With a_i = c_i W^i, the degree-n Bernstein coefficients
        on u = v/W in [0, 1] are b_j = sum_{i<=j} C(j,i)/C(n,i) a_i, and
        the range lies between min b_j and max b_j.  Reversing a and
        Taylor-shifting it by 1 gives C(n, j) b_j at index n - j, using
        additions only.  Each b_j carries a weight C(j,i)/C(n,i) in
        [0, 1] on a_i, so these bounds are never looser than summing the
        monomial ranges.  Each s endpoint S/E gives exact bounds over the
        denominator Q D^n E, and the hull is rounded outward once.
        """
        num0, num1, q = self._integers()
        n = len(num0) - 1
        if n < 0:
            return Interval.point(0)
        d = lcm(r.lo.denominator, r.hi.denominator)
        a = r.lo.numerator * (d // r.lo.denominator)
        w = r.hi.numerator * (d // r.hi.denominator) - a
        dpow = [1]
        for _ in range(n):
            dpow.append(dpow[-1] * d)
        wpow = [1]
        for _ in range(n):
            wpow.append(wpow[-1] * w)
        scale, lcm_binom = _bernstein_scale(n)

        def bernstein(num):
            # L * b_j for j = n..0, with L the lcm of the C(n, j)
            shifted = _taylor_shift([c * dpow[n - i] for i, c in enumerate(num)], a)
            rev = _taylor_shift([c * wp for c, wp in zip(reversed(shifted), reversed(wpow))], 1)
            return [c * f for c, f in zip(rev, scale)]

        b0 = bernstein(num0)
        if self.p1:
            b1 = bernstein(num1)
            corners = []
            for e in (s.lo,) if s.lo == s.hi else (s.lo, s.hi):
                sn, sd = e.numerator, e.denominator
                corners.append(([sd * c0 + sn * c1 for c0, c1 in zip(b0, b1)], sd))
        else:
            corners = [(b0, 1)]
        lo = hi = None
        for coeffs, sd in corners:
            full = q * dpow[n] * sd * lcm_binom
            clo = (min(coeffs) << bits) // full
            chi = -((-max(coeffs) << bits) // full)
            lo = clo if lo is None else min(lo, clo)
            hi = chi if hi is None else max(hi, chi)
        return Interval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))

    def __repr__(self):
        return f"Poly2(p0={self.p0}, p1={self.p1})"


def _rational(c) -> Fraction | int:
    """``c`` itself when it is already exact, else its exact ``Fraction``
    (a float converts without rounding)."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of two univariate polynomials, each
    given lowest degree first; exact for ``int`` and ``Fraction``."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a: Sequence, b: Sequence) -> list:
    """Coefficients of a - b, lowest degree first, as long as the longer."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _integer_form(
    p0: Sequence[Fraction], p1: Sequence[Fraction]
) -> tuple[list[int], list[int], int]:
    """Integer numerators of p0 and p1, both padded to one length, and
    their common positive denominator."""
    q = lcm(*(c.denominator for c in (*p0, *p1)))
    length = max(len(p0), len(p1))

    def numerators(coeffs):
        return [c.numerator * (q // c.denominator) for c in coeffs] + [0] * (length - len(coeffs))

    return numerators(p0), numerators(p1), q


def _taylor_shift(c: list[int], a: int) -> list[int]:
    """Coefficients of q(a + v) given those of q(x), by repeated synthetic
    division, in place.  Exact."""
    d = len(c)
    if a != 0:
        for i in range(d - 1):
            for j in range(d - 2, i - 1, -1):
                c[j] += a * c[j + 1]
    return c


@cache
def _bernstein_scale(n: int) -> tuple[tuple[int, ...], int]:
    """The factors L / C(n, j) that put the degree-n Bernstein
    coefficients over one denominator, and L, the lcm of C(n, 0..n)."""
    binoms = [comb(n, j) for j in range(n + 1)]
    common = lcm(*binoms)
    return tuple(common // c for c in binoms), common
