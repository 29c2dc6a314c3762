"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as rational coefficient vectors on the spanning set
1, zeta, ..., zeta^(n-1); equality and zero tests reduce modulo the n-th
cyclotomic polynomial, so every comparison is exact.  Conductors are
lifted to a common multiple when elements of different fields meet.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .snf import rref

__all__ = ["Cyc", "cyclotomic_poly"]


def _poly_divmod(num, den):
    """Quotient/remainder of integer-coefficient polynomials (lists, low->high)."""
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    d = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % d != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= d
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients (low->high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_poly(d)))
            assert all(c == 0 for c in rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _root_trace(d):
    """Normalized trace mu(d)/phi(d) of a primitive d-th root of unity."""
    mu, phi, rest, p = 1, 1, d, 2
    while rest > 1:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            mu = 0 if e > 1 else -mu
            phi *= (p - 1) * p ** (e - 1)
        p += 1
    return Fraction(mu, phi)


_ZERO = Fraction(0)


class Cyc:
    """Element of Q(zeta_n): sum of c_k * zeta_n^k."""

    __slots__ = ("n", "c", "_red")

    def __init__(self, n, coeffs=None):
        self.n = n
        c = [Fraction(0)] * n
        if coeffs:
            for k, v in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
                c[k % n] += Fraction(v)
        self.c = c
        self._red = None

    @staticmethod
    def _of(n, c):
        """The element with coefficient list c, n Fractions, taken as it is."""
        out = Cyc.__new__(Cyc)
        out.n, out.c, out._red = n, c, None
        return out

    @staticmethod
    def from_ints(n, coeffs, den=1):
        """Cyc(n, coeffs) / den for a sequence of n ints, without Fraction additions."""
        return Cyc._of(n, [Fraction(v, den) if v else _ZERO for v in coeffs])

    @staticmethod
    def root(n, k=1):
        return Cyc(n, {k % n: 1})

    @staticmethod
    def rational(x, n=1):
        return Cyc(n, {0: Fraction(x)})

    def lift(self, m):
        """Reinterpret in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("conductor lift must be a multiple")
        c = [_ZERO] * m
        c[::m // self.n] = self.c
        return Cyc._of(m, c)

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        n = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyc._of(a.n, [x + y if x and y else x or y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc._of(self.n, [-x for x in self.c])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyc._of(a.n, [x - y if y else x for x, y in zip(a.c, b.c)])

    def __rsub__(self, other):
        return Cyc.rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc._of(self.n, [x * other for x in self.c])
        a, b = self._pair(other)
        out = [Fraction(0)] * a.n
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        out[(i + j) % a.n] += x * y
        return Cyc._of(a.n, out)

    __rmul__ = __mul__

    def conj(self):
        return Cyc._of(self.n, self.c[:1] + self.c[:0:-1])

    def reduced(self):
        """Canonical coefficients modulo Phi_n (degree < phi(n)), as a tuple."""
        if self._red is not None:
            return self._red
        phi = cyclotomic_poly(self.n)
        deg = len(phi) - 1
        c = list(self.c)
        for i in range(len(c) - 1, deg - 1, -1):
            f = c[i]
            if f:
                c[i] = Fraction(0)
                for j, pj in enumerate(phi[:-1]):
                    c[i - deg + j] -= f * pj
        self._red = tuple(c[:deg])
        return self._red

    def is_zero(self):
        return all(v == 0 for v in self.reduced())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            red = self.reduced()
            return red[0] == other and not any(red[1:])
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.reduced() == b.reduced()

    def __hash__(self):
        # The normalized trace sum_k c_k mu(d_k)/phi(d_k), d_k = n/gcd(n, k),
        # is the same in every field holding the value, so equal values of
        # different conductors hash alike; on rationals it is the value.
        n = self.n
        return hash(sum((v * _root_trace(n // math.gcd(n, k)) for k, v in enumerate(self.c) if v), Fraction(0)))

    def __complex__(self):
        return sum(
            float(v) * cmath.exp(2j * cmath.pi * k / self.n)
            for k, v in enumerate(self.c)
            if v
        ) + 0j

    def as_rational(self):
        """Return a Fraction if the value is rational, else None."""
        a = self.reduced()
        if all(v == 0 for v in a[1:]):
            return a[0]
        return None

    def inv(self):
        """Multiplicative inverse via exact linear algebra over Q."""
        deg = len(cyclotomic_poly(self.n)) - 1
        # solve M x = e_0, where column k of M is self * zeta^k in the reduced basis
        cols = [(self * Cyc(self.n, {k: 1})).reduced() for k in range(deg)]
        aug = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
        red, pivots = rref(aug)
        if pivots != list(range(deg)):
            raise ZeroDivisionError("not invertible")
        return Cyc(self.n, {k: red[k][deg] for k in range(deg)})

    def __rtruediv__(self, other):
        return self.inv() * other

    def to_json(self):
        red = self.reduced()
        return {
            "n": self.n,
            "coeffs": [[k, v.numerator, v.denominator] for k, v in enumerate(red) if v],
        }

    def __repr__(self):
        red = self.reduced()
        terms = [f"{v}*z{self.n}^{k}" for k, v in enumerate(red) if v]
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"
