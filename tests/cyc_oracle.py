"""Exact arithmetic on cyclotomic numbers, kept as a test oracle.

gxcat computes with roots of unity as int coefficient arrays and builds
``gxcat.cyclo.Cyc`` only to print and compare its outputs.  The field
operations that the doubles, the character tables and the Kirillov rank
test were computed with before that live here, on a subclass of that
``Cyc``: the Verlinde, untwisted-S, unitarity and Kirillov oracles run on
them, and ``reduced_by_division`` is the Fraction long division that
``Cyc.reduced`` replaced.  ``rref`` is Gauss-Jordan elimination over Q or
over these Cycs, for the oracles' exact solves.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from gxcat import cyclo


class Cyc(cyclo.Cyc):
    """gxcat's Cyc with +, -, *, conj, inverse and the rational tests."""

    __slots__ = ()

    @classmethod
    def of(cls, v):
        """v (a gxcat Cyc, int or Fraction) as an oracle Cyc."""
        return cls._of(v.n, v.c) if isinstance(v, cyclo.Cyc) else cls.rational(v)

    def _pair(self, other):
        if not isinstance(other, cyclo.Cyc):
            other = self.rational(other)
        n = math.lcm(self.n, other.n)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        return self._of(a.n, [x + y if x and y else x or y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.n, [-x for x in self.c])

    def __sub__(self, other):
        a, b = self._pair(other)
        return self._of(a.n, [x - y if y else x for x, y in zip(a.c, b.c)])

    def __rsub__(self, other):
        return self.rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._of(self.n, [x * other for x in self.c])
        a, b = self._pair(other)
        out = [Fraction(0)] * a.n
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        out[(i + j) % a.n] += x * y
        return self._of(a.n, out)

    __rmul__ = __mul__

    def conj(self):
        return self._of(self.n, self.c[:1] + self.c[:0:-1])

    def is_zero(self):
        return all(v == 0 for v in self.reduced())

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
        deg = len(cyclo.cyclotomic_poly(self.n)) - 1
        # solve M x = e_0, where column k of M is self * zeta^k in the reduced basis
        cols = [(self * self.root(self.n, k)).reduced() for k in range(deg)]
        aug = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
        red, pivots = rref(aug)
        if pivots != list(range(deg)):
            raise ZeroDivisionError("not invertible")
        return type(self)(self.n, {k: red[k][deg] for k in range(deg)})

    def __rtruediv__(self, other):
        return self.inv() * other


def reduced_by_division(v):
    """The coefficients of v modulo Phi_n by long division in Fractions."""
    phi = cyclo.cyclotomic_poly(v.n)
    deg = len(phi) - 1
    c = list(v.c)
    for i in range(len(c) - 1, deg - 1, -1):
        f = c[i]
        if f:
            c[i] = Fraction(0)
            for j, pj in enumerate(phi[:-1]):
                c[i - deg + j] -= f * pj
    return tuple(c[:deg])


def rref(rows):
    """Row-reduced echelon form over a field; returns (rows, pivot columns).

    Entries are Fractions or oracle Cycs.  Each pivot is inverted once; only
    the nonzero rows are returned.
    """
    a = [list(row) for row in rows]
    cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        support = [j for j in range(c, cols) if a[r][j] != 0]
        inv = 1 / a[r][c]
        for j in support:
            a[r][j] = a[r][j] * inv
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                for j in support:
                    a[i][j] = a[i][j] - f * a[r][j]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots
