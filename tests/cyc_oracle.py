"""Exact arithmetic on cyclotomic numbers, kept as a test oracle.

gxcat computes with roots of unity as int coefficient arrays and builds
``gxcat.cyclo.Cyc`` (int rows over one denominator) only to print and
compare its outputs.  The field operations that the doubles, the character
tables and the Kirillov rank test were computed with before that live here,
on a Cyc of one ``Fraction`` per coefficient, with its own reduction, JSON
form, equality and hash: the Verlinde, untwisted-S, unitarity and Kirillov
oracles run on it, ``reduced_by_division`` is the Fraction long division
that ``gxcat.cyclo`` replaced, and ``Cyc.to_json`` is the JSON that
``gxcat.cyclo.emit`` must print.  ``rref`` is Gauss-Jordan elimination over
Q or over these Cycs, for the oracles' exact solves.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from gxcat import cyclo


class Cyc:
    """Element of Q(zeta_n): sum of c_k * zeta_n^k, c a list of n Fractions,
    with +, -, *, conj, inverse and the rational tests."""

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs=()):
        self.n, self.c = n, [Fraction(0)] * n
        for k, v in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
            self.c[k % n] += Fraction(v)

    @classmethod
    def _of(cls, n, c):
        """The element with coefficient list c, n Fractions, taken as it is."""
        out = cls.__new__(cls)
        out.n, out.c = n, c
        return out

    @classmethod
    def from_ints(cls, n, coeffs, den=1):
        return cls._of(n, [Fraction(v, den) for v in coeffs])

    @classmethod
    def root(cls, n, k=1):
        return cls(n, {k % n: 1})

    @classmethod
    def rational(cls, x, n=1):
        return cls(n, {0: Fraction(x)})

    @classmethod
    def of(cls, v):
        """v (a gxcat Cyc, an oracle Cyc, int or Fraction) as an oracle Cyc."""
        if isinstance(v, Cyc):
            return v
        if isinstance(v, cyclo.Cyc):
            return cls.from_ints(v.n, v.c, v.d)
        return cls.rational(v)

    def lift(self, m):
        """Reinterpret in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("conductor lift must be a multiple")
        c = [Fraction(0)] * m
        c[::m // self.n] = self.c
        return self._of(m, c)

    def reduced(self):
        return reduced_by_division(self)

    def to_json(self):
        return {"n": self.n, "coeffs": [[k, v.numerator, v.denominator] for k, v in enumerate(self.reduced()) if v]}

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, cyclo.Cyc)):
            other = self.of(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.reduced() == b.reduced()

    def __hash__(self):
        # the normalized trace: the mean of the conjugates, a rational that
        # every field holding the value gives alike
        return hash(sum((v * _primitive_mean(self.n // math.gcd(self.n, k)) for k, v in enumerate(self.c) if v),
                        Fraction(0)))

    def _pair(self, other):
        other = self.of(other)
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


def _primitive_mean(d):
    """mu(d) / phi(d), the mean of the primitive d-th roots of unity, summed in floats."""
    prim = [k for k in range(d) if math.gcd(k, d) == 1]
    return Fraction(round(sum(cmath.exp(2j * cmath.pi * k / d) for k in prim).real), len(prim))


def reduced_by_division(v):
    """The coefficients of v (a gxcat or oracle Cyc) modulo Phi_n by long division in Fractions."""
    v = Cyc.of(v)
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
