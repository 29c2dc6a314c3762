"""Exact real scalars for dimension bookkeeping.

Quantum dimensions are kept as quadratic surds (a + b*sqrt(m))/den with
integer numerators and squarefree m whenever the Perron-Frobenius data is
quadratic; everything else is carried as a float with an explicit error
bound.  Sums and products stay exact inside one quadratic field; mixing
incompatible surds demotes to a certified float.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["QuadReal", "CertReal", "as_scalar", "scalar_eq", "scalar_json", "quad_numerators", "factorize", "EQ_TOL"]

# tolerance used for certified-float equality tests
EQ_TOL = 1e-9


def factorize(n):
    """The prime factorization {p: e} of an integer n >= 1, by trial
    division, primes ascending; ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def squarefree_split(n):
    """Return (f, m) with n = f*f*m and m squarefree, for n >= 0 (0 = 0*0*1)."""
    if n == 0:
        return 0, 1
    factors = factorize(n)
    return (math.prod(p ** (e // 2) for p, e in factors.items()),
            math.prod(p ** (e % 2) for p, e in factors.items()))


def _surd_sign(r, w, k):
    """Sign of r + w*sqrt(k) for rationals r, w and an integer k >= 0."""
    sr, sw = (r > 0) - (r < 0), (w > 0) - (w < 0)
    if sr == 0 or sw == 0 or sr == sw:
        return sr or sw
    lhs, rhs = r * r, w * w * k
    return sr * ((lhs > rhs) - (lhs < rhs))


def _sum_sign(p, b, m, d, n):
    """Sign of p + b*sqrt(m) + d*sqrt(n) for rationals p, b, d and integers
    m, n >= 1, exactly.

    s = b*sqrt(m) + d*sqrt(n) has the sign of its larger square term.  When
    p and s differ in sign, squaring compares p^2 with
    s^2 = b^2 m + d^2 n + 2 b d sqrt(m n), a sign in one quadratic field.
    """
    sb, sd, sp = (b > 0) - (b < 0), (d > 0) - (d < 0), (p > 0) - (p < 0)
    if sb * sd < 0:
        lhs, rhs = b * b * m, d * d * n
        s = sb * ((lhs > rhs) - (lhs < rhs))
    else:
        s = sb or sd
    if sp == 0 or s == 0 or sp == s:
        return sp or s
    big = _surd_sign(p * p - b * b * m - d * d * n, -2 * b * d, m * n)
    return sp if big > 0 else (s if big < 0 else 0)


class QuadReal:
    """Exact element a + b*sqrt(m) of a real quadratic field (m squarefree >= 2).

    Rationals are stored with m == 1 and b == 0.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m=1):
        a, b = Fraction(a), Fraction(b)
        if m < 1:
            raise ValueError("m must be >= 1")
        if b == 0:
            m = 1
        if m == 1:
            a, b = a + b, Fraction(0)
        self.a, self.b, self.m = a, b, m

    @staticmethod
    def root_of(p, q):
        """Positive root of x^2 = p*x + q (integers p, q), e.g. the golden ratio."""
        disc = p * p + 4 * q
        if disc < 0:
            raise ValueError("no real root")
        f, m = squarefree_split(disc)
        return QuadReal(Fraction(p, 2), Fraction(f, 2), m)

    @staticmethod
    def sqrt_int(n):
        f, m = squarefree_split(n)
        return QuadReal(0, f, m)

    def _compat(self, other):
        if not isinstance(other, QuadReal):
            return None
        if self.m == 1 or other.m == 1 or self.m == other.m:
            return max(self.m, other.m)
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadReal(other)
        if isinstance(other, CertReal):
            return self.to_cert() + other
        m = self._compat(other)
        if m is None:
            return self.to_cert() + other.to_cert()
        return QuadReal(self.a + other.a, self.b + other.b, m)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.a, -self.b, self.m)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadReal(other)
        return self + (-other)

    def __rsub__(self, other):
        return QuadReal(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadReal(other)
        if isinstance(other, CertReal):
            return self.to_cert() * other
        m = self._compat(other)
        if m is None:
            return self.to_cert() * other.to_cert()
        a = self.a * other.a + self.b * other.b * m
        b = self.a * other.b + self.b * other.a
        return QuadReal(a, b, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadReal(self.a / other, self.b / other, self.m)
        if isinstance(other, QuadReal):
            # multiply by the conjugate
            norm = other.a * other.a - other.b * other.b * other.m
            if norm == 0:
                raise ZeroDivisionError
            conj = QuadReal(other.a, -other.b, other.m)
            res = self * conj
            return QuadReal(res.a / norm, res.b / norm, res.m)
        return self.to_cert() / other

    def sign(self):
        return _surd_sign(self.a, self.b, self.m)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadReal(other)
        if isinstance(other, QuadReal):
            if self._compat(other) is None:
                return False
            return self.a == other.a and self.b == other.b
        if isinstance(other, CertReal):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.m))

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadReal(other)
        if isinstance(other, QuadReal):
            return _sum_sign(self.a - other.a, self.b, self.m, -other.b, other.m) < 0
        return float(self) < float(other)

    def __le__(self, other):
        return self == other or self < other

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def to_cert(self):
        return CertReal(float(self), abs(float(self)) * 1e-15 + 1e-300)

    def to_json(self):
        den = self.a.denominator
        den = den * self.b.denominator // math.gcd(den, self.b.denominator)
        return {
            "a": int(self.a * den),
            "b": int(self.b * den),
            "m": int(self.m),
            "den": int(den),
        }

    def __repr__(self):
        if self.b == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.m}))"


class CertReal:
    """Float with an explicit absolute error bound."""

    __slots__ = ("value", "err")

    def __init__(self, value, err):
        self.value = float(value)
        self.err = float(err)

    def __add__(self, other):
        other = as_scalar(other).to_cert() if not isinstance(other, CertReal) else other
        return CertReal(self.value + other.value, self.err + other.err + 1e-300)

    __radd__ = __add__

    def __neg__(self):
        return CertReal(-self.value, self.err)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, CertReal) else as_scalar(other).to_cert()))

    def __mul__(self, other):
        other = as_scalar(other).to_cert() if not isinstance(other, CertReal) else other
        err = abs(self.value) * other.err + abs(other.value) * self.err + self.err * other.err
        return CertReal(self.value * other.value, err + 1e-300)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other).to_cert() if not isinstance(other, CertReal) else other
        v = self.value / other.value
        err = (self.err + abs(v) * other.err) / abs(other.value)
        return CertReal(v, err + 1e-300)

    def __eq__(self, other):
        other_c = other if isinstance(other, CertReal) else as_scalar(other).to_cert()
        tol = max(EQ_TOL, self.err + other_c.err)
        return abs(self.value - other_c.value) <= tol

    def __hash__(self):  # pragma: no cover - CertReal is never dict-keyed
        return hash(round(self.value, 6))

    def __lt__(self, other):
        other_c = other if isinstance(other, CertReal) else as_scalar(other).to_cert()
        return self.value < other_c.value and not self == other_c

    def __float__(self):
        return self.value

    def to_cert(self):
        return self

    def to_json(self):
        return {"value": self.value, "err": self.err, "exact": False}

    def __repr__(self):
        return f"CertReal({self.value!r}, err={self.err:.2e})"


def as_scalar(x):
    """Coerce ints/Fractions/floats into the exact-scalar hierarchy."""
    if isinstance(x, (QuadReal, CertReal)):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadReal(x)
    if isinstance(x, float):
        if x == int(x):
            return QuadReal(int(x))
        return CertReal(x, abs(x) * 1e-12 + 1e-300)
    raise TypeError(f"cannot coerce {type(x)} to scalar")


def scalar_eq(x, y):
    """Equality across the QuadReal/CertReal mix (exact where possible)."""
    return as_scalar(x) == as_scalar(y)


def quad_numerators(values):
    """Integer numerators over one denominator for QuadReals of one field.

    Returns (a, b, m, den): lists a, b of Python ints, the squarefree m of
    the common field (1 when all values are rational) and den >= 1 with
    values[k] = (a[k] + b[k] * sqrt(m)) / den.  None when a value is not a
    QuadReal or two values lie in different fields.
    """
    if not all(isinstance(v, QuadReal) for v in values):
        return None
    fields = {v.m for v in values} - {1}
    if len(fields) > 1:
        return None
    den = math.lcm(*(c.denominator for v in values for c in (v.a, v.b)))
    a = [v.a.numerator * (den // v.a.denominator) for v in values]
    b = [v.b.numerator * (den // v.b.denominator) for v in values]
    return a, b, fields.pop() if fields else 1, den


def scalar_json(x):
    """JSON form of a scalar: its to_json() if it has one, else x itself."""
    return x.to_json() if hasattr(x, "to_json") else x
