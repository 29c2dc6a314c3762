"""Cyclotomic numbers at the output boundary.

gxcat computes with roots of unity as int64 coefficient arrays over one
zeta_m (see chartab); Cyc wraps such a vector where a value leaves the
library: the T and S entries of a double and the Kirillov matrix.  A Cyc
is a rational coefficient vector on the spanning set 1, zeta, ...,
zeta^(n-1); equality and hashing reduce modulo the n-th cyclotomic
polynomial, so they are exact across conductors.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CELL_CAP, InvariantError, ResourceLimit
from .exact import factorize

__all__ = ["Cyc", "cyclotomic_poly", "reduction_bound", "reduction_matrix"]


def _divide_monic(num, den):
    """Quotient and remainder of int polynomials (lists, low->high), den monic."""
    num, k = list(num), len(den) - 1
    q = [0] * max(1, len(num) - k)
    for i in range(len(num) - 1 - k, -1, -1):
        q[i] = c = num[i + k]
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return q, num[:k]


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients (low->high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divide_monic(poly, cyclotomic_poly(d))
            if any(rem):
                raise InvariantError(f"cyclotomic_poly({n}): division by Phi_{d} left a remainder")
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_matrix(m):
    """Read-only int64 array (m, phi(m)): row e holds the coefficients of x^e mod Phi_m.

    ResourceLimit when its cells exceed CELL_CAP, before Phi_m is built.
    """
    cells = m * _totient(factorize(m))
    if cells > CELL_CAP:
        raise ResourceLimit(f"reduction mod Phi_{m}: {cells} cells exceed the cell cap {CELL_CAP}")
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows, r = [], [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(r)
        top, r = r[-1], [0] + r[:-1]
        r = [c - top * f for c, f in zip(r, phi)]
    out = np.array(rows, dtype=np.int64).reshape(m, deg)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def reduction_bound(m):
    """max |coefficient| of x^e mod Phi_m over 0 <= e < m."""
    return int(np.abs(reduction_matrix(m)).max())


@lru_cache(maxsize=None)
def _root_trace(d):
    """Normalized trace mu(d)/phi(d) of a primitive d-th root of unity."""
    factors = factorize(d)
    mu = 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)
    return Fraction(mu, _totient(factors))


def _totient(factors):
    """phi(n) from the factorization {p: e} of n."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


_ZERO = Fraction(0)


class Cyc:
    """Element of Q(zeta_n): sum of c_k * zeta_n^k."""

    __slots__ = ("n", "c", "_red")

    def __init__(self, n, coeffs=()):
        self.n, self.c, self._red = n, [_ZERO] * n, None
        for k, v in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
            self.c[k % n] += Fraction(v)

    @classmethod
    def _of(cls, n, c):
        """The element with coefficient list c, n Fractions, taken as it is."""
        out = cls.__new__(cls)
        out.n, out.c, out._red = n, c, None
        return out

    @classmethod
    def from_ints(cls, n, coeffs, den=1):
        """Cyc(n, coeffs) / den for a sequence of n ints, without Fraction additions."""
        return cls._of(n, [Fraction(v, den) if v else _ZERO for v in coeffs])

    @classmethod
    def root(cls, n, k=1):
        return cls(n, {k % n: 1})

    @classmethod
    def rational(cls, x, n=1):
        return cls(n, {0: Fraction(x)})

    def lift(self, m):
        """Reinterpret in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("conductor lift must be a multiple")
        c = [_ZERO] * m
        c[::m // self.n] = self.c
        return self._of(m, c)

    def reduced(self):
        """Canonical coefficients modulo Phi_n (degree < phi(n)), as a tuple:
        the numerators over their common denominator times reduction_matrix(n),
        one int64 product (in Python ints if int64 could overflow)."""
        if self._red is None:
            nonzero = [(k, v) for k, v in enumerate(self.c) if v]
            den = math.lcm(*(v.denominator for _, v in nonzero))
            nums = [v.numerator * (den // v.denominator) for _, v in nonzero]
            rows = reduction_matrix(self.n)[[k for k, _ in nonzero]]
            if sum(map(abs, nums)) * reduction_bound(self.n) < 1 << 63:
                red = (np.array(nums, dtype=np.int64) @ rows).tolist()
            else:
                red = [sum(map(operator.mul, nums, col)) for col in rows.T.tolist()]
            self._red = tuple(Fraction(v, den) if v else _ZERO for v in red)
        return self._red

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        n = math.lcm(self.n, other.n)
        return self.lift(n).reduced() == other.lift(n).reduced()

    def __hash__(self):
        # The normalized trace sum_k c_k mu(d_k)/phi(d_k), d_k = n/gcd(n, k),
        # is the same in every field holding the value, so equal values of
        # different conductors hash alike; on rationals it is the value.
        n = self.n
        return hash(sum((v * _root_trace(n // math.gcd(n, k)) for k, v in enumerate(self.c) if v), Fraction(0)))

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
