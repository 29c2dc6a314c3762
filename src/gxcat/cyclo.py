"""Cyclotomic numbers at the output boundary.

gxcat computes with roots of unity as int64 coefficient arrays over one
zeta_m (see chartab).  Cyc wraps such a row where a value leaves the library
(T, S, the Kirillov matrix): int coefficients on 1, zeta_n, ..., zeta_n^(n-1)
over one int denominator.  emit prints many at once, reduced mod Phi_n; equality
compares those forms and the hash is the normalized trace, exact across conductors.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CELL_CAP, InvariantError, ResourceLimit
from .exact import factorize

__all__ = ["Cyc", "cyclotomic_poly", "emit", "reduction_bound", "reduction_matrix"]


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


def emit(values):
    """The JSON form {"n": n, "coeffs": [[k, num, den], ...]} of each Cyc in
    values: its nonzero coefficients mod Phi_n in lowest terms.  The rows of
    one conductor n take one product with reduction_matrix(n), in int64 when
    reduction_bound(n) * sum |c_k| < 2^63 for each, else in Python ints."""
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(v.n, []).append(i)
    out = [None] * len(values)
    for n, idx in groups.items():
        rows, dens = [values[i].c for i in idx], [values[i].d for i in idx]
        mat = reduction_matrix(n)
        if max(sum(map(abs, r)) for r in rows) * reduction_bound(n) < 1 << 63 and max(dens) < 1 << 63:
            red = np.array(rows, dtype=np.int64) @ mat
            hit = red != 0
            red, den = red[hit], np.broadcast_to(np.array(dens, dtype=np.int64)[:, None], hit.shape)[hit]
            common = np.gcd(red, den)
            flat = np.stack([np.nonzero(hit)[1], red // common, den // common], axis=1).tolist()
            ends = np.cumsum(np.count_nonzero(hit, axis=1)).tolist()
            coeffs = [flat[a:b] for a, b in zip([0] + ends, ends)]
        else:
            cols = mat.T.tolist()
            red = [[sum(map(operator.mul, r, col)) for col in cols] for r in rows]
            coeffs = [[[k, v // math.gcd(v, d), d // math.gcd(v, d)] for k, v in enumerate(r) if v] for r, d in zip(red, dens)]
        for i, c in zip(idx, coeffs):
            out[i] = {"n": n, "coeffs": c}
    return out


@lru_cache(maxsize=None)
def _root_trace(d):
    """Normalized trace mu(d)/phi(d) of a primitive d-th root of unity."""
    factors = factorize(d)
    mu = 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)
    return Fraction(mu, _totient(factors))


def _totient(factors):
    """phi(n) from the factorization {p: e} of n."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


class Cyc:
    """Element of Q(zeta_n): sum of c_k * zeta_n^k / d, for n ints c_k and an int d > 0."""

    __slots__ = ("n", "c", "d")

    def __init__(self, n, coeffs=()):
        acc = [Fraction(0)] * n
        for k, v in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
            acc[k % n] += Fraction(v)
        d = math.lcm(*(v.denominator for v in acc))
        self.n, self.c, self.d = n, [v.numerator * (d // v.denominator) for v in acc], d

    @classmethod
    def from_ints(cls, n, coeffs, den=1):
        """Cyc(n, coeffs) / den for a sequence of n ints, taken as it is."""
        out = cls.__new__(cls)
        out.n, out.c, out.d = n, coeffs, den
        return out

    @classmethod
    def root(cls, n, k=1):
        return cls(n, {k % n: 1})

    @classmethod
    def rational(cls, x, n=1):
        return cls(n, {0: x})

    def lift(self, m):
        """Reinterpret in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("conductor lift must be a multiple")
        c = [0] * m
        c[::m // self.n] = self.c
        return self.from_ints(m, c, self.d)

    def reduced(self):
        """Canonical coefficients mod Phi_n: [k, numerator, denominator] of
        each nonzero one, in lowest terms (the "coeffs" of to_json)."""
        return emit([self])[0]["coeffs"]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        n = math.lcm(self.n, other.n)
        return self.lift(n).reduced() == other.lift(n).reduced()

    def __hash__(self):
        # The normalized trace sum_k c_k mu(d_k)/phi(d_k) / d, d_k = n/gcd(n, k),
        # is the same in every field holding the value, so equal values of
        # different conductors hash alike; on rationals it is the value.
        n = self.n
        return hash(sum((v * _root_trace(n // math.gcd(n, k)) for k, v in enumerate(self.c) if v), Fraction(0)) / self.d)

    def to_json(self):
        return emit([self])[0]

    def __repr__(self):
        terms = [(f"{a}" if b == 1 else f"{a}/{b}") + f"*z{self.n}^{k}" for k, a, b in self.reduced()]
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"
