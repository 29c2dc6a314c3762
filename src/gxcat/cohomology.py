"""Group cohomology with roots-of-unity coefficients.

Cochains live on the normalized bar complex: a degree-n cochain assigns an
element of Z/N (the angle numerator of exp(2*pi*i*v/N)) to each n-tuple of
non-identity group elements; tuples containing the identity are 0 by
convention.  The simplicial coboundary is

    (dc)(g1,...,g_{n+1}) = c(g2,...,g_{n+1})
        + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1})
        + (-1)^{n+1} c(g1,...,g_n)

Cohomology groups are read off integer Smith normal forms of the lifted
differentials: with C* free, H^k(G, Z/N) decomposes as
H^k(G,Z) (x) Z/N  (+)  Tor(H^{k+1}(G,Z), Z/N), and for k >= 1 the torsion
of H^k(G,Z) is exactly the invariant-factor list of the (k-1)-st
differential.  Representatives are pulled back through the SNF
change-of-basis matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import FiniteGroup, GroupError, subgroup
from . import snf

__all__ = [
    "TorsionCocycle",
    "CohomologyGroup",
    "ResourceLimit",
    "coboundary",
    "is_cocycle",
    "is_coboundary",
    "cohomology_group",
    "u1_cohomology",
    "transgress",
    "brute_force_order",
]

CELL_CAP = 1 << 25
MAX_N = 360


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed the desk-scale guards."""


@dataclass(frozen=True)
class TorsionCocycle:
    """Normalized cochain G^degree -> Z/n (additive angle numerators)."""

    group: FiniteGroup
    degree: int
    n: int
    values: tuple  # sorted tuple of ((g1,...,gk), v) with v != 0, no identity slots

    @staticmethod
    def make(group, degree, n, values):
        vals = {}
        for key, v in (values.items() if isinstance(values, dict) else values):
            key = tuple(int(g) for g in key)
            if len(key) != degree:
                raise ValueError(f"tuple {key} has wrong length for degree {degree}")
            if any(g < 0 or g >= group.order for g in key):
                raise ValueError(f"tuple {key} out of range")
            if 0 in key:
                if v % n:
                    raise ValueError(f"not normalized: nonzero value on {key}")
                continue
            v = int(v) % n
            if v:
                vals[key] = v
        return TorsionCocycle(group, degree, n, tuple(sorted(vals.items())))

    def __call__(self, *args):
        if len(args) != self.degree:
            raise ValueError("arity mismatch")
        if 0 in args:
            return 0
        return dict(self.values).get(tuple(args), 0)

    def value_map(self):
        return dict(self.values)

    def is_zero(self):
        return not self.values

    def __add__(self, other):
        assert (self.group, self.degree, self.n) == (other.group, other.degree, other.n)
        vals = dict(self.values)
        for k, v in other.values:
            vals[k] = (vals.get(k, 0) + v) % self.n
        return TorsionCocycle.make(self.group, self.degree, self.n, vals)

    def scaled(self, factor):
        return TorsionCocycle.make(
            self.group, self.degree, self.n, {k: v * factor for k, v in self.values}
        )

    def inflated(self, new_n):
        """Push values along Z/n -> Z/new_n (n | new_n)."""
        if new_n % self.n:
            raise ValueError("inflation target must be a multiple of n")
        f = new_n // self.n
        return TorsionCocycle.make(
            self.group, self.degree, new_n, {k: v * f for k, v in self.values}
        )


def _tuples(g, k):
    """Non-identity k-tuples in lexicographic order."""
    return itertools.product(range(1, g.order), repeat=k)


def _tuple_index(g, t):
    idx = 0
    for x in t:
        idx = idx * (g.order - 1) + (x - 1)
    return idx


def coboundary_value(c, t):
    """Evaluate (dc) on a (degree+1)-tuple."""
    g, n = c.group, c.n
    k = c.degree
    total = c(*t[1:])
    sign = -1
    for i in range(k):
        merged = t[:i] + (g.mul[t[i]][t[i + 1]],) + t[i + 2 :]
        total += sign * c(*merged)
        sign = -sign
    total += sign * c(*t[:k])
    return total % n


def coboundary(c: TorsionCocycle) -> TorsionCocycle:
    g = c.group
    vals = {}
    for t in _tuples(g, c.degree + 1):
        v = coboundary_value(c, t)
        if v:
            vals[t] = v
    return TorsionCocycle.make(g, c.degree + 1, c.n, vals)


def is_cocycle(c: TorsionCocycle):
    """(True, None) if dc = 0, else (False, lexicographically least witness)."""
    for t in _tuples(c.group, c.degree + 1):
        if coboundary_value(c, t):
            return False, t
    return True, None


def _guard_cells(g, k, what):
    rows = (g.order - 1) ** (k + 1)
    cols = (g.order - 1) ** k
    if rows * cols > CELL_CAP:
        raise ResourceLimit(
            f"{what}: differential matrix {rows}x{cols} exceeds the cell cap"
        )
    return rows, cols


@lru_cache(maxsize=None)
def bar_matrix(g: FiniteGroup, k: int):
    """Integer matrix of the degree-k differential C^k -> C^{k+1}."""
    if k == 0:
        return np.zeros(((g.order - 1), 1), dtype=np.int64)
    rows, cols = _guard_cells(g, k, "bar_matrix")
    mat = np.zeros((rows, cols), dtype=np.int64)
    for r, t in enumerate(_tuples(g, k + 1)):
        if 0 not in t[1:]:
            mat[r, _tuple_index(g, t[1:])] += 1
        sign = -1
        for i in range(k):
            merged = t[:i] + (g.mul[t[i]][t[i + 1]],) + t[i + 2 :]
            if 0 not in merged:
                mat[r, _tuple_index(g, merged)] += sign
            sign = -sign
        if 0 not in t[:k]:
            mat[r, _tuple_index(g, t[:k])] += sign
    return mat


def _vectorize(c: TorsionCocycle):
    g = c.group
    v = np.zeros((g.order - 1) ** c.degree, dtype=np.int64)
    for t, val in c.values:
        v[_tuple_index(g, t)] = val
    return v


def _from_vector(g, k, n, vec):
    vals = {}
    for i, t in enumerate(_tuples(g, k)):
        if vec[i] % n:
            vals[t] = int(vec[i]) % n
    return TorsionCocycle.make(g, k, n, vals)


@dataclass(frozen=True)
class CohomologyGroup:
    invariant_factors: tuple  # canonical chain, each dividing the next
    representatives: tuple  # TorsionCocycle generators (direct-sum form)
    generator_orders: tuple  # order of each representative's class

    @property
    def order(self):
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self):
        return not self.invariant_factors


@lru_cache(maxsize=None)
def _snf_transforms(g: FiniteGroup, k: int):
    return snf.snf_z_transforms(bar_matrix(g, k))


def cohomology_group(g: FiniteGroup, k: int, n: int) -> CohomologyGroup:
    """H^k(G, mu_n) with cocycle representatives.

    Via universal coefficients: the (H^k(G,Z) tensor Z/n) part contributes
    cokernel generators of the (k-1)-differential, the Tor(H^{k+1}(G,Z), Z/n)
    part contributes (n/d)-multiples of preimages along the k-differential.
    """
    if k < 1 or k > 4:
        raise GroupError("degree k must be in 1..4")
    if n < 1 or n > MAX_N:
        raise GroupError(f"N must be in 1..{MAX_N}")
    _guard_cells(g, k, "cohomology_group")
    reps = []
    orders = []
    # tensor part: torsion classes of coker(D_{k-1}), pulled back via U^{-1}
    diag_low, u_inv_low, _ = _snf_transforms(g, k - 1)
    for i, d in enumerate(diag_low):
        od = math.gcd(d, n)
        if od > 1:
            vec = np.array([int(x) % n for x in u_inv_low[:, i]], dtype=np.int64)
            reps.append(_from_vector(g, k, n, vec))
            orders.append(od)
    # Tor part: for d' = diag of D_k with gcd(d', n) > 1, the class of
    # (n/gcd) * V' e_i is a cocycle mod n of order gcd(d', n)
    diag_high, _, v_high = _snf_transforms(g, k)
    for i, d in enumerate(diag_high):
        od = math.gcd(d, n)
        if od > 1:
            vec = np.array([int(x) * (n // od) % n for x in v_high[:, i]], dtype=np.int64)
            reps.append(_from_vector(g, k, n, vec))
            orders.append(od)
    factors = snf.invariant_factor_chain(orders, modulus=n)
    group = CohomologyGroup(tuple(f for f in factors if f > 1), tuple(reps), tuple(orders))
    for rep in reps:
        ok, wit = is_cocycle(rep)
        assert ok, f"representative failed closedness at {wit}"
        assert not is_coboundary(rep), "representative is exact"
    return group


def is_coboundary(c: TorsionCocycle):
    """Membership of a closed cochain in the image of the lower differential."""
    g = c.group
    if c.degree == 1:
        return c.is_zero()
    mat = bar_matrix(g, c.degree - 1)
    return snf.solve_mod(mat, c.n, _vectorize(c)) is not None


def u1_cohomology(g: FiniteGroup, k: int) -> CohomologyGroup:
    """H^k(G, U(1)) reported through the shift H^k(G, U(1)) = H^{k+1}(G, Z).

    For finite G and k >= 1 the right-hand side is pure torsion: the
    invariant factors of the integer k-differential, read off the same
    diagonal that cohomology_group(g, k, n) uses.
    """
    if k not in (2, 3):
        raise GroupError("u1_cohomology supports k in {2, 3}")
    _guard_cells(g, k, "u1_cohomology")
    diag, _, _ = _snf_transforms(g, k)
    factors = snf.invariant_factor_chain(diag)
    return CohomologyGroup(tuple(f for f in factors if f > 1), (), ())


def transgress(omega: TorsionCocycle, g_elem: int):
    """Slant a closed 3-cocycle against a group element.

    Returns (tau, centralizer_group, embedding) where tau is the degree-2
    cocycle  tau(h,k) = w(g,h,k) - w(h, h^-1 g h, k) + w(h,k,(hk)^-1 g (hk))
    on the centralizer of g, with the convention fixed here once for all
    callers (several sign/ordering choices circulate).
    """
    if omega.degree != 3:
        raise ValueError("transgression needs a 3-cocycle")
    ok, wit = is_cocycle(omega)
    if not ok:
        raise ValueError(f"omega is not closed (witness {wit})")
    g = omega.group
    cent_elems = [t for t in g.elements() if g.mul[t][g_elem] == g.mul[g_elem][t]]
    cent, embed = subgroup(g, cent_elems, name=f"Z({g.element_names[g_elem]})")
    vals = {}
    a = g_elem
    for hi in range(1, cent.order):
        for ki in range(1, cent.order):
            h, k2 = embed[hi], embed[ki]
            hk = g.mul[h][k2]
            t1 = omega(a, h, k2)
            t2 = omega(h, g.conj(g.inv[h], a), k2)
            t3 = omega(h, k2, g.conj(g.inv[hk], a))
            v = (t1 - t2 + t3) % omega.n
            if v:
                vals[(hi, ki)] = v
    tau = TorsionCocycle.make(cent, 2, omega.n, vals)
    ok, wit = is_cocycle(tau)
    assert ok, f"transgression output not closed at {wit}"
    return tau, cent, embed


def brute_force_order(g: FiniteGroup, k: int, n: int, limit=1 << 20):
    """|H^k(G, mu_n)| by exhaustive enumeration (test oracle).

    Counts closed cochains and coboundaries directly; refuses when either
    cochain space exceeds the limit.
    """
    size_k = n ** ((g.order - 1) ** k)
    size_km1 = n ** ((g.order - 1) ** (k - 1)) if k >= 1 else 1
    if size_k > limit or size_km1 > limit:
        raise ResourceLimit("cochain space too large for brute force")
    tuples_k = list(_tuples(g, k))
    closed = 0
    for assignment in itertools.product(range(n), repeat=len(tuples_k)):
        c = TorsionCocycle.make(g, k, n, dict(zip(tuples_k, assignment)))
        if is_cocycle(c)[0]:
            closed += 1
    tuples_km1 = list(_tuples(g, k - 1))
    images = set()
    for assignment in itertools.product(range(n), repeat=len(tuples_km1)):
        c = TorsionCocycle.make(g, k - 1, n, dict(zip(tuples_km1, assignment)))
        images.add(coboundary(c).values)
    return closed // len(images)
