"""Group cohomology with roots-of-unity coefficients.

Cochains live on the normalized bar complex.  A degree-k cochain is one
dense int64 array of shape (|G|,)*k over all of G^k, holding angle
numerators mod N (the value exp(2*pi*i*v/N)); every slot whose tuple
contains the identity holds 0.  Evaluation is one index lookup, and C order
on the array is lexicographic order on tuples, so the first hit of
argwhere is the lexicographically least witness.  The simplicial coboundary

    (dc)(g1,...,g_{k+1}) = c(g2,...,g_{k+1})
        + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{k+1})
        + (-1)^{k+1} c(g1,...,g_k)

is evaluated on every (k+1)-tuple at once through the flat indices of its
k+2 faces into G^k (`_faces`); the same face indices build the integer bar
matrices.  Matrices and linear solves act on the vector of values over the
non-identity tuples in lexicographic order; TorsionCocycle.to_vector and
TorsionCocycle.from_vector are the only conversions between the two layouts.

Cohomology groups are read off Smith forms of the lifted differentials:
with C* free, H^k(G, Z/N) decomposes as
H^k(G,Z) (x) Z/N  (+)  Tor(H^{k+1}(G,Z), Z/N), and for k >= 1 the torsion
of H^k(G,Z) is exactly the invariant-factor list of the (k-1)-st
differential.  Each differential D is diagonalized once over Z/m by
snf.snf_mod, with m the largest multiple of N*|G| below 2**31: every
nonzero integer invariant factor divides |G|, so it survives mod m.  The
elimination gives p D q = diag(d) with only q formed.  Tor classes are
(N/gcd(d_i, N)) q e_i; tensor classes are p^-1 e_i = D q e_i / d_i, an exact
division mod m/d_i, which N divides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvariantError, ResourceLimit
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
    "first_witness",
]

CELL_CAP = 1 << 25
MAX_N = 360


def _inner(k):
    """Index of the non-identity block of a G^k array."""
    return (slice(1, None),) * k


@dataclass(frozen=True, eq=False)
class TorsionCocycle:
    """Normalized cochain G^degree -> Z/n (additive angle numerators)."""

    group: FiniteGroup
    degree: int
    n: int
    table: np.ndarray  # read-only int64, shape (|G|,)*degree, values in [0, n), 0 on identity slots

    @staticmethod
    def _guard(group, degree):
        """Checking a degree-k cochain touches every (k+1)-tuple; refuse before allocating."""
        cells = group.order ** (degree + 1)
        if cells > CELL_CAP:
            raise ResourceLimit(
                f"degree-{degree} cochain on a group of order {group.order}: "
                f"{cells} cells to check exceed the cell cap {CELL_CAP}"
            )

    @staticmethod
    def make(group, degree, n, values):
        """From a dict or (tuple, value) pairs; tuples may not hold the identity with a nonzero value."""
        TorsionCocycle._guard(group, degree)
        table = np.zeros((group.order,) * degree, dtype=np.int64)
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
                table[key] = v
        table.setflags(write=False)
        return TorsionCocycle(group, degree, n, table)

    @staticmethod
    def from_table(group, degree, n, table):
        """From a dense array over G^degree, reduced mod n."""
        TorsionCocycle._guard(group, degree)
        table = np.asarray(table, dtype=np.int64) % n
        if table.shape != (group.order,) * degree:
            raise ValueError(f"table of shape {table.shape} does not fit degree {degree} on order {group.order}")
        if any(table.take(0, axis=i).any() for i in range(degree)):
            raise ValueError("not normalized: nonzero value on an identity slot")
        table.setflags(write=False)
        return TorsionCocycle(group, degree, n, table)

    @staticmethod
    def from_vector(group, degree, n, vec):
        """From values over the non-identity tuples in lexicographic order."""
        TorsionCocycle._guard(group, degree)
        table = np.zeros((group.order,) * degree, dtype=np.int64)
        table[_inner(degree)] = np.reshape(np.asarray(vec, dtype=np.int64) % n, (group.order - 1,) * degree)
        table.setflags(write=False)
        return TorsionCocycle(group, degree, n, table)

    def to_vector(self):
        """Values over the non-identity tuples in lexicographic order (the bar_matrix columns)."""
        return self.table[_inner(self.degree)].ravel()

    @cached_property
    def values(self):
        """Sorted tuple of ((g1,...,gk), v) over the nonzero values."""
        cells = np.argwhere(self.table)
        vals = self.table[tuple(cells.T)]
        return tuple((tuple(t), v) for t, v in zip(cells.tolist(), vals.tolist()))

    def __call__(self, *args):
        if len(args) != self.degree:
            raise ValueError("arity mismatch")
        return int(self.table[args])

    def __eq__(self, other):
        if not isinstance(other, TorsionCocycle):
            return NotImplemented
        return (self.group, self.degree, self.n) == (other.group, other.degree, other.n) and np.array_equal(
            self.table, other.table
        )

    def __hash__(self):
        return hash((self.group, self.degree, self.n, self.table.tobytes()))

    def is_zero(self):
        return not self.table.any()

    def __add__(self, other):
        if (self.group, self.degree, self.n) != (other.group, other.degree, other.n):
            raise ValueError("cochains to add must share group, degree and N")
        return TorsionCocycle.from_table(self.group, self.degree, self.n, self.table + other.table)

    def scaled(self, factor):
        return TorsionCocycle.from_table(self.group, self.degree, self.n, self.table * (factor % self.n))

    def inflated(self, new_n):
        """Push values along Z/n -> Z/new_n (n | new_n)."""
        if new_n % self.n:
            raise ValueError("inflation target must be a multiple of n")
        return TorsionCocycle.from_table(self.group, self.degree, new_n, self.table * (new_n // self.n))


def _faces(g: FiniteGroup, k: int):
    """Yield (sign, index) for the k+2 faces of the (k+1)-tuples of g.

    index[T] is the flat position in G^k of the face of the tuple at flat
    position T of G^(k+1); (dc)[T] = sum over faces of sign * c[index[T]].
    """
    m = g.order
    t = np.arange(m ** (k + 1))
    yield 1, t % m**k
    for i in range(1, k + 1):
        # merge slots i-1 and i: (high, a, b, low) -> (high, ab, low)
        low = m ** (k - i)
        a, b = t // (low * m) % m, t // low % m
        yield (-1) ** i, (t // (low * m * m) * m + g.mul_array[a, b]) * low + t % low
    yield (-1) ** (k + 1), t // m


def _coboundary_table(c):
    flat = c.table.ravel()
    total = sum(sign * flat[idx] for sign, idx in _faces(c.group, c.degree))
    return (total % c.n).reshape((c.group.order,) * (c.degree + 1))


def first_witness(mask):
    """Lexicographically least index where mask is nonzero, as a tuple of ints, or None."""
    hits = np.argwhere(mask)
    return tuple(hits[0].tolist()) if len(hits) else None


def coboundary(c: TorsionCocycle) -> TorsionCocycle:
    return TorsionCocycle.from_table(c.group, c.degree + 1, c.n, _coboundary_table(c))


def is_cocycle(c: TorsionCocycle):
    """(True, None) if dc = 0, else (False, lexicographically least witness)."""
    wit = first_witness(_coboundary_table(c))
    return wit is None, wit


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
    m = g.order
    column = np.full((m,) * k, -1, dtype=np.int64)
    column[_inner(k)] = np.arange(cols).reshape((m - 1,) * k)
    column = column.ravel()
    mat = np.zeros((rows, cols), dtype=np.int64)
    r = np.arange(rows)
    for sign, idx in _faces(g, k):
        col = column[idx.reshape((m,) * (k + 1))[_inner(k + 1)].ravel()]
        keep = col >= 0
        np.add.at(mat, (r[keep], col[keep]), sign)
    return mat


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


def _modulus(g: FiniteGroup, n: int):
    """The largest multiple of n*|G| below 2**31: the Z/m elimination of a
    bar differential keeps every diagonal entry (all divide |G|) and leaves
    room to pull tensor classes back mod n."""
    return (2**31 - 1) // (n * g.order) * (n * g.order)


@lru_cache(maxsize=None)
def _elimination(g: FiniteGroup, k: int, m: int):
    diag, q, _ = snf.snf_mod(bar_matrix(g, k), m)
    return diag, q


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
    m = _modulus(g, n)
    reps = []
    orders = []
    # tensor part: torsion classes of coker(D_{k-1}).  With p D q = diag,
    # D q e_i = d_i p^-1 e_i, and p^-1 e_i mod n is the class: d_i divides m/n
    lower = bar_matrix(g, k - 1)
    diag_low, q_low = _elimination(g, k - 1, m)
    for i, d in enumerate(diag_low):
        od = math.gcd(d, n)
        if od > 1:
            # |entries of D| <= k + 1 and q < 2**31: the sum stays far inside int64
            image = lower @ q_low[:, i] % m
            if (image % d).any():
                raise ArithmeticError(f"pullback of tensor class {i} is not divisible by {d}")
            reps.append(TorsionCocycle.from_vector(g, k, n, image // d))
            orders.append(od)
    # Tor part: for d' = diag of D_k with gcd(d', n) > 1, the class of
    # (n/gcd) * q' e_i is a cocycle mod n of order gcd(d', n)
    diag_high, q_high = _elimination(g, k, m)
    for i, d in enumerate(diag_high):
        od = math.gcd(d, n)
        if od > 1:
            reps.append(TorsionCocycle.from_vector(g, k, n, q_high[:, i] % n * (n // od)))
            orders.append(od)
    factors = snf.invariant_factor_chain(orders, modulus=n)
    group = CohomologyGroup(tuple(f for f in factors if f > 1), tuple(reps), tuple(orders))
    for rep in reps:
        ok, wit = is_cocycle(rep)
        if not ok:
            raise InvariantError(f"representative failed closedness at {wit}")
    if reps:
        # a representative is exact exactly when its column has a particular solution
        parts, _, _ = snf.solution_lattice(lower, n, np.array([rep.to_vector() for rep in reps]).T)
        if any(part is not None for part in parts):
            raise InvariantError("representative is exact")
    return group


def is_coboundary(c: TorsionCocycle):
    """Membership of a closed cochain in the image of the lower differential."""
    return snf.solve_mod(bar_matrix(c.group, c.degree - 1), c.n, c.to_vector()) is not None


def u1_cohomology(g: FiniteGroup, k: int) -> CohomologyGroup:
    """H^k(G, U(1)) reported through the shift H^k(G, U(1)) = H^{k+1}(G, Z).

    For finite G and k >= 1 the right-hand side is pure torsion: the
    invariant factors of the integer k-differential, read off the same
    diagonal that cohomology_group(g, k, |G|) uses.
    """
    if k not in (2, 3):
        raise GroupError("u1_cohomology supports k in {2, 3}")
    _guard_cells(g, k, "u1_cohomology")
    diag, _ = _elimination(g, k, _modulus(g, g.order))
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
    g, a, w = omega.group, g_elem, omega.table
    conj_a = g.conj_array[:, a]  # x -> x a x^-1
    cent, embed = subgroup(g, np.flatnonzero(conj_a == a).tolist(), name=f"Z({g.element_names[a]})")
    mul, inv = g.mul_array, np.asarray(g.inv)
    h, k = np.ix_(embed, embed)
    hk = mul[h, k]
    table = w[a, h, k] - w[h, conj_a[inv[h]], k] + w[h, k, conj_a[inv[hk]]]
    tau = TorsionCocycle.from_table(cent, 2, omega.n, table)
    ok, wit = is_cocycle(tau)
    if not ok:
        raise InvariantError(f"transgression output not closed at {wit}")
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
    closed = sum(
        is_cocycle(TorsionCocycle.from_vector(g, k, n, a))[0]
        for a in itertools.product(range(n), repeat=(g.order - 1) ** k)
    )
    images = {
        coboundary(TorsionCocycle.from_vector(g, k - 1, n, a)).table.tobytes()
        for a in itertools.product(range(n), repeat=(g.order - 1) ** (k - 1))
    }
    return closed // len(images)
