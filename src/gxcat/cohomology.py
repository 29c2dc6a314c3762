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

is evaluated one first-argument slab at a time, in order, from k+2 `np.take`
faces over G^k (`_faces`), which also build the bar matrices; a cochain is
immutable, so it is checked once (`witness`).  Matrices and linear solves act
on the vector of values over the non-identity tuples in lexicographic order;
to_vector and from_vector are the only conversions between the two layouts.

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

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import CELL_CAP, FrozenRecord, GroupError, InvariantError, ResourceLimit, guard_cells, guard_cohomology
from .groups import FiniteGroup, subgroup
from . import snf

__all__ = [
    "TorsionCocycle",
    "CohomologyGroup",
    "coboundary",
    "is_cocycle",
    "is_coboundary",
    "cohomology_group",
    "u1_cohomology",
    "transgress",
    "first_witness",
]


def _inner(k):
    """Index of the non-identity block of a G^k array."""
    return (slice(1, None),) * k


class TorsionCocycle(FrozenRecord):
    """Normalized cochain G^degree -> Z/n (additive angle numerators)."""

    _fields = ("group", "degree", "n", "table")

    def __init__(self, group, degree, n, table):
        # table: read-only int64, shape (|G|,)*degree, values in [0, n), 0 on identity slots
        self.__dict__.update(group=group, degree=degree, n=n, table=table)

    @staticmethod
    def _guard(group, degree, n):
        """Refuse a degree below 0, an N outside 1..2**31-1 (the moduli of snf_mod), and more
        cells than a check may visit (every (k+1)-tuple, a G^k slab at a time, with dc holding
        them all), before allocating."""
        if degree < 0:
            raise ValueError(f"cochain degree must be at least 0, not {degree}")
        if n < 1:
            raise ValueError(f"cochain modulus N must be at least 1, not {n}")
        if n >= 1 << 31:
            raise ValueError(f"cochain modulus N must be below 2**31, not {n}")
        if group.order > 1 and degree >= CELL_CAP.bit_length():  # no power of a degree read from a file
            raise ResourceLimit(f"degree-{degree} cochain on a group of order {group.order}: "
                                f"more than 2**{degree} cells to check exceed the cell cap {CELL_CAP}")
        cells = group.order ** (degree + 1)
        if cells > CELL_CAP:
            raise ResourceLimit(
                f"degree-{degree} cochain on a group of order {group.order}: "
                f"{cells} cells to check exceed the cell cap {CELL_CAP}"
            )

    @staticmethod
    def make(group, degree, n, values):
        """From a dict or (tuple, value) pairs; tuples may not hold the identity
        with a nonzero value, and no tuple may come twice."""
        TorsionCocycle._guard(group, degree, n)
        table = np.zeros((group.order,) * degree, dtype=np.int64)
        seen = set()
        for key, v in (values.items() if isinstance(values, dict) else values):
            key = tuple(int(g) for g in key)
            if len(key) != degree:
                raise ValueError(f"tuple {key} has wrong length for degree {degree}")
            if any(g < 0 or g >= group.order for g in key):
                raise ValueError(f"tuple {key} out of range")
            if key in seen:
                raise ValueError(f"tuple {key} is given twice")
            seen.add(key)
            if 0 in key and v % n:
                raise ValueError(f"not normalized: nonzero value on {key}")
            table[key] = int(v) % n
        table.setflags(write=False)
        return TorsionCocycle(group, degree, n, table)

    @staticmethod
    def from_table(group, degree, n, table):
        """From a dense array over G^degree, reduced mod n."""
        TorsionCocycle._guard(group, degree, n)
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
        TorsionCocycle._guard(group, degree, n)
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

    @cached_property
    def witness(self):
        """Lexicographically least (k+1)-tuple where the coboundary is nonzero, or None."""
        for a in range(self.group.order):
            wit = first_witness(_slab(self, a))
            if wit is not None:
                return (a, *wit)
        return None

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

    def inflated(self, new_n):
        """Push values along Z/n -> Z/new_n (n | new_n)."""
        if new_n % self.n:
            raise ValueError("inflation target must be a multiple of n")
        return TorsionCocycle.from_table(self.group, self.degree, new_n, self.table * (new_n // self.n))


def _faces(table, mul, a):
    """The k+2 faces of dc at (a, g2, ..., g_{k+1}) for a table over G^k, face i with
    sign (-1)^i: arrays over (g2, ..., g_{k+1}), the last broadcast along g_{k+1}.
    At k = 0 both faces are the table itself."""
    yield table
    if table.ndim:
        yield np.take(table, mul[a], axis=0)
    for i in range(2, table.ndim + 1):
        yield np.take(table[a], mul, axis=i - 2)
    yield table[a][..., None] if table.ndim else table


def _slab(c, a):
    """dc at the tuples (a, g2, ..., g_{k+1}), as an array over G^k."""
    return sum((-1) ** i * face for i, face in enumerate(_faces(c.table, c.group.mul_array, a))) % c.n


def first_witness(mask):
    """Lexicographically least index where mask is nonzero, as a tuple of ints, or None."""
    hits = np.argwhere(mask)
    return tuple(hits[0].tolist()) if len(hits) else None


def coboundary(c: TorsionCocycle) -> TorsionCocycle:
    return TorsionCocycle.from_table(c.group, c.degree + 1, c.n, np.stack([_slab(c, a) for a in c.group.elements()]))


def is_cocycle(c: TorsionCocycle):
    """(True, None) if dc = 0, else (False, lexicographically least witness)."""
    return c.witness is None, c.witness


@lru_cache(maxsize=None)
def bar_matrix(g: FiniteGroup, k: int):
    """Integer matrix of the degree-k differential C^k -> C^{k+1}."""
    rows, cols = guard_cells(g.order, k, "bar_matrix")
    m = g.order
    column = np.full((m,) * k, -1, dtype=np.int64)
    column[_inner(k)] = np.arange(cols).reshape((m - 1,) * k)
    mat = np.zeros((rows, cols), dtype=np.int64)
    # slab a holds the rows of the tuples (a, ...), in order; within one face each row meets one column
    for a, slab in zip(range(1, m), mat.reshape(m - 1, cols, cols)):
        for i, face in enumerate(_faces(column, g.mul_array, a)):
            col = np.broadcast_to(face, column.shape)[_inner(k)].ravel()
            keep = np.flatnonzero(col >= 0)
            slab[keep, col[keep]] += (-1) ** i
    return mat


class CohomologyGroup(FrozenRecord):
    _fields = ("invariant_factors", "representatives", "generator_orders")

    def __init__(self, invariant_factors, representatives, generator_orders):
        # invariant_factors: canonical chain, each dividing the next
        # representatives: TorsionCocycle generators (direct-sum form)
        # generator_orders: order of each representative's class
        self.__dict__.update(
            invariant_factors=invariant_factors, representatives=representatives, generator_orders=generator_orders
        )

    @property
    def order(self):
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


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
    guard_cohomology(g.order, k, n)
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
    guard_cells(g.order, k, "u1_cohomology")
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
