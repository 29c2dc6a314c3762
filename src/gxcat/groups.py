"""Finite groups as multiplication tables.

Element 0 is always the identity.  Presets cover the desk-scale bestiary
(cyclics and their products, dihedral, symmetric up to S4, quaternions);
explicit tables are validated against the group axioms with a witness for
the first failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FiniteGroup",
    "GroupError",
    "InvariantError",
    "ConjugacyData",
    "LinearCharacter",
    "build_group",
    "cyclic",
    "dihedral",
    "symmetric",
    "quaternion8",
    "product",
    "conjugacy_data",
    "abelian_characters",
    "PRESETS",
]

PRESET_ORDER_CAP = 24
TABLE_ORDER_CAP = 64


class GroupError(ValueError):
    pass


class InvariantError(RuntimeError):
    """A mathematical self-check failed: a defect of the computation, not of its input.

    Raised instead of ``assert`` so that the check survives ``python -O``.
    """


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mul: tuple  # tuple of tuples of element indices
    element_names: tuple

    @property
    def order(self):
        return len(self.mul)

    @property
    def id(self):
        return 0

    @cached_property
    def inv(self):
        for x, row in enumerate(self.mul):
            if 0 not in row:
                raise GroupError(f"element {x} has no inverse")
        return tuple(row.index(0) for row in self.mul)

    @cached_property
    def mul_array(self):
        """Read-only int64 view of the multiplication table."""
        arr = np.array(self.mul, dtype=np.int64).reshape(self.order, self.order)
        arr.setflags(write=False)
        return arr

    @cached_property
    def conj_array(self):
        """Read-only int64 table conj_array[t, x] = t x t^{-1}."""
        arr = self.mul_array[self.mul_array, np.asarray(self.inv)[:, None]]
        arr.setflags(write=False)
        return arr

    @cached_property
    def element_orders(self):
        """Read-only int64 array of the order of each element."""
        mul, idx = self.mul_array, np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power = idx
        for k in range(1, self.order + 1):
            orders[(power == 0) & (orders == 0)] = k
            if orders.all():
                break
            power = mul[power, idx]
        else:
            raise GroupError("some element has no finite order")
        orders.setflags(write=False)
        return orders

    def conj(self, g, x):
        """g x g^{-1}"""
        return self.conj_array.item(g, x)

    def elements(self):
        return range(self.order)

    def element_order(self, x):
        return self.element_orders.item(x)

    @property
    def exponent(self):
        return math.lcm(*self.element_orders.tolist())

    @property
    def is_abelian(self):
        m = self.mul
        return all(m[i][j] == m[j][i] for i in self.elements() for j in range(i))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def validate_table(mul, name="table"):
    """Check the group axioms; raise GroupError naming the first violation."""
    n = len(mul)
    arr = np.array(mul, dtype=np.int64)
    if arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
        raise GroupError(f"{name}: not an {n}x{n} table over 0..{n - 1}")
    if any(arr[0, j] != j for j in range(n)) or any(arr[i, 0] != i for i in range(n)):
        bad = next(j for j in range(n) if arr[0, j] != j or arr[j, 0] != j)
        raise GroupError(f"{name}: element 0 is not a two-sided identity at {bad}")
    # associativity: mul[mul[i,j],k] == mul[i,mul[j,k]]
    left = arr[arr.reshape(-1), :].reshape(n, n, n)
    right = arr[:, arr.reshape(-1)].reshape(n, n, n)
    if not np.array_equal(left, right):
        i, j, k = (int(v[0]) for v in np.nonzero(left != right))
        raise GroupError(f"{name}: associativity fails on triple ({i}, {j}, {k})")
    for x in range(n):
        if not any(arr[x, y] == 0 for y in range(n)):
            raise GroupError(f"{name}: element {x} has no inverse")


def _mk(name, mul, element_names=None):
    mul = tuple(tuple(int(v) for v in row) for row in mul)
    if element_names is None:
        element_names = tuple(["e"] + [f"x{i}" for i in range(1, len(mul))])
    g = FiniteGroup(name, mul, tuple(element_names))
    return g


def cyclic(n):
    if n < 1:
        raise GroupError("cyclic(n) needs n >= 1")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + (["g"] if n > 1 else []) + [f"g{k}" for k in range(2, n)]
    return _mk(f"Z{n}", mul, names)


def product(g: FiniteGroup, h: FiniteGroup, name=None):
    """Direct product; index (a, b) -> a*|h| + b so (0, 0) is the identity."""
    nh = h.order
    mul = [
        [g.mul[a][c] * nh + h.mul[b][d] for c in g.elements() for d in h.elements()]
        for a in g.elements()
        for b in h.elements()
    ]
    names = [
        "e" if (a == 0 and b == 0) else f"{g.element_names[a]}.{h.element_names[b]}"
        for a in g.elements()
        for b in h.elements()
    ]
    return _mk(name or f"{g.name}x{h.name}", mul, names)


def dihedral(n):
    """Dihedral group of order 2n: elements r^i s^j, index i + n*j."""
    if n < 1:
        raise GroupError("dihedral(n) needs n >= 1")

    def idx(i, j):
        return i + n * j

    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for i, j in itertools.product(range(n), range(2)):
        for k, l in itertools.product(range(n), range(2)):
            # (r^i s^j)(r^k s^l) = r^{i + (-1)^j k} s^{j+l}
            i2 = (i + (k if j == 0 else -k)) % n
            mul[idx(i, j)][idx(k, l)] = idx(i2, (j + l) % 2)
    names = ["e"] + [f"r{i}" for i in range(1, n)] + [("s" if i == 0 else f"r{i}s") for i in range(n)]
    return _mk(f"D{n}", mul, names)


def symmetric(n):
    """Symmetric group on n letters (n <= 4), permutations in lex order."""
    if n > 4:
        raise GroupError("symmetric(n) supported for n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # composition (p*q)(x) = p(q(x))
    mul = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    names = ["e"] + ["".join(map(str, p)) for p in perms[1:]]
    return _mk(f"S{n}", mul, names)


def quaternion8():
    """Quaternion group {±1, ±i, ±j, ±k}; index = unit + 4*sign."""
    units = ["1", "i", "j", "k"]
    # (sign, unit) products of quaternion units
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    mul = [[0] * 8 for _ in range(8)]
    for s1, u1, s2, u2 in itertools.product(range(2), range(4), range(2), range(4)):
        s, u = table[(units[u1], units[u2])]
        sign = (s1 + s2 + (1 if s == -1 else 0)) % 2
        mul[u1 + 4 * s1][u2 + 4 * s2] = units.index(u) + 4 * sign
    names = ["e", "i", "j", "k", "-e", "-i", "-j", "-k"]
    return _mk("Q8", mul, names)


PRESETS = {}


def _register_presets():
    for n in range(1, 13):
        PRESETS[f"Z{n}"] = lambda n=n: cyclic(n)
    PRESETS["Z2xZ2"] = lambda: product(cyclic(2), cyclic(2))
    PRESETS["Z2xZ4"] = lambda: product(cyclic(2), cyclic(4))
    PRESETS["Z2xZ2xZ2"] = lambda: product(product(cyclic(2), cyclic(2)), cyclic(2), name="Z2xZ2xZ2")
    PRESETS["Z3xZ3"] = lambda: product(cyclic(3), cyclic(3))
    PRESETS["S3"] = lambda: symmetric(3)
    PRESETS["S4"] = lambda: symmetric(4)
    for n in range(2, 7):
        PRESETS[f"D{n}"] = lambda n=n: dihedral(n)
    PRESETS["Q8"] = quaternion8


_register_presets()


def build_group(spec):
    """Build a group from a preset name or an explicit multiplication table.

    Presets: Z1..Z12, Z2xZ2 (and small cyclic products), D2..D6, S3, S4, Q8.
    Explicit tables: {"name": ..., "order": n, "mul": [[...]]} or a bare table.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise GroupError(f"unknown group preset {spec!r}")
        g = PRESETS[spec]()
        if g.order > PRESET_ORDER_CAP:
            raise GroupError(f"preset {spec} exceeds order cap {PRESET_ORDER_CAP}")
        return g
    if isinstance(spec, dict):
        name = spec.get("name", "G")
        mul = spec["mul"]
    else:
        name, mul = "G", spec
    if len(mul) > TABLE_ORDER_CAP:
        raise GroupError(f"explicit tables capped at order {TABLE_ORDER_CAP}")
    validate_table(mul, name)
    return _mk(name, mul)


@dataclass(frozen=True)
class ConjugacyData:
    classes: tuple  # tuple of sorted tuples of element indices
    reps: tuple  # least-index member of each class
    centralizers: tuple  # per class, sorted tuple of elements commuting with the rep
    class_of: tuple  # element index -> index of its class


@lru_cache(maxsize=None)
def conjugacy_data(g: FiniteGroup) -> ConjugacyData:
    seen = set()
    classes = []
    for x in g.elements():
        if x in seen:
            continue
        orbit = sorted(set(g.conj_array[:, x].tolist()))
        seen.update(orbit)
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: c[0])
    reps = tuple(c[0] for c in classes)
    cents = []
    mul = g.mul_array
    for r in reps:
        cent = tuple(np.flatnonzero(mul[:, r] == mul[r]).tolist())
        if not _is_subgroup(g, cent):
            raise GroupError("centralizer failed subgroup check")  # pragma: no cover
        cents.append(cent)
    class_of = [0] * g.order
    for i, c in enumerate(classes):
        for x in c:
            class_of[x] = i
    data = ConjugacyData(tuple(classes), reps, tuple(cents), tuple(class_of))
    assert sum(len(c) for c in classes) == g.order
    assert all(len(c) * len(z) == g.order for c, z in zip(classes, cents))
    return data


def _is_subgroup(g, elems):
    idx = np.asarray(elems, dtype=np.int64)
    inside = np.zeros(g.order, dtype=bool)
    inside[idx] = True
    quotients = g.mul_array[np.ix_(idx, np.asarray(g.inv)[idx])]  # a b^-1
    return bool(inside[0] and inside[quotients].all())


def subgroup_closure(g, gens):
    """Closure of gens under multiplication, as a sorted tuple."""
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = g.mul[a][s]
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(elems))


def subgroup(g, elems, name=None):
    """Subgroup as its own FiniteGroup plus the embedding into g.

    The identity keeps index 0; other elements are ordered by original index.
    """
    elems = tuple(sorted(set(elems)))
    if not _is_subgroup(g, elems):
        raise GroupError("not a subgroup")
    pos = {x: i for i, x in enumerate(elems)}
    mul = [[pos[g.mul[a][b]] for b in elems] for a in elems]
    names = [g.element_names[x] for x in elems]
    return _mk(name or f"{g.name}<{len(elems)}>", mul, names), elems


def commutator_subgroup(g):
    comms = {g.mul[g.mul[a][b]][g.mul[g.inv[a]][g.inv[b]]] for a in g.elements() for b in g.elements()}
    return subgroup_closure(g, comms)


def quotient(g, normal_elems, name=None):
    """Quotient by a normal subgroup; returns (group, coset map element -> index).

    Cosets are ordered by least member, the identity coset first.
    """
    nset = set(normal_elems)
    for t in g.elements():
        if any(g.conj(t, x) not in nset for x in nset):
            raise GroupError("subgroup is not normal")
    cosets = []
    assigned = {}
    for x in g.elements():
        if x in assigned:
            continue
        coset = tuple(sorted({g.mul[x][h] for h in nset}))
        for y in coset:
            assigned[y] = len(cosets)
        cosets.append(coset)
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabel = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    cmap = {x: relabel[assigned[x]] for x in g.elements()}
    mul = [[cmap[g.mul[c1[0]][c2[0]]] for c2 in cosets] for c1 in cosets]
    names = ["e"] + [f"[{g.element_names[c[0]]}]" for c in cosets[1:]]
    grp = _mk(name or f"{g.name}/N", mul, names)
    return grp, cmap


@dataclass(frozen=True)
class LinearCharacter:
    """Homomorphism into Z/N, stored as additive angle numerators."""

    values: tuple
    n: int

    def __call__(self, x):
        return self.values[x]

    def add(self, other):
        assert self.n == other.n
        return LinearCharacter(tuple((a + b) % self.n for a, b in zip(self.values, other.values)), self.n)


def _minimal_generators(g):
    gens = []
    span = {0}
    while len(span) < g.order:
        best = max(
            (x for x in g.elements() if x not in span),
            key=lambda x: (g.element_order(x), -x),
        )
        gens.append(best)
        span = set(subgroup_closure(g, gens))
    return gens


def abelian_characters(g, n):
    """All homomorphisms G/[G,G] -> Z/n, pulled back to G.

    n must be a multiple of the exponent of the abelianization.
    """
    comm = commutator_subgroup(g)
    q, cmap = quotient(g, comm)
    exp = q.exponent
    if n % exp != 0:
        raise GroupError(f"N={n} must be a multiple of the abelianization exponent {exp}")
    gens = _minimal_generators(q) if q.order > 1 else []
    chars = []
    orders = [q.element_order(x) for x in gens]
    for combo in itertools.product(*(range(o) for o in orders)):
        val = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            nxt = []
            for a in frontier:
                for gi, c, o in zip(gens, combo, orders):
                    b = q.mul[a][gi]
                    v = (val[a] + c * (n // o)) % n
                    if b in val:
                        if val[b] != v:
                            ok = False
                            break
                    else:
                        val[b] = v
                        nxt.append(b)
                if not ok:
                    break
            frontier = nxt
        if ok and len(val) == q.order:
            chars.append(LinearCharacter(tuple(val[cmap[x]] for x in g.elements()), n))
    chars = sorted(set(chars), key=lambda ch: ch.values)
    assert len(chars) == q.order, "character count must equal |G_ab|"
    return chars
