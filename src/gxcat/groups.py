"""Finite groups as multiplication tables.

Element 0 is always the identity.  Presets cover the desk-scale bestiary
(cyclics and their products, dihedral, symmetric up to S4, quaternions);
explicit tables are validated against the group axioms with a witness for
the first failure.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from numbers import Integral
from operator import itemgetter

from .errors import FrozenRecord, GroupError, InvariantError

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
    "orbit_labels",
    "abelian_characters",
    "homomorphism_witness",
    "compose",
    "PRESETS",
]

TABLE_ORDER_CAP = 64


class FiniteGroup(FrozenRecord):
    _fields = ("name", "mul", "element_names")

    def __init__(self, name, mul, element_names):
        # mul: tuple of tuples of element indices; element_names: distinct strings
        if len(set(element_names)) != len(element_names):
            twice = next(x for i, x in enumerate(element_names) if x in element_names[:i])
            raise GroupError(f"{name}: element name {twice!r} is given twice")
        self.__dict__.update(name=name, mul=mul, element_names=element_names)

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

    # The array accessors below hand the table to the numpy kernels; they are
    # the only places this module imports numpy.
    @cached_property
    def mul_array(self):
        """Read-only int64 view of the multiplication table."""
        import numpy as np

        arr = np.array(self.mul, dtype=np.int64).reshape(self.order, self.order)
        arr.setflags(write=False)
        return arr

    @cached_property
    def conj_array(self):
        """Read-only int64 table conj_array[t, x] = t x t^{-1}."""
        import numpy as np

        arr = self.mul_array[self.mul_array, np.asarray(self.inv)[:, None]]
        arr.setflags(write=False)
        return arr

    @cached_property
    def element_orders(self):
        """Read-only int64 array of the order of each element."""
        import numpy as np

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
        return self.mul[self.mul[g][x]][self.inv[g]]

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


def is_index(v):
    """True for an integer that is not a bool (JSON true is not an element)."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def homomorphism_witness(mul, images, product):
    """First (a, b) in row-major order over the table mul with images[ab]
    != product(images[a], images[b]), or None on a homomorphism."""
    for a, row in enumerate(mul):
        for b, ab in enumerate(row):
            if images[ab] != product(images[a], images[b]):
                return a, b
    return None


def compose(p, q):
    """The permutation p o q, x -> p[q[x]], of image tuples."""
    return tuple(map(p.__getitem__, q))


def validate_table(mul, name="table"):
    """Check the group axioms; raise GroupError naming the first violation.

    Every entry must be an integer in 0..n-1: bools, floats and strings are
    refused, and so are ragged or empty tables.  Associativity is checked
    row by row: mul[mul[i][j]] must equal mul[i] read at the entries of
    mul[j], the first failing triple in row-major order named.
    """
    n = len(mul)
    if not n or not all(
        isinstance(row, (list, tuple)) and len(row) == n and all(is_index(v) and 0 <= v < n for v in row)
        for row in mul
    ):
        raise GroupError(f"{name}: not an {n}x{n} table over 0..{n - 1}")
    mul = [tuple(int(v) for v in row) for row in mul]
    if any(mul[0][j] != j for j in range(n)) or any(mul[i][0] != i for i in range(n)):
        bad = next(j for j in range(n) if mul[0][j] != j or mul[j][0] != j)
        raise GroupError(f"{name}: element 0 is not a two-sided identity at {bad}")
    # associativity, one row of k at a time: mul[mul[i][j]] == mul[i] read at mul[j]
    read = [itemgetter(*row) for row in mul]
    for i, row in enumerate(mul if n > 1 else ()):  # Z1 is the table [[0]]
        for j, ij in enumerate(row):
            right = read[j](row)
            if mul[ij] != right:
                k = next(k for k in range(n) if mul[ij][k] != right[k])
                raise GroupError(f"{name}: associativity fails on triple ({i}, {j}, {k})")
    for x in range(n):
        if 0 not in mul[x]:
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
    """Direct product; index (a, b) -> a*|h| + b so (0, 0) is the identity.
    (a, b) is named a.b, with b in parentheses when it holds a dot."""
    nh = h.order
    mul = [
        [g.mul[a][c] * nh + h.mul[b][d] for c in g.elements() for d in h.elements()]
        for a in g.elements()
        for b in h.elements()
    ]
    right = [f"({x})" if "." in x else x for x in h.element_names]
    names = [
        "e" if (a == 0 and b == 0) else f"{g.element_names[a]}.{right[b]}"
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
    mul = [[index[compose(p, q)] for q in perms] for p in perms]
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
        return PRESETS[spec]()
    if isinstance(spec, dict):
        name = spec.get("name", "G")
        mul = spec["mul"]
    else:
        name, mul = "G", spec
    if not isinstance(mul, (list, tuple)):
        raise GroupError(f"{name}: the table is not a list of rows")
    if len(mul) > TABLE_ORDER_CAP:
        raise GroupError(f"explicit tables capped at order {TABLE_ORDER_CAP}")
    validate_table(mul, name)
    return _mk(name, mul)


class ConjugacyData(FrozenRecord):
    _fields = ("classes", "reps", "centralizers", "class_of")

    def __init__(self, classes, reps, centralizers, class_of):
        # classes: tuple of sorted tuples of element indices
        # reps: least-index member of each class
        # centralizers: per class, sorted tuple of elements commuting with the rep
        # class_of: element index -> index of its class
        self.__dict__.update(classes=classes, reps=reps, centralizers=centralizers, class_of=class_of)


def orbit_labels(perms):
    """(labels, reps) for a permutation action given as a |G| x r array.

    Row g of perms is the image of 0..r-1 under g, every group element
    listed once, so column x lists the orbit of x and its least entry is
    the orbit's least member.  reps holds the least member of each orbit,
    increasing, and labels[x] is the index of the orbit of x in reps.
    """
    import numpy as np

    least = np.asarray(perms).min(axis=0)
    is_rep = least == np.arange(least.size)
    return (np.cumsum(is_rep) - 1)[least], np.flatnonzero(is_rep)


@lru_cache(maxsize=None)
def conjugacy_data(g: FiniteGroup) -> ConjugacyData:
    import numpy as np

    conj = g.conj_array
    labels, reps = orbit_labels(conj)
    classes = tuple(tuple(np.flatnonzero(labels == i).tolist()) for i in range(len(reps)))
    cents = tuple(tuple(np.flatnonzero(conj[:, r] == r).tolist()) for r in reps.tolist())
    if not all(_is_subgroup(g, cent) for cent in cents):
        raise GroupError("centralizer failed subgroup check")  # pragma: no cover
    data = ConjugacyData(classes, tuple(reps.tolist()), cents, tuple(labels.tolist()))
    if sum(len(c) for c in classes) != g.order:
        raise InvariantError("conjugacy classes do not partition the group")
    if any(len(c) * len(z) != g.order for c, z in zip(classes, cents)):
        raise InvariantError("a class size times its centralizer order is not |G|")
    return data


def _is_subgroup(g, elems):
    inside = set(elems)
    inv = [g.inv[b] for b in elems]
    return 0 in inside and all(inside.issuperset(map(g.mul[a].__getitem__, inv)) for a in elems)  # a b^-1


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


def quotient(g, normal_elems, name=None):
    """Quotient by a normal subgroup; returns (group, coset map element -> index).

    The cosets are the orbits of right multiplication by the subgroup
    (orbit_labels), so they are ordered by least member, the identity coset
    first.
    """
    import numpy as np

    nset = sorted(set(normal_elems))
    if not np.isin(g.conj_array[:, nset], nset).all():
        raise GroupError("subgroup is not normal")
    labels, reps = orbit_labels(g.mul_array[:, nset].T)
    mul = labels[g.mul_array[np.ix_(reps, reps)]].tolist()
    names = ["e"] + [f"[{g.element_names[c]}]" for c in reps[1:].tolist()]
    return _mk(name or f"{g.name}/N", mul, names), dict(enumerate(labels.tolist()))


class LinearCharacter(FrozenRecord):
    """Homomorphism into Z/N, stored as additive angle numerators."""

    _fields = ("values", "n")

    def __init__(self, values, n):
        self.__dict__.update(values=values, n=n)

    def __call__(self, x):
        return self.values[x]

    def add(self, other):
        if self.n != other.n:
            raise GroupError(f"characters into Z/{self.n} and Z/{other.n} cannot be added")
        return LinearCharacter(tuple((a + b) % self.n for a, b in zip(self.values, other.values)), self.n)


def abelian_characters(g, n):
    """All homomorphisms G -> Z/n: the points of Z^1(G, mu_n), the kernel
    of the first bar differential mod n, in increasing order of values.

    n must be a multiple of the exponent of the abelianization, the
    exponent of the same kernel mod |G|.
    """
    import numpy as np

    from .cohomology import bar_matrix
    from .snf import kernel_mod, lattice_points

    d1 = bar_matrix(g, 1)
    _, orders = kernel_mod(d1, g.order)
    exp = math.lcm(*orders)
    if n % exp != 0:
        raise GroupError(f"N={n} must be a multiple of the abelianization exponent {exp}")
    _, points = lattice_points(d1, n, np.zeros((len(d1), 1), dtype=np.int64))
    if len(points) != math.prod(orders):
        raise InvariantError("character count must equal |G_ab|")
    return [LinearCharacter((0, *p), n) for p in points.tolist()]
