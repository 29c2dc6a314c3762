"""Skeletal braided crossed G-categories with invertible simples.

Data: a group Gamma of simple objects (fusion = group law), a grading
homomorphism deg: Gamma -> G, a G-action by automorphisms of Gamma, an
associator 3-cocycle a on Gamma, and crossed braiding scalars
braid(x, y): x (x) y -> (deg(x) . y) (x) x, all valued in mu_N written
additively.

Skeletal conventions, fixed here once and shared by every constructor and
validator in this package:

  * the action of deg(x) on Gamma is conjugation by x (this makes the
    braiding target equal x*y on the nose, so braidings are scalars);
  * the G-action is strictly monoidal and preserves the associator values;
  * hexagon 1:  braid(x, z*t) = braid(x,z) + braid(x,t)
        - a(x,z,t) + a(xz', x, t) - a(xz', xt', x)
    where xz' = action_{deg x}(z), xt' = action_{deg x}(t);
  * hexagon 2:  braid(x*y, z) = braid(x, yz') + braid(y, z)
        + a(x,y,z) - a(x, yz', y) + a(xyz'', x, y)
    with yz' = action_{deg y}(z), xyz'' = action_{deg(xy)}(z);
  * covariance: braid(action_k x, action_k y) = braid(x, y);
  * unit normalization: braid(e, -) = braid(-, e) = 0.

With a trivial grading these reduce to the Eilenberg-MacLane abelian
cocycle identities; the braided pointed categories on Z2 at N = 4 come out
as the four quadratic forms, which is the expected classification.
"""

import itertools
import math

import numpy as np

from . import snf
from .chartab import character_sums, fusion_coefficients, prime_1_mod, primitive_root, projective_irrep_data
from .cohomology import TorsionCocycle, bar_matrix, first_witness, is_coboundary, is_cocycle, slant, transgress
from .cyclo import Cyc, emit, reduction_matrix
from .errors import CELL_CAP, FrozenRecord, InvariantError, Record, ResourceLimit
from .fusion import GradedFusionRing, ValidationReport
from .groups import (FiniteGroup, abelian_characters, compose, conjugacy_data, homomorphism_witness,
                     orbit_labels, quotient, subgroup)
from .serialize import dump_group

__all__ = [
    "PointedGXData",
    "DoubleData",
    "KirillovMatrix",
    "validate_pointed",
    "pointed_deequivariantize",
    "twisted_double",
    "holomorphic_crossed",
    "enumerate_holomorphic",
    "kirillov_S",
]

N_CAP = 16
ENUM_GROUP_CAP = 6
ENUM_N_CAP = 8


class PointedGXData(FrozenRecord):
    _fields = ("gamma", "group", "deg", "action", "n", "assoc", "braid")

    def __init__(self, gamma, group, deg, action, n, assoc, braid):
        # deg: Gamma index -> G element; action: per G element, automorphism of Gamma as a tuple
        # assoc: TorsionCocycle of degree 3 on gamma; braid: |Gamma| x |Gamma| values mod n
        self.__dict__.update(gamma=gamma, group=group, deg=deg, action=action, n=n, assoc=assoc, braid=braid)

    @staticmethod
    def make(gamma, group, deg, action, n, assoc_values, braid_table):
        assoc = (
            assoc_values
            if isinstance(assoc_values, TorsionCocycle)
            else TorsionCocycle.make(gamma, 3, n, assoc_values)
        )
        if assoc.n != n or assoc.group.mul != gamma.mul:
            raise ValueError("associator must live on Gamma with matching N")
        braid = tuple(tuple(int(v) % n for v in row) for row in braid_table)
        deg, action = tuple(deg), tuple(tuple(p) for p in action)
        o = gamma.order
        if len(deg) != o:
            raise ValueError(f"deg has length {len(deg)}, expected |Gamma| = {o}")
        for what, table, rows in [("action", action, group.order), ("braid", braid, o)]:
            lengths = sorted({len(row) for row in table})
            if len(table) != rows or lengths != [o]:
                raise ValueError(
                    f"{what} has {len(table)} rows of lengths {lengths}, expected {rows} rows of length |Gamma| = {o}"
                )
        return PointedGXData(gamma, group, deg, action, n, assoc, braid)

    def b(self, x, y):
        return self.braid[x][y]

    def act(self, g, x):
        return self.action[g][x]

    def twist(self, x):
        return self.b(x, x)

    def monodromy(self, x, y):
        """Scalar of the double braiding c_{xy->...} then back."""
        return (self.b(x, y) + self.b(self.act(self.deg[x], y), x)) % self.n

    def to_json(self):
        return {
            "Gamma": dump_group(self.gamma),
            "G": dump_group(self.group),
            "deg": list(self.deg),
            "action": [list(p) for p in self.action],
            "N": self.n,
            "assoc": [[*k, v] for k, v in self.assoc.values],
            "braid": [list(r) for r in self.braid],
        }


def _invariance_witness(table, action):
    """Least (k, cell...) with table[action_k(cell)] != table[cell], or None.

    action is the |G| x |Gamma| array of automorphisms; every axis of table
    runs over Gamma.
    """
    d = table.ndim
    moved = table[tuple(action.reshape((len(action),) + (1,) * i + (-1,) + (1,) * (d - 1 - i)) for i in range(d))]
    return first_witness(moved != table)


def validate_pointed(d: PointedGXData) -> ValidationReport:
    rep = ValidationReport([])
    gam, g = d.gamma, d.group
    names = gam.element_names
    # grading homomorphism
    if d.deg[0] != 0:
        rep.add("deg", "unit must have trivial degree", names[0])
    bad = homomorphism_witness(gam.mul, d.deg, lambda u, v: g.mul[u][v])
    if bad is not None:
        x, y = (names[i] for i in bad)
        rep.add("deg", f"grading not multiplicative at ({x},{y})", (x, y))
    # action: automorphisms, homomorphism, degree conjugation
    if len(d.action) != g.order:
        rep.add("action", "one automorphism per group element required")
        return rep
    for k, p in enumerate(d.action):
        if sorted(p) != list(range(gam.order)) or p[0] != 0:
            rep.add("action", f"action of {g.element_names[k]} is not a unit-preserving bijection", g.element_names[k])
            return rep
        bad = homomorphism_witness(gam.mul, p, lambda u, v: gam.mul[u][v])
        if bad is not None:
            x, y = (names[i] for i in bad)
            rep.add("action", f"action of {g.element_names[k]} is not an automorphism at ({x},{y})", (g.element_names[k], x, y))
    if tuple(d.action[0]) != tuple(range(gam.order)):
        rep.add("action", "identity must act trivially")
    bad = homomorphism_witness(g.mul, [tuple(p) for p in d.action], compose)
    if bad is not None:
        k, l = (g.element_names[i] for i in bad)
        rep.add("action", f"action is not a homomorphism at ({k},{l})", (k, l))
    for k in g.elements():
        for x in gam.elements():
            if d.deg[d.action[k][x]] != g.conj(k, d.deg[x]):
                rep.add("action-deg", f"deg(action_{g.element_names[k]}({names[x]})) is not the conjugate degree", (g.element_names[k], names[x]))
                break
    # crossed-module link: action of deg(x) = conjugation by x
    for x, y in itertools.product(gam.elements(), repeat=2):
        if d.act(d.deg[x], y) != gam.conj(x, y):
            rep.add("link", f"action of deg({names[x]}) must conjugate by {names[x]} (fails at {names[y]})", (names[x], names[y]))
            break
    # associator: closed, action-invariant
    ok, wit = is_cocycle(d.assoc)
    if not ok:
        rep.add("pentagon", f"associator not closed at {tuple(names[i] for i in wit)}", wit)
    act, a, b = np.asarray(d.action), d.assoc.table, np.asarray(d.braid)
    bad = _invariance_witness(a, act)
    if bad:
        k, *cell = bad
        rep.add("assoc-action", f"action of {g.element_names[k]} does not preserve the associator at {tuple(names[i] for i in cell)}", (g.element_names[k], *cell))
    # braiding normalization
    if b[0].any() or b[:, 0].any():
        rep.add("braid-unit", "braiding with the unit must be trivial")
    # hexagons, every instance at once
    for h, (braid_terms, cells) in enumerate(_hexagons(gam, d.deg, act)):
        lhs = sum(coef * b[p, q] for p, q, coef in braid_terms)
        wit = first_witness(((lhs - a[cells[0]] + a[cells[1]] - a[cells[2]]) % d.n).reshape(a.shape))
        if wit:
            rep.add(f"hexagon-{h + 1}", "{} hexagon fails at ({},{},{})".format(("first", "second")[h], *(names[i] for i in wit)),
                    tuple(names[i] for i in wit))
    # covariance
    bad = _invariance_witness(b, act)
    if bad:
        k, x, y = bad
        rep.add("covariance", f"braiding not covariant under {g.element_names[k]} at ({names[x]},{names[y]})", (g.element_names[k], x, y))
    return rep


# ---------------------------------------------------------------------------
# braid solving: the hexagons are linear in the braid table, and a covariant
# table is constant on the orbits of the action on its cells


def _cell_images(action, k):
    """images[g, t] = act_g(t) for the non-unit cells t of Gamma^k, each cell
    written as its position among them in lexicographic order (the
    bar_matrix columns).  orbit_labels(images) numbers the orbits by their
    least cells, so y -> y[labels] is a bijection from orbit values onto the
    tables constant on orbits that keeps lexicographic order."""
    perms = np.asarray(action)[:, 1:] - 1
    position = np.arange(perms.shape[1] ** k).reshape((perms.shape[1],) * k)
    return np.array([position[np.ix_(*[p] * k)].ravel() for p in perms])


def _hexagons(gamma, deg, action):
    """The two hexagons at every (x, y, z), in lexicographic order, as pairs
    (braid terms (x, y, coef), associator cells): a hexagon holds where
    sum coef * b[x, y] = a[cell 0] - a[cell 1] + a[cell 2] (mod N), the
    first hexagon of the module docstring with both sides negated."""
    o = gamma.order
    mul, by = gamma.mul_array, np.asarray(action)[np.asarray(deg)]  # row x of by: the action of deg(x)
    x, y, z = np.indices((o, o, o)).reshape(3, -1)
    az, at, xy, yz = by[x, y], by[x, z], mul[x, y], by[y, z]
    return [
        ([(x, y, 1), (x, z, 1), (x, mul[y, z], -1)], [(x, y, z), (az, x, z), (az, at, x)]),
        ([(xy, z, 1), (x, yz, -1), (y, z, -1)], [(x, y, z), (x, yz, y), (by[xy, z], x, y)]),
    ]


def _braid_system(gamma, deg, action):
    """(A, labels, cells) such that the hexagons read
    A y = a[cells[0]] - a[cells[1]] + a[cells[2]] (mod N), row by row.

    y holds one braid value per orbit of the action on the non-unit cells
    (x, y), x, y != e: the braid table b[cell] = y[labels[cell]] is covariant,
    and every covariant table has this form.  a is the flat associator table
    over Gamma^3.  Rows: the first hexagon at every (x, z, t), negated, then
    the second at every (x, y, z), both in lexicographic order.
    """
    o = gamma.order
    labels, reps = orbit_labels(_cell_images(action, 2))
    count = len(reps)
    rows = 2 * o**3
    if rows * count > CELL_CAP:
        raise ResourceLimit(f"braid system on orbit coordinates: {rows}x{count} = {rows * count} cells exceed the cell cap {CELL_CAP}")
    column = np.pad(labels.reshape(o - 1, o - 1), (1, 0), constant_values=-1)  # -1 on unit cells
    amat = np.zeros((2, o**3, count), dtype=np.int64)
    cells = np.zeros((3, 2, o**3), dtype=np.int64)
    for h, (braid_terms, assoc_cells) in enumerate(_hexagons(gamma, deg, action)):
        for p, q, coef in braid_terms:
            col = column[p, q]
            np.add.at(amat[h], (np.flatnonzero(col >= 0), col[col >= 0]), coef)
        cells[:, h] = [np.ravel_multi_index(cell, (o, o, o)) for cell in assoc_cells]
    return amat.reshape(rows, count), labels, cells.reshape(3, rows)


def _invariant_associators(group, action, n):
    """The closed 3-cochains mod n that the action fixes, as sorted vectors:
    the kernel of d3 on the orbit coordinates of (G - e)^3 (snf.lattice_points),
    mapped back to the cells as y[labels]; the map keeps lexicographic order."""
    labels, reps = orbit_labels(_cell_images(action, 3))
    d3 = bar_matrix(group, 3) @ np.eye(len(reps), dtype=np.int64)[labels]
    _, vectors = snf.lattice_points(d3, n, np.zeros((len(d3), 1), dtype=np.int64))
    return vectors[:, labels]


def _braid_tables(gamma, system, n, vectors):
    """(counts, tables): counts[i] braid tables solve the system with the
    associator vectors[i] (a TorsionCocycle.to_vector), and tables, int64
    (tables, |Gamma|, |Gamma|), holds them by associator, each lexicographic."""
    (amat, labels, cells), o = system, gamma.order
    inner = np.reshape(np.transpose(vectors), (o - 1,) * 3 + (len(vectors),))
    flat = np.pad(inner, ((1, 0),) * 3 + ((0, 0),)).reshape(o**3, len(vectors))
    rhs = flat[cells[0]]  # one column per associator: three signed gathers, added in place
    rhs -= flat[cells[1]]
    rhs += flat[cells[2]]
    rhs %= n
    del flat  # the solve below is the peak of the run; it need not hold the tables
    counts, sols = snf.lattice_points(amat, n, rhs)
    tables = np.zeros((len(sols), o, o), dtype=np.int64)
    tables[:, 1:, 1:] = sols[:, labels].reshape(len(sols), o - 1, o - 1)
    return counts, tables


def _conjugation_action(g: FiniteGroup):
    return tuple(map(tuple, g.conj_array.tolist()))


def holomorphic_crossed(group: FiniteGroup, omega: TorsionCocycle):
    """The crossed pointed category with one simple per degree.

    Gamma = G, deg = id, action = conjugation, associator = omega; the
    braiding is solved from the hexagons.  If no braiding exists at omega's
    root order, N is retried over its multiples up to 16.  Returns
    (PointedGXData, number of braidings found at the chosen N).
    """
    ok, wit = is_cocycle(omega)
    if not ok:
        raise ValueError(f"omega is not closed (witness {wit})")
    if omega.group.mul != group.mul:
        raise ValueError("omega must be a 3-cocycle on the group itself")
    action = _conjugation_action(group)
    deg = tuple(group.elements())
    if _invariance_witness(omega.table, np.asarray(action)) is not None:
        raise ValueError(
            "associator representative is not conjugation-invariant; "
            "pick an invariant representative of its class"
        )
    system = _braid_system(group, deg, action)
    mult = 1
    while mult * omega.n <= N_CAP:
        n = mult * omega.n
        infl = omega.inflated(n)
        _, tables = _braid_tables(group, system, n, infl.to_vector()[None])
        if len(tables):
            data = PointedGXData.make(group, group, deg, action, n, infl, tables[0])
            rep = validate_pointed(data)
            if not rep.passed:
                raise InvariantError(f"holomorphic output failed validation: {rep.issues[:1]}")
            return data, len(tables)
        mult += 1
    raise ValueError(
        f"no consistent braiding found for any N = k*{omega.n} <= {N_CAP}; "
        "a larger root-of-unity order is needed"
    )


def _automorphisms(g: FiniteGroup):
    """Aut(G) as image tuples, in lexicographic order."""
    perms = ((0, *p) for p in itertools.permutations(range(1, g.order)))
    return [p for p in perms if homomorphism_witness(g.mul, p, lambda u, v: g.mul[u][v]) is None]


def _void_rows(rows):
    """One np.void per row of a uint8 array, in the rows' lexicographic order (width 0 reads as one 0 byte)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1]}").ravel() if rows.shape[1] else np.zeros(len(rows), dtype="V1")


def _find(index, rows):
    """The position of each uint8 row in index, the sorted _void_rows of the states, or -1 if absent."""
    found = _void_rows(rows)
    at = np.minimum(np.searchsorted(index, found), len(index) - 1)
    return np.where(index[at] == found, at, -1)


def _gauge_moves(group, n):
    """(shifts, perms): the gauge translations, uint8 rows mod n, and the
    relabelings through Aut(G), one column gather each (psi moves the value
    at cell t to cell psi(t)).  A 2-cochain lambda shifts the associator by
    d(lambda) and the braid by lambda(^x y, x) - lambda(x, y).  The lambdas
    are a basis of those with a conjugation-invariant coboundary (all of
    them for abelian G): the kernel of the rows dlambda(act_g(t)) -
    dlambda(t), one per g and moved non-unit cell t, in that order."""
    action, o = np.asarray(_conjugation_action(group)), group.order
    d2, images = bar_matrix(group, 2), _cell_images(action, 3)
    moved = images != np.arange(images.shape[1])
    invariance = d2[images[moved]] - d2[np.nonzero(moved)[1]]
    lam_gens = snf.kernel_mod(invariance % n, n)[0] if len(invariance) else np.eye(d2.shape[1], dtype=np.int64)
    lam = np.pad(lam_gens.T.reshape(lam_gens.shape[1], o - 1, o - 1), ((0, 0), (1, 0), (1, 0)))
    braid_shift = lam[:, action, np.arange(o)[:, None]] - lam
    shifts = np.hstack([(d2 @ lam_gens).T, braid_shift[:, 1:, 1:].reshape(len(lam), (o - 1) ** 2)]) % n
    inverses = np.argsort(_automorphisms(group), axis=1)
    return shifts.astype(np.uint8), np.hstack([_cell_images(inverses, 3), (o - 1) ** 3 + _cell_images(inverses, 2)])


def enumerate_holomorphic(group: FiniteGroup, n: int):
    """All holomorphic crossed pointed data on Gamma = G at root order n.

    Returns (orbits, states): orbits is a list of dicts with a
    representative PointedGXData and the orbit size, under the equivalence
    generated by associator coboundary shifts (with the induced braid
    adjustment) and relabelings through Aut(G); this relation is a package
    choice.  states is every solution before the quotient, one uint8 row
    each: the associator on the non-unit cells of G^3, then the braid table
    on those of G^2, rows in lexicographic order.
    """
    if group.order > ENUM_GROUP_CAP or n > ENUM_N_CAP:
        raise ResourceLimit(f"enumeration guarded to |G| <= {ENUM_GROUP_CAP}, N <= {ENUM_N_CAP}")
    action, deg = _conjugation_action(group), tuple(group.elements())
    o, width3 = group.order, (group.order - 1) ** 3

    # The states fit uint8 (n <= 8).  The associator vectors and each one's
    # braid tables come sorted, so the rows are in lexicographic order, the
    # order of (associator, braid).
    vectors = _invariant_associators(group, action, n)
    counts, tables = _braid_tables(group, _braid_system(group, deg, action), n, vectors)
    braids = tables[:, 1:, 1:].reshape(len(tables), (o - 1) ** 2).astype(np.uint8)
    states = np.hstack([np.repeat(vectors.astype(np.uint8), counts, axis=0), braids])
    count, width = states.shape

    # The states form a Z/n-module, so a translation keeps them exactly when
    # it is a state.  The kept translations and their relabelings span B, and
    # the orbits are the Aut(G)-orbits of the cosets of B in the states.  The
    # coset of x is p x, reduced mod the diagonal of p B q (mod n past it).
    # The product is exact in float32: under the caps a sum is at most
    # 150 * 7**2, below 2**24.
    shifts, perms = _gauge_moves(group, n)
    index = _void_rows(states)
    kept = shifts[_find(index, shifts) >= 0]
    diag, _, p = snf.snf_mod(kept[:, perms].reshape(len(kept) * len(perms), width).T, n, np.eye(width, dtype=np.int64))
    mod = np.array(diag + [n] * (width - len(diag)), dtype=np.float32)
    rows = np.flatnonzero(mod > 1)
    keys = (states.astype(np.float32) @ p[rows].T.astype(np.float32)) % mod[rows]
    _, least, coset = np.unique(_void_rows(keys.astype(np.uint8)), return_index=True, return_inverse=True)
    coset = np.argsort(np.argsort(least))[coset]  # cosets numbered by their least states
    least = np.sort(least)
    at = _find(index, states[least][:, perms].reshape(len(least) * len(perms), width))
    if (at < 0).any():
        raise InvariantError("a relabeling through Aut(G) takes a state out of the solution set")
    span = math.prod(n // d for d in diag)
    if span * len(least) != count:
        raise InvariantError(f"{count} states are not {len(least)} cosets of the {span} gauge translations")
    labels, reps = orbit_labels(coset[at].reshape(len(least), len(perms)).T)

    orbits = []
    for rep, cosets in zip(least[reps].tolist(), np.bincount(labels).tolist()):
        assoc = TorsionCocycle.from_vector(group, 3, n, states[rep, :width3])
        data = PointedGXData.make(group, group, deg, action, n, assoc, np.pad(states[rep, width3:].reshape(o - 1, o - 1), (1, 0)))
        check = validate_pointed(data)
        if not check.passed:
            raise InvariantError(f"enumerated representative failed validation: {check.issues[:1]}")
        orbits.append({"representative": data, "size": span * cosets})
    orbits.sort(key=lambda o: (o["representative"].assoc.values, o["representative"].braid))
    return orbits, states


# ---------------------------------------------------------------------------
# de-equivariantization of a braided pointed category by a boson subgroup


def pointed_deequivariantize(data: PointedGXData, subgroup_elems):
    """Condense a transparent boson subgroup H of a braided pointed category.

    Requires trivial G (braided input) and abelian Gamma.  The output lives
    on Gamma/H, graded over the character group of H by the double-braiding
    character x -> (h -> monodromy(x, h)); associator and braiding are the
    least solution (in a fixed ordering) of the skeletal identities that
    reproduces the gauge-invariant data (degree-zero twists and the
    monodromies against degree-zero objects).
    """
    if data.group.order != 1:
        raise ValueError("input must be braided (trivial G)")
    gam = data.gamma
    if not gam.is_abelian:
        raise ValueError("braided pointed data needs abelian Gamma")
    h_elems = tuple(sorted(set(subgroup_elems)))
    if h_elems == (0,):
        return data  # condensing nothing: the category is unchanged
    h_grp, h_embed = subgroup(gam, h_elems, name="H")
    n = data.n
    # boson/transparency checks
    for hi, hj in itertools.product(range(h_grp.order), repeat=2):
        x, y = h_embed[hi], h_embed[hj]
        if data.monodromy(x, y) % n:
            raise ValueError(
                f"H is not transparent within itself: monodromy({gam.element_names[x]},{gam.element_names[y]}) != 0"
            )
    for hi in range(h_grp.order):
        x = h_embed[hi]
        if data.twist(x) % n:
            raise ValueError(f"H carries a nontrivial twist at {gam.element_names[x]}")
    h_assoc = TorsionCocycle.from_table(h_grp, 3, n, data.assoc.table[np.ix_(h_embed, h_embed, h_embed)])
    if not is_coboundary(h_assoc):
        raise ValueError("associator restricted to H is not a coboundary")

    if n % h_grp.exponent:
        raise ValueError("root order N too coarse to carry the characters of H")
    gamma2, cmap = quotient(gam, h_elems)
    cosets = [[x for x in gam.elements() if cmap[x] == c] for c in range(gamma2.order)]
    section = [coset[0] for coset in cosets]  # the least member of each coset

    chars = abelian_characters(h_grp, n)
    char_index = {c.values: i for i, c in enumerate(chars)}
    gmul = [[char_index[chars[i].add(chars[j]).values] for j in range(len(chars))] for i in range(len(chars))]
    gnames = ["e"] + [f"chi{i}" for i in range(1, len(chars))]
    g2 = FiniteGroup(f"dual({h_grp.name})", tuple(tuple(r) for r in gmul), tuple(gnames))

    deg2 = []
    for reps in cosets:
        vals = tuple(data.monodromy(reps[0], h_embed[hi]) % n for hi in range(h_grp.order))
        for r in reps[1:]:
            vals_r = tuple(data.monodromy(r, h_embed[hi]) % n for hi in range(h_grp.order))
            if vals_r != vals:
                raise ValueError("degree character depends on the coset representative")
        if vals not in char_index:
            raise ValueError("monodromy character does not land in the dual group")
        deg2.append(char_index[vals])
    if homomorphism_witness(gamma2.mul, deg2, lambda u, v: g2.mul[u][v]) is not None:
        raise ValueError("degree map is not a homomorphism")  # internal consistency

    action2 = tuple(tuple(range(gamma2.order)) for _ in range(g2.order))

    # pin gauge-invariant scalars over all candidate tables: twists of
    # degree-zero cosets and monodromies of pairs with at least one
    # degree-zero member.  Both actions are trivial, so a twist is the
    # diagonal of the braid table b and the monodromies are b + b^T.
    vectors = _invariant_associators(gamma2, action2, n)
    counts, tables = _braid_tables(gamma2, _braid_system(gamma2, deg2, action2), n, vectors)
    zero = np.asarray(deg2) == 0
    pair = zero[:, None] | zero
    b = np.asarray(data.braid)[np.ix_(section, section)]
    fits = (np.diagonal(tables, axis1=1, axis2=2)[:, zero] == np.diag(b)[zero]).all(axis=1)
    fits &= (((tables + tables.transpose(0, 2, 1)) % n)[:, pair] == ((b + b.T) % n)[pair]).all(axis=1)
    if not fits.any():
        raise ValueError("no descended braiding found (internal consistency error)")
    least = int(np.argmax(fits))  # candidates run in the order of (associator, braid table)
    assoc2 = TorsionCocycle.from_vector(gamma2, 3, n, np.repeat(vectors, counts, axis=0)[least])
    cand = PointedGXData.make(gamma2, g2, deg2, action2, n, assoc2, tables[least])
    rep = validate_pointed(cand)
    if not rep.passed:
        raise InvariantError(f"descended data failed validation: {rep.issues[:1]}")
    return cand


# ---------------------------------------------------------------------------
# twisted quantum doubles


class DoubleData(Record):
    _fields = ("group", "n", "simples", "s_matrix", "fusion")

    def __init__(self, group, n, simples, s_matrix, fusion):
        # simples: dicts with class_rep, class_size, irrep, irrep_dim, dim, t (Cyc)
        # s_matrix: list of lists of Cyc; fusion: GradedFusionRing
        self.__dict__.update(group=group, n=n, simples=simples, s_matrix=s_matrix, fusion=fusion)

    @property
    def dims(self):
        return [s["dim"] for s in self.simples]

    def to_json(self):
        r = len(self.simples)
        cells = emit([s["t"] for s in self.simples] + [v for row in self.s_matrix for v in row])
        return {
            "group": self.group.name,
            "N": self.n,
            "simples": [dict(s, t=t) for s, t in zip(self.simples, cells)],
            "s_matrix": [cells[i:i + r] for i in range(r, len(cells), r)],
            "has_fusion_ring": True,
        }


def twisted_double(group: FiniteGroup, omega: TorsionCocycle) -> DoubleData:
    """Module data of the omega-twisted double: one simple per (conjugacy
    class, projective centralizer irrep with transgressed multiplier).

    S is computed exactly for every group and omega, and the fusion ring
    follows from it by Verlinde.  T entries are the normalized character
    values at the class representative.  Every self-check raises
    InvariantError.
    """
    ok, wit = is_cocycle(omega)
    if not ok:
        raise ValueError(f"omega is not closed (witness {wit})")
    g = group
    data = conjugacy_data(g)
    n = omega.n
    simples = []
    for ci, rep in enumerate(data.reps):
        tau, cent, embed = transgress(omega, rep)
        dims, sections, _ = projective_irrep_data(cent, tau)
        # rep is central in its centralizer, so each section value at rep is
        # dim zeta_m^t: dim at one exponent t and 0 at every other
        at_rep = sections[:, embed.index(rep)]
        for ii, (dim, section) in enumerate(zip(dims, sections)):
            t = int(at_rep[ii].argmax())
            if at_rep[ii, t] != dim or np.count_nonzero(at_rep[ii]) != 1:
                raise InvariantError(f"T entry of ({g.element_names[rep]};{ii}) is not a root of unity")
            simples.append({
                "class_rep": g.element_names[rep],
                "class_index": ci,
                "class_size": len(data.classes[ci]),
                "irrep": ii,
                "irrep_dim": dim,
                "dim": len(data.classes[ci]) * dim,
                "t": Cyc.root(section.shape[-1], t),
                "section": section,
                "embed": embed,
            })
    total = sum(s["dim"] ** 2 for s in simples)
    if total != g.order**2:
        raise InvariantError(f"double dimension identity failed: sum of dim^2 is {total}, not |G|^2 = {g.order**2}")

    cond, coef, den = _s_matrix(omega, data, simples)
    _check_unitary(coef, den)
    fusion = _verlinde_fusion(f"D({g.name})" if omega.is_zero() else f"D^w({g.name})", g.order, simples, coef, den)
    m = coef.shape[-1]
    s_matrix = [[Cyc.from_ints(c, row[j][::m // c], den) for j, c in enumerate(crow)]
                for row, crow in zip(coef.tolist(), cond.tolist())]
    public = [
        {k: s[k] for k in ("class_rep", "class_size", "irrep", "irrep_dim", "dim", "t")}
        for s in simples
    ]
    return DoubleData(g, n, public, s_matrix, fusion)


def _check_unitary(coef, den):
    """S S^dagger = I for S = coef / den, with coef (size, size, m) the int
    coefficients of den * S on 1, zeta_m, ..., zeta_m^(m-1): checked as
    (den S)(den S)^dagger = den^2 I, one certified character sum."""
    size, _, m = coef.shape
    one = np.zeros((1, 1, m), dtype=np.int64)
    one[0, 0, 0] = 1
    cols = np.arange(size)
    vals, rational = character_sums(coef, one, coef, (cols, np.zeros(size), cols, np.ones(size)))
    bad = ~rational[:, 0] | (vals[:, 0] != den * den * np.eye(size, dtype=np.int64))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvariantError(f"S not unitary at ({i},{j})")


def _s_matrix(omega, data, simples):
    """S of the twisted double from the sections (Coste-Gannon-Ruelle):

        S_AB = sum over t in G with x = t b t^-1 in C(a) of
               zeta_n^e conj(theta_A(x)) conj(theta_B(t^-1 a t)) / (|C(a)| |C(b)|),
        e = p(a, x) - tau_x(a, t) + tau_x(t, t^-1 a t)

    for the class representatives a of A and b of B, with p(a, x) the phase
    w(a,x,ax) - w(a,ax,x) + w(ax,a,x) - w(a,x,a) - w(x,a,x) of the commuting
    pair and tau = cohomology.slant carrying theta_B from b to x; e is 0 when
    omega is.  The section values of all simples are int coefficient vectors
    over zeta_m, m the lcm of their conductors and of the order of omega's
    values; for each pair of classes the sum is one integer matrix product of
    the conjugated vectors, a cyclic convolution over zeta_m with each term
    turned by its e.  An entry is emitted in Q(zeta_c), c the lcm of the conductors
    of its two simples' sections and of the order of its phases, when some x
    commutes with a, and c = 1 when none does.

    Returns (cond, coef, den): the conductor c of every entry, and den * S as
    int coefficients on the powers of zeta_M, M = lcm of the conductors, with
    den the least common denominator of all coefficients.
    """
    g, n, w = omega.group, omega.n, omega.table
    cond = np.array([s["section"].shape[-1] for s in simples], dtype=np.int64)
    m = math.lcm(n // math.gcd(n, int(np.gcd.reduce(w, axis=None))), *cond.tolist())
    # each section lifted to zeta_m by stride, zeta_c^e = zeta_m^(e m / c), then one zero row
    lifted = [np.kron(s["section"], np.eye(1, m // c, dtype=np.int64)) for s, c in zip(simples, cond.tolist())]
    bar = np.vstack(lifted + [np.zeros((1, m), dtype=np.int64)])[:, -np.arange(m) % m]
    pos = np.full((len(simples), g.order), len(bar) - 1, dtype=np.int64)  # pos[s, x]: row of section_s(x)
    offset = 0
    for si, s in enumerate(simples):
        pos[si, list(s["embed"])] = offset + np.arange(len(s["embed"]))
        offset += len(s["embed"])
    conj, inv, mul = g.conj_array, np.asarray(g.inv), g.mul_array
    klass = np.array([s["class_index"] for s in simples])
    size = np.array([len(s["embed"]) for s in simples], dtype=np.int64)
    shift = (np.arange(m) - np.arange(m)[:, None]) % m  # shift[i, e] = e - i
    raw = np.zeros((len(simples), len(simples), m), dtype=np.int64)
    entry_cond = np.ones((len(simples), len(simples)), dtype=np.int64)
    for ca, a in enumerate(data.reps):
        rows = np.flatnonzero(klass == ca)
        for cb, b in enumerate(data.reps):
            cols = np.flatnonzero(klass == cb)
            ts = np.flatnonzero(mul[a, conj[:, b]] == mul[conj[:, b], a])  # t b t^-1 in C(a)
            x, y = conj[ts, b], conj[inv[ts], a]
            ax = mul[a, x]
            e = (w[a, x, ax] - w[a, ax, x] + w[ax, a, x] - w[a, x, a] - w[x, a, x]
                 - slant(omega, x, a, ts) + slant(omega, x, ts, y)) % n
            # (rows, terms, m): each term turned by its e, zeta_n^e = zeta_m^(e m / n)
            u = bar[pos[np.ix_(rows, x)][..., None], (np.arange(m) - (e * m // n)[:, None]) % m]
            v = bar[pos[np.ix_(cols, y)]][:, :, shift]  # (cols, terms, m, m)
            terms = len(ts) * m
            num = u.reshape(len(rows), terms) @ v.transpose(1, 2, 0, 3).reshape(terms, len(cols) * m)
            raw[np.ix_(rows, cols)] = num.reshape(len(rows), len(cols), m)
            if len(ts):
                entry_cond[np.ix_(rows, cols)] = np.lcm(np.lcm.outer(cond[rows], cond[cols]),
                                                        n // math.gcd(n, int(np.gcd.reduce(e))))
    raw[np.arange(m) % (m // entry_cond)[..., None] != 0] = 0  # not emitted in Q(zeta_c)
    den = np.multiply.outer(size, size)
    common = np.gcd(np.gcd.reduce(raw, axis=2), den)
    reduced = den // common
    lcd = math.lcm(*reduced.ravel().tolist())
    big_m = math.lcm(*entry_cond.ravel().tolist())
    scaled = raw // common[..., None] * (lcd // reduced)[..., None]
    return entry_cond, scaled[:, :, ::m // big_m], lcd


def _verlinde_fusion(name, order, simples, coef, den):
    """The fusion ring of a double from its S = coef / den by Verlinde:

        N_ij^k = sum over l of S_il S_jl conj(S_kl) / S_0l,  S_0l = d_l / |G|,

    that is N = |G| V / (den^3 L) with V = sum over l of (L / d_l) coef_il
    coef_jl conj(coef_kl) and L the lcm of the dims d_l.  One certified
    character sum; each simple must have exactly one dual.
    """
    dims = np.array([s["dim"] for s in simples], dtype=np.int64)
    big_l = math.lcm(*dims.tolist())
    cols = np.arange(len(simples))
    vals, rational = character_sums(coef, coef, coef, (cols, cols, cols, big_l // dims))
    labels = [f"({s['class_rep']};{s['irrep']})" for s in simples]
    vals *= order  # in place: a scaled copy would be one more s^3 int64 array
    coeffs, dual = fusion_coefficients(
        vals, rational, den**3 * big_l, labels, "double fusion must be a non-negative integer")
    return GradedFusionRing.make(name, labels, 0, tuple(dual), coeffs)


# ---------------------------------------------------------------------------
# Kirillov pairing matrix


class KirillovMatrix(Record):
    _fields = ("basis", "entries", "invertible")

    def __init__(self, basis, entries, invertible):
        # basis: (object name, group element name) pairs; entries: a Cyc matrix
        self.__dict__.update(basis=basis, entries=entries, invertible=invertible)

    def to_json(self):
        return {
            "basis": [list(b) for b in self.basis],
            "entries": [emit(row) for row in self.entries],
            "invertible": self.invertible,
        }


def kirillov_S(d: PointedGXData) -> KirillovMatrix:
    """Pairing matrix on  (+)_{x, k : action_k(x) = x} Hom(beta_k(x), x).

    The entry between basis slots (x, k) and (y, l) vanishes unless
    k = deg(y) and l = deg(x); when it survives, both crossings evaluate to
    braid scalars (over-crossing = braid, under-crossing as the action
    twist makes the loops close):

        S[(x,k),(y,l)] = zeta ^ ( braid(x, y) + braid(action_{deg x}(y), x) ).

    With trivial G this is the double-braiding matrix of the underlying
    braided pointed category.  The verdict is exact (_invertible_roots).
    """
    gam, g = d.gamma, d.group
    reduction_matrix(d.n)  # the entries are read mod Phi_N: refuse an N past the cell cap first
    basis = [(x, k) for x in gam.elements() for k in g.elements() if d.act(k, x) == x]
    expo = np.full((len(basis),) * 2, -1, dtype=np.int64)  # -1: the entry is 0
    for i, (x, k) in enumerate(basis):
        for j, (y, l) in enumerate(basis):
            if k == d.deg[y] and l == d.deg[x]:
                expo[i, j] = d.monodromy(x, y) % d.n
    entries = [[Cyc.root(d.n, e) if e >= 0 else Cyc.rational(0, d.n) for e in row] for row in expo.tolist()]
    return KirillovMatrix(
        [(gam.element_names[x], g.element_names[k]) for x, k in basis],
        entries,
        _invertible_roots(expo, d.n),
    )


def _invertible_roots(expo, n):
    """Whether the square matrix with entries zeta_n^expo (0 where expo < 0)
    is invertible over Q(zeta_n).

    Over F_p, p = 1 mod n, each embedding zeta_n -> z^k (gcd(k, n) = 1)
    reduces the matrix modulo one prime above p.  Full rank under one of
    them proves det != 0.  Rank below full under all phi(n) of them puts
    det in p Z[zeta_n], so p^phi(n) divides its norm.  By Hadamard every
    conjugate of det has |.| <= prod_i sqrt(r_i), r_i the nonzero entries
    of row i, so a nonzero det has |norm| <= (prod_i r_i)^(phi(n) / 2):
    once the primes tried satisfy (prod p)^2 > prod_i r_i, det = 0.
    """
    bound = math.prod((expo >= 0).sum(axis=1).tolist())
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    p, tried = min(math.isqrt(bound), 1 << 30), 1
    while tried * tried <= bound:
        p = prime_1_mod(n, p + 1)
        z = pow(primitive_root(p), (p - 1) // n, p)
        for k in units:
            # powers[e] = z^(k e); the trailing 0 is powers[-1]
            powers = np.array([pow(z, k * e, p) for e in range(n)] + [0], dtype=np.int64)
            if not len(snf.nullspace_fp(powers[expo], p)):
                return True
        tried *= p
    return False
