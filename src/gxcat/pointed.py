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
from .cohomology import TorsionCocycle, bar_matrix, first_witness, is_coboundary, is_cocycle
from .errors import CELL_CAP, FrozenRecord, InvariantError, ResourceLimit, ValidationReport
from .groups import (FiniteGroup, abelian_characters, compose, homomorphism_witness, orbit_labels, quotient,
                     subgroup)
from .serialize import dump_group

__all__ = [
    "PointedGXData",
    "validate_pointed",
    "pointed_deequivariantize",
    "holomorphic_crossed",
    "enumerate_holomorphic",
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
