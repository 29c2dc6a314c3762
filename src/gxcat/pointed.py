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

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import snf
from .chartab import character_sums, cyc_coefficients, projective_irrep_data
from .cohomology import (
    ResourceLimit,
    TorsionCocycle,
    bar_matrix,
    coboundary,
    first_witness,
    invariance_rows,
    is_coboundary,
    is_cocycle,
    transgress,
)
from .cyclo import Cyc
from .fusion import GradedFusionRing, ValidationReport
from .groups import FiniteGroup, InvariantError, abelian_characters, conjugacy_data, subgroup

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
    "toric_code_pointed",
    "double_semion_pointed",
    "symmetric_pointed",
]

N_CAP = 16
ENUM_GROUP_CAP = 6
ENUM_N_CAP = 8
ENUM_STATE_CAP = 1 << 16


@dataclass(frozen=True)
class PointedGXData:
    gamma: FiniteGroup
    group: FiniteGroup
    deg: tuple  # Gamma index -> G element
    action: tuple  # per G element, automorphism of Gamma as a tuple
    n: int
    assoc: TorsionCocycle  # degree 3 on gamma
    braid: tuple  # |Gamma| x |Gamma| values mod n

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
            "Gamma": {"name": self.gamma.name, "order": self.gamma.order, "mul": [list(r) for r in self.gamma.mul]},
            "G": {"name": self.group.name, "order": self.group.order, "mul": [list(r) for r in self.group.mul]},
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
    for x, y in itertools.product(gam.elements(), repeat=2):
        if d.deg[gam.mul[x][y]] != g.mul[d.deg[x]][d.deg[y]]:
            rep.add("deg", f"grading not multiplicative at ({names[x]},{names[y]})", (names[x], names[y]))
            break
    # action: automorphisms, homomorphism, degree conjugation
    if len(d.action) != g.order:
        rep.add("action", "one automorphism per group element required")
        return rep
    for k, p in enumerate(d.action):
        if sorted(p) != list(range(gam.order)) or p[0] != 0:
            rep.add("action", f"action of {g.element_names[k]} is not a unit-preserving bijection", g.element_names[k])
            return rep
        for x, y in itertools.product(gam.elements(), repeat=2):
            if p[gam.mul[x][y]] != gam.mul[p[x]][p[y]]:
                rep.add("action", f"action of {g.element_names[k]} is not an automorphism at ({names[x]},{names[y]})", (g.element_names[k], names[x], names[y]))
                break
    if tuple(d.action[0]) != tuple(range(gam.order)):
        rep.add("action", "identity must act trivially")
    for k, l in itertools.product(g.elements(), repeat=2):
        kl = g.mul[k][l]
        if any(d.action[k][d.action[l][x]] != d.action[kl][x] for x in gam.elements()):
            rep.add("action", f"action is not a homomorphism at ({g.element_names[k]},{g.element_names[l]})", (g.element_names[k], g.element_names[l]))
            break
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
    # hexagons, every instance at once; act[deg] holds the action of deg(x) in row x
    x, y, z = np.ix_(*[range(gam.order)] * 3)
    mul, by = gam.mul_array, act[np.asarray(d.deg)]
    az, at = by[x, y], by[x, z]
    hex1 = b[x, mul[y, z]] - (b[x, y] + b[x, z] - a[x, y, z] + a[az, x, z] - a[az, at, x])
    wit = first_witness(hex1 % d.n)
    if wit:
        rep.add("hexagon-1", "first hexagon fails at ({},{},{})".format(*(names[i] for i in wit)), tuple(names[i] for i in wit))
    xy, yz = mul[x, y], by[y, z]
    hex2 = b[xy, z] - (b[x, yz] + b[y, z] + a[x, y, z] - a[x, yz, y] + a[by[xy, z], x, y])
    wit = first_witness(hex2 % d.n)
    if wit:
        rep.add("hexagon-2", "second hexagon fails at ({},{},{})".format(*(names[i] for i in wit)), tuple(names[i] for i in wit))
    # covariance
    bad = _invariance_witness(b, act)
    if bad:
        k, x, y = bad
        rep.add("covariance", f"braiding not covariant under {g.element_names[k]} at ({names[x]},{names[y]})", (g.element_names[k], x, y))
    return rep


# ---------------------------------------------------------------------------
# braid solving: the hexagons and covariance are linear in the braid table


def _braid_system(gamma, group, deg, action):
    """Integer matrices (A, R) such that the hexagons and covariance read
    A b = R a (mod N).

    b runs over the non-unit braid cells (x, y), x, y != e, in lexicographic
    order; a is the flat associator table over Gamma^3.  Rows: the first
    hexagon at every (x, z, t), the second at every (x, y, z), both in
    lexicographic order, then covariance for each k in G and each non-unit
    cell that action_k moves.
    """
    o = gamma.order
    mul, act = gamma.mul_array, np.asarray(action)
    by = act[np.asarray(deg)]
    x, y, z = np.indices((o, o, o)).reshape(3, -1)
    az, at, xy, yz = by[x, y], by[x, z], mul[x, y], by[y, z]
    k, cx, cy = np.indices((group.order, o - 1, o - 1)).reshape(3, -1)
    cx, cy = cx + 1, cy + 1
    moved = (act[k, cx] != cx) | (act[k, cy] != cy)
    k, cx, cy = k[moved], cx[moved], cy[moved]
    blocks = [  # (braid terms (x, y, coef), associator terms ((x, y, z), coef))
        ([(x, mul[y, z], 1), (x, y, -1), (x, z, -1)], [((x, y, z), -1), ((az, x, z), 1), ((az, at, x), -1)]),
        ([(xy, z, 1), (x, yz, -1), (y, z, -1)], [((x, y, z), 1), ((x, yz, y), -1), ((by[xy, z], x, y), 1)]),
        ([(act[k, cx], act[k, cy], 1), (cx, cy, -1)], []),
    ]
    amats, rmats = [], []
    for braid_terms, assoc_terms in blocks:
        size = len(braid_terms[0][0])
        amat = np.zeros((size, o * o), dtype=np.int64)
        # entries are sums of at most three +-1 terms; int8 keeps the |Gamma|^3 columns small
        rmat = np.zeros((size, o**3), dtype=np.int8)
        for p, q, coef in braid_terms:
            np.add.at(amat, (np.arange(size), p * o + q), coef)
        for cell, coef in assoc_terms:
            np.add.at(rmat, (np.arange(size), np.ravel_multi_index(cell, (o, o, o))), coef)
        amats.append(amat.reshape(size, o, o)[:, 1:, 1:].reshape(size, (o - 1) ** 2))
        rmats.append(rmat)
    return np.vstack(amats), np.vstack(rmats)


def _solutions(mat, n, rhss, cap=ENUM_STATE_CAP):
    """Yield, for each column of rhss in turn, all solutions of mat x = rhs
    (mod n), sorted lexicographically, as tuples of ints."""
    parts, gens, orders = snf.solution_lattice(mat, n, rhss)
    total = math.prod(orders)
    offsets = None
    for part in parts:
        if part is None:
            yield []
            continue
        if total > cap:
            raise ResourceLimit(f"solution lattice has {total} points, over the enumeration cap")
        if offsets is None:
            offsets = gens @ np.indices(orders).reshape(len(orders), total)
        yield sorted(set(map(tuple, ((part[:, None] + offsets) % n).T.tolist())))


def _braid_tables(gamma, system, n, assocs, cap=ENUM_STATE_CAP):
    """Yield, for each associator in turn, the sorted braid tables that solve the system with it."""
    amat, rmat = system
    o = gamma.order
    assoc_tables = np.array([assoc.table.ravel() for assoc in assocs], dtype=np.int64).reshape(len(assocs), o**3)
    for sols in _solutions(amat, n, rmat @ assoc_tables.T % n, cap):
        tables = []
        for sol in sols:
            table = np.zeros((o, o), dtype=np.int64)
            table[1:, 1:] = np.reshape(sol, (o - 1, o - 1))
            tables.append(tuple(map(tuple, table.tolist())))
        yield tables


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
    system = _braid_system(group, group, deg, action)
    mult = 1
    while mult * omega.n <= N_CAP:
        n = mult * omega.n
        infl = omega.inflated(n)
        (tables,) = _braid_tables(group, system, n, [infl])
        if tables:
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
    if g.order == 1:
        return [tuple([0])]
    perms = []
    for p in itertools.permutations(range(1, g.order)):
        full = (0,) + p
        if all(full[g.mul[x][y]] == g.mul[full[x]][full[y]] for x in g.elements() for y in g.elements()):
            perms.append(full)
    return perms


def enumerate_holomorphic(group: FiniteGroup, n: int, shuffle_seed=None):
    """All holomorphic crossed pointed data on Gamma = G at root order n.

    Returns (orbits, all_solutions): orbits is a list of dicts with a
    representative PointedGXData and the orbit size, under the equivalence
    generated by associator coboundary shifts (with the induced braid
    adjustment) and relabelings through Aut(G); this relation is a package
    choice, and all_solutions is the raw pre-quotient list.
    """
    if group.order > ENUM_GROUP_CAP or n > ENUM_N_CAP:
        raise ResourceLimit(f"enumeration guarded to |G| <= {ENUM_GROUP_CAP}, N <= {ENUM_N_CAP}")
    action = _conjugation_action(group)
    deg = tuple(group.elements())
    o = group.order

    # closed, conjugation-invariant 3-cochains mod n
    invariance = invariance_rows(group, 3, action)
    mat = np.vstack([bar_matrix(group, 3), invariance])
    (assoc_vectors,) = _solutions(mat, n, np.zeros((mat.shape[0], 1), dtype=np.int64))
    assocs = [TorsionCocycle.from_vector(group, 3, n, avec) for avec in assoc_vectors]
    system = _braid_system(group, group, deg, action)

    # A state is flattened to its dense associator table followed by its
    # braid table.  Identity slots of the associator are 0 in every state,
    # so the order of these tuples is the order of (associator vector, braid).
    states, keys = [], []
    for avec, assoc, tables in zip(assoc_vectors, assocs, _braid_tables(group, system, n, assocs)):
        for table in tables:
            states.append((avec, table))
            keys.append(tuple(np.concatenate([assoc.table.ravel(), np.ravel(table)]).tolist()))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        keys = [keys[i] for i in rng.permutation(len(keys))]
    key_set = set(keys)

    # gauge moves: a 2-cochain lambda (tensorator scalars) shifts the
    # associator by +d(lambda) and the braid by lambda(^x y, x) - lambda(x, y),
    # a translation of the flat state.  Only lambdas whose coboundary stays
    # conjugation-invariant act on the state set, so the generators are a
    # basis of that subgroup (for abelian G this is every 2-cochain).
    d2 = bar_matrix(group, 2)
    if len(invariance):
        lam_gens, _ = snf.kernel_mod(invariance @ d2 % n, n)
    else:
        lam_gens = np.eye(d2.shape[1], dtype=np.int64)
    by = np.asarray(action)[np.asarray(deg)]
    shifts = []
    for vec in lam_gens.T:
        lam = TorsionCocycle.from_vector(group, 2, n, vec)
        braid_shift = lam.table[by, np.arange(o)[:, None]] - lam.table
        shifts.append(np.concatenate([coboundary(lam).table.ravel(), braid_shift.ravel()]))
    shifts = np.array(shifts, dtype=np.int64).reshape(-1, o**3 + o**2)
    # relabeling by psi moves the value at cell t to cell psi(t)
    perms = []
    for psi in _automorphisms(group):
        inv = np.argsort(psi)
        perms.append(np.concatenate([
            np.arange(o**3).reshape(o, o, o)[np.ix_(inv, inv, inv)].ravel(),
            o**3 + np.arange(o**2).reshape(o, o)[np.ix_(inv, inv)].ravel(),
        ]))
    perms = np.array(perms)

    seen = set()
    orbits = []
    for st in keys:
        if st in seen:
            continue
        frontier = [st]
        members = {st}
        seen.add(st)
        while frontier:
            cur = np.array(frontier.pop(), dtype=np.int64)
            for nb in map(tuple, np.vstack([(cur + shifts) % n, cur[perms]]).tolist()):
                if nb in key_set and nb not in members:
                    members.add(nb)
                    seen.add(nb)
                    frontier.append(nb)
        rep = np.array(min(members), dtype=np.int64)
        assoc = TorsionCocycle.from_table(group, 3, n, rep[: o**3].reshape(o, o, o))
        data = PointedGXData.make(group, group, deg, action, n, assoc, rep[o**3 :].reshape(o, o))
        check = validate_pointed(data)
        if not check.passed:
            raise InvariantError(f"enumerated representative failed validation: {check.issues[:1]}")
        orbits.append({"representative": data, "size": len(members)})
    all_solutions = sorted(states)
    orbits.sort(key=lambda o: (o["representative"].assoc.values, o["representative"].braid))
    return orbits, all_solutions


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
    quot, cmap = quotient_with_section(gam, h_elems)
    gamma2, section = quot

    chars = abelian_characters(h_grp, n)
    char_index = {c.values: i for i, c in enumerate(chars)}
    gmul = [[char_index[chars[i].add(chars[j]).values] for j in range(len(chars))] for i in range(len(chars))]
    gnames = ["e"] + [f"chi{i}" for i in range(1, len(chars))]
    g2 = FiniteGroup(f"dual({h_grp.name})", tuple(tuple(r) for r in gmul), tuple(gnames))

    deg2 = []
    for c in range(gamma2.order):
        reps = [x for x in gam.elements() if cmap[x] == c]
        vals = tuple(data.monodromy(reps[0], h_embed[hi]) % n for hi in range(h_grp.order))
        for r in reps[1:]:
            vals_r = tuple(data.monodromy(r, h_embed[hi]) % n for hi in range(h_grp.order))
            if vals_r != vals:
                raise ValueError("degree character depends on the coset representative")
        if vals not in char_index:
            raise ValueError("monodromy character does not land in the dual group")
        deg2.append(char_index[vals])
    for c1, c2 in itertools.product(range(gamma2.order), repeat=2):
        if deg2[gamma2.mul[c1][c2]] != g2.mul[deg2[c1]][deg2[c2]]:
            raise ValueError("degree map is not a homomorphism")  # internal consistency

    action2 = tuple(tuple(range(gamma2.order)) for _ in range(g2.order))

    # pin gauge-invariant scalars: twists of degree-zero cosets and
    # monodromies of pairs with at least one degree-zero member
    pins_twist = {}
    pins_mono = {}
    for c in range(gamma2.order):
        if deg2[c] == 0:
            pins_twist[c] = data.twist(section[c]) % n
    for c1, c2 in itertools.product(range(gamma2.order), repeat=2):
        if deg2[c1] == 0 or deg2[c2] == 0:
            pins_mono[(c1, c2)] = data.monodromy(section[c1], section[c2]) % n

    d3 = bar_matrix(gamma2, 3)
    (assoc_vectors,) = _solutions(d3, n, np.zeros((d3.shape[0], 1), dtype=np.int64))
    assocs = [TorsionCocycle.from_vector(gamma2, 3, n, avec) for avec in assoc_vectors]
    system = _braid_system(gamma2, g2, deg2, action2)
    for assoc2, tables in zip(assocs, _braid_tables(gamma2, system, n, assocs)):
        for table in tables:
            cand = PointedGXData.make(gamma2, g2, deg2, action2, n, assoc2, table)
            if any(cand.twist(c) != v for c, v in pins_twist.items()):
                continue
            if any(cand.monodromy(c1, c2) != v for (c1, c2), v in pins_mono.items()):
                continue
            rep = validate_pointed(cand)
            if not rep.passed:
                raise InvariantError(f"descended data failed validation: {rep.issues[:1]}")
            return cand
    raise ValueError("no descended braiding found (internal consistency error)")


def quotient_with_section(gam, h_elems):
    """Quotient group plus the least-representative section."""
    from .groups import quotient

    q, cmap = quotient(gam, h_elems)
    section = [min(x for x in gam.elements() if cmap[x] == c) for c in range(q.order)]
    return (q, section), cmap


# ---------------------------------------------------------------------------
# twisted quantum doubles


@dataclass
class DoubleData:
    group: FiniteGroup
    n: int
    simples: list  # dicts: class_rep, class_size, irrep, irrep_dim, dim, t (Cyc)
    s_matrix: object  # list of lists of Cyc, or None in dims-only mode
    fusion: object  # GradedFusionRing or None

    @property
    def dims(self):
        return [s["dim"] for s in self.simples]

    def t_spectrum(self):
        return [s["t"] for s in self.simples]

    def to_json(self):
        out = {
            "group": self.group.name,
            "N": self.n,
            "simples": [
                {
                    "class_rep": s["class_rep"],
                    "class_size": s["class_size"],
                    "irrep": s["irrep"],
                    "irrep_dim": s["irrep_dim"],
                    "dim": s["dim"],
                    "t": s["t"].to_json(),
                }
                for s in self.simples
            ],
            "s_matrix": [[v.to_json() for v in row] for row in self.s_matrix] if self.s_matrix else None,
            "has_fusion_ring": self.fusion is not None,
        }
        return out


def twisted_double(group: FiniteGroup, omega: TorsionCocycle) -> DoubleData:
    """Module data of the omega-twisted double: one simple per (conjugacy
    class, projective centralizer irrep with transgressed multiplier).

    S is computed exactly when the group is abelian (any omega) or omega is
    zero; otherwise the double stays in dims+T mode.  T entries are the
    normalized character values at the class representative.  Every
    self-check raises InvariantError.
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
        irreps, nred = projective_irrep_data(cent, tau)
        rep_pos = embed.index(rep)
        for ii, (dim, section) in enumerate(irreps):
            tval = section[rep_pos] * Fraction(1, dim)
            if tval * tval.conj() != 1:
                raise InvariantError(f"T entry of ({g.element_names[rep]};{ii}) is not a root of unity")
            simples.append({
                "class_rep": g.element_names[rep],
                "rep": rep,
                "class_index": ci,
                "class_size": len(data.classes[ci]),
                "irrep": ii,
                "irrep_dim": dim,
                "dim": len(data.classes[ci]) * dim,
                "t": tval,
                "section": section,
                "embed": embed,
            })
    total = sum(s["dim"] ** 2 for s in simples)
    if total != g.order**2:
        raise InvariantError(f"double dimension identity failed: sum of dim^2 is {total}, not |G|^2 = {g.order**2}")

    fusion = s_ints = s_matrix = None
    if omega.is_zero():
        sections = _section_table(g, simples)
        fusion = _untwisted_double_fusion(g, data, simples, sections)
        s_ints = _untwisted_s_matrix(g, data, simples, sections)
    elif g.is_abelian and all(s["irrep_dim"] == 1 for s in simples):
        fusion = _abelian_twisted_double_fusion(g, omega, simples)
        if fusion is not None:
            s_ints = _pointed_s_matrix(g, simples, fusion)
    if s_ints is not None:
        cond, coef, den = s_ints
        _check_unitary(coef, den)
        rows = coef.tolist()
        m = coef.shape[-1]
        s_matrix = [[Cyc.from_ints(n, row[j][::m // n], den) for j, n in enumerate(nrow)]
                    for row, nrow in zip(rows, cond.tolist())]
    public = [
        {k: s[k] for k in ("class_rep", "class_size", "irrep", "irrep_dim", "dim", "t")}
        for s in simples
    ]
    return DoubleData(g, n, public, s_matrix, fusion)


def _root_exponents(values, m):
    """e mod m with v = zeta_m^e, for each Cyc v written as one root of unity."""
    coef = cyc_coefficients(values, m)
    ok = ((coef != 0).sum(axis=1) == 1) & (coef.sum(axis=1) == 1)
    if not ok.all():
        raise InvariantError(f"{values[int(np.argmin(ok))]} is not a root of unity")
    return np.argmax(coef, axis=1)


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


def _section_table(g, simples):
    """The section values of all simples as one int coefficient table.

    Returns (coef, pos, m): coef (values + 1, m) holds every section value on
    1, zeta_m, ..., zeta_m^(m-1), with a zero row last; pos[s, x] is the row
    of section_s(x) for x in the centralizer of simple s, the zero row for
    any other x.
    """
    values = [v for s in simples for v in s["section"]]
    m = math.lcm(*(v.n for v in values))
    coef = np.vstack([cyc_coefficients(values, m), np.zeros((1, m), dtype=np.int64)])
    pos = np.full((len(simples), g.order), len(values), dtype=np.int64)
    offset = 0
    for si, s in enumerate(simples):
        pos[si, list(s["embed"])] = offset + np.arange(len(s["embed"]))
        offset += len(s["embed"])
    return coef, pos, m


def _untwisted_s_matrix(g, data, simples, sections):
    """S of D(G) from the sections (Coste-Gannon-Ruelle):

        S_AB = sum over t in G with x = t b t^-1 in C(a) of
               conj(theta_A(x)) conj(theta_B(t^-1 a t)) / (|C(a)| |C(b)|)

    for the class representatives a of A and b of B.  For each pair of
    classes the sum is one integer matrix product of the conjugated
    coefficient vectors, a cyclic convolution over zeta_m.  An entry is
    emitted in Q(zeta_n), n = lcm(exp C(a), exp C(b)) (the conductor of its
    sections) when some x commutes with a, and n = 1 when none does.

    Returns (cond, coef, den): the conductor of every entry, and den * S as
    int coefficients on the powers of zeta_M, M = lcm of the conductors, with
    den the least common denominator of all coefficients.
    """
    coef, pos, m = sections
    conj, inv = g.conj_array, np.asarray(g.inv)
    reps = data.reps
    klass = np.array([s["class_index"] for s in simples])
    cond = np.array([math.lcm(*(v.n for v in s["section"])) for s in simples], dtype=np.int64)
    size = np.array([len(s["embed"]) for s in simples], dtype=np.int64)
    bar = coef[:, -np.arange(m) % m]
    shift = (np.arange(m) - np.arange(m)[:, None]) % m  # shift[i, e] = e - i
    raw = np.zeros((len(simples), len(simples), m), dtype=np.int64)
    entry_cond = np.ones((len(simples), len(simples)), dtype=np.int64)
    for ca, a in enumerate(reps):
        rows = np.flatnonzero(klass == ca)
        for cb, b in enumerate(reps):
            cols = np.flatnonzero(klass == cb)
            x = conj[:, b]
            ts = np.flatnonzero(pos[rows[0], x] < len(coef) - 1)  # t b t^-1 in C(a)
            u = bar[pos[np.ix_(rows, x[ts])]]  # (rows, terms, m)
            v = bar[pos[np.ix_(cols, conj[inv[ts], a])]][:, :, shift]  # (cols, terms, m, m)
            terms = len(ts) * m
            num = u.reshape(len(rows), terms) @ v.transpose(1, 2, 0, 3).reshape(terms, len(cols) * m)
            raw[np.ix_(rows, cols)] = num.reshape(len(rows), len(cols), m)
            if len(ts):
                entry_cond[np.ix_(rows, cols)] = np.lcm.outer(cond[rows], cond[cols])
    raw[np.arange(m) % (m // entry_cond)[..., None] != 0] = 0  # not emitted in Q(zeta_n)
    den = np.multiply.outer(size, size)
    common = np.gcd(np.gcd.reduce(raw, axis=2), den)
    reduced = den // common
    lcd = math.lcm(*reduced.ravel().tolist())
    big_m = math.lcm(*entry_cond.ravel().tolist())
    scaled = raw // common[..., None] * (lcd // reduced)[..., None]
    return entry_cond, scaled[:, :, ::m // big_m], lcd


def _pointed_s_matrix(g, simples, fusion):
    """S of a pointed double from its twists: S_{uv} = conj(b(u,v))/|G| with
    b(u,v) = theta(u v) / (theta(u) theta(v)), which must be a bicharacter.

    The twists are roots of unity, so b is the int table
    theta[uv] - theta[u] - theta[v] of exponents mod M, M the lcm of the T
    conductors; each entry is emitted in the lcm of its three conductors.
    Returns (cond, coef, |G|) as _untwisted_s_matrix does: coef holds one 1
    per entry, at its root of unity among the powers of zeta_M.
    """
    size = len(simples)
    prod = np.zeros((size, size), dtype=np.int64)
    for (i, j, k), _ in fusion.coeffs:
        prod[i, j] = k
    cond = np.array([s["t"].n for s in simples], dtype=np.int64)
    m = math.lcm(*cond.tolist())
    theta = _root_exponents([s["t"] for s in simples], m)
    b = (theta[prod] - theta[:, None] - theta[None, :]) % m
    if (b != b.T).any():
        raise InvariantError("monodromy form must be symmetric")
    if ((b[prod] - b[:, None, :] - b[None, :, :]) % m).any():
        raise InvariantError("monodromy form must be a bicharacter")
    lcm = np.lcm(np.lcm(cond[prod], cond[:, None]), cond[None, :])
    exps = (-b * lcm // m) % lcm
    big_m = math.lcm(*lcm.ravel().tolist())
    coef = np.zeros((size, size, big_m), dtype=np.int64)
    i, j = np.indices((size, size))
    coef[i, j, exps * (big_m // lcm)] = 1
    return lcm, coef, g.order


def _fusion_ring(name, simples, coeffs):
    """The fusion ring with these coefficients; each simple must have exactly one dual."""
    labels = [f"({s['class_rep']};{s['irrep']})" for s in simples]
    dual = []
    for i in range(len(simples)):
        partners = [k for k in range(len(simples)) if coeffs.get((i, k, 0), 0) == 1]
        if len(partners) != 1:
            raise InvariantError(f"{labels[i]} must have exactly one dual, found {len(partners)}")
        dual.append(partners[0])
    return GradedFusionRing.make(name, labels, 0, tuple(dual), coeffs)


def _untwisted_double_fusion(g, data, simples, sections):
    """Fusion ring of D(G) from characters on commuting pairs:

        |G| N_ij^k = sum over commuting (a, x) and a1 in C(x) of
                     theta_i(a1, x) theta_j(a1^-1 a, x) conj(theta_k(a, x)),

    where theta_s(a, x) = section_s(t^-1 x t) for a = t rep_s t^-1 (least
    such t) and 0 off the class of s.  One certified character sum.
    """
    coef, pos, _ = sections
    mul, inv, conj = g.mul_array, np.asarray(g.inv), g.conj_array
    comm = mul == mul.T
    pa, px = np.nonzero(comm)  # commuting pairs (a, x), a-major
    pair = np.full(mul.shape, -1, dtype=np.int64)
    pair[pa, px] = np.arange(len(pa))
    cls = np.asarray(data.class_of)
    transport = np.argmax(conj[:, np.asarray(data.reps)[cls]] == np.arange(g.order), axis=0)
    y = conj[inv[transport[pa]], px]
    klass = np.array([s["class_index"] for s in simples])
    theta = coef[np.where(cls[pa] == klass[:, None], pos[:, y], len(coef) - 1)]

    a1, pi = np.nonzero(comm[:, px])
    a2 = mul[inv[a1], pa[pi]]
    terms = (pair[a1, px[pi]], pair[a2, px[pi]], pi, np.ones(len(pi)))
    vals, rational = character_sums(theta, theta, theta, terms)
    if not rational.all() or (vals % g.order).any() or (vals < 0).any():
        raise InvariantError("double fusion must be a non-negative integer")
    mult = vals // g.order
    nz = np.nonzero(mult)  # in C order
    coeffs = dict(zip(zip(*(i.tolist() for i in nz)), mult[nz].tolist()))
    return _fusion_ring(f"D({g.name})", simples, coeffs)


def _abelian_twisted_double_fusion(g, omega, simples):
    """Pointed fusion of an abelian twisted double.

    (a, chi)(b, psi) = (ab, chi psi zeta^{-kappa_{a,b}}) where kappa
    compensates the multiplier mismatch tau_a + tau_b - tau_{ab}; the
    candidate kappa is verified cochain-level before use.  Sections are
    roots of unity, kept as exponents mod M, and the product is found by
    looking up (class, exponent vector).
    """
    n = omega.n
    # tau[a] is the slant of omega at a (transgress on the whole abelian
    # group) and kappa[a, b] compensates tau[ab] - tau[a] - tau[b]
    w, mul = omega.table, g.mul_array
    a, b, c = np.ix_(*[range(g.order)] * 3)
    tau = w[a, b, c] - w[b, a, c] + w[b, c, a]
    kappa = w[a, b, c] - w[a, c, b] + w[c, a, b]
    # verify tau[ab] = tau[a] + tau[b] + d(kappa[a, b]) as normalized cochains
    a, b, h, k = np.ix_(*[range(g.order)] * 4)
    lhs = tau[mul[a, b], h, k] - tau[a, h, k] - tau[b, h, k]
    rhs = kappa[a, b, k] - kappa[a, b, mul[h, k]] + kappa[a, b, h]
    if ((lhs - rhs) % n).any():
        return None
    values = [v for s in simples for v in s["section"]]
    m = math.lcm(n, *(v.n for v in values))
    sec = _root_exponents(values, m).reshape(len(simples), g.order)
    reps = np.array([s["rep"] for s in simples], dtype=np.int64)
    index = {}
    for i, (rep, row) in enumerate(zip(reps.tolist(), sec)):
        if index.setdefault((rep, row.tobytes()), i) != i:
            raise InvariantError("two simples of the twisted double have the same class and section")
    target = (sec[:, None, :] + sec[None, :, :] + kappa[reps[:, None], reps[None, :]] * (m // n)) % m
    coeffs = {}
    for (i, j), ab in np.ndenumerate(mul[reps[:, None], reps[None, :]]):
        k = index.get((int(ab), target[i, j].tobytes()))
        if k is None:
            raise InvariantError(f"twisted abelian fusion of simples {i} and {j} matches no simple")
        coeffs[(i, j, k)] = 1
    return _fusion_ring(f"D^w({g.name})", simples, coeffs)


# ---------------------------------------------------------------------------
# Kirillov pairing matrix


@dataclass
class KirillovMatrix:
    basis: list  # (object name, group element name)
    entries: list  # Cyc matrix
    invertible: bool

    def to_json(self):
        return {
            "basis": [list(b) for b in self.basis],
            "entries": [[v.to_json() for v in row] for row in self.entries],
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
    braided pointed category.  The verdict is an exact full-rank test over
    the cyclotomic field.
    """
    gam, g = d.gamma, d.group
    basis = [(x, k) for x in gam.elements() for k in g.elements() if d.act(k, x) == x]
    size = len(basis)
    entries = [[Cyc.rational(0, d.n)] * size for _ in range(size)]
    for i, (x, k) in enumerate(basis):
        for j, (y, l) in enumerate(basis):
            if k == d.deg[y] and l == d.deg[x]:
                entries[i][j] = Cyc.root(d.n, d.monodromy(x, y))
    _, pivots = snf.rref(entries)
    return KirillovMatrix(
        [(gam.element_names[x], g.element_names[k]) for x, k in basis],
        entries,
        len(pivots) == size,
    )


# ---------------------------------------------------------------------------
# stock pointed data


def toric_code_pointed():
    """Z2xZ2 braided pointed data of the untwisted Z2 double."""
    from .groups import cyclic, product

    gam = product(cyclic(2), cyclic(2), name="Z2xZ2")
    # labels e, e.g (charge), g.e (flux), g.g (dyon); braid(flux, charge) = 1
    braid = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            x1, x2 = divmod(x, 2)
            y1, y2 = divmod(y, 2)
            braid[x][y] = (x2 * y1) % 2
    return PointedGXData.make(gam, cyclic(1), [0] * 4, [tuple(range(4))], 2, {}, braid)


def double_semion_pointed():
    """Product of a semion and its mirror on Z2xZ2 at N = 4."""
    from .groups import cyclic, product

    gam = product(cyclic(2), cyclic(2), name="Z2xZ2")
    assoc = {}
    for t in itertools.product(range(1, 4), repeat=3):
        x1 = [v // 2 for v in t]
        x2 = [v % 2 for v in t]
        val = (2 if all(x1) else 0) + (2 if all(x2) else 0)
        if val % 4:
            assoc[t] = val % 4
    braid = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            x1, x2 = divmod(x, 2)
            y1, y2 = divmod(y, 2)
            braid[x][y] = (x1 * y1 + 3 * x2 * y2) % 4
    return PointedGXData.make(gam, cyclic(1), [0] * 4, [tuple(range(4))], 4, assoc, braid)


def symmetric_pointed(n_elems=2):
    """Rep(Z_n) as a symmetric pointed category (degenerate braiding)."""
    from .groups import cyclic

    gam = cyclic(n_elems)
    size = gam.order
    return PointedGXData.make(
        gam, cyclic(1), [0] * size, [tuple(range(size))], max(2, n_elems), {}, [[0] * size for _ in range(size)]
    )
