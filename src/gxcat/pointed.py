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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import snf
from .chartab import projective_irrep_data
from .cohomology import (
    ResourceLimit,
    TorsionCocycle,
    bar_matrix,
    is_coboundary,
    is_cocycle,
    transgress,
    _tuples,
    _tuple_index,
)
from .cyclo import Cyc
from .fusion import GradedFusionRing, ValidationReport
from .groups import FiniteGroup, abelian_characters, conjugacy_data, subgroup

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
        return PointedGXData(gamma, group, tuple(deg), tuple(tuple(p) for p in action), n, assoc, braid)

    def a(self, x, y, z):
        return self.assoc(x, y, z)

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


def _hexagon1_defect(d: PointedGXData, x, z, t):
    g = d.gamma
    zt = g.mul[z][t]
    az = d.act(d.deg[x], z)
    at = d.act(d.deg[x], t)
    want = (
        d.b(x, z)
        + d.b(x, t)
        - d.a(x, z, t)
        + d.a(az, x, t)
        - d.a(az, at, x)
    ) % d.n
    return (d.b(x, zt) - want) % d.n


def _hexagon2_defect(d: PointedGXData, x, y, z):
    g = d.gamma
    xy = g.mul[x][y]
    yz = d.act(d.deg[y], z)
    xyz = d.act(d.deg[xy], z)
    want = (
        d.b(x, yz)
        + d.b(y, z)
        + d.a(x, y, z)
        - d.a(x, yz, y)
        + d.a(xyz, x, y)
    ) % d.n
    return (d.b(xy, z) - want) % d.n


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
    for k in g.elements():
        p = d.action[k]
        bad = next(
            (
                (x, y, z)
                for x, y, z in itertools.product(gam.elements(), repeat=3)
                if d.a(p[x], p[y], p[z]) != d.a(x, y, z)
            ),
            None,
        )
        if bad:
            rep.add("assoc-action", f"action of {g.element_names[k]} does not preserve the associator at {tuple(names[i] for i in bad)}", (g.element_names[k],) + bad)
            break
    # braiding normalization
    if any(d.b(0, y) for y in gam.elements()) or any(d.b(x, 0) for x in gam.elements()):
        rep.add("braid-unit", "braiding with the unit must be trivial")
    # hexagons
    for x, z, t in itertools.product(gam.elements(), repeat=3):
        if _hexagon1_defect(d, x, z, t):
            rep.add("hexagon-1", f"first hexagon fails at ({names[x]},{names[z]},{names[t]})", (names[x], names[z], names[t]))
            break
    for x, y, z in itertools.product(gam.elements(), repeat=3):
        if _hexagon2_defect(d, x, y, z):
            rep.add("hexagon-2", f"second hexagon fails at ({names[x]},{names[y]},{names[z]})", (names[x], names[y], names[z]))
            break
    # covariance
    for k in g.elements():
        p = d.action[k]
        bad = next(
            (
                (x, y)
                for x, y in itertools.product(gam.elements(), repeat=2)
                if d.b(p[x], p[y]) != d.b(x, y)
            ),
            None,
        )
        if bad:
            rep.add("covariance", f"braiding not covariant under {g.element_names[k]} at ({names[bad[0]]},{names[bad[1]]})", (g.element_names[k],) + bad)
            break
    return rep


# ---------------------------------------------------------------------------
# braid solving: the hexagons and covariance are linear in the braid table


def _braid_cells(gamma):
    return [(x, y) for x in range(1, gamma.order) for y in range(1, gamma.order)]


def _braid_system(gamma, group, deg, action, n, assoc):
    """Linear system A b = rhs (mod n) over the non-unit braid cells."""
    cells = _braid_cells(gamma)
    cell_index = {c: i for i, c in enumerate(cells)}

    def var(x, y):
        if x == 0 or y == 0:
            return None
        return cell_index[(x, y)]

    rows, rhs = [], []

    def add_row(terms, const):
        # terms . braid = const (mod n)
        row = [0] * len(cells)
        for v, coef in terms:
            if v is not None:
                row[v] += coef
        rows.append(row)
        rhs.append(const % n)

    a = assoc
    for x, z, t in itertools.product(gamma.elements(), repeat=3):
        zt = gamma.mul[z][t]
        az = action[deg[x]][z]
        at = action[deg[x]][t]
        const = (-a(x, z, t) + a(az, x, t) - a(az, at, x)) % n
        add_row(
            [(var(x, zt), 1), (var(x, z), -1), (var(x, t), -1)],
            const,
        )
    for x, y, z in itertools.product(gamma.elements(), repeat=3):
        xy = gamma.mul[x][y]
        yz = action[deg[y]][z]
        xyz = action[deg[xy]][z]
        const = (a(x, y, z) - a(x, yz, y) + a(xyz, x, y)) % n
        add_row(
            [(var(xy, z), 1), (var(x, yz), -1), (var(y, z), -1)],
            const,
        )
    for k in group.elements():
        p = action[k]
        for x, y in itertools.product(range(1, gamma.order), repeat=2):
            if (p[x], p[y]) != (x, y):
                add_row([(var(p[x], p[y]), 1), (var(x, y), -1)], 0)
    return np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64), cells


def _enumerate_solutions(mat, n, rhs, cap=ENUM_STATE_CAP):
    """All solutions of mat x = rhs mod n, sorted lexicographically."""
    part = snf.solve_mod(mat, n, rhs)
    if part is None:
        return []
    gens, orders = snf.kernel_mod(mat, n)
    total = 1
    for o in orders:
        total *= o
    if total > cap:
        raise ResourceLimit(f"solution lattice has {total} points, over the enumeration cap")
    sols = set()
    for combo in itertools.product(*(range(o) for o in orders)):
        v = part.copy()
        for c, gcol in zip(combo, gens.T):
            v = (v + c * gcol) % n
        sols.add(tuple(int(t) for t in v))
    return sorted(sols)


def _braid_tables(gamma, group, deg, action, n, assoc, cap=ENUM_STATE_CAP):
    mat, rhs, cells = _braid_system(gamma, group, deg, action, n, assoc)
    tables = []
    for sol in _enumerate_solutions(mat, n, rhs, cap):
        table = [[0] * gamma.order for _ in range(gamma.order)]
        for (x, y), v in zip(cells, sol):
            table[x][y] = v
        tables.append(tuple(tuple(r) for r in table))
    return tables


def _conjugation_action(g: FiniteGroup):
    return tuple(tuple(g.conj(k, x) for x in g.elements()) for k in g.elements())


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
    for k in group.elements():
        p = action[k]
        bad = next(
            (
                (x, y, z)
                for x, y, z in itertools.product(group.elements(), repeat=3)
                if omega(p[x], p[y], p[z]) != omega(x, y, z)
            ),
            None,
        )
        if bad:
            raise ValueError(
                "associator representative is not conjugation-invariant; "
                "pick an invariant representative of its class"
            )
    mult = 1
    while mult * omega.n <= N_CAP:
        n = mult * omega.n
        infl = omega.inflated(n)
        tables = _braid_tables(group, group, deg, action, n, infl)
        if tables:
            data = PointedGXData.make(group, group, deg, action, n, infl, tables[0])
            rep = validate_pointed(data)
            assert rep.passed, f"holomorphic output failed validation: {rep.issues[:1]}"
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
    order = group.order
    cells3 = list(_tuples(group, 3))

    # closed, conjugation-invariant 3-cochains mod n
    d3 = bar_matrix(group, 3)
    extra = []
    for k in group.elements():
        p = action[k]
        for t in cells3:
            # automorphisms fix the identity, so images stay identity-free
            image = (p[t[0]], p[t[1]], p[t[2]])
            if image != t:
                row = [0] * len(cells3)
                row[_tuple_index(group, image)] += 1
                row[_tuple_index(group, t)] -= 1
                extra.append(row)
    mat = np.vstack([d3] + ([np.array(extra, dtype=np.int64)] if extra else []))
    assoc_vectors = _enumerate_solutions(mat, n, np.zeros(mat.shape[0], dtype=np.int64))

    states = []
    for avec in assoc_vectors:
        assoc = TorsionCocycle.make(group, 3, n, {t: v for t, v in zip(cells3, avec) if v})
        for table in _braid_tables(group, group, deg, action, n, assoc):
            states.append((tuple(avec), table))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        states = [states[i] for i in rng.permutation(len(states))]
    state_set = set(states)

    # gauge moves: a 2-cochain lambda (tensorator scalars) shifts the
    # associator by +d(lambda) and the braid by lambda(^x y, x) - lambda(x, y).
    # Only lambdas whose coboundary stays conjugation-invariant act on the
    # state set, so the generators are a basis of that subgroup (for abelian
    # G this is every 2-cochain).
    cells2 = list(_tuples(group, 2))
    d2 = bar_matrix(group, 2)

    def apply_lambda(state, lam):
        avec, table = state
        shift = (d2 @ lam) % n
        new_avec = tuple((a + s) % n for a, s in zip(avec, shift))
        lam_map = {c: v for c, v in zip(cells2, lam) if v}

        def lam_val(x, y):
            if x == 0 or y == 0:
                return 0
            return lam_map.get((x, y), 0)

        new_table = tuple(
            tuple(
                (table[x][y] + lam_val(action[deg[x]][y], x) - lam_val(x, y)) % n if x and y else 0
                for y in group.elements()
            )
            for x in group.elements()
        )
        return (new_avec, new_table)

    def apply_aut(state, psi):
        avec, table = state
        inv = [0] * order
        for i, v in enumerate(psi):
            inv[v] = i
        amap = {t: v for t, v in zip(cells3, avec) if v}
        new_avec = tuple(amap.get((inv[t[0]], inv[t[1]], inv[t[2]]), 0) for t in cells3)
        new_table = tuple(
            tuple(table[inv[x]][inv[y]] for y in group.elements()) for x in group.elements()
        )
        return (new_avec, new_table)

    if extra:
        inv_constraint = np.array(extra, dtype=np.int64) @ d2
        gen_mat, _ = snf.kernel_mod(inv_constraint % n, n)
        lam_gens = [gen_mat[:, i] for i in range(gen_mat.shape[1])]
    else:
        lam_gens = []
        for ci in range(len(cells2)):
            lam = np.zeros(len(cells2), dtype=np.int64)
            lam[ci] = 1
            lam_gens.append(lam)
    auts = _automorphisms(group)

    seen = {}
    orbits = []
    for st in states:
        if st in seen:
            continue
        frontier = [st]
        members = {st}
        seen[st] = len(orbits)
        while frontier:
            cur = frontier.pop()
            nbrs = [apply_lambda(cur, lam) for lam in lam_gens]
            nbrs += [apply_aut(cur, psi) for psi in auts]
            for nb in nbrs:
                if nb in state_set and nb not in members:
                    members.add(nb)
                    seen[nb] = len(orbits)
                    frontier.append(nb)
        rep_state = min(members)
        avec, table = rep_state
        assoc = TorsionCocycle.make(group, 3, n, {t: v for t, v in zip(cells3, avec) if v})
        data = PointedGXData.make(group, group, deg, action, n, assoc, table)
        check = validate_pointed(data)
        assert check.passed, f"enumerated representative failed validation: {check.issues[:1]}"
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
    h_assoc = TorsionCocycle.make(
        h_grp,
        3,
        n,
        {
            (i, j, k): data.a(h_embed[i], h_embed[j], h_embed[k])
            for i, j, k in itertools.product(range(1, h_grp.order), repeat=3)
        },
    )
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

    cells3 = list(_tuples(gamma2, 3))
    d3 = bar_matrix(gamma2, 3)
    assoc_vectors = _enumerate_solutions(d3, n, np.zeros(d3.shape[0], dtype=np.int64))
    deg_id = tuple(deg2)
    for avec in assoc_vectors:
        assoc2 = TorsionCocycle.make(gamma2, 3, n, {t: v for t, v in zip(cells3, avec) if v})
        for table in _braid_tables(gamma2, g2, deg_id, action2, n, assoc2):
            cand = PointedGXData.make(gamma2, g2, deg2, action2, n, assoc2, table)
            if any(cand.twist(c) != v for c, v in pins_twist.items()):
                continue
            if any(cand.monodromy(c1, c2) != v for (c1, c2), v in pins_mono.items()):
                continue
            rep = validate_pointed(cand)
            assert rep.passed, f"descended data failed validation: {rep.issues[:1]}"
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
    normalized character values at the class representative.
    """
    ok, wit = is_cocycle(omega)
    if not ok:
        raise ValueError(f"omega is not closed (witness {wit})")
    g = group
    data = conjugacy_data(g)
    n = omega.n
    simples = []
    per_class = []
    for ci, rep in enumerate(data.reps):
        tau, cent, embed = transgress(omega, rep)
        irreps, nred = projective_irrep_data(cent, tau.value_map(), n)
        rep_pos = embed.index(rep)
        entries = []
        for ii, (dim, section) in enumerate(irreps):
            tval = section[rep_pos] * Fraction(1, dim)
            assert (tval * tval.conj()) == 1, "T entry must be a root of unity"
            simple = {
                "class_rep": g.element_names[rep],
                "class_index": ci,
                "class_size": len(data.classes[ci]),
                "irrep": ii,
                "irrep_dim": dim,
                "dim": len(data.classes[ci]) * dim,
                "t": tval,
                "section": section,
                "centralizer": cent,
                "embed": embed,
            }
            simples.append(simple)
            entries.append(simple)
        per_class.append(entries)
    assert sum(s["dim"] ** 2 for s in simples) == g.order**2, "double dimension identity failed"

    fusion = None
    if omega.is_zero():
        fusion = _untwisted_double_fusion(g, data, simples)
    elif g.is_abelian and all(s["irrep_dim"] == 1 for s in simples):
        fusion = _abelian_twisted_double_fusion(g, omega, simples)

    s_matrix = None
    if omega.is_zero():
        s_matrix = _untwisted_s_matrix(g, data, simples)
    elif g.is_abelian and fusion is not None and all(s["irrep_dim"] == 1 for s in simples):
        s_matrix = _pointed_s_matrix(g, simples, fusion)
    if s_matrix is not None:
        _assert_unitary(s_matrix)
    public = [
        {k: s[k] for k in ("class_rep", "class_size", "irrep", "irrep_dim", "dim", "t")}
        for s in simples
    ]
    return DoubleData(g, n, public, s_matrix, fusion)


def _assert_unitary(s):
    size = len(s)
    for i in range(size):
        for j in range(size):
            acc = Cyc.rational(0)
            for k in range(size):
                acc = acc + s[i][k] * s[j][k].conj()
            want = Cyc.rational(1 if i == j else 0)
            assert acc == want, f"S not unitary at ({i},{j})"


def _untwisted_s_matrix(g, data, simples):
    mat = []
    for sa in simples:
        row = []
        a = _name_to_index(g, sa["class_rep"])
        za = sa["embed"]
        for sb in simples:
            b = _name_to_index(g, sb["class_rep"])
            zb = sb["embed"]
            acc = Cyc.rational(0)
            for t in g.elements():
                x = g.conj(t, b)
                if g.mul[a][x] != g.mul[x][a]:
                    continue
                y = g.conj(g.inv[t], a)
                acc = acc + sa["section"][za.index(x)].conj() * sb["section"][zb.index(y)].conj()
            row.append(acc * Fraction(1, len(za) * len(zb)))
        mat.append(row)
    return mat


def _pointed_s_matrix(g, simples, fusion):
    """S of a pointed double from its twists: S_{uv} = conj(b(u,v))/|G| with
    b(u,v) = theta(u v) / (theta(u) theta(v)), which must be a bicharacter.
    """
    n_s = len(simples)
    prod = {}
    for (i, j, k), v in fusion.coeffs:
        if v:
            prod[(i, j)] = k
    theta = [s["t"] for s in simples]
    # twists are roots of unity, so theta^{-1} = conj(theta)
    theta_c = [t.conj() for t in theta]
    btab = [
        [theta[prod[(i, j)]] * theta_c[i] * theta_c[j] for j in range(n_s)]
        for i in range(n_s)
    ]
    for i, j in itertools.product(range(n_s), repeat=2):
        assert btab[i][j] == btab[j][i], "monodromy form must be symmetric"
    for i, j, k in itertools.product(range(n_s), repeat=3):
        assert btab[prod[(i, j)]][k] == btab[i][k] * btab[j][k], "monodromy form must be a bicharacter"
    return [
        [btab[i][j].conj() * Fraction(1, g.order) for j in range(n_s)]
        for i in range(n_s)
    ]


def _name_to_index(g, name):
    return g.element_names.index(name)


def _untwisted_double_fusion(g, data, simples):
    """Fusion ring of D(G) from characters on commuting pairs."""
    pairs = [(a, x) for a in g.elements() for x in g.elements() if g.mul[a][x] == g.mul[x][a]]
    cls = data.class_of
    # transporter: for each element, a group element conjugating the class rep to it
    transport = {}
    for ci, rep in enumerate(data.reps):
        for t in g.elements():
            transport.setdefault(g.conj(t, rep), t)

    def theta(simple, a, x):
        if cls[a] != simple["class_index"]:
            return Cyc.rational(0)
        k = transport[a]
        y = g.conj(g.inv[k], x)
        return simple["section"][simple["embed"].index(y)]

    theta_tab = [
        [theta(s, a, x) for (a, x) in pairs]
        for s in simples
    ]
    labels = [f"({s['class_rep']};{s['irrep']})" for s in simples]
    coeffs = {}
    for i, si in enumerate(simples):
        for j, sj in enumerate(simples):
            prod = []
            for a, x in pairs:
                acc = Cyc.rational(0)
                for a1 in g.elements():
                    if g.mul[a1][x] != g.mul[x][a1]:
                        continue
                    a2 = g.mul[g.inv[a1]][a]
                    if g.mul[a2][x] != g.mul[x][a2]:
                        continue
                    acc = acc + theta(si, a1, x) * theta(sj, a2, x)
                prod.append(acc)
            for k, sk in enumerate(simples):
                acc = Cyc.rational(0)
                for pi, (a, x) in enumerate(pairs):
                    acc = acc + prod[pi] * theta_tab[k][pi].conj()
                val = acc.as_rational()
                assert val is not None
                nv = val / g.order
                assert nv.denominator == 1 and nv >= 0, "double fusion must be a non-negative integer"
                if nv:
                    coeffs[(i, j, k)] = int(nv)
    dual = []
    for i in range(len(simples)):
        partners = [k for k in range(len(simples)) if coeffs.get((i, k, 0), 0) == 1]
        assert len(partners) == 1
        dual.append(partners[0])
    return GradedFusionRing.make(f"D({g.name})", labels, 0, tuple(dual), coeffs)


def _abelian_twisted_double_fusion(g, omega, simples):
    """Pointed fusion of an abelian twisted double.

    (a, chi)(b, psi) = (ab, chi psi zeta^{-kappa_{a,b}}) where kappa
    compensates the multiplier mismatch tau_a + tau_b - tau_{ab}; the
    candidate kappa is verified cochain-level before use.
    """
    n = omega.n
    by_class = {}
    for i, s in enumerate(simples):
        by_class.setdefault(_name_to_index(g, s["class_rep"]), []).append((i, s))

    def tau(a):
        return {
            (h, k): (omega(a, h, k) - omega(h, a, k) + omega(h, k, a)) % n
            for h in g.elements()
            for k in g.elements()
        }

    def kappa(a, b):
        return {x: (omega(a, b, x) - omega(a, x, b) + omega(x, a, b)) % n for x in g.elements()}

    taus = {a: tau(a) for a in g.elements()}
    # verify tau_ab = tau_a + tau_b + d(kappa_{a,b}) as normalized cochains
    for a in g.elements():
        for b in g.elements():
            ab = g.mul[a][b]
            kap = kappa(a, b)
            for h in g.elements():
                for k in g.elements():
                    lhs = (taus[ab][(h, k)] - taus[a][(h, k)] - taus[b][(h, k)]) % n
                    rhs = (kap[k] - kap[g.mul[h][k]] + kap[h]) % n
                    if lhs != rhs:
                        return None
    labels = [f"({s['class_rep']};{s['irrep']})" for s in simples]
    coeffs = {}
    for i, si in enumerate(simples):
        a = _name_to_index(g, si["class_rep"])
        for j, sj in enumerate(simples):
            b = _name_to_index(g, sj["class_rep"])
            ab = g.mul[a][b]
            kap = kappa(a, b)
            target = [
                si["section"][x] * sj["section"][x] * Cyc.root(n, kap[x] % n)
                for x in g.elements()
            ]
            matches = [
                k
                for k, sk in by_class.get(ab, [])
                if all(sk["section"][x] == target[x] for x in g.elements())
            ]
            assert len(matches) == 1, "twisted abelian fusion must match exactly one simple"
            coeffs[(i, j, matches[0])] = 1
    dual = []
    for i in range(len(simples)):
        partners = [k for k in range(len(simples)) if coeffs.get((i, k, 0), 0) == 1]
        assert len(partners) == 1
        dual.append(partners[0])
    return GradedFusionRing.make(f"D^w({g.name})", labels, 0, tuple(dual), coeffs)


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
