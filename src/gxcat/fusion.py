"""G-graded fusion rings and ring-level G-actions.

A ring is a finite label set with non-negative structure constants
N_{ij}^k, a unit, a duality involution and a grading into a finite group.
Quantum dimensions are the Perron-Frobenius data of the total fusion
matrix: exact quadratic surds whenever the whole dimension vector fits in
one real quadratic field, certified floats otherwise.  Invertibility is
always decided on the integer fusion data, never on the dims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FusionError
from .exact import CertReal, QuadReal, as_scalar, quad_numerators, scalar_eq, scalar_json
from .groups import FiniteGroup, cyclic, validate_table

__all__ = [
    "GradedFusionRing",
    "RingGAction",
    "FusionError",
    "ValidationReport",
    "SectorReport",
    "validate_ring",
    "validate_action",
    "pf_dims",
    "global_dim",
    "sector_dims",
    "tensor_power",
    "invertible_sector_obstruction",
    "picard",
    "pointed_ring",
    "trivial_action",
]

TENSOR_POWER_CAP = 4


@dataclass(frozen=True)
class GradedFusionRing:
    name: str
    simples: tuple  # label strings
    unit: int  # index
    dual: tuple  # involution, index -> index
    coeffs: tuple  # sorted ((i, j, k), n) with n > 0
    group: FiniteGroup
    grading: tuple  # index -> group element

    @staticmethod
    def make(name, simples, unit, dual, coeffs, group=None, grading=None):
        simples = tuple(simples)
        index = {s: i for i, s in enumerate(simples)}
        if len(index) != len(simples):
            raise FusionError("duplicate labels")
        unit_i = index[unit] if isinstance(unit, str) else int(unit)
        if isinstance(dual, dict):
            dual_t = tuple(index[dual[s]] for s in simples)
        else:
            dual_t = tuple(int(x) for x in dual)
        cmap = {}
        for key, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            key = tuple(index[x] if isinstance(x, str) else int(x) for x in key)
            if int(v) < 0:
                raise FusionError(f"negative multiplicity at {key}")
            if int(v):
                cmap[key] = int(v)
        if group is None:
            group = cyclic(1)
        if grading is None:
            grading_t = (0,) * len(simples)
        elif isinstance(grading, dict):
            grading_t = tuple(int(grading[s]) for s in simples)
        else:
            grading_t = tuple(int(x) for x in grading)
        return GradedFusionRing(name, simples, unit_i, dual_t, tuple(sorted(cmap.items())), group, grading_t)

    @property
    def rank(self):
        return len(self.simples)

    def tensor(self):
        """Dense N[i, j, k] array."""
        n = np.zeros((self.rank,) * 3, dtype=np.int64)
        for (i, j, k), v in self.coeffs:
            n[i, j, k] = v
        return n

    def n(self, i, j, k):
        return dict(self.coeffs).get((i, j, k), 0)

    def label(self, i):
        return self.simples[i]

    def __repr__(self):
        return f"GradedFusionRing({self.name}, rank={self.rank})"


@dataclass(frozen=True)
class RingGAction:
    group: FiniteGroup
    perms: tuple  # per group element, tuple permutation of simple indices

    def apply(self, g, i):
        return self.perms[g][i]


def trivial_action(ring: GradedFusionRing, group=None):
    group = group or ring.group
    ident = tuple(range(ring.rank))
    return RingGAction(group, tuple(ident for _ in group.elements()))


@dataclass
class ValidationReport:
    issues: list

    @property
    def passed(self):
        return not self.issues

    def add(self, code, message, witness=None):
        self.issues.append({"code": code, "message": message, "witness": witness})

    def to_json(self):
        return {"passed": self.passed, "issues": self.issues}


def validate_ring(ring: GradedFusionRing, check_dims=True) -> ValidationReport:
    rep = ValidationReport([])
    n = ring.tensor()
    r = ring.rank
    u = ring.unit
    # unit axiom
    eye = np.eye(r, dtype=np.int64)
    if not np.array_equal(n[u], eye):
        j, k = (int(x[0]) for x in np.nonzero(n[u] != eye))
        rep.add("unit", f"N[1,{ring.label(j)}]^{ring.label(k)} violates the unit axiom", (ring.label(j), ring.label(k)))
    if not np.array_equal(n[:, u, :], eye):
        i, k = (int(x[0]) for x in np.nonzero(n[:, u, :] != eye))
        rep.add("unit", f"N[{ring.label(i)},1]^{ring.label(k)} violates the unit axiom", (ring.label(i), ring.label(k)))
    # duality: N_{ij}^1 = delta_{j, dual(i)}
    want = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        want[i, ring.dual[i]] = 1
    if not np.array_equal(n[:, :, u], want):
        i, j = (int(x[0]) for x in np.nonzero(n[:, :, u] != want))
        rep.add("duality", f"N[{ring.label(i)},{ring.label(j)}]^1 incompatible with duals", (ring.label(i), ring.label(j)))
    # associativity
    left = np.einsum("ijm,mkl->ijkl", n, n)
    right = np.einsum("jkm,iml->ijkl", n, n)
    if not np.array_equal(left, right):
        i, j, k, l = (int(x[0]) for x in np.nonzero(left != right))
        rep.add(
            "associativity",
            f"sum rules differ on ({ring.label(i)},{ring.label(j)},{ring.label(k)}) -> {ring.label(l)}",
            (ring.label(i), ring.label(j), ring.label(k), ring.label(l)),
        )
    # grading multiplicativity
    g = ring.group
    for (i, j, k), v in ring.coeffs:
        if v and ring.grading[k] != g.mul[ring.grading[i]][ring.grading[j]]:
            rep.add(
                "grading",
                f"nonzero N[{ring.label(i)},{ring.label(j)}]^{ring.label(k)} crosses sectors",
                (ring.label(i), ring.label(j), ring.label(k)),
            )
            break
    if check_dims and rep.passed:
        try:
            dims = pf_dims(ring)
        except FusionError as exc:
            rep.add("dims", str(exc))
            return rep
        bad = _dims_mismatch(ring, n, dims)
        if bad is not None:
            i, j = bad
            rep.add("dims", f"d_i d_j mismatch at ({ring.label(i)},{ring.label(j)})", (ring.label(i), ring.label(j)))
    return rep


def _dims_mismatch(ring, n, dims):
    """The first (i, j) in row-major order with d_i d_j != sum_k N_ij^k d_k,
    or None when every product rule holds.

    Dims in one quadratic field are written (a_k + b_k sqrt(m)) / D with
    Python ints, and the rule is the pair of integer identities

        D sum_k N_ij^k a_k = a_i a_j + m b_i b_j,
        D sum_k N_ij^k b_k = a_i b_j + b_i a_j.

    Other dims (certified floats) are compared with scalar_eq on the dense
    tensor n.
    """
    r = ring.rank
    quad = quad_numerators(dims)
    if quad is None:
        for i, j in itertools.product(range(r), repeat=2):
            rhs = sum((dims[k] * int(n[i, j, k]) for k in range(r)), start=QuadReal(0))
            if not scalar_eq(dims[i] * dims[j], rhs):
                return i, j
        return None
    a, b, m, den = quad
    sum_a, sum_b = {}, {}
    for (i, j, k), v in ring.coeffs:
        sum_a[i, j] = sum_a.get((i, j), 0) + v * a[k]
        sum_b[i, j] = sum_b.get((i, j), 0) + v * b[k]
    for i, j in itertools.product(range(r), repeat=2):
        if (den * sum_a.get((i, j), 0) != a[i] * a[j] + m * b[i] * b[j]
                or den * sum_b.get((i, j), 0) != a[i] * b[j] + b[i] * a[j]):
            return i, j
    return None


def _strongly_connected(total):
    r = total.shape[0]
    adj = total > 0
    reach = adj | np.eye(r, dtype=bool)
    for _ in range(r):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def pf_dims(ring: GradedFusionRing):
    """Perron-Frobenius dimension vector, unit entry 1.

    Returns QuadReal entries when the whole vector lies in one quadratic
    field (verified exactly), else CertReal entries with an error bound.
    """
    n = ring.tensor()
    r = ring.rank
    total = n.sum(axis=0)
    if not _strongly_connected(total):
        raise FusionError("fusion graph is not strongly connected (reducible ring)")
    mat = total.astype(float)
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    # power-iteration polish
    for _ in range(60):
        v = mat @ v
        v /= np.linalg.norm(v)
    lam = float(v @ mat @ v)
    residual = float(np.max(np.abs(mat @ v - lam * v)))
    v = v / v[ring.unit]
    exact = _try_exact_dims(ring, n, v)
    if exact is not None:
        return exact
    err = max(residual * 10.0, 1e-13)
    return [CertReal(float(x), err) for x in v]


def _recognize_quadratic(x, tol=1e-7):
    if abs(x - round(x)) < tol:
        return QuadReal(int(round(x)))
    for p in range(-48, 49):
        q = x * x - p * x
        if abs(q - round(q)) < tol:
            cand = QuadReal.root_of(p, int(round(q)))
            if abs(float(cand) - x) < tol:
                return cand
    return None


def _try_exact_dims(ring, n, v):
    cands = [_recognize_quadratic(float(x)) for x in v]
    if any(c is None for c in cands):
        return None
    fields = {c.m for c in cands if c.m != 1}
    if len(fields) > 1:
        return None
    if not cands[ring.unit] == QuadReal(1):
        return None
    if _dims_mismatch(ring, n, cands) is not None:
        return None
    if any(c.sign() <= 0 for c in cands):
        return None
    return cands


def global_dim(ring: GradedFusionRing, dims=None):
    """Sum of d_i^2 over the Perron-Frobenius dims of ring; pass dims when
    they are already at hand, so that pf_dims runs once."""
    if dims is None:
        dims = pf_dims(ring)
    return sum((d * d for d in dims), start=as_scalar(0))


@dataclass
class SectorReport:
    sectors: dict  # element name -> squared-dimension sum (scalar)
    full_spectrum: bool
    m3_homogeneous: bool
    global_dim: object

    def to_json(self):
        return {
            "sectors": {k: scalar_json(v) for k, v in self.sectors.items()},
            "full_spectrum": self.full_spectrum,
            "m3_homogeneous": self.m3_homogeneous,
            "global_dim": scalar_json(self.global_dim),
        }


def sector_dims(ring: GradedFusionRing) -> SectorReport:
    dims = pf_dims(ring)
    g = ring.group
    sums = {el: as_scalar(0) for el in g.elements()}
    for i, d in enumerate(dims):
        sums[ring.grading[i]] = sums[ring.grading[i]] + d * d
    nonempty = {el for el in g.elements() if any(ring.grading[i] == el for i in range(ring.rank))}
    full = len(nonempty) == g.order
    vals = list(sums.values())
    homog = all(scalar_eq(vals[0], v) for v in vals[1:]) if full else False
    total = sum(vals[1:], start=vals[0]) if vals else as_scalar(0)
    return SectorReport(
        {g.element_names[el]: sums[el] for el in g.elements()},
        full,
        homog,
        total,
    )


def validate_action(ring: GradedFusionRing, action: RingGAction) -> ValidationReport:
    rep = ValidationReport([])
    g = action.group
    r = ring.rank
    perms = action.perms
    if len(perms) != g.order:
        rep.add("shape", "one permutation per group element required")
        return rep
    for el, p in enumerate(perms):
        if sorted(p) != list(range(r)):
            rep.add("permutation", f"entry for {g.element_names[el]} is not a permutation", g.element_names[el])
            return rep
    if tuple(perms[0]) != tuple(range(r)):
        rep.add("homomorphism", "identity element must act trivially", g.element_names[0])
    for a, b in itertools.product(g.elements(), repeat=2):
        composed = tuple(perms[a][perms[b][i]] for i in range(r))
        if composed != tuple(perms[g.mul[a][b]]):
            rep.add(
                "homomorphism",
                f"pi_{g.element_names[a]} o pi_{g.element_names[b]} != pi_({g.element_names[a]}{g.element_names[b]})",
                (g.element_names[a], g.element_names[b]),
            )
            break
    n = ring.tensor()
    for el, p in enumerate(perms):
        pa = np.array(p)
        permuted = n[np.ix_(pa, pa, pa)]
        if not np.array_equal(permuted, n):
            i, j, k = (int(x[0]) for x in np.nonzero(permuted != n))
            rep.add(
                "fusion",
                f"pi_{g.element_names[el]} does not preserve fusion at ({ring.label(i)},{ring.label(j)},{ring.label(k)})",
                (g.element_names[el], ring.label(i), ring.label(j), ring.label(k)),
            )
            break
        if p[ring.unit] != ring.unit:
            rep.add("unit", f"pi_{g.element_names[el]} moves the unit", g.element_names[el])
            break
        if any(p[ring.dual[i]] != ring.dual[p[i]] for i in range(r)):
            i = next(i for i in range(r) if p[ring.dual[i]] != ring.dual[p[i]])
            rep.add("dual", f"pi_{g.element_names[el]} does not intertwine duals at {ring.label(i)}", ring.label(i))
            break
        for i in range(r):
            if ring.grading[p[i]] != g.conj(el, ring.grading[i]):
                rep.add(
                    "grading",
                    f"pi_{g.element_names[el]} breaks grading conjugation at {ring.label(i)}",
                    (g.element_names[el], ring.label(i)),
                )
                break
    return rep


def tensor_power(base: GradedFusionRing, n: int, group: FiniteGroup, embedding):
    """n-fold product ring with the slot-permutation action of group <= S_n.

    embedding: per group element, a tuple image permutation of range(n),
    with composition (p*q)(x) = p(q(x)); must be a faithful homomorphism.
    """
    if n < 1 or n > TENSOR_POWER_CAP:
        raise FusionError(f"tensor power capped at n <= {TENSOR_POWER_CAP}")
    if any(ring_el != 0 for ring_el in base.grading):
        raise FusionError("base ring must be trivially graded")
    embedding = tuple(tuple(p) for p in embedding)
    if len(embedding) != group.order:
        raise FusionError("embedding must list one permutation per group element")
    if len(set(embedding)) != group.order:
        raise FusionError("embedding is not faithful")
    for p in embedding:
        if sorted(p) != list(range(n)):
            raise FusionError(f"not a permutation of slots: {p}")
    for a, b in itertools.product(group.elements(), repeat=2):
        comp = tuple(embedding[a][embedding[b][x]] for x in range(n))
        if comp != embedding[group.mul[a][b]]:
            raise FusionError("embedding is not a homomorphism")
    tuples = list(itertools.product(range(base.rank), repeat=n))
    tindex = {t: i for i, t in enumerate(tuples)}
    labels = ["(" + ",".join(base.label(x) for x in t) + ")" for t in tuples]
    coeffs = {}
    base_n = {k: v for k, v in base.coeffs}
    for ti, tj in itertools.product(tuples, repeat=2):
        # product rule: multiplicity factorizes over slots
        parts = []
        for s in range(n):
            slot = [(k, base_n.get((ti[s], tj[s], k), 0)) for k in range(base.rank)]
            parts.append([(k, v) for k, v in slot if v])
        for combo in itertools.product(*parts):
            tk = tuple(c[0] for c in combo)
            mult = 1
            for c in combo:
                mult *= c[1]
            coeffs[(tindex[ti], tindex[tj], tindex[tk])] = mult
    dual = tuple(tindex[tuple(base.dual[x] for x in t)] for t in tuples)
    ring = GradedFusionRing.make(
        f"{base.name}^{n}",
        labels,
        tindex[(base.unit,) * n],
        dual,
        coeffs,
        group=group,
        grading=[0] * len(tuples),
    )
    perms = []
    for el in group.elements():
        p = embedding[el]
        perm = []
        for t in tuples:
            moved = [None] * n
            for i in range(n):
                moved[p[i]] = t[i]
            perm.append(tindex[tuple(moved)])
        perms.append(tuple(perm))
    return ring, RingGAction(group, tuple(perms))


def invertible_sector_obstruction(ring: GradedFusionRing, action: RingGAction, g_elem: int):
    """Least degree-zero label moved by the action of g, else None.

    A moved degree-zero simple obstructs invertible objects of degree g in
    any crossed braided extension.
    """
    p = action.perms[g_elem]
    for i in range(ring.rank):
        if ring.grading[i] == 0 and p[i] != i:
            return ring.label(i)
    return None


def picard(ring: GradedFusionRing):
    """Invertible labels (integer test) and their group structure.

    X is invertible iff X (x) dual(X) = 1 exactly: N_{X,Xbar}^1 = 1 and the
    product has a single summand.
    """
    n = ring.tensor()
    inv = []
    for i in range(ring.rank):
        row = n[i, ring.dual[i], :]
        if row[ring.unit] == 1 and row.sum() == 1:
            inv.append(i)
    order = [ring.unit] + [i for i in inv if i != ring.unit]
    pos = {x: i for i, x in enumerate(order)}
    mul = []
    for a in order:
        row = []
        for b in order:
            prods = [k for k in range(ring.rank) if n[a, b, k]]
            if len(prods) != 1 or prods[0] not in pos:
                raise FusionError("invertibles do not close under fusion")
            row.append(pos[prods[0]])
        mul.append(row)
    validate_table(mul, "picard")
    grp = FiniteGroup(f"Pic({ring.name})", tuple(tuple(r) for r in mul), tuple(ring.label(i) for i in order))
    return [ring.label(i) for i in order], grp


def pointed_ring(gamma: FiniteGroup, name=None, group=None, grading=None):
    """Fusion ring of a finite group: one invertible simple per element."""
    labels = list(gamma.element_names)
    coeffs = {(i, j, gamma.mul[i][j]): 1 for i in gamma.elements() for j in gamma.elements()}
    dual = tuple(gamma.inv)
    return GradedFusionRing.make(
        name or f"pointed({gamma.name})", labels, 0, dual, coeffs, group=group, grading=grading
    )
