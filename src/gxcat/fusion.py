"""G-graded fusion rings and ring-level G-actions.

A ring is a finite label set with non-negative structure constants
N_{ij}^k, a unit, a duality involution and a grading into a finite group.
Quantum dimensions are the Perron-Frobenius data of the total fusion
matrix: exact quadratic surds whenever the whole dimension vector fits in
one real quadratic field, certified floats otherwise.  Invertibility is
always decided on the integer fusion data, never on the dims.

Every check here reads the sparse coefficients ``ring.coeffs`` or the
label permutations directly; the homomorphism checks of an action and of a
slot embedding go through ``groups.homomorphism_witness``.  numpy is
imported only by ``GradedFusionRing.tensor()``, which hands the dense array
to the gauging kernels.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from itertools import compress
from operator import mul, or_, sub

from .errors import FrozenRecord, FusionError, Record
from .exact import CertReal, QuadReal, as_scalar, quad_numerators, scalar_eq, scalar_json
from .groups import FiniteGroup, compose, cyclic, homomorphism_witness, is_index, validate_table

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
# power-iteration steps allowed to the float Perron-Frobenius vector
PF_ITERATION_CAP = 10_000


class GradedFusionRing(FrozenRecord):
    _fields = ("name", "simples", "unit", "dual", "coeffs", "group", "grading")

    def __init__(self, name, simples, unit, dual, coeffs, group, grading):
        # simples: label strings; unit: an index; dual: involution, index -> index
        # coeffs: sorted ((i, j, k), n) with n > 0; grading: index -> group element
        self.__dict__.update(
            name=name, simples=simples, unit=unit, dual=dual, coeffs=coeffs, group=group, grading=grading
        )

    @staticmethod
    def make(name, simples, unit, dual, coeffs, group=None, grading=None):
        """Ring from labels or label indices.

        Multiplicities and indices must be integers: bools, floats and
        numeric strings are refused with a FusionError, and so are indices
        outside the label set, degrees outside the group and a (i, j, k)
        given twice, by label or by index.
        """
        simples = tuple(simples)
        index = {s: i for i, s in enumerate(simples)}
        if len(index) != len(simples):
            raise FusionError("duplicate labels")

        def label(x):
            if isinstance(x, str) and x in index:
                return index[x]
            if not is_index(x) or not 0 <= x < len(simples):
                raise FusionError(f"{x!r} is not a label of {name}")
            return int(x)

        unit_i = label(unit)
        if isinstance(dual, dict) and not set(simples) <= set(dual):
            raise FusionError(f"the dual map has no entry for {min(set(simples) - set(dual))!r}")
        dual_t = tuple(label(dual[s]) for s in simples) if isinstance(dual, dict) else tuple(map(label, dual))
        if len(dual_t) != len(simples):
            raise FusionError("the dual map needs one entry per label")
        cmap = {}
        for key, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            key = tuple(map(label, key))
            if key in cmap:
                raise FusionError(f"multiplicity at {key} is given twice")
            if not is_index(v):
                raise FusionError(f"multiplicity at {key} is not an integer: {v!r}")
            if v < 0:
                raise FusionError(f"negative multiplicity at {key}")
            cmap[key] = int(v)
        if group is None:
            group = cyclic(1)
        if grading is None:
            grading_t = (0,) * len(simples)
        else:
            if isinstance(grading, dict) and not set(simples) <= set(grading):
                raise FusionError(f"the grading has no entry for {min(set(simples) - set(grading))!r}")
            grading_t = tuple(grading[s] for s in simples) if isinstance(grading, dict) else tuple(grading)
            if len(grading_t) != len(simples) or not all(is_index(x) and 0 <= x < group.order for x in grading_t):
                raise FusionError(f"the grading must send each label to an element of {group.name}")
            grading_t = tuple(map(int, grading_t))
        coeffs = tuple(sorted((key, v) for key, v in cmap.items() if v))
        return GradedFusionRing(name, simples, unit_i, dual_t, coeffs, group, grading_t)

    @property
    def rank(self):
        return len(self.simples)

    def tensor(self):
        """Dense int64 array N[i, j, k], for the numpy kernels of gauging."""
        import numpy as np

        n = np.zeros((self.rank,) * 3, dtype=np.int64)
        for (i, j, k), v in self.coeffs:
            n[i, j, k] = v
        return n

    def label(self, i):
        return self.simples[i]

    def __repr__(self):
        return f"GradedFusionRing({self.name}, rank={self.rank})"


class RingGAction(FrozenRecord):
    _fields = ("group", "perms")

    def __init__(self, group, perms):
        # perms: per group element, tuple permutation of simple indices
        self.__dict__.update(group=group, perms=perms)


def trivial_action(ring: GradedFusionRing, group=None):
    group = group or ring.group
    ident = tuple(range(ring.rank))
    return RingGAction(group, tuple(ident for _ in group.elements()))


class ValidationReport(Record):
    _fields = ("issues", "dims")

    def __init__(self, issues, dims=None):
        # dims: the Perron-Frobenius dims, when validate_ring checked them
        self.__dict__.update(issues=issues, dims=dims)

    @property
    def passed(self):
        return not self.issues

    def add(self, code, message, witness=None):
        self.issues.append({"code": code, "message": message, "witness": witness})

    def to_json(self):
        return {"passed": self.passed, "issues": self.issues}


def validate_ring(ring: GradedFusionRing) -> ValidationReport:
    rep = ValidationReport([])
    coeff = dict(ring.coeffs)
    r = ring.rank
    u = ring.unit
    # unit axiom
    eye = {(j, j) for j in range(r)}
    bad = _slice_mismatch(coeff, 0, u, eye)
    if bad is not None:
        j, k = bad
        rep.add("unit", f"N[1,{ring.label(j)}]^{ring.label(k)} violates the unit axiom", (ring.label(j), ring.label(k)))
    bad = _slice_mismatch(coeff, 1, u, eye)
    if bad is not None:
        i, k = bad
        rep.add("unit", f"N[{ring.label(i)},1]^{ring.label(k)} violates the unit axiom", (ring.label(i), ring.label(k)))
    # duality: N_{ij}^1 = delta_{j, dual(i)}
    bad = _slice_mismatch(coeff, 2, u, {(i, ring.dual[i]) for i in range(r)})
    if bad is not None:
        i, j = bad
        rep.add("duality", f"N[{ring.label(i)},{ring.label(j)}]^1 incompatible with duals", (ring.label(i), ring.label(j)))
    # associativity
    bad = _first_assoc_violation(ring)
    if bad is not None:
        i, j, k, l = bad
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
    if rep.passed:
        try:
            rep.dims = pf_dims(ring)
        except FusionError as exc:
            rep.add("dims", str(exc))
            return rep
        bad = _dims_mismatch(ring, rep.dims)
        if bad is not None:
            i, j = bad
            rep.add("dims", f"d_i d_j mismatch at ({ring.label(i)},{ring.label(j)})",
                    (ring.label(i), ring.label(j)))
    return rep


def _slice_mismatch(coeff, axis, fixed, want):
    """First (a, b) in row-major order where the slice of N with index number
    axis held at fixed differs from the 0/1 matrix with support want, or None."""
    got = {key[:axis] + key[axis + 1:]: v for key, v in coeff.items() if key[axis] == fixed}
    bad = [ab for ab, v in got.items() if v != (ab in want)] + [ab for ab in want if ab not in got]
    return min(bad, default=None)


def _first_assoc_violation(ring):
    """First (i, j, k, l) in row-major order with
    sum_m N_ij^m N_mk^l != sum_m N_jk^m N_im^l, or None.

    Both sides are built one i at a time from big integers that pack the
    sparse coefficients into unsigned fields of `width` bytes: kl[m] holds
    N_mk^l at field k*r + l and jk[m] holds N_jk^m at field j*r + k.  Then
    left[j] = sum_m N_ij^m kl[m] holds the left side at (k, l), and
    right[l] = sum_m N_im^l jk[m] holds the right side at (j, k): one integer
    multiply-add per coefficient.  No entry exceeds r * max(N)^2, so no field
    carries into the next.  The byte strings are compared one (l, byte)
    plane at a time, read with strides in the (j, k, l) layout of the left.
    On the first row that differs, the XORs of the plane pairs read as
    integers, OR-ed over the bytes of a field, mark byte j*r + k where the
    sides differ at (j, k, l); the lowest marked byte over all l is the witness.
    """
    r = ring.rank
    top = max((v for _, v in ring.coeffs), default=0)
    width = (r * top * top).bit_length() // 8 + 1
    size = r * r * width
    kl = [bytearray(size) for _ in range(r)]
    jk = [bytearray(size) for _ in range(r)]
    by_first = [[] for _ in range(r)]
    for (a, b, c), v in ring.coeffs:
        field = v.to_bytes(width, "little")
        kl[a][(b * r + c) * width:(b * r + c + 1) * width] = field
        jk[c][(a * r + b) * width:(a * r + b + 1) * width] = field
        by_first[a].append((b, c, v))
    kl = [int.from_bytes(x, "little") for x in kl]
    jk = [int.from_bytes(x, "little") for x in jk]
    step = r * width
    for i in range(r):
        left, right = [0] * r, [0] * r
        for a, b, v in by_first[i]:
            left[a] += v * kl[b]
            right[b] += v * jk[a]
        lb = b"".join(x.to_bytes(size, "little") for x in left)  # fields (j, k, l)
        rb = b"".join(x.to_bytes(size, "little") for x in right)  # fields (l, j, k)
        if any(lb[l * width + t::step] != rb[l * size + t:(l + 1) * size:width]
               for l in range(r) for t in range(width)):
            marks = [reduce(or_, (int.from_bytes(lb[l * width + t::step], "little")
                                  ^ int.from_bytes(rb[l * size + t:(l + 1) * size:width], "little")
                                  for t in range(width))) for l in range(r)]
            at, l = min((((x & -x).bit_length() - 1) // 8, l) for l, x in enumerate(marks) if x)
            return (i, *divmod(at, r), l)
    return None


def _dims_mismatch(ring, dims):
    """The first (i, j) in row-major order with d_i d_j != sum_k N_ij^k d_k,
    or None when every product rule holds.

    Dims in one quadratic field are written (a_k + b_k sqrt(m)) / D with
    Python ints, and the rule is the pair of integer identities

        D sum_k N_ij^k a_k = a_i a_j + m b_i b_j,
        D sum_k N_ij^k b_k = a_i b_j + b_i a_j.

    Other dims (certified floats) are compared with scalar_eq.
    """
    r = ring.rank
    quad = quad_numerators(dims)
    if quad is None:
        terms = {}
        for (i, j, k), v in ring.coeffs:
            terms.setdefault((i, j), []).append(dims[k] * v)
        for i, j in itertools.product(range(r), repeat=2):
            rhs = sum(terms.get((i, j), ()), start=QuadReal(0))
            if not scalar_eq(dims[i] * dims[j], rhs):
                return i, j
        return None
    a, b, m, den = quad
    sum_a, sum_b = [0] * (r * r), [0] * (r * r)
    for (i, j, k), v in ring.coeffs:
        t = i * r + j
        sum_a[t] += v * a[k]
        if b[k]:
            sum_b[t] += v * b[k]
    for (i, j), sa, sb in zip(itertools.product(range(r), repeat=2), sum_a, sum_b):
        if den * sa != a[i] * a[j] + m * b[i] * b[j] or den * sb != a[i] * b[j] + b[i] * a[j]:
            return i, j
    return None


def _strongly_connected(total):
    """Whether every label reaches every other along nonzero entries of total."""
    r = len(total)
    for rows in (total, list(zip(*total))):
        adj = [list(compress(range(r), row)) for row in rows]
        seen, stack = {0}, [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != r:
            return False
    return True


def _perron_vector(total):
    """Unit-norm Perron-Frobenius vector of a non-negative irreducible matrix.

    Power iteration on total + I from the all-ones vector: the shift makes
    the iteration converge when total is periodic.  It stops when a step
    moves no entry by more than 1e-15, when the steps stop shrinking below
    1e-12 (rounding noise), or after PF_ITERATION_CAP steps; the caller
    bounds the error by the residual.
    """
    v = [1.0] * len(total)
    last = math.inf
    for _ in range(PF_ITERATION_CAP):
        w = [sum(map(mul, row, v)) + x for row, x in zip(total, v)]
        norm = math.hypot(*w)
        w = [x / norm for x in w]
        step = max(map(abs, map(sub, w, v)))
        v = w
        if step <= 1e-15 or last <= step < 1e-12:
            break
        last = step
    return v


def pf_dims(ring: GradedFusionRing):
    """Perron-Frobenius dimension vector, unit entry 1.

    Returns QuadReal entries when the whole vector lies in one quadratic
    field (verified exactly), else CertReal entries with an error bound.
    """
    r = ring.rank
    total = [[0.0] * r for _ in range(r)]  # total[j][k] = sum_i N_ij^k
    for (_, j, k), v in ring.coeffs:
        total[j][k] += v
    if not _strongly_connected(total):
        raise FusionError("fusion graph is not strongly connected (reducible ring)")
    v = _perron_vector(total)
    dims = [x / v[ring.unit] for x in v]
    exact = _try_exact_dims(ring, dims)
    if exact is not None:
        return exact
    tv = [math.fsum(map(mul, row, v)) for row in total]
    lam = math.fsum(map(mul, v, tv))
    residual = max(abs(x - lam * y) for x, y in zip(tv, v))
    err = max(residual * 10.0, 1e-13)
    return [CertReal(x, err) for x in dims]


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


def _try_exact_dims(ring, v):
    recognized = {x: _recognize_quadratic(x) for x in set(v)}
    cands = [recognized[x] for x in v]
    if any(c is None for c in cands):
        return None
    fields = {c.m for c in cands if c.m != 1}
    if len(fields) > 1:
        return None
    if not cands[ring.unit] == QuadReal(1):
        return None
    if _dims_mismatch(ring, cands) is not None:
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


class SectorReport(Record):
    _fields = ("sectors", "full_spectrum", "m3_homogeneous", "global_dim")

    def __init__(self, sectors, full_spectrum, m3_homogeneous, global_dim):
        # sectors: element name -> squared-dimension sum (scalar)
        self.__dict__.update(
            sectors=sectors, full_spectrum=full_spectrum, m3_homogeneous=m3_homogeneous, global_dim=global_dim
        )

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
    bad = homomorphism_witness(g.mul, [tuple(p) for p in perms], compose)
    if bad is not None:
        a, b = (g.element_names[x] for x in bad)
        rep.add("homomorphism", f"pi_{a} o pi_{b} != pi_({a}{b})", (a, b))
    coeff = dict(ring.coeffs)
    for el, p in enumerate(perms):
        bad = _permuted_mismatch(coeff, p)
        if bad is not None:
            i, j, k = bad
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


def _permuted_mismatch(coeff, p):
    """First (i, j, k) in row-major order with N_{p(i) p(j)}^{p(k)} != N_ij^k, or None.

    Such a triple has a nonzero side: it lies in the support of N, or it is
    the preimage under p of a triple there.
    """
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    bad = [key for key, v in coeff.items() if coeff.get(compose(p, key), 0) != v]
    bad += [pre for key, v in coeff.items() if coeff.get(pre := compose(inv, key), 0) != v]
    return min(bad, default=None)


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
    if homomorphism_witness(group.mul, embedding, compose) is not None:
        raise FusionError("embedding is not a homomorphism")
    # Label tuples t in lexicographic order: slot s takes an index x to x r + t[s],
    # the multiplicities multiply (product rule) and p moves t[s] to slot p[s].
    r = base.rank
    unit, dual, coeffs, perms = 0, [0], {(0, 0, 0): 1}, [[0] for _ in embedding]
    for s in range(n):
        unit = unit * r + base.unit
        dual = [x * r + base.dual[a] for x in dual for a in range(r)]
        coeffs = {(i * r + a, j * r + b, k * r + c): v * w
                  for (i, j, k), v in coeffs.items() for (a, b, c), w in base.coeffs}
        perms = [[x + a * r ** (n - 1 - p[s]) for x in perm for a in range(r)] for p, perm in zip(embedding, perms)]
    labels = ["(" + ",".join(t) + ")" for t in itertools.product(base.simples, repeat=n)]
    ring = GradedFusionRing.make(f"{base.name}^{n}", labels, unit, dual, coeffs, group=group, grading=[0] * r**n)
    return ring, RingGAction(group, tuple(map(tuple, perms)))


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
    prods = {}  # (a, b) -> [(k, N_ab^k)] for nonzero N_ab^k, k increasing
    for (a, b, k), v in ring.coeffs:
        prods.setdefault((a, b), []).append((k, v))
    inv = [i for i in range(ring.rank) if prods.get((i, ring.dual[i])) == [(ring.unit, 1)]]
    order = [ring.unit] + [i for i in inv if i != ring.unit]
    pos = {x: i for i, x in enumerate(order)}
    table = []
    for a in order:
        row = []
        for b in order:
            ks = [k for k, _ in prods.get((a, b), ())]
            if len(ks) != 1 or ks[0] not in pos:
                raise FusionError("invertibles do not close under fusion")
            row.append(pos[ks[0]])
        table.append(row)
    validate_table(table, "picard")
    grp = FiniteGroup(f"Pic({ring.name})", tuple(tuple(r) for r in table), tuple(ring.label(i) for i in order))
    return [ring.label(i) for i in order], grp


def pointed_ring(gamma: FiniteGroup, name=None, group=None, grading=None):
    """Fusion ring of a finite group: one invertible simple per element."""
    labels = list(gamma.element_names)
    coeffs = {(i, j, gamma.mul[i][j]): 1 for i in gamma.elements() for j in gamma.elements()}
    dual = tuple(gamma.inv)
    return GradedFusionRing.make(
        name or f"pointed({gamma.name})", labels, 0, dual, coeffs, group=group, grading=grading
    )
