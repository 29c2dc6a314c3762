"""Ring-level equivariantization and crossed products.

Equivariantization follows the orbit/stabilizer model: a simple of the
gauged ring is an orbit together with a projective irrep of the stabilizer
of its least representative, of dimension (sum of member dims) * (irrep
dim).  Stabilizer 2-cocycles are not determined by ring data; they default
to trivial and every report carries the "assumed-trivial" flag unless a
cocycle was supplied.

The crossed product enlarges hom spaces by the regular algebra of the
embedded Rep(G): hom(rho, sigma) = sum_alpha d_alpha N_{s(alpha) rho}^sigma.
Its blocks are the components of hom != 0.  The free module of a simple is
a multiple of one G-orbit of output simples, so a block's hom matrix is
k v v^T; its splits are read off the partitions of k into squares, and a
block is split only when the hom data and the dims >= 1 bound leave exactly
one.  Any other block is reported unresolved with its dimension budget.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from . import chartab
from .cohomology import TorsionCocycle, is_cocycle
from .errors import FusionError, InvariantError, Record
from .exact import QuadReal, as_scalar, scalar_eq, scalar_json
from .fusion import (GradedFusionRing, RingGAction, global_dim, pf_dims, picard, tensor_power, trivial_action,
                     validate_action, validate_ring)
from .groups import FiniteGroup, abelian_characters, orbit_labels, subgroup

__all__ = [
    "EquivariantizationResult",
    "CrossedProductResult",
    "equivariantize",
    "crossed_product",
    "roundtrip_check",
    "perm_orbifold_picard",
    "orbit_stabilizer",
]


def orbit_stabilizer(ring, action, orbit):
    """Stabilizer of the least member of an orbit: (its own FiniteGroup,
    its elements in G)."""
    rep = min(orbit)
    elems = np.flatnonzero(np.asarray(action.perms)[:, rep] == rep).tolist()
    return subgroup(action.group, elems, name=f"Stab({ring.label(rep)})")


class EquivariantizationResult(Record):
    _fields = ("simples", "global_dim", "input_global_dim", "group_order")

    def __init__(self, simples, global_dim, input_global_dim, group_order):
        # simples: dicts with orbit, stabilizer, cocycle_class, irrep_dim, dim
        self.__dict__.update(
            simples=simples, global_dim=global_dim, input_global_dim=input_global_dim, group_order=group_order
        )

    def dim_identity_holds(self):
        return scalar_eq(self.global_dim, as_scalar(self.group_order) * self.input_global_dim)

    def to_json(self):
        return {
            "simples": [
                {
                    "orbit": list(s["orbit"]),
                    "stabilizer": list(s["stabilizer"]),
                    "stabilizer_order": s["stabilizer_order"],
                    "cocycle_class": s["cocycle_class"],
                    "irrep_dim": s["irrep_dim"],
                    "dim": scalar_json(s["dim"]),
                }
                for s in self.simples
            ],
            "global_dim": scalar_json(self.global_dim),
            "input_global_dim": scalar_json(self.input_global_dim),
            "group_order": self.group_order,
        }


def equivariantize(ring: GradedFusionRing, action: RingGAction, stabilizer_cocycles=None):
    """Orbit/stabilizer model of the gauged ring C^G.

    stabilizer_cocycles maps the least label of an orbit to a degree-2
    TorsionCocycle on that orbit's stabilizer group (as produced by
    orbit_stabilizer); orbits without an entry use the trivial cocycle and
    are flagged "assumed-trivial".
    """
    if any(el != 0 for el in ring.grading):
        raise FusionError("equivariantize expects a trivially graded ring")
    rep_action = validate_action(ring, action)
    if not rep_action.passed:
        raise FusionError(f"invalid action: {rep_action.issues[0]['message']}")
    stabilizer_cocycles = stabilizer_cocycles or {}
    dims = pf_dims(ring)
    simples = []
    total = as_scalar(0)
    labels, reps = orbit_labels(action.perms)
    for label, rep in enumerate(reps.tolist()):
        orbit = np.flatnonzero(labels == label).tolist()
        stab, stab_elems = orbit_stabilizer(ring, action, orbit)
        key = ring.label(rep)
        coc = stabilizer_cocycles.get(key)
        if coc is not None:
            if coc.degree != 2:
                raise FusionError("stabilizer cocycles must have degree 2")
            if coc.group.mul != stab.mul:
                raise FusionError(f"cocycle for orbit {key} is on the wrong subgroup")
            ok, wit = is_cocycle(coc)
            if not ok:
                raise FusionError(f"stabilizer cochain for {key} is not closed (witness {wit})")
            tag = "supplied"
        else:
            coc, tag = TorsionCocycle.make(stab, 2, 1, {}), "assumed-trivial"
        orbit_dim = sum((dims[i] for i in orbit), start=as_scalar(0))
        stab_names = tuple(action.group.element_names[g] for g in stab_elems)
        for d in chartab.projective_irrep_dims(stab, coc):
            dim = orbit_dim * d
            simples.append(
                {
                    "orbit": tuple(ring.label(i) for i in orbit),
                    "stabilizer": stab_names,
                    "stabilizer_order": stab.order,
                    "cocycle_class": tag,
                    "irrep_dim": d,
                    "dim": dim,
                }
            )
            total = total + dim * dim
    result = EquivariantizationResult(simples, total, global_dim(ring), action.group.order)
    if not result.dim_identity_holds():
        raise InvariantError("equivariantization dimension identity failed")
    return result


def _rep_g_embedding_check(ring, dims, emb_idx, labels, rep_coeffs, rep_dims):
    for a, la in enumerate(labels):
        img = emb_idx[a]
        if ring.grading[img] != 0:
            raise FusionError(f"embedding image {ring.label(img)} is not degree-zero")
        if not scalar_eq(dims[img], QuadReal(rep_dims[a])):
            raise FusionError(f"embedding image {ring.label(img)} has wrong dimension for {la}")
    n, want = ring.tensor(), np.zeros(ring.rank, dtype=np.int64)
    for a, b in itertools.product(range(len(labels)), repeat=2):
        want[emb_idx] = [rep_coeffs.get((a, b, c), 0) for c in range(len(labels))]  # zero off the image
        bad = np.flatnonzero(n[emb_idx[a], emb_idx[b]] != want).tolist()
        if bad and bad[0] not in emb_idx:
            raise FusionError(f"embedded subcategory not closed: ({labels[a]},{labels[b]}) hits {ring.label(bad[0])}")
        if bad:
            raise FusionError(f"embedding violates Rep(G) fusion at ({labels[a]},{labels[b]},{ring.label(bad[0])})")


def _splits(h, member_dims):
    """Every split of a block with hom matrix h into output simples.

    A split is a tuple of (pattern, dim), one per output simple: pattern
    holds its multiplicity in each member, and the members' dims must be
    the pattern-weighted sums of the output dims, each dim >= 1.  The free
    module of a simple of a Galois extension is a multiple of one orbit, so
    h = k v v^T with v primitive; then Cauchy-Schwarz forces every
    nonnegative M with M M^T = h to be v w^T, with w a non-increasing
    partition of k into squares.  The dims of such an M are forced only
    when a member dim equals its row sum (every dim is then 1) or when M has
    one column.  Any other h gives no split.
    """
    v = h[0] // math.gcd(*h[0].tolist())
    k, rem = divmod(int(h[0, 0]), int(v[0]) ** 2)
    if rem or not np.array_equal(h, k * np.outer(v, v)):
        return []
    v = v.tolist()
    one = QuadReal(1)
    out = []
    for w in _partitions_sq(k):
        if any(scalar_eq(d, vi * sum(w)) for d, vi in zip(member_dims, v)):
            dims = [one] * len(w)
        elif len(w) == 1:
            dims = [member_dims[0] * Fraction(1, v[0] * w[0])]
        else:
            continue
        if all(
            scalar_eq(sum((x * (vi * wj) for x, wj in zip(dims, w)), start=as_scalar(0)), d)
            for d, vi in zip(member_dims, v)
        ) and not any(x < one for x in dims):
            out.append(tuple((tuple(vi * wj for vi in v), x) for x, wj in zip(dims, w)))
    return out


def _partitions_sq(total):
    """Non-increasing positive integer tuples with sum of squares = total."""
    out = []

    def rec(rem, maxv, acc):
        if rem == 0:
            out.append(list(acc))
            return
        m = min(maxv, math.isqrt(rem))
        for v in range(m, 0, -1):
            rec(rem - v * v, v, acc + [v])

    rec(total, math.isqrt(total), [])
    return out


class CrossedProductResult(Record):
    _fields = ("blocks", "global_dim", "input_global_dim", "group_order", "output_ring")

    def __init__(self, blocks, global_dim, input_global_dim, group_order, output_ring):
        # output_ring: GradedFusionRing when every image stays simple, else None
        self.__dict__.update(blocks=blocks, global_dim=global_dim, input_global_dim=input_global_dim,
                             group_order=group_order, output_ring=output_ring)

    def to_json(self):
        return {
            "blocks": [
                {
                    "members": list(b["members"]),
                    "end_dims": b["end_dims"],
                    "resolved": b["resolved"],
                    "budget": scalar_json(b["budget"]),
                    "simples": [{"dim": scalar_json(s["dim"]), "pattern": list(s["pattern"])} for s in b["simples"]],
                }
                for b in self.blocks
            ],
            "global_dim": scalar_json(self.global_dim),
            "input_global_dim": scalar_json(self.input_global_dim),
            "group_order": self.group_order,
            "has_output_ring": self.output_ring is not None,
        }


def crossed_product(ring: GradedFusionRing, s_embedding, action: RingGAction = None, group: FiniteGroup = None):
    """Ring-level de-equivariantization by an embedded copy of Rep(G).

    s_embedding maps Rep(G) irrep labels (pi0, pi1, ... in character-table
    order) to labels of the input ring.  The embedding is validated against
    the Rep(G) fusion rules computed from character theory.
    """
    if action is not None:
        group = action.group
        rep_act = validate_action(ring, action)
        if not rep_act.passed:
            raise FusionError(f"invalid action: {rep_act.issues[0]['message']}")
    if group is None:
        raise FusionError("crossed_product needs the symmetry group (via action or group)")
    labels, rep_dims, rep_coeffs, _ = chartab.rep_fusion_data(group)
    if set(s_embedding) != set(labels):
        raise FusionError(f"embedding must cover the irreps {labels}")
    index = {s: i for i, s in enumerate(ring.simples)}
    if unknown := [s_embedding[la] for la in labels if s_embedding[la] not in index]:
        raise FusionError(f"embedding image {unknown[0]!r} is not a label of {ring.name}")
    emb_idx = [index[s_embedding[la]] for la in labels]
    if len(set(emb_idx)) != len(emb_idx):
        raise FusionError("embedding must be injective")
    dims = pf_dims(ring)
    _rep_g_embedding_check(ring, dims, emb_idx, labels, rep_coeffs, rep_dims)

    n = ring.tensor()
    r = ring.rank
    hom = np.zeros((r, r), dtype=np.int64)
    for a, d_a in enumerate(rep_dims):
        hom += d_a * n[emb_idx[a], :, :]
    # hom[rho, sigma] = sum_alpha d_alpha N_{s(alpha) rho}^sigma, symmetric
    # by Frobenius reciprocity of the (unvalidated) input ring
    if not np.array_equal(hom, hom.T):
        raise FusionError("hom pairing must be symmetric")

    # blocks: the components of hom != 0, found by squaring reach until it
    # spans paths of length r - 1, each listed under its least member
    reach = (hom != 0) | np.eye(r, dtype=bool)
    for _ in range((r - 1).bit_length()):
        reach = reach @ reach
    least = reach.argmax(axis=1)
    blocks = [np.flatnonzero(least == i).tolist() for i in np.flatnonzero(least == np.arange(r)).tolist()]

    order = group.order
    out_blocks = []
    total = as_scalar(0)
    all_simple = True
    for members in blocks:
        h = hom[np.ix_(members, members)]
        member_dims = [dims[i] for i in members]
        budget = sum((d * d for d in member_dims), start=as_scalar(0)) * Fraction(1, order)
        sols = _splits(h, member_dims)
        resolved = len(sols) == 1
        simples = []
        if resolved:
            for pattern, d in sols[0]:
                simples.append({"pattern": pattern, "dim": d})
            block_dim = sum((s["dim"] * s["dim"] for s in simples), start=as_scalar(0))
            if not scalar_eq(block_dim, budget):
                raise InvariantError("resolved block dimension mismatch")
            if (np.diag(h) != 1).any():
                all_simple = False
        else:
            all_simple = False
        total = total + budget
        out_blocks.append(
            {
                "members": tuple(ring.label(i) for i in members),
                "member_indices": tuple(members),
                "end_dims": np.diag(h).tolist(),
                "resolved": resolved,
                "simples": simples,
                "budget": budget,
            }
        )
    input_dim = global_dim(ring)
    if not scalar_eq(total * order, input_dim):
        raise InvariantError("crossed product dimension identity failed")

    output_ring = None
    if all_simple and all(b["resolved"] for b in out_blocks):
        output_ring = _multiplicity_free_output_ring(ring, hom, out_blocks, group)
    return CrossedProductResult(out_blocks, total, input_dim, order, output_ring)


def _multiplicity_free_output_ring(ring, hom, blocks, group):
    """Output fusion ring when every image is simple (end dims all 1).

    Output labels are the blocks; N_out([a][b])^[c] = sum_mu N_{a b}^mu
    hom(mu, c_rep), independent of chosen representatives.
    """
    n = ring.tensor()
    reps = [b["member_indices"][0] for b in blocks]
    names = ["[" + b["members"][0] + "]" for b in blocks]
    block_of = {}
    for bi, b in enumerate(blocks):
        for i in b["member_indices"]:
            block_of[i] = bi
    prod = n[np.ix_(reps, reps)] @ hom[:, reps]
    coeffs = dict(zip(map(tuple, np.argwhere(prod).tolist()), prod[prod != 0].tolist()))
    dual = tuple(block_of[ring.dual[reps[bi]]] for bi in range(len(blocks)))
    unit_block = block_of[ring.unit]
    out = GradedFusionRing.make(
        f"{ring.name}//{group.name}", names, unit_block, dual, coeffs, group=None, grading=None
    )
    rep_check = validate_ring(out)
    if not rep_check.passed:
        raise FusionError(f"derived output ring failed validation: {rep_check.issues[0]}")
    return out


class RoundTripReport(Record):
    _fields = ("input_global_dim", "crossed_global_dim", "regauged_global_dim", "dims_match", "simple_counts")

    def __init__(self, input_global_dim, crossed_global_dim, regauged_global_dim, dims_match, simple_counts):
        # simple_counts: (input rank, regauged count) when available
        self.__dict__.update(input_global_dim=input_global_dim, crossed_global_dim=crossed_global_dim,
                             regauged_global_dim=regauged_global_dim, dims_match=dims_match,
                             simple_counts=simple_counts)

    def to_json(self):
        return {
            "input_global_dim": scalar_json(self.input_global_dim),
            "crossed_global_dim": scalar_json(self.crossed_global_dim),
            "regauged_global_dim": scalar_json(self.regauged_global_dim),
            "dims_match": self.dims_match,
            "simple_counts": list(self.simple_counts) if self.simple_counts else None,
        }


def roundtrip_check(ring, s_embedding, action=None, group=None):
    """Gauge the crossed product back and compare with the input ring."""
    crossed = crossed_product(ring, s_embedding, action=action, group=group)
    grp = action.group if action is not None else group
    if crossed.output_ring is not None:
        eq = equivariantize(crossed.output_ring, trivial_action(crossed.output_ring, grp))
        regauged = eq.global_dim
        counts = (ring.rank, len(eq.simples))
    else:
        regauged = crossed.global_dim * grp.order
        counts = None
    match = scalar_eq(regauged, crossed.input_global_dim)
    return RoundTripReport(crossed.input_global_dim, crossed.global_dim, regauged, match, counts)


def perm_orbifold_picard(base: GradedFusionRing, n: int, group: FiniteGroup, embedding):
    """Invertibles of the permutation orbifold: Pic(base) x characters of G_ab.

    Requires a transitive permutation group on the n slots.  The count is
    cross-checked against the number of dimension-1 simples of the honest
    equivariantization; a mismatch raises.
    """
    embedding = tuple(tuple(p) for p in embedding)
    labels, reps = orbit_labels(embedding)
    if len(labels) != n or len(reps) != 1:
        raise FusionError("permutation group must act transitively on the slots")
    pic_labels, _ = picard(base)
    chars = abelian_characters(group, group.exponent if group.order > 1 else 1)
    pairs = [(lab, ch.values) for lab in pic_labels for ch in chars]

    ring, action = tensor_power(base, n, group, embedding)
    eq = equivariantize(ring, action)
    ones = [s for s in eq.simples if scalar_eq(s["dim"], QuadReal(1))]
    if len(ones) != len(pairs):
        raise FusionError(
            f"orbifold Picard cross-check failed: formula gives {len(pairs)}, brute force {len(ones)}"
        )
    return pairs
