import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxcat import gauging
from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.errors import FusionError
from gxcat.exact import QuadReal, scalar_eq
from gxcat.fusion import (
    GradedFusionRing,
    RingGAction,
    global_dim,
    pf_dims,
    pointed_ring,
    tensor_power,
    trivial_action,
    validate_ring,
)
from gxcat.gauging import (
    crossed_product,
    equivariantize,
    orbit_stabilizer,
    perm_orbifold_picard,
    roundtrip_check,
)
from gxcat.groups import cyclic, product, symmetric

PHI = QuadReal.root_of(1, 1)


def per_entry_scan(ring, emb_idx, labels, rep_coeffs):
    """Reference for the closure and fusion part of the Rep(G)-embedding
    check: for each (a, b) in row-major order, each label k in turn, with
    the wanted multiplicity found by scanning the embedding for k."""
    n = ring.tensor()
    for a, b in itertools.product(range(len(labels)), repeat=2):
        for k in range(ring.rank):
            want = 0
            for c in range(len(labels)):
                if emb_idx[c] == k:
                    want = rep_coeffs.get((a, b, c), 0)
            if k not in emb_idx and n[emb_idx[a], emb_idx[b], k]:
                return f"embedded subcategory not closed: ({labels[a]},{labels[b]}) hits {ring.label(k)}"
            if k in emb_idx and n[emb_idx[a], emb_idx[b], k] != want:
                return f"embedding violates Rep(G) fusion at ({labels[a]},{labels[b]},{ring.label(k)})"
    return None


class TestEquivariantize:
    def test_vect_trivial_z2(self, vect):
        eq = equivariantize(vect, trivial_action(vect, cyclic(2)))
        assert len(eq.simples) == 2
        assert all(s["dim"] == QuadReal(1) for s in eq.simples)
        assert eq.global_dim == QuadReal(2)

    def test_ising_trivial_z2(self, ising):
        eq = equivariantize(ising, trivial_action(ising, cyclic(2)))
        assert len(eq.simples) == 6
        dims = sorted(float(s["dim"]) for s in eq.simples)
        assert dims[:4] == [1.0] * 4
        assert eq.global_dim == QuadReal(8)

    def test_fib2_swap_exact(self, fib2_swap):
        ring, action = fib2_swap
        eq = equivariantize(ring, action)
        assert len(eq.simples) == 5
        by_orbit = {}
        for s in eq.simples:
            by_orbit.setdefault(s["orbit"], []).append(s)
        free = by_orbit[("(1,t)", "(t,1)")]
        assert len(free) == 1 and free[0]["dim"] == PHI + PHI
        diag = by_orbit[("(t,t)",)]
        assert len(diag) == 2 and all(s["dim"] == PHI * PHI for s in diag)
        # exact identity in the golden-ratio field
        assert eq.global_dim == QuadReal(2) * global_dim(ring)

    def test_orbit_stabilizer_sums(self, ising2_swap):
        ring, action = ising2_swap
        eq = equivariantize(ring, action)
        for s in eq.simples:
            assert len(s["orbit"]) * s["stabilizer_order"] == 2

    def test_flags_assumed_trivial(self, vect):
        eq = equivariantize(vect, trivial_action(vect, cyclic(2)))
        assert all(s["cocycle_class"] == "assumed-trivial" for s in eq.simples)

    def test_supplied_cocycle_changes_dims(self):
        # V4 acting trivially on Vect; the nontrivial stabilizer class turns
        # four 1-dim irreps into one 2-dim projective irrep
        v4 = product(cyclic(2), cyclic(2))
        vect = pointed_ring(cyclic(1), name="v")
        act = trivial_action(vect, v4)
        stab, _ = orbit_stabilizer(vect, act, (0,))
        alpha = TorsionCocycle.make(
            stab, 2, 2, {(x, y): (x % 2) * (y // 2) for x in range(1, 4) for y in range(1, 4)}
        )
        eq = equivariantize(vect, act, {"e": alpha})
        assert [s["irrep_dim"] for s in eq.simples] == [2]
        assert eq.simples[0]["cocycle_class"] == "supplied"
        assert eq.global_dim == QuadReal(4)

    def test_wrong_subgroup_cocycle_rejected(self, vect):
        act = trivial_action(vect, cyclic(2))
        alpha = TorsionCocycle.make(cyclic(3), 2, 3, {})
        with pytest.raises(FusionError, match="wrong subgroup"):
            equivariantize(vect, act, {"e": alpha})

    def test_graded_input_rejected(self):
        ring = pointed_ring(cyclic(2), group=cyclic(2), grading=[0, 1])
        with pytest.raises(FusionError, match="trivially graded"):
            equivariantize(ring, trivial_action(ring, cyclic(2)))

    @given(st.sampled_from([2, 3, 4]), st.integers(0, 5))
    @settings(max_examples=12, deadline=None)
    def test_identity_on_random_pointed_actions(self, m, seed):
        # pointed ring of Z_m with a random relabeling action of Z2
        gam = cyclic(m)
        ring = pointed_ring(gam)
        rng = np.random.default_rng(seed)
        # any group automorphism of order dividing 2 gives a valid action
        auts = [
            p
            for p in itertools.permutations(range(m))
            if p[0] == 0
            and all(p[gam.mul[x][y]] == gam.mul[p[x]][p[y]] for x in range(m) for y in range(m))
            and tuple(p[p[x]] for x in range(m)) == tuple(range(m))
        ]
        perm = auts[int(rng.integers(0, len(auts)))]
        action = RingGAction(cyclic(2), (tuple(range(m)), tuple(perm)))
        eq = equivariantize(ring, action)
        assert eq.global_dim == QuadReal(2 * m)


class TestCrossedProduct:
    def test_rep_z2_full(self):
        ring = pointed_ring(cyclic(2), name="repZ2")
        cp = crossed_product(ring, {"pi0": "e", "pi1": "g"}, group=cyclic(2))
        assert cp.global_dim == QuadReal(1)
        assert len(cp.blocks) == 1 and cp.blocks[0]["resolved"]
        assert [s["dim"] for s in cp.blocks[0]["simples"]] == [QuadReal(1)]

    def test_toric_boson(self, toric_ring):
        cp = crossed_product(toric_ring, {"pi0": "e", "pi1": "e.g"}, group=cyclic(2))
        assert cp.global_dim == QuadReal(2)
        assert len([s for b in cp.blocks for s in b["simples"]]) == 2
        assert cp.output_ring is not None and cp.output_ring.rank == 2

    def test_trivial_s_keeps_ring(self, ising):
        cp = crossed_product(ising, {"pi0": "1"}, group=cyclic(1))
        assert cp.global_dim == global_dim(ising)
        assert len(cp.blocks) == ising.rank

    def test_embedding_validation_messages(self, toric_ring, ising):
        with pytest.raises(FusionError, match="cover the irreps"):
            crossed_product(toric_ring, {"pi0": "e"}, group=cyclic(2))
        with pytest.raises(FusionError, match="wrong dimension"):
            crossed_product(ising, {"pi0": "1", "pi1": "s"}, group=cyclic(2))
        # p has dimension 1 but p (x) p = 1 forces it to be the sign image;
        # embedding it as the trivial rep must fail the fusion check
        with pytest.raises(FusionError, match="injective"):
            crossed_product(ising, {"pi0": "1", "pi1": "1"}, group=cyclic(2))

    def test_non_closed_embedding(self, fibonacci):
        with pytest.raises(FusionError, match="wrong dimension|not closed|fusion"):
            crossed_product(fibonacci, {"pi0": "1", "pi1": "t"}, group=cyclic(2))

    def test_embedding_check_matches_the_per_entry_scan(self):
        """On up to 300 injective embeddings of Rep(G) into D(G) per group,
        by degree-zero images of the right dims, the fusion check raises what
        the per-entry scan it replaced reported; both failures occur."""
        from gxcat.chartab import rep_fusion_data
        from gxcat.groups import build_group
        from gxcat.modular import twisted_double

        seen = set()
        for name in ["Z3", "S3", "Z2xZ2"]:
            g = build_group(name)
            ring = twisted_double(g, TorsionCocycle.make(g, 3, g.order, {})).fusion
            labels, rep_dims, rep_coeffs, _ = rep_fusion_data(g)
            dims = pf_dims(ring)
            fits = [[i for i in range(ring.rank) if dims[i] == QuadReal(d) and ring.grading[i] == 0] for d in rep_dims]
            embeddings = [list(e) for e in itertools.product(*fits) if len(set(e)) == len(e)]
            for emb_idx in random.Random(0).sample(embeddings, min(300, len(embeddings))):
                want = per_entry_scan(ring, emb_idx, labels, rep_coeffs)
                try:
                    gauging._rep_g_embedding_check(ring, dims, emb_idx, labels, rep_coeffs, rep_dims)
                    got = None
                except FusionError as exc:
                    got = str(exc)
                assert got == want, (name, emb_idx)
                seen.add(want and want.split(" (")[0])
        assert seen == {None, "embedded subcategory not closed:", "embedding violates Rep(G) fusion at"}

    def test_d_s3_chain(self):
        from gxcat.modular import twisted_double

        s3 = symmetric(3)
        td = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))
        cp = crossed_product(
            td.fusion, {"pi0": "(e;0)", "pi1": "(e;1)", "pi2": "(e;2)"}, group=s3
        )
        assert cp.global_dim == QuadReal(6)
        dims = [s["dim"] for b in cp.blocks for s in b["simples"]]
        assert len(dims) == 6 and all(d == QuadReal(1) for d in dims)

    def test_rep_s4_by_sign_restricts_to_rep_a4(self):
        # ungauging Rep(S4) by {triv, sign} is restriction to the index-2
        # subgroup: output dims must be (1, 1, 1, 3), global dimension 12
        from gxcat.chartab import rep_fusion_data
        from gxcat.groups import build_group

        s4 = build_group("S4")
        labels, dims, coeffs, duals = rep_fusion_data(s4)
        ring = GradedFusionRing.make(
            "rep_s4", labels, "pi0", tuple(duals), coeffs
        )
        cp = crossed_product(ring, {"pi0": "pi0", "pi1": "pi1"}, group=cyclic(2))
        assert all(b["resolved"] for b in cp.blocks)
        out_dims = sorted(float(s["dim"]) for b in cp.blocks for s in b["simples"])
        assert out_dims == [1.0, 1.0, 1.0, 3.0]
        assert cp.global_dim == QuadReal(12)
        # the self-paired 2-dim irrep splits into two invertibles
        two_block = next(b for b in cp.blocks if b["members"] == ("pi2",))
        assert [s["dim"] for s in two_block["simples"]] == [QuadReal(1), QuadReal(1)]

    def test_unresolved_block_reports_budget(self):
        # near-group-flavoured ring: rho self-paired with irrational dim
        # 1 + sqrt(3); the hom data leaves the split of iota(rho)
        # underdetermined, so the block must stay unresolved with its budget
        ring = GradedFusionRing.make(
            "neargroup",
            ["1", "x", "r"],
            "1",
            {"1": "1", "x": "x", "r": "r"},
            {
                ("1", "1", "1"): 1, ("1", "x", "x"): 1, ("1", "r", "r"): 1,
                ("x", "1", "x"): 1, ("r", "1", "r"): 1,
                ("x", "x", "1"): 1, ("x", "r", "r"): 1, ("r", "x", "r"): 1,
                ("r", "r", "1"): 1, ("r", "r", "x"): 1, ("r", "r", "r"): 2,
            },
        )
        assert validate_ring(ring).passed
        d_r = pf_dims(ring)[2]
        assert d_r == QuadReal(1, 1, 3)  # 1 + sqrt(3)
        cp = crossed_product(ring, {"pi0": "1", "pi1": "x"}, group=cyclic(2))
        assert not all(b["resolved"] for b in cp.blocks)
        block = next(b for b in cp.blocks if b["members"] == ("r",))
        assert not block["resolved"]
        assert block["end_dims"] == [2]
        assert scalar_eq(block["budget"], d_r * d_r * Fraction(1, 2))
        assert cp.output_ring is None
        # the dimension identity still holds through the budgets
        assert scalar_eq(cp.global_dim * 2, global_dim(ring))

    @pytest.mark.parametrize("h, dims", [
        ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 1, 2]),
        ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [2, 2, 2]),
    ])
    def test_block_that_is_not_rank_one_has_no_split(self, h, dims):
        # M M^T = h has solutions, but no Galois extension gives such a block
        assert gauging._splits(np.array(h), [QuadReal(d) for d in dims]) == []


class TestRoundtrip:
    def test_toric(self, toric_ring):
        rep = roundtrip_check(toric_ring, {"pi0": "e", "pi1": "e.g"}, group=cyclic(2))
        assert rep.dims_match
        assert rep.simple_counts == (4, 4)

    def test_rep_z3(self):
        ring = pointed_ring(cyclic(3), name="repZ3")
        rep = roundtrip_check(ring, {"pi0": "e", "pi1": "g", "pi2": "g2"}, group=cyclic(3))
        assert rep.dims_match
        assert rep.crossed_global_dim == QuadReal(1)
        assert rep.simple_counts == (3, 3)

    def test_vect_trivial(self, vect):
        rep = roundtrip_check(vect, {"pi0": "e"}, group=cyclic(1))
        assert rep.dims_match


class TestPermOrbifoldPicard:
    def test_counts(self, ising, fibonacci, vect):
        assert len(perm_orbifold_picard(ising, 2, cyclic(2), [(0, 1), (1, 0)])) == 4
        assert len(perm_orbifold_picard(fibonacci, 2, cyclic(2), [(0, 1), (1, 0)])) == 2
        z3 = cyclic(3)
        emb = [tuple((i + k) % 3 for i in range(3)) for k in range(3)]
        assert len(perm_orbifold_picard(vect, 3, z3, emb)) == 3

    def test_pairs_structure(self, ising):
        pairs = perm_orbifold_picard(ising, 2, cyclic(2), [(0, 1), (1, 0)])
        labels = {p[0] for p in pairs}
        chars = {p[1] for p in pairs}
        assert labels == {"1", "p"} and len(chars) == 2

    def test_transitivity_required(self, ising):
        with pytest.raises(FusionError, match="transitive"):
            perm_orbifold_picard(ising, 2, cyclic(1), [(0, 1)])


class TestCrossModule:
    def test_picard_of_crossed_output_respects_obstruction(self, toric_ring):
        """If the crossed product output has invertibles, the obstruction of
        the corresponding direction must vanish (all trivial here since the
        deck action is trivial at ring level)."""
        from gxcat.fusion import invertible_sector_obstruction, picard

        cp = crossed_product(toric_ring, {"pi0": "e", "pi1": "e.g"}, group=cyclic(2))
        out = cp.output_ring
        labels, _ = picard(out)
        assert len(labels) == out.rank  # pointed output
        act = trivial_action(out, cyclic(2))
        for el in range(2):
            assert invertible_sector_obstruction(out, act, el) is None
