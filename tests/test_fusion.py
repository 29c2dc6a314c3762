import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxcat.fusion as fusion_mod
import gxcat.gauging as gauging_mod
from gxcat.corpus import corpus_dir, corpus_list
from gxcat.exact import QuadReal, scalar_eq
from gxcat.fusion import (
    FusionError,
    GradedFusionRing,
    RingGAction,
    global_dim,
    invertible_sector_obstruction,
    pf_dims,
    picard,
    pointed_ring,
    sector_dims,
    tensor_power,
    trivial_action,
    validate_action,
    validate_ring,
)
from gxcat.groups import cyclic, product, symmetric
from test_cli_corpus import run_cli

PHI = QuadReal.root_of(1, 1)
SQRT2 = QuadReal.sqrt_int(2)


def graded_ising(ising_coeffs=None):
    from corpus_build import ising_ring

    return ising_ring(name="ising_z2", group=cyclic(2), grading={"1": 0, "s": 1, "p": 0})


class TestValidateRing:
    def test_ising_passes(self, ising):
        assert validate_ring(ising).passed

    def test_vect_passes(self, vect):
        assert validate_ring(vect).passed

    def test_corrupted_ising_fails_with_witness(self, ising):
        coeffs = dict(ising.coeffs)
        coeffs[(1, 1, 2)] = 2  # N_{ss}^p = 2
        bad = GradedFusionRing.make("bad", ising.simples, ising.unit, ising.dual, coeffs)
        rep = validate_ring(bad)
        assert not rep.passed
        assert rep.issues[0]["code"] == "associativity"
        assert rep.issues[0]["witness"][:3] == ("s", "s", "p")

    def test_make_refuses_a_coefficient_given_twice(self, fibonacci):
        coeffs = list(fibonacci.coeffs)
        for again in (((1, 1, 1), 7), (("t", "t", "t"), 1), (("t", 1, "t"), 1)):
            with pytest.raises(FusionError, match=r"multiplicity at \(1, 1, 1\) is given twice"):
                GradedFusionRing.make("twice", fibonacci.simples, 0, fibonacci.dual, coeffs + [again])

    def test_grading_violation_detected(self, ising):
        bad = GradedFusionRing.make(
            "bad_grading", ising.simples, ising.unit, ising.dual, dict(ising.coeffs),
            group=cyclic(2), grading={"1": 0, "s": 0, "p": 1},
        )
        rep = validate_ring(bad)
        assert any(i["code"] == "grading" for i in rep.issues)


class TestPfDims:
    def test_vect(self, vect):
        assert pf_dims(vect) == [QuadReal(1)]

    def test_fibonacci_golden_ratio(self, fibonacci):
        dims = pf_dims(fibonacci)
        assert dims[1] == PHI
        assert dims[1] * dims[1] == QuadReal(1) + dims[1]

    def test_ising_exact(self, ising):
        dims = pf_dims(ising)
        assert dims == [QuadReal(1), SQRT2, QuadReal(1)]
        assert global_dim(ising) == QuadReal(4)

    def test_rep_s3_integer(self, rep_s3):
        assert pf_dims(rep_s3) == [QuadReal(1), QuadReal(1), QuadReal(2)]

    def test_reducible_rejected(self):
        # two disconnected copies of the trivial ring
        ring = GradedFusionRing.make(
            "split", ["1", "x"], "1", {"1": "1", "x": "x"},
            {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1, ("x", "x", "x"): 1},
        )
        with pytest.raises(FusionError, match="reducible|strongly connected"):
            pf_dims(ring)

    def test_dims_identity_all_pairs(self, fib2_swap):
        ring, _ = fib2_swap
        dims = pf_dims(ring)
        n = ring.tensor()
        for i, j in itertools.product(range(ring.rank), repeat=2):
            rhs = sum((dims[k] * int(n[i, j, k]) for k in range(ring.rank)), start=QuadReal(0))
            assert dims[i] * dims[j] == rhs

    def test_mixed_field_ring_falls_back_to_certified_floats(self, ising, fibonacci):
        # Ising x Fib has dims {1, phi, sqrt2, phi*sqrt2}: degree four over Q,
        # outside any single quadratic field
        from gxcat.exact import CertReal, scalar_eq

        labels = [f"{a}*{b}" for a in ising.simples for b in fibonacci.simples]
        rf = fibonacci.rank
        coeffs = {}
        for (i1, j1, k1), v1 in ising.coeffs:
            for (i2, j2, k2), v2 in fibonacci.coeffs:
                coeffs[(i1 * rf + i2, j1 * rf + j2, k1 * rf + k2)] = v1 * v2
        dual = [ising.dual[i] * rf + fibonacci.dual[j] for i in range(3) for j in range(2)]
        ring = GradedFusionRing.make("ising*fib", labels, 0, dual, coeffs)
        assert validate_ring(ring).passed
        dims = pf_dims(ring)
        assert any(isinstance(d, CertReal) for d in dims)
        n = ring.tensor()
        for i, j in itertools.product(range(ring.rank), repeat=2):
            rhs = sum((dims[k] * int(n[i, j, k]) for k in range(ring.rank)), start=QuadReal(0))
            assert scalar_eq(dims[i] * dims[j], rhs)  # 1e-9 certified comparison
        assert scalar_eq(global_dim(ring), QuadReal(4) * (QuadReal(1) + PHI * PHI))


def _product_rule_reference(ring, dims):
    """The QuadReal loop the integer check replaced: first failing (i, j)."""
    n = ring.tensor()
    for i, j in itertools.product(range(ring.rank), repeat=2):
        rhs = sum((dims[k] * int(n[i, j, k]) for k in range(ring.rank)), start=QuadReal(0))
        if not scalar_eq(dims[i] * dims[j], rhs):
            return i, j
    return None


def _corpus_ring(name):
    from gxcat.serialize import load_ring

    return load_ring(json.loads(corpus_dir().joinpath(name).read_text()))[0]


class TestIntegerProductRule:
    @pytest.mark.parametrize("name", [
        "ring_vect.json", "ring_fibonacci.json", "ring_ising.json", "ring_rep_s3.json",
        "ring_fib_fib_swap.json", "ring_ising_ising_swap.json", "ising_z2graded.json",
    ])
    def test_corpus_dims_pass(self, name):
        ring = _corpus_ring(name)
        dims = pf_dims(ring)
        assert all(isinstance(d, QuadReal) for d in dims)
        assert fusion_mod._dims_mismatch(ring, dims) is None
        assert _product_rule_reference(ring, dims) is None

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["ring_fibonacci.json", "ring_ising.json", "ring_fib_fib_swap.json",
                         "ring_ising_ising_swap.json", "ring_rep_s3.json"]),
        st.integers(0, 8),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )
    def test_perturbed_dims_fail_at_the_reference_pair(self, name, index, da, db):
        ring = _corpus_ring(name)
        dims = list(pf_dims(ring))
        k = index % ring.rank
        m = max(d.m for d in dims)
        dims[k] = dims[k] + QuadReal(da, db, m)
        got = fusion_mod._dims_mismatch(ring, dims)
        assert got == _product_rule_reference(ring, dims)

    def test_rational_dims_over_a_common_denominator(self, fibonacci):
        # (1, 1/2): no ring has these dims, and the check must say where
        dims = [QuadReal(1), QuadReal(Fraction(1, 2))]
        assert fusion_mod._dims_mismatch(fibonacci, dims) == (1, 1)

    @pytest.mark.parametrize("args", [
        ["dims", "ring_ising_ising_swap.json"],
        ["sectors", "ising_z2graded.json"],
        ["validate", "ring_fib_fib_swap.json"],
        ["gauge", "ring_ising_ising_swap.json"],
        ["ungauge", "ring_toric_code.json", "--embed", "pi0=e,pi1=e.g", "--group", "Z2"],
        ["perm-picard", "--base", "ring_ising.json", "--n", "2", "--group", "Z2"],
        ["roundtrip", "ring_rep_z2.json", "--embed", "pi0=e,pi1=g", "--group", "Z2"],
    ])
    def test_pf_dims_runs_once_per_ring(self, monkeypatch, args):
        calls = []
        real = fusion_mod.pf_dims

        def counted(ring):
            calls.append(ring)
            return real(ring)

        monkeypatch.setattr(fusion_mod, "pf_dims", counted)
        monkeypatch.setattr(gauging_mod, "pf_dims", counted)
        args = [str(corpus_dir().joinpath(a)) if a.endswith(".json") else a for a in args]
        res = run_cli([*args, "--format", "json"])
        assert res.exit_code == 0, res.output
        assert calls and len(calls) == len({id(r) for r in calls})


RING_FILES = [e.path.rpartition("/")[2] for e in corpus_list() if e.kind == "ring"]


def _brute_violations(ring):
    """Every violated ring axiom, by definition: (code, indices)."""
    r, u, dual, g = ring.rank, ring.unit, ring.dual, ring.group
    n = dict(ring.coeffs)

    def N(i, j, k):
        return n.get((i, j, k), 0)

    out = {("unit", "left", a, b) for a in range(r) for b in range(r) if N(u, a, b) != (a == b)}
    out |= {("unit", "right", a, b) for a in range(r) for b in range(r) if N(a, u, b) != (a == b)}
    out |= {("duality", a, b) for a in range(r) for b in range(r) if N(a, b, u) != (b == dual[a])}
    for i, j, k, l in itertools.product(range(r), repeat=4):
        if sum(N(i, j, m) * N(m, k, l) for m in range(r)) != sum(N(j, k, m) * N(i, m, l) for m in range(r)):
            out.add(("associativity", i, j, k, l))
    for (i, j, k), v in ring.coeffs:
        if ring.grading[k] != g.mul[ring.grading[i]][ring.grading[j]]:
            out.add(("grading", i, j, k))
    return out


@st.composite
def corrupted_rings(draw):
    """A corpus ring with one structure constant moved by +-1, or two duals swapped."""
    ring = _corpus_ring(draw(st.sampled_from(RING_FILES)))
    r = ring.rank
    coeffs, dual = dict(ring.coeffs), list(ring.dual)
    if r > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
        dual[a], dual[b] = dual[b], dual[a]
    else:
        key = draw(st.tuples(*[st.integers(0, r - 1)] * 3))
        step = draw(st.sampled_from([1, -1] if coeffs.get(key, 0) else [1]))
        coeffs[key] = coeffs.get(key, 0) + step
    coeffs = tuple(sorted((key, v) for key, v in coeffs.items() if v))
    return GradedFusionRing(f"{ring.name}_corrupted", ring.simples, ring.unit, tuple(dual), coeffs,
                            ring.group, ring.grading)


class TestCorruptedRings:
    @settings(max_examples=200, deadline=None)
    @given(corrupted_rings())
    def test_every_witness_is_a_real_violation(self, ring):
        rep = validate_ring(ring)
        truth = _brute_violations(ring)
        assert rep.passed == (not truth), (rep.issues, sorted(truth)[:5])
        index = {s: i for i, s in enumerate(ring.simples)}
        for issue in rep.issues:
            code, message = issue["code"], issue["message"]
            witness = tuple(index[s] for s in issue["witness"])
            if code == "unit":
                a, b = issue["witness"]
                sides = [side for side, text in (("left", f"N[1,{a}]^{b} "), ("right", f"N[{a},1]^{b} "))
                         if message.startswith(text)]
                assert any(("unit", side, *witness) in truth for side in sides), issue
            else:
                assert (code, *witness) in truth, issue

    def test_a_corruption_that_keeps_every_axiom_gives_a_ring(self, fibonacci):
        # N_tt^t = 2 is the fusion ring t^2 = 1 + 2t: no axiom fails, so validation passes
        coeffs = dict(fibonacci.coeffs)
        coeffs[(1, 1, 1)] = 2
        ring = GradedFusionRing.make("fib_2", fibonacci.simples, fibonacci.unit, fibonacci.dual, coeffs)
        assert not _brute_violations(ring)
        assert validate_ring(ring).passed


class TestSectors:
    def test_trivially_graded_ising(self, ising):
        rep = sector_dims(ising)
        assert rep.sectors == {"e": QuadReal(4)}
        assert rep.full_spectrum and rep.m3_homogeneous

    def test_graded_ising(self):
        rep = sector_dims(graded_ising())
        assert rep.sectors["e"] == QuadReal(2)
        assert rep.sectors["g"] == QuadReal(2)
        assert rep.full_spectrum and rep.m3_homogeneous

    def test_empty_sector_flags(self):
        ring = pointed_ring(cyclic(1), name="v", group=cyclic(2), grading=[0])
        rep = sector_dims(ring)
        assert not rep.full_spectrum
        assert not rep.m3_homogeneous


class TestActions:
    def test_swap_on_fib2_passes(self, fib2_swap):
        ring, action = fib2_swap
        assert validate_action(ring, action).passed

    def test_trivial_action_passes(self, ising):
        assert validate_action(ising, trivial_action(ising, cyclic(2))).passed

    def test_swap_between_different_factors_fails(self, ising, fibonacci):
        # Ising x Fib: slots are not isomorphic, so the swap breaks fusion
        labels = []
        coeffs = {}
        for (a, d1) in enumerate(ising.simples):
            for (b, d2) in enumerate(fibonacci.simples):
                labels.append(f"{d1}*{d2}")
        ni, nf = ising.tensor(), fibonacci.tensor()
        rank_f = fibonacci.rank
        for (i1, j1, k1), v1 in ising.coeffs:
            for (i2, j2, k2), v2 in fibonacci.coeffs:
                coeffs[(i1 * rank_f + i2, j1 * rank_f + j2, k1 * rank_f + k2)] = v1 * v2
        dual = [ising.dual[i] * rank_f + fibonacci.dual[j] for i in range(3) for j in range(2)]
        ring = GradedFusionRing.make("ising*fib", labels, 0, dual, coeffs)
        assert validate_ring(ring).passed
        # "swap" that exchanges the two tensor slots cannot be a bijection of
        # a 3x2 label set; the nearest impostor permutation breaks fusion
        perm = tuple([0, 3, 1, 4, 2, 5])
        action = RingGAction(cyclic(2), (tuple(range(6)), perm))
        rep = validate_action(ring, action)
        assert not rep.passed

    def test_homomorphism_violation(self, ising):
        # order-2 group acting by an order-3-looking assignment
        perm = (0, 2, 1)
        bad = RingGAction(cyclic(2), ((0, 1, 2), perm))
        rep = validate_action(ising, bad)
        assert not rep.passed


class TestTensorPower:
    def test_vect_power(self, vect):
        ring, action = tensor_power(vect, 2, cyclic(2), [(0, 1), (1, 0)])
        assert ring.rank == 1
        assert validate_action(ring, action).passed

    def test_fib2(self, fib2_swap, fibonacci):
        ring, _ = fib2_swap
        assert ring.rank == 4
        dims = pf_dims(ring)
        assert dims[0] == QuadReal(1)
        assert dims[3] == PHI * PHI
        assert global_dim(ring) == global_dim(fibonacci) * global_dim(fibonacci)

    def test_ising2(self, ising2_swap, ising):
        ring, _ = ising2_swap
        assert ring.rank == 9
        assert global_dim(ring) == QuadReal(16)

    def test_non_homomorphic_embedding_rejected(self, fibonacci):
        # injective assignment whose square is not the identity permutation
        with pytest.raises(FusionError, match="homomorphism"):
            tensor_power(fibonacci, 3, cyclic(2), [(0, 1, 2), (1, 2, 0)])

    def test_non_faithful_rejected(self, fibonacci):
        with pytest.raises(FusionError, match="faithful"):
            tensor_power(fibonacci, 2, cyclic(2), [(0, 1), (0, 1)])

    def test_power_cap(self, fibonacci):
        with pytest.raises(FusionError, match="capped"):
            tensor_power(fibonacci, 5, cyclic(1), [tuple(range(5))])


class TestObstruction:
    def test_fib2_swap_witness(self, fib2_swap):
        ring, action = fib2_swap
        assert invertible_sector_obstruction(ring, action, 1) == "(1,t)"

    def test_identity_never_obstructs(self, fib2_swap):
        ring, action = fib2_swap
        assert invertible_sector_obstruction(ring, action, 0) is None

    def test_single_simple_none(self, vect):
        ring, action = tensor_power(vect, 2, cyclic(2), [(0, 1), (1, 0)])
        assert invertible_sector_obstruction(ring, action, 1) is None


class TestPicard:
    def test_ising(self, ising):
        labels, grp = picard(ising)
        assert labels == ["1", "p"]
        assert grp.order == 2

    def test_fibonacci(self, fibonacci):
        labels, _ = picard(fibonacci)
        assert labels == ["1"]

    def test_pointed_z3(self):
        ring = pointed_ring(cyclic(3))
        labels, grp = picard(ring)
        assert len(labels) == 3 and grp.order == 3
        assert grp.mul == cyclic(3).mul

    def test_invertibility_is_integer_decided(self, ising2_swap):
        ring, _ = ising2_swap
        labels, grp = picard(ring)
        assert len(labels) == 4 and grp.is_abelian


def _first_true(mask):
    """First True index in row-major order, as np.nonzero lists it, or None."""
    return tuple(int(x[0]) for x in np.nonzero(mask)) if mask.any() else None


def _assoc_diff(ring):
    n = ring.tensor()
    return np.einsum("ijm,mkl->ijkl", n, n) != np.einsum("jkm,iml->ijkl", n, n)


@st.composite
def sparse_rings(draw, max_rank=4, max_mult=300):
    """Rings with arbitrary coefficients (up to max_mult, so that the packed
    associativity fields can be wider than one byte), an arbitrary dual map
    and a permutation of the labels."""
    rank = draw(st.integers(1, max_rank))
    labels = st.integers(0, rank - 1)
    coeffs = draw(st.dictionaries(st.tuples(labels, labels, labels), st.integers(1, max_mult), max_size=rank ** 3))
    dual = draw(st.lists(labels, min_size=rank, max_size=rank))
    perm = tuple(draw(st.permutations(range(rank))))
    return GradedFusionRing.make("r", [f"x{i}" for i in range(rank)], 0, dual, coeffs), perm


class TestSparseChecks:
    """The sparse witnesses are the first violations np.nonzero finds on the
    dense tensor, which is what validate_ring and validate_action reported
    before they left numpy."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_rings())
    def test_associativity_witness_matches_dense_reference(self, ring_perm):
        ring, _ = ring_perm
        assert fusion_mod._first_assoc_violation(ring) == _first_true(_assoc_diff(ring))

    @settings(max_examples=300, deadline=None)
    @given(sparse_rings(max_mult=3))
    def test_fusion_preservation_witness_matches_dense_reference(self, ring_perm):
        ring, p = ring_perm
        n, pa = ring.tensor(), np.array(p)
        want = _first_true(n[np.ix_(pa, pa, pa)] != n)
        assert fusion_mod._permuted_mismatch(dict(ring.coeffs), p) == want

    @settings(max_examples=200, deadline=None)
    @given(sparse_rings(max_mult=2))
    def test_unit_and_duality_witnesses_match_dense_reference(self, ring_perm):
        ring, _ = ring_perm
        n, eye = ring.tensor(), np.eye(ring.rank, dtype=np.int64)
        coeff = dict(ring.coeffs)
        for axis, want in ((0, eye), (1, eye), (2, eye[list(ring.dual)])):
            support = set(zip(*(x.tolist() for x in np.nonzero(want))))
            got = fusion_mod._slice_mismatch(coeff, axis, ring.unit, support)
            assert got == _first_true(np.take(n, ring.unit, axis=axis) != want)

    def test_rank_27_tensor_power_and_one_changed_multiplicity(self, rep_s3):
        ring, _ = tensor_power(rep_s3, 3, cyclic(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert fusion_mod._first_assoc_violation(ring) is None
        coeffs = dict(ring.coeffs)
        coeffs[max(coeffs)] += 1
        broken = GradedFusionRing.make("broken", ring.simples, ring.unit, ring.dual, coeffs)
        assert fusion_mod._first_assoc_violation(broken) == _first_true(_assoc_diff(broken))

    def test_rank_81_witness_of_one_changed_multiplicity(self, rep_s3):
        """Too large for the dense reference: the witness is the one the
        sparse sums of the failing row gave before it was read off the planes."""
        ring, _ = tensor_power(rep_s3, 4, cyclic(4), [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)])
        coeffs = dict(ring.coeffs)
        coeffs[max(coeffs)] += 1
        broken = GradedFusionRing.make("broken", ring.simples, ring.unit, ring.dual, coeffs)
        assert fusion_mod._first_assoc_violation(broken) == (2, 78, 80, 80)
