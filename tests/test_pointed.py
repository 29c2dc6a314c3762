import itertools
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_build import double_semion_pointed, symmetric_pointed, toric_code_pointed
from cyc_oracle import Cyc, rref
from relabel import match, modular_data
from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.corpus import corpus_list, load_entry
from gxcat.errors import InvariantError
from gxcat.exact import QuadReal
from gxcat.fusion import pointed_ring, sector_dims
from gxcat.gauging import crossed_product
from gxcat.chartab import rep_fusion_data
from gxcat.groups import build_group, cyclic, product, subgroup, symmetric
from gxcat.modular import _invertible_roots, kirillov_S, twisted_double
from gxcat.pointed import (
    PointedGXData,
    enumerate_holomorphic,
    holomorphic_crossed,
    pointed_deequivariantize,
    validate_pointed,
)
from gxcat.serialize import canonical_json


def z2_omega():
    return cohomology_group(cyclic(2), 3, 2).representatives[0]


class TestValidatePointed:
    def test_trivial_symmetric_z2(self):
        data = symmetric_pointed(2)
        assert validate_pointed(data).passed

    def test_toric_and_double_semion(self):
        assert validate_pointed(toric_code_pointed()).passed
        assert validate_pointed(double_semion_pointed()).passed

    def test_quarter_turn_with_zero_assoc_fails(self):
        # golden after evaluation: braid(g,g)=1 at N=4 needs assoc value 2,
        # so with assoc = 0 the first hexagon fails
        z2 = cyclic(2)
        data = PointedGXData.make(
            z2, z2, (0, 1), ((0, 1), (0, 1)), 4, {}, [[0, 0], [0, 1]]
        )
        rep = validate_pointed(data)
        assert not rep.passed
        assert any(i["code"].startswith("hexagon") for i in rep.issues)

    def test_braid_perturbation_fails_with_witness(self):
        data = toric_code_pointed()
        braid = [list(r) for r in data.braid]
        braid[2][1] = (braid[2][1] + 1) % 2
        bent = PointedGXData.make(
            data.gamma, data.group, data.deg, data.action, data.n, data.assoc, braid
        )
        rep = validate_pointed(bent)
        assert not rep.passed
        assert rep.issues[0]["witness"] is not None

    @pytest.mark.parametrize("maker", [toric_code_pointed, double_semion_pointed])
    def test_all_braid_mutations_rejected(self, maker):
        data = maker()
        n = data.n
        for x, y in itertools.product(range(data.gamma.order), repeat=2):
            braid = [list(r) for r in data.braid]
            braid[x][y] = (braid[x][y] + 1) % n
            bent = PointedGXData.make(
                data.gamma, data.group, data.deg, data.action, n, data.assoc, braid
            )
            assert not validate_pointed(bent).passed, f"mutation at braid[{x}][{y}] survived"

    @pytest.mark.parametrize("maker", [toric_code_pointed, double_semion_pointed])
    def test_all_assoc_mutations_rejected(self, maker):
        data = maker()
        n = data.n
        vals = dict(data.assoc.values)
        for t in itertools.product(range(1, data.gamma.order), repeat=3):
            mutated = dict(vals)
            mutated[t] = (mutated.get(t, 0) + 1) % n
            bent = PointedGXData.make(
                data.gamma, data.group, data.deg, data.action, n, mutated, data.braid
            )
            assert not validate_pointed(bent).passed, f"mutation at assoc{t} survived"


def _toric_code_squared():
    """Z2^4 as the left-nested product, whose index has the bits x0..x3, high
    bit first, braided by b(x, y) = x0 y1 + x2 y3 at N = 2."""
    z2 = cyclic(2)

    def bit(x, i):
        return (x >> (3 - i)) & 1

    return _bilinear_pointed(product(product(product(z2, z2), z2), z2), 2,
                             lambda x, y: bit(x, 0) * bit(y, 1) + bit(x, 2) * bit(y, 3))


def _bilinear_pointed(gam, n, b):
    """Braided pointed data on abelian gam at N = n with the bilinear braiding b and no associator."""
    braid = [[b(x, y) % n for y in gam.elements()] for x in gam.elements()]
    return PointedGXData.make(gam, cyclic(1), [0] * gam.order, [tuple(gam.elements())], n, {}, braid)


def _rep_h_as_h(gam, h_elems):
    """{Rep(H) label: element name in gam}: the first bijection, identity to
    identity, that carries the Rep(H) fusion rules of abelian H to its product."""
    h, embed = subgroup(gam, h_elems)
    labels, _, coeffs, _ = rep_fusion_data(h)
    rules = [key for key, v in coeffs.items() if v]
    for perm in itertools.permutations(range(1, h.order)):
        image = (0, *perm)
        if all(h.mul[image[i]][image[j]] == image[k] for i, j, k in rules):
            return {label: gam.element_names[embed[image[i]]] for i, label in enumerate(labels)}
    raise AssertionError("Rep(H) is not isomorphic to H")


class TestDeequivariantize:
    def test_toric_condensation(self):
        data = toric_code_pointed()
        out = pointed_deequivariantize(data, [0, 1])
        assert out.gamma.order == 2 and out.group.order == 2
        assert out.deg == (0, 1)  # the flux coset carries the nontrivial character
        assert validate_pointed(out).passed
        ring = pointed_ring(out.gamma, group=out.group, grading=out.deg)
        rep = sector_dims(ring)
        assert rep.full_spectrum and rep.m3_homogeneous
        assert rep.sectors == {"e": QuadReal(1), "chi1": QuadReal(1)}

    def test_trivial_subgroup_identity(self):
        data = toric_code_pointed()
        out = pointed_deequivariantize(data, [0])
        assert out.gamma.order == 4 and out.group.order == 1
        assert out.braid == data.braid

    def test_double_semion_boson(self):
        data = double_semion_pointed()
        out = pointed_deequivariantize(data, [0, 3])
        assert out.gamma.order == 2 and out.group.order == 2
        assert out.deg == (0, 1)
        assert validate_pointed(out).passed

    def test_semion_subgroup_rejected(self):
        # {1, s} carries twist i: not a boson
        data = double_semion_pointed()
        with pytest.raises(ValueError, match="twist|transparent"):
            pointed_deequivariantize(data, [0, 1])

    def test_charge_flux_pair_not_transparent(self):
        data = toric_code_pointed()
        with pytest.raises(ValueError, match="transparent|twist"):
            pointed_deequivariantize(data, [0, 3])

    def test_z4_condensation_produces_semion(self):
        # Z4 with the bilinear braiding beta(x,y) = xy at N=4: the subgroup
        # {0,2} is a transparent boson; the condensed category is the semion
        # (unit twist i on the nontrivial coset, nontrivial associator class)
        z4 = cyclic(4)
        braid = [[(x * y) % 4 for y in range(4)] for x in range(4)]
        data = PointedGXData.make(z4, cyclic(1), [0] * 4, [tuple(range(4))], 4, {}, braid)
        assert validate_pointed(data).passed
        out = pointed_deequivariantize(data, [0, 2])
        assert out.gamma.order == 2
        assert out.deg == (0, 0)  # H is transparent in all of Gamma
        assert out.twist(1) == 1  # theta = i: the semion
        assert out.assoc(1, 1, 1) == 2  # forced nontrivial associator
        assert validate_pointed(out).passed

    @pytest.mark.parametrize(
        "make, h_elems",
        [
            (toric_code_pointed, [0, 1]),
            (toric_code_pointed, [0, 2]),
            (double_semion_pointed, [0, 3]),
            (lambda: _bilinear_pointed(cyclic(4), 4, lambda x, y: x * y), [0, 2]),
            (_toric_code_squared, [0, 1, 4, 5]),
        ],
        ids=["toric-charge", "toric-flux", "semion-dyon", "z4-xy", "toric-squared"],
    )
    def test_condensation_is_ungauging_by_the_same_rep_h(self, make, h_elems):
        """The fusion ring of the condensed data is the crossed product of the
        pointed ring of Gamma by Rep(H) embedded as H; both number the cosets
        by their least member, and only the unit is named differently."""
        data = make()
        condensed = pointed_ring(pointed_deequivariantize(data, h_elems).gamma)
        h, _ = subgroup(data.gamma, h_elems)
        ungauged = crossed_product(pointed_ring(data.gamma), _rep_h_as_h(data.gamma, h_elems), group=h).output_ring
        assert condensed.simples[0] == "e" and ungauged.simples == ("[e]",) + condensed.simples[1:]
        assert (ungauged.unit, ungauged.dual, ungauged.coeffs) == (condensed.unit, condensed.dual, condensed.coeffs)


class TestTwistedDouble:
    def test_toric_code(self):
        dd = twisted_double(cyclic(2), TorsionCocycle.make(cyclic(2), 3, 2, {}))
        assert dd.dims == [1, 1, 1, 1]
        ts = sorted((round(complex(t).real, 6), round(complex(t).imag, 6)) for t in map(Cyc.of, (s["t"] for s in dd.simples)))
        assert ts == [(-1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
        assert dd.s_matrix is not None and dd.fusion is not None

    def test_double_semion_t_spectrum_differs(self):
        dd = twisted_double(cyclic(2), z2_omega())
        ts = sorted((round(complex(t).real, 6), round(complex(t).imag, 6)) for t in map(Cyc.of, (s["t"] for s in dd.simples)))
        assert ts == [(0.0, -1.0), (0.0, 1.0), (1.0, 0.0), (1.0, 0.0)]

    def test_d_s3(self):
        s3 = symmetric(3)
        dd = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))
        assert len(dd.simples) == 8
        assert sorted(dd.dims) == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sum(d * d for d in dd.dims) == 36
        assert dd.s_matrix is not None

    @pytest.mark.parametrize("preset, n", [("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 2)])
    def test_all_h3_generators_satisfy_dim_identity(self, preset, n):
        from gxcat.groups import build_group

        g = build_group(preset)
        for rep in cohomology_group(g, 3, n).representatives:
            dd = twisted_double(g, rep)
            assert sum(d * d for d in dd.dims) == g.order**2

    def test_s_matrix_vacuum_row(self):
        dd = twisted_double(cyclic(2), TorsionCocycle.make(cyclic(2), 3, 2, {}))
        for j in range(4):
            assert dd.s_matrix[0][j] == Cyc.rational(Fraction(1, 2))

    def test_s_symmetric_for_untwisted(self):
        s3 = symmetric(3)
        dd = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))
        for i in range(8):
            for j in range(8):
                assert dd.s_matrix[i][j] == dd.s_matrix[j][i]

    @staticmethod
    def _verlinde_consistent(dd):
        s, ring = [[Cyc.of(v) for v in row] for row in dd.s_matrix], dd.fusion
        n = ring.tensor()
        r = ring.rank
        inv0 = [s[0][l].inv() for l in range(r)]
        conj = [[s[k][l].conj() for l in range(r)] for k in range(r)]
        for i, j in itertools.product(range(r), repeat=2):
            col = [s[i][l] * s[j][l] * inv0[l] for l in range(r)]
            for k in range(r):
                acc = Cyc.rational(0)
                for l in range(r):
                    acc = acc + col[l] * conj[k][l]
                if not acc == Cyc.rational(int(n[i, j, k])):
                    return False
        return True

    def test_verlinde_on_toric(self):
        # fusion from the character route must match Verlinde from S
        dd = twisted_double(cyclic(2), TorsionCocycle.make(cyclic(2), 3, 2, {}))
        assert self._verlinde_consistent(dd)

    @pytest.mark.parametrize("preset, n", [("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 2)])
    def test_verlinde_for_twisted_abelian(self, preset, n):
        from gxcat.fusion import validate_ring
        from gxcat.groups import build_group

        g = build_group(preset)
        for rep in cohomology_group(g, 3, n).representatives:
            dd = twisted_double(g, rep)
            if dd.fusion is not None:
                # the kappa-corrected product must be an honest fusion ring
                assert validate_ring(dd.fusion).passed
            if dd.s_matrix is not None and dd.fusion is not None:
                assert self._verlinde_consistent(dd)

    def test_verlinde_d_s3(self):
        s3 = symmetric(3)
        dd = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))
        assert self._verlinde_consistent(dd)

    @staticmethod
    def _untwisted_s_reference(g, simples):
        """The Cyc loop the untwisted S was computed with before it became
        integer convolutions: the reference for values and conductors."""
        values = [[Cyc.from_ints(s["section"].shape[-1], r) for r in s["section"].tolist()] for s in simples]
        mat = []
        for sa, va in zip(simples, values):
            row = []
            a, za = g.element_names.index(sa["class_rep"]), sa["embed"]
            for sb, vb in zip(simples, values):
                b, zb = g.element_names.index(sb["class_rep"]), sb["embed"]
                acc = Cyc.rational(0)
                for t in g.elements():
                    x = g.mul[g.mul[t][b]][g.inv[t]]
                    if g.mul[a][x] != g.mul[x][a]:
                        continue
                    y = g.mul[g.mul[g.inv[t]][a]][t]
                    acc = acc + va[za.index(x)].conj() * vb[zb.index(y)].conj()
                row.append(acc * Fraction(1, len(za) * len(zb)))
            mat.append(row)
        return mat

    @pytest.mark.parametrize("preset", ["S3", "Q8", "D5", "D6", "Z6"])
    def test_untwisted_s_matches_cyc_loop(self, preset, monkeypatch):
        import gxcat.modular as modular
        from gxcat.groups import build_group

        g = build_group(preset)
        seen = {}
        real = modular._s_matrix

        def spy(omega, data, simples):
            seen["simples"] = simples
            return real(omega, data, simples)

        monkeypatch.setattr(modular, "_s_matrix", spy)
        got = twisted_double(g, TorsionCocycle.make(g, 3, g.order, {})).s_matrix
        want = self._untwisted_s_reference(g, seen["simples"])
        got = [[Cyc.of(v) for v in row] for row in got]
        assert [[(v.n, v.c) for v in row] for row in got] == [[(v.n, v.c) for v in row] for row in want]


    @pytest.mark.parametrize("preset, twisted", [("S3", False), ("Z6", False), ("Z2", True), ("Z4", True)])
    def test_unitarity_is_checked_on_the_emitted_integers(self, preset, twisted, monkeypatch):
        import gxcat.modular as modular
        from gxcat.errors import InvariantError
        from gxcat.groups import build_group

        g = build_group(preset)
        omega = cohomology_group(g, 3, g.order).representatives[0] if twisted else \
            TorsionCocycle.make(g, 3, g.order, {})
        assert not omega.is_zero() or not twisted
        real = modular._s_matrix
        calls = []

        def corrupted(*args):
            cond, coef, den = real(*args)
            calls.append(preset)
            coef = coef.copy()
            coef[1, 1, 0] += 1  # one more den-th in an emitted coefficient
            return cond, coef, den

        monkeypatch.setattr(modular, "_s_matrix", corrupted)
        with pytest.raises(InvariantError, match="S not unitary"):
            twisted_double(g, omega)
        assert calls == [preset]

    @pytest.mark.parametrize("index, twin", [(3, "D4"), (5, "Q8"), (6, "D4")])
    def test_type_iii_doubles_of_z2_cubed_have_modular_data(self, index, twin):
        """The type-III classes of H^3(Z2xZ2xZ2, mu_2), with 22 simples: S is
        symmetric with (ST)^3 = S^2, the fusion ring is valid with PF dims equal
        to the dims, and dims, T and S match those of D(D4) or D(Q8) up to
        relabeling, as Goff, Mason and Ng (J. Algebra 312, 2007) show these
        doubles gauge equivalent."""
        from gxcat.fusion import pf_dims, validate_ring
        from gxcat.groups import build_group

        g = build_group("Z2xZ2xZ2")
        dd = twisted_double(g, cohomology_group(g, 3, 2).representatives[index])
        s, r = [[Cyc.of(v) for v in row] for row in dd.s_matrix], len(dd.simples)
        assert r == 22 and s is not None and dd.fusion is not None
        assert all(s[i][j] == s[j][i] for i in range(r) for j in range(i))

        def mul(a, b):
            return [[sum((a[i][k] * b[k][j] for k in range(r)), Cyc.rational(0)) for j in range(r)] for i in range(r)]

        st = [[s[i][j] * dd.simples[j]["t"] for j in range(r)] for i in range(r)]
        st3, s2 = mul(mul(st, st), st), mul(s, s)
        assert all(st3[i][j] == s2[i][j] for i in range(r) for j in range(r))
        assert validate_ring(dd.fusion).passed
        assert list(pf_dims(dd.fusion)) == dd.dims
        h = build_group(twin)
        ref = twisted_double(h, TorsionCocycle.make(h, 3, h.order, {}))
        assert match(modular_data(ref), modular_data(dd)) is not None

    def test_relabeling_matcher_reads_every_s_entry(self):
        """A shuffled D(S3) matches D(S3), by a permutation that carries dims, T
        and S over; with one symmetric pair of S entries changed it does not."""
        s3 = symmetric(3)
        dims, ts, s = modular_data(twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {})))
        shuffle = [5, 2, 7, 0, 3, 6, 1, 4]
        moved = ([dims[i] for i in shuffle], [ts[i] for i in shuffle], [[s[i][j] for j in shuffle] for i in shuffle])
        p = match((dims, ts, s), moved)
        assert sorted(p) == list(range(8)) and [moved[0][j] for j in p] == dims and [moved[1][j] for j in p] == ts
        assert all(moved[2][p[i]][p[j]] == s[i][j] for i in range(8) for j in range(8))
        bent = [row[:] for row in moved[2]]
        bent[1][2] = bent[2][1] = Cyc.of(bent[1][2]) + 1
        assert match((dims, ts, s), (moved[0], moved[1], bent)) is None


class TestHolomorphicCrossed:
    def test_trivial_group(self):
        data, count = holomorphic_crossed(cyclic(1), TorsionCocycle.make(cyclic(1), 3, 2, {}))
        assert count == 1 and data.gamma.order == 1

    def test_z2_untwisted(self):
        data, count = holomorphic_crossed(cyclic(2), TorsionCocycle.make(cyclic(2), 3, 2, {}))
        assert count == 2  # Vect-like and sVect-like braidings at N=2
        assert data.n == 2 and validate_pointed(data).passed

    def test_z2_twisted_needs_n4(self):
        data, count = holomorphic_crossed(cyclic(2), z2_omega())
        assert data.n == 4
        assert count == 2  # semion and anti-semion
        assert data.b(1, 1) in (1, 3)

    def test_z3_untwisted(self):
        data, count = holomorphic_crossed(cyclic(3), TorsionCocycle.make(cyclic(3), 3, 3, {}))
        assert count == 3
        assert validate_pointed(data).passed

    def test_z3_twisted_unrepresentable_with_strict_action(self):
        # braided structures on Z3 only exist over the trivial associator
        # class (odd-order quadratic-form classification), so the strict
        # skeletal model refuses the twisted representative
        om = cohomology_group(cyclic(3), 3, 3).representatives[0]
        with pytest.raises(ValueError, match="no consistent braiding"):
            holomorphic_crossed(cyclic(3), om)

    def test_s3_untwisted(self):
        s3 = symmetric(3)
        data, count = holomorphic_crossed(s3, TorsionCocycle.make(s3, 3, 6, {}))
        assert validate_pointed(data).passed
        assert data.deg == tuple(range(6))

    @pytest.mark.parametrize(
        "group, omega_factory",
        [
            (cyclic(2), lambda: TorsionCocycle.make(cyclic(2), 3, 2, {})),
            (cyclic(2), z2_omega),
            (cyclic(3), lambda: TorsionCocycle.make(cyclic(3), 3, 3, {})),
        ],
    )
    def test_full_spectrum_one_simple_per_degree(self, group, omega_factory):
        data, _ = holomorphic_crossed(group, omega_factory())
        assert sorted(data.deg) == list(range(group.order))
        ring = pointed_ring(data.gamma, group=data.group, grading=data.deg)
        rep = sector_dims(ring)
        assert rep.full_spectrum and rep.m3_homogeneous
        assert all(v == QuadReal(1) for v in rep.sectors.values())


class TestEnumerate:
    def test_trivial_group_single_orbit(self):
        orbits, _ = enumerate_holomorphic(cyclic(1), 2)
        assert len(orbits) == 1

    def test_z2_n4_gives_four_quadratic_forms(self):
        orbits, sols = enumerate_holomorphic(cyclic(2), 4)
        assert len(orbits) == 4
        assert len(sols) == 4
        twists = sorted(o["representative"].b(1, 1) for o in orbits)
        assert twists == [0, 1, 2, 3]

    def test_z3_n3(self):
        # three quadratic forms on Z3, orbits of equal size in the 27 raw data
        orbits, sols = enumerate_holomorphic(cyclic(3), 3)
        assert len(orbits) == 3
        assert sorted(o["size"] for o in orbits) == [9, 9, 9]
        assert len(sols) == 27
        assert sorted(o["representative"].b(1, 1) for o in orbits) == [0, 1, 2]

    def test_gauge_moves_preserve_validity(self):
        # closure audit: braid solutions over every coboundary associator
        # on Z3 validate, so the solver and validator share one convention
        import numpy as np

        from gxcat.cohomology import coboundary
        from gxcat.pointed import _braid_system, _braid_tables

        z3 = cyclic(3)
        system = _braid_system(z3, (0, 0, 0), (tuple(range(3)),))
        for v1 in range(3):
            for v2 in range(3):
                lam = TorsionCocycle.make(z3, 2, 3, {(1, 1): v1, (2, 2): v2})
                assoc = coboundary(lam)
                for tab in _braid_tables(z3, system, 3, assoc.to_vector()[None])[1]:
                    d = PointedGXData.make(z3, cyclic(1), (0, 0, 0), (tuple(range(3)),), 3, assoc, tab)
                    assert validate_pointed(d).passed

    def test_s3_n2_nonabelian_path(self):
        # exploratory golden recorded after the exhaustive run: 32 raw
        # solutions collapsing to 4 orbits of size 8 under the
        # invariant-coboundary gauge moves and Aut(S3) relabelings
        orbits, sols = enumerate_holomorphic(symmetric(3), 2)
        assert len(sols) == 32
        assert sorted(o["size"] for o in orbits) == [8, 8, 8, 8]
        for o in orbits:
            assert validate_pointed(o["representative"]).passed

    @pytest.mark.parametrize("preset, n", [
        ("S3", 2), ("S3", 3), ("S3", 4), ("S3", 6), ("Z4", 4), ("Z2xZ2", 2), ("Z3", 6),
    ])
    def test_states_form_a_module_and_orbits_partition_them(self, preset, n):
        # The states are a Z/n-module, so each gauge translation keeps every
        # state or none and the kept moves permute them: the orbits partition
        # the states, and no state is reached by two orbits.
        import numpy as np

        orbits, states = enumerate_holomorphic(build_group(preset), n)
        assert not states[0].any()
        rows = {row.tobytes() for row in states}
        # the span of the states, one generator (a state not yet spanned) at a time
        span = {states[0].tobytes()}
        for row in states.astype(np.int64):
            if row.astype(np.uint8).tobytes() not in span:
                base = np.array([np.frombuffer(r, dtype=np.uint8) for r in span], dtype=np.int64)
                span = {r.tobytes() for k in range(n) for r in ((base + k * row) % n).astype(np.uint8)}
                assert span <= rows
        assert span == rows
        assert sum(o["size"] for o in orbits) == len(states)

    @pytest.mark.parametrize("n, message", [
        (2, "a relabeling through Aut(G) takes a state out of the solution set"),
        (3, "729 states are not 1 cosets of the 177147 gauge translations"),
    ], ids=["least-state-leaves", "span-leaves"])
    def test_relabeling_that_leaves_the_states_raises(self, monkeypatch, n, message):
        # 1 -> 1, 2 -> 3, 3 -> 2 is not an automorphism of Z4.  At N = 2 it
        # takes a coset's least state out of the states; at N = 3 it moves a
        # kept translation out, so the span is larger than the states.
        from gxcat import pointed

        real = pointed._automorphisms
        monkeypatch.setattr(pointed, "_automorphisms", lambda g: real(g) + [(0, 1, 3, 2)])
        with pytest.raises(InvariantError, match=re.escape(message)):
            enumerate_holomorphic(cyclic(4), n)

    def test_guard(self):
        from gxcat.errors import ResourceLimit

        with pytest.raises(ResourceLimit):
            enumerate_holomorphic(symmetric(4), 2)
        with pytest.raises(ResourceLimit):
            enumerate_holomorphic(cyclic(2), 9)


class TestKirillov:
    def test_toric_invertible_and_block_is_monodromy(self):
        data = toric_code_pointed()
        km = kirillov_S(data)
        assert km.invertible
        assert len(km.basis) == 4
        for i in range(4):
            for j in range(4):
                want = Cyc.root(data.n, data.monodromy(i, j))
                assert km.entries[i][j] == want

    def test_symmetric_is_singular(self):
        assert not kirillov_S(symmetric_pointed(2)).invertible
        assert not kirillov_S(symmetric_pointed(3)).invertible

    def test_holomorphic_outputs_invertible(self):
        for group, om in [
            (cyclic(2), TorsionCocycle.make(cyclic(2), 3, 2, {})),
            (cyclic(2), z2_omega()),
            (cyclic(3), TorsionCocycle.make(cyclic(3), 3, 3, {})),
        ]:
            data, _ = holomorphic_crossed(group, om)
            km = kirillov_S(data)
            assert len(km.basis) == group.order**2
            assert km.invertible

    def test_basis_counts_fixed_points(self):
        data = toric_code_pointed()
        km = kirillov_S(data)
        assert len(km.basis) == sum(
            1 for x in range(4) for k in range(1) if data.act(k, x) == x
        )


CORPUS_POINTED = [e.name for e in corpus_list() if e.kind == "pointed"]
KIRILLOV_CASES = ["toric", "semion", "symmetric2", "symmetric3", "symmetric4", "holo_Z2", "holo_Z3", "holo_Z4",
                  "holo_S3", "holo_Z2_twisted", *CORPUS_POINTED]


@lru_cache(maxsize=None)
def _kirillov_cases():
    """The stock and corpus pointed data, and holomorphic_crossed outputs, by name."""
    out = {"toric": toric_code_pointed(), "semion": double_semion_pointed()}
    out.update({f"symmetric{k}": symmetric_pointed(k) for k in (2, 3, 4)})
    for name, g, n in [("Z2", cyclic(2), 2), ("Z3", cyclic(3), 3), ("Z4", cyclic(4), 4), ("S3", symmetric(3), 6)]:
        out[f"holo_{name}"] = holomorphic_crossed(g, TorsionCocycle.make(g, 3, n, {}))[0]
    out["holo_Z2_twisted"] = holomorphic_crossed(cyclic(2), z2_omega())[0]
    out.update({name: load_entry(name) for name in CORPUS_POINTED})
    return out


def _rref_invertible(rows):
    """The exact verdict: Gauss-Jordan over Q(zeta_n) on the oracle Cyc."""
    return len(rref([[Cyc.of(v) for v in row] for row in rows])[1]) == len(rows)


@st.composite
def root_matrices(draw):
    """(n, exponents) of a square matrix of zeta_n^e, with -1 for a 0 entry;
    a third of them get a row repeated times a root of unity, a third a zero row."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8]))
    size = draw(st.integers(1, 6))
    expo = draw(st.lists(st.lists(st.integers(-1, n - 1), min_size=size, max_size=size),
                         min_size=size, max_size=size))
    kind = draw(st.sampled_from(["free", "repeat", "zero"]))
    if size > 1 and kind != "free":
        i, j = draw(st.permutations(range(size)))[:2]
        shift = draw(st.integers(0, n - 1))
        expo[j] = [(e + shift) % n if e >= 0 else -1 for e in expo[i]] if kind == "repeat" else [-1] * size
    return n, expo


class TestKirillovRank:
    @settings(max_examples=150, deadline=None)
    @given(root_matrices())
    def test_fp_verdict_matches_cyc_rref(self, case):
        n, expo = case
        rows = [[Cyc.root(n, e) if e >= 0 else Cyc.rational(0, n) for e in row] for row in expo]
        assert _invertible_roots(np.array(expo, dtype=np.int64), n) == _rref_invertible(rows)

    @pytest.mark.parametrize("name", KIRILLOV_CASES)
    def test_stock_data_verdict_and_entries(self, name):
        data = _kirillov_cases()[name]
        km = kirillov_S(data)
        assert km.invertible == _rref_invertible(km.entries)
        # the entries from their definition: zeta^monodromy(x, y) where k = deg(y) and l = deg(x), else 0
        gam, g = data.gamma, data.group
        basis = [(x, k) for x in gam.elements() for k in g.elements() if data.act(k, x) == x]
        want = [[Cyc.root(data.n, data.monodromy(x, y)) if k == data.deg[y] and l == data.deg[x]
                 else Cyc.rational(0, data.n) for y, l in basis] for x, k in basis]
        assert canonical_json(km.to_json()["entries"]) == canonical_json([[v.to_json() for v in r] for r in want])


class TestHolomorphicChain:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_double_crossed_by_rep_g_has_one_invertible_per_degree(self, twisted):
        z2 = cyclic(2)
        om = z2_omega() if twisted else TorsionCocycle.make(z2, 3, 2, {})
        dd = twisted_double(z2, om)
        cp = crossed_product(dd.fusion, {"pi0": "(e;0)", "pi1": "(e;1)"}, group=z2)
        dims = [s["dim"] for b in cp.blocks for s in b["simples"]]
        assert len(dims) == 2 and all(d == QuadReal(1) for d in dims)
        assert cp.global_dim == QuadReal(2)
