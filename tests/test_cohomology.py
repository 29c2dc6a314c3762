import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxcat.cohomology import (
    TorsionCocycle,
    bar_matrix,
    coboundary,
    cohomology_group,
    is_coboundary,
    is_cocycle,
    transgress,
    u1_cohomology,
)
from gxcat.errors import GroupError, ResourceLimit
from gxcat.groups import build_group, cyclic, product, symmetric
from gxcat.serialize import dump_cocycle

FROZEN = json.loads((pathlib.Path(__file__).parent / "data" / "cohomology_frozen.json").read_text())["cases"]


def brute_force_order(g, k, n, limit=1 << 20):
    """|H^k(G, mu_n)| by exhaustive enumeration (test oracle).

    Counts closed cochains and coboundaries directly; refuses when either
    cochain space exceeds the limit.
    """
    size_k = n ** ((g.order - 1) ** k)
    size_km1 = n ** ((g.order - 1) ** (k - 1)) if k >= 1 else 1
    if size_k > limit or size_km1 > limit:
        raise ResourceLimit("cochain space too large for brute force")
    closed = sum(
        is_cocycle(TorsionCocycle.from_vector(g, k, n, a))[0]
        for a in itertools.product(range(n), repeat=(g.order - 1) ** k)
    )
    images = {
        coboundary(TorsionCocycle.from_vector(g, k - 1, n, a)).table.tobytes()
        for a in itertools.product(range(n), repeat=(g.order - 1) ** (k - 1))
    }
    return closed // len(images)


def _times(c, k):
    """The cochain k c."""
    return TorsionCocycle.from_table(c.group, c.degree, c.n, k * c.table)


def random_cochain(g, k, n, rng):
    vals = {}
    for t in itertools.product(range(1, g.order), repeat=k):
        vals[t] = int(rng.integers(0, n))
    return TorsionCocycle.make(g, k, n, vals)


SMALL = [
    (cyclic(2), 2), (cyclic(3), 3), (cyclic(4), 4),
    (product(cyclic(2), cyclic(2)), 2), (symmetric(3), 6),
]


class TestCoboundary:
    def test_zero_cochain_maps_to_zero(self):
        z = TorsionCocycle.make(symmetric(3), 2, 6, {})
        assert coboundary(z).is_zero()

    @pytest.mark.parametrize("g, n", SMALL)
    @pytest.mark.parametrize("k", [1, 2])
    def test_d_squared_vanishes(self, g, n, k):
        rng = np.random.default_rng(17)
        for _ in range(25):
            c = random_cochain(g, k, n, rng)
            assert coboundary(coboundary(c)).is_zero()

    def test_d_squared_matrix_route(self):
        # independent check through the lifted integer matrices
        for g, n in SMALL:
            for k in (1, 2):
                prod = bar_matrix(g, k + 1) @ bar_matrix(g, k)
                assert (prod % n == 0).all()

    def test_nonzero_z2_three_cochain_is_closed(self):
        # single normalized 3-tuple (g,g,g): d evaluates to 2*value = 0 mod 2
        g = cyclic(2)
        c = TorsionCocycle.make(g, 3, 2, {(1, 1, 1): 1})
        ok, wit = is_cocycle(c)
        assert ok and wit is None

    def test_witness_is_least(self):
        # rejection-sample a non-closed 3-cochain on Z3 at N=3 (seeded)
        g = cyclic(3)
        rng = np.random.default_rng(5)
        while True:
            c = random_cochain(g, 3, 3, rng)
            ok, wit = is_cocycle(c)
            if not ok:
                break
        defects = [
            t
            for t in itertools.product(range(1, 3), repeat=4)
            if coboundary(c)(*t) != 0
        ]
        assert wit == min(defects)


class TestCohomologyGroups:
    def test_trivial_group(self):
        for k in (1, 2, 3):
            assert cohomology_group(cyclic(1), k, 4).invariant_factors == ()

    def test_h3_z2(self):
        h = cohomology_group(cyclic(2), 3, 2)
        assert h.invariant_factors == (2,)
        rep = h.representatives[0]
        assert rep.values == (((1, 1, 1), 1),)

    def test_h2_z2_mu2_nontrivial(self):
        # the nonzero normalized 2-cochain on Z2 is closed and is NOT a
        # coboundary over mu_2 (coboundaries of normalized 1-cochains vanish);
        # exhaustive enumeration decides the order
        h = cohomology_group(cyclic(2), 2, 2)
        assert h.invariant_factors == (2,)
        assert brute_force_order(cyclic(2), 2, 2) == 2

    @pytest.mark.parametrize(
        "g, k, n",
        [
            (cyclic(2), 2, 2),
            (cyclic(2), 3, 2),
            (cyclic(3), 2, 3),
            (cyclic(3), 3, 3),
            (cyclic(2), 3, 4),
            (cyclic(4), 2, 2),
        ],
    )
    def test_matches_brute_force(self, g, k, n):
        h = cohomology_group(g, k, n)
        assert h.order == brute_force_order(g, k, n)

    def test_representatives_closed_non_exact(self):
        for g, n in [(cyclic(4), 4), (product(cyclic(2), cyclic(2)), 2), (symmetric(3), 6)]:
            h = cohomology_group(g, 3, n)
            for rep, order in zip(h.representatives, h.generator_orders):
                assert is_cocycle(rep)[0]
                assert not is_coboundary(rep)
                assert order > 1
                # scaling by the order lands in the coboundaries
                assert is_coboundary(_times(rep, order))

    def test_degree_four(self):
        # mod-2 cohomology of Z2 is one copy of Z/2 in every degree
        assert cohomology_group(cyclic(2), 4, 2).invariant_factors == (2,)
        assert cohomology_group(cyclic(2), 1, 2).invariant_factors == (2,)

    def test_degree_guard(self):
        with pytest.raises(GroupError):
            cohomology_group(cyclic(2), 5, 2)
        with pytest.raises(GroupError):
            cohomology_group(cyclic(2), 3, 999)

    @pytest.mark.parametrize("degree, n", [(-1, 2), (2, 0), (2, -3)])
    def test_cochain_constructors_refuse_bad_degree_or_modulus(self, degree, n):
        g = cyclic(2)
        for build in (lambda: TorsionCocycle.make(g, degree, n, {}),
                      lambda: TorsionCocycle.from_table(g, degree, n, np.zeros((2,) * max(degree, 0))),
                      lambda: TorsionCocycle.from_vector(g, degree, n, [0] * max(degree, 0))):
            with pytest.raises(ValueError, match="degree must be at least 0|modulus N must be at least 1"):
                build()

    def test_make_refuses_a_tuple_given_twice(self):
        g = cyclic(2)
        with pytest.raises(ValueError, match=r"tuple \(1, 1, 1\) is given twice"):
            TorsionCocycle.make(g, 3, 2, [((1, 1, 1), 1), ((1, 1, 1), 0)])
        with pytest.raises(ValueError, match=r"tuple \(0, 1, 1\) is given twice"):
            TorsionCocycle.make(g, 3, 2, [((0, 1, 1), 0), ((0, 1, 1), 0)])

    def test_resource_guard_names_dimension(self):
        with pytest.raises(ResourceLimit, match="differential matrix"):
            cohomology_group(build_group("S4"), 4, 2)


class TestU1Cohomology:
    @pytest.mark.parametrize(
        "g, k, factors",
        [
            (cyclic(2), 3, (2,)),
            (cyclic(3), 3, (3,)),
            (cyclic(4), 3, (4,)),
            (cyclic(1), 3, ()),
            (cyclic(2), 2, ()),
            (product(cyclic(2), cyclic(2)), 3, (2, 2, 2)),
            (symmetric(3), 3, (6,)),
        ],
    )
    def test_known_values(self, g, k, factors):
        assert u1_cohomology(g, k).invariant_factors == tuple(factors)

    @pytest.mark.parametrize("g, n", [(cyclic(2), 2), (cyclic(3), 3), (cyclic(4), 4), (cyclic(6), 6)])
    def test_mu_n_order_matches_u1_for_small_cyclics(self, g, n):
        # for Z_n with N = |G| the inflation mu_N -> U(1) is injective on H^3
        assert cohomology_group(g, 3, n).order == u1_cohomology(g, 3).order

    def test_bad_degree(self):
        with pytest.raises(GroupError):
            u1_cohomology(cyclic(2), 4)


@pytest.mark.parametrize("case", FROZEN, ids=lambda c: f"{c['group']}-k{c['k']}")
def test_matches_frozen_outputs(case):
    """Invariant factors and generator orders recorded before the SNF kernels were merged."""
    g = build_group(case["group"])
    h = cohomology_group(g, case["k"], case["n"])
    assert list(h.invariant_factors) == case["invariant_factors"]
    assert list(h.generator_orders) == case["generator_orders"]
    if "u1_invariant_factors" in case:
        assert list(u1_cohomology(g, case["k"]).invariant_factors) == case["u1_invariant_factors"]


class TestTransgression:
    def test_zero_in_zero_out(self):
        g = symmetric(3)
        z = TorsionCocycle.make(g, 3, 6, {})
        tau, cent, _ = transgress(z, 1)
        assert tau.is_zero()

    def test_z2_nontrivial_class(self):
        g = cyclic(2)
        om = cohomology_group(g, 3, 2).representatives[0]
        tau, cent, _ = transgress(om, 1)
        assert cent.order == 2
        # golden: tau(g, g) = 1, a non-coboundary (the nontrivial class)
        assert tau.values == (((1, 1), 1),)
        assert not is_coboundary(tau)

    def test_s3_transposition_output_closed(self):
        g = symmetric(3)
        om = cohomology_group(g, 3, 6).representatives[0]
        transposition = next(x for x in g.elements() if g.element_orders[x] == 2)
        tau, cent, _ = transgress(om, transposition)
        assert cent.order == 2
        assert is_cocycle(tau)[0]

    def test_requires_closed_input(self):
        g = cyclic(3)
        c = TorsionCocycle.make(g, 3, 3, {(1, 1, 1): 1})
        ok, _ = is_cocycle(c)
        if not ok:
            with pytest.raises(ValueError, match="not closed"):
                transgress(c, 1)

    @pytest.mark.parametrize("g_elem", [0, 1, 2, 3])
    def test_v4_all_transgressions_closed(self, g_elem):
        v4 = product(cyclic(2), cyclic(2))
        for rep in cohomology_group(v4, 3, 2).representatives:
            tau, cent, _ = transgress(rep, g_elem)
            assert is_cocycle(tau)[0]

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(("S3", "Z2xZ2", "D4", "Q8", "Z4")), st.data())
    def test_cohomologous_inputs_give_cohomologous_outputs(self, name, data):
        # tau_a(omega + d beta) - tau_a(omega) is exact on C(a), for every a
        g = build_group(name)
        omega = TorsionCocycle.make(g, 3, g.order, {})
        for rep in cohomology_group(g, 3, g.order).representatives:
            omega = omega + _times(rep, data.draw(st.integers(0, g.order - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shifted = omega + coboundary(random_cochain(g, 2, g.order, rng))
        for a in g.elements():
            tau, cent, _ = transgress(omega, a)
            moved, moved_cent, _ = transgress(shifted, a)
            assert moved_cent == cent
            assert is_coboundary(moved + _times(tau, -1))


class TestCocycleType:
    def test_normalization_enforced(self):
        g = cyclic(2)
        with pytest.raises(ValueError, match="normalized"):
            TorsionCocycle.make(g, 2, 2, {(0, 1): 1})

    def test_numpy_values_stored_as_int(self):
        c = TorsionCocycle.make(cyclic(2), 3, 2, {(1, 1, 1): np.int64(1)})
        assert type(c(1, 1, 1)) is int
        json.dumps(dump_cocycle(c))

    def test_inflation(self):
        g = cyclic(2)
        c = TorsionCocycle.make(g, 3, 2, {(1, 1, 1): 1})
        c4 = c.inflated(4)
        assert c4.n == 4 and c4(1, 1, 1) == 2

    def test_addition_refuses_operands_of_another_shape(self):
        c = TorsionCocycle.make(cyclic(2), 3, 2, {(1, 1, 1): 1})
        with pytest.raises(ValueError, match="share group, degree and N"):
            c + c.inflated(4)

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_addition(self, a, b):
        g = cyclic(3)
        c1 = TorsionCocycle.make(g, 1, 6, {(1,): a, (2,): b})
        c2 = TorsionCocycle.make(g, 1, 6, {(1,): b})
        s = c1 + c2
        assert s(1) == (a + b) % 6 and s(2) == b % 6
