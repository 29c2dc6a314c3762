import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyc_oracle import Cyc
from gxcat import pointed
from gxcat.chartab import (
    character_table,
    projective_irrep_dims,
    rep_fusion_data,
)
from gxcat.cohomology import TorsionCocycle
from gxcat.errors import GroupError
from gxcat.fusion import pointed_ring
from gxcat.groups import (
    PRESETS,
    FiniteGroup,
    abelian_characters,
    build_group,
    compose,
    conjugacy_data,
    cyclic,
    dihedral,
    homomorphism_witness,
    product,
    quaternion8,
    subgroup,
    symmetric,
)


def brute_conjugacy_classes(g):
    """Independent oracle: orbits of x under t x t^{-1} over all t."""
    remaining = set(g.elements())
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {g.mul[g.mul[t][x]][g.inv[t]] for t in g.elements()}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return classes


class TestBuildGroup:
    def test_trivial(self):
        assert build_group("Z1").order == 1

    @pytest.mark.parametrize(
        "preset, order, abelian",
        [
            ("Z2", 2, True),
            ("Z6", 6, True),
            ("Z2xZ2", 4, True),
            ("S3", 6, False),
            ("S4", 24, False),
            ("D4", 8, False),
            ("Q8", 8, False),
        ],
    )
    def test_presets(self, preset, order, abelian):
        g = build_group(preset)
        assert g.order == order
        assert g.is_abelian == abelian

    def test_corrupted_table_names_triple(self):
        mul = [list(r) for r in cyclic(4).mul]
        mul[2][3] = 0  # should be 1
        with pytest.raises(GroupError, match="associativity fails on triple"):
            build_group({"name": "bad", "mul": mul})

    def test_missing_identity(self):
        with pytest.raises(GroupError, match="identity"):
            build_group([[1, 0], [0, 1]])

    def test_missing_inverse_names_element(self):
        # associative with identity, but x1 absorbs: a monoid, not a group
        with pytest.raises(GroupError, match="element 1 has no inverse"):
            build_group([[0, 1], [1, 1]])

    def test_unknown_preset(self):
        with pytest.raises(GroupError, match="unknown group preset"):
            build_group("M24")

    def test_duplicate_element_names_are_refused(self):
        with pytest.raises(GroupError, match="Z2: element name 'e' is given twice"):
            FiniteGroup("Z2", ((0, 1), (1, 0)), ("e", "e"))

    def test_product_with_a_dotted_right_factor_has_distinct_names(self):
        v4 = build_group("Z2xZ2")
        g = product(v4, v4)
        assert g.element_names[2] == "e.(g.e)" and g.element_names[4] == "e.g.e"
        assert len(set(g.element_names)) == g.order == 16
        assert pointed_ring(g).rank == 16
        # a left-nested product keeps its dotted names
        assert product(v4, cyclic(2)).element_names == ("e", "e.g", "e.g.e", "e.g.g", "g.e.e", "g.e.g", "g.g.e", "g.g.g")


class TestGroupTables:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_tables_match_the_definitions(self, name):
        g = build_group(name)
        for t in g.elements():
            for x in g.elements():
                assert g.conj_array[t, x] == g.mul[g.mul[t][x]][g.inv[t]] == g.conj(t, x)
        for x in g.elements():
            k, y = 1, x
            while y != 0:
                y, k = g.mul[y][x], k + 1
            assert g.element_orders[x] == k

    def test_tables_are_read_only(self):
        g = symmetric(3)
        for table in (g.conj_array, g.element_orders):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_non_group_table_has_no_orders(self):
        g = FiniteGroup("bad", ((0, 1), (1, 1)), ("e", "x"))  # x x = x never reaches e
        with pytest.raises(GroupError, match="no finite order"):
            g.element_orders


class TestConjugacy:
    @pytest.mark.parametrize("g", [cyclic(3), cyclic(6), symmetric(3), quaternion8(), dihedral(4), symmetric(4)])
    def test_against_brute_force(self, g):
        data = conjugacy_data(g)
        assert list(data.classes) == brute_conjugacy_classes(g)
        assert sum(len(c) for c in data.classes) == g.order
        for c, z in zip(data.classes, data.centralizers):
            assert len(c) * len(z) == g.order

    def test_cyclic3_all_singletons(self):
        data = conjugacy_data(cyclic(3))
        assert [len(c) for c in data.classes] == [1, 1, 1]
        assert all(len(z) == 3 for z in data.centralizers)

    def test_s3_sizes(self):
        data = conjugacy_data(symmetric(3))
        assert sorted(len(c) for c in data.classes) == [1, 2, 3]
        assert sorted(len(z) for z in data.centralizers) == [2, 3, 6]

    def test_q8_sizes(self):
        data = conjugacy_data(quaternion8())
        assert sorted(len(c) for c in data.classes) == [1, 1, 2, 2, 2]


class TestAbelianCharacters:
    def test_trivial_group(self):
        assert len(abelian_characters(cyclic(1), 5)) == 1

    def test_s3_has_two(self):
        chars = abelian_characters(symmetric(3), 2)
        assert len(chars) == 2
        values = {c.values for c in chars}
        assert (0,) * 6 in values

    def test_z3(self):
        chars = abelian_characters(cyclic(3), 3)
        assert len(chars) == 3

    def test_wrong_modulus_reports_exponent(self):
        with pytest.raises(GroupError, match="multiple of the abelianization exponent 3"):
            abelian_characters(cyclic(3), 2)

    def test_adding_characters_of_different_moduli_is_refused(self):
        # a GroupError (exit 1), also under python -O
        a, b = abelian_characters(cyclic(2), 2)[1], abelian_characters(cyclic(2), 4)[1]
        with pytest.raises(GroupError, match="Z/2 and Z/4"):
            a.add(b)

    @pytest.mark.parametrize("g, n", [(cyclic(4), 4), (product(cyclic(2), cyclic(4)), 4), (symmetric(3), 6)])
    def test_group_closure(self, g, n):
        chars = abelian_characters(g, n)
        table = {c.values for c in chars}
        for c1, c2 in itertools.product(chars, repeat=2):
            assert c1.add(c2).values in table
        # homomorphism property
        for c in chars:
            for x, y in itertools.product(g.elements(), repeat=2):
                assert c(g.mul[x][y]) == (c(x) + c(y)) % n


class TestCharacterTables:
    @pytest.mark.parametrize(
        "g, dims",
        [
            (cyclic(1), [1]),
            (cyclic(5), [1] * 5),
            (symmetric(3), [1, 1, 2]),
            (symmetric(4), [1, 1, 2, 3, 3]),
            (quaternion8(), [1, 1, 1, 1, 2]),
            (dihedral(4), [1, 1, 1, 1, 2]),
            (dihedral(5), [1, 1, 2, 2]),
        ],
    )
    def test_known_dims(self, g, dims):
        assert sorted(character_table(g).dims) == sorted(dims)

    def test_sum_of_squares(self):
        for g in [cyclic(6), symmetric(4), quaternion8()]:
            assert sum(d * d for d in character_table(g).dims) == g.order

    def test_s3_table_values(self):
        tab = character_table(symmetric(3))
        # columns: classes of sizes 1, 3, 2 in least-representative order
        assert tab.class_sizes == (1, 3, 2)
        rows = {tuple(Cyc.from_ints(tab.m, v).as_rational() for v in row) for row in tab.coef.tolist()}
        assert (1, 1, 1) in rows  # trivial
        assert (1, -1, 1) in rows  # sign
        assert (2, 0, -1) in rows  # standard

    def test_rep_fusion_s3(self):
        labels, dims, coeffs, duals = rep_fusion_data(symmetric(3))
        assert dims == [1, 1, 2]
        assert duals == [0, 1, 2]
        std = 2
        assert coeffs[(std, std, 0)] == 1
        assert coeffs[(std, std, 1)] == 1
        assert coeffs[(std, std, std)] == 1
        sgn = 1
        assert coeffs[(sgn, std, std)] == 1


class TestProjectiveIrreps:
    def test_trivial_cocycle_is_ordinary(self):
        assert projective_irrep_dims(cyclic(2), TorsionCocycle.make(cyclic(2), 2, 2, {})) == [1, 1]
        assert projective_irrep_dims(symmetric(3), TorsionCocycle.make(symmetric(3), 2, 6, {})) == [1, 1, 2]

    def test_v4_nontrivial_class(self):
        # bilinear 2-cocycle alpha(x, y) = x_2 * y_1 on Z2xZ2 (extension D4)
        alpha = {(x, y): (x % 2) * (y // 2) for x in range(4) for y in range(4) if (x % 2) * (y // 2)}
        v4 = product(cyclic(2), cyclic(2))
        assert projective_irrep_dims(v4, TorsionCocycle.make(v4, 2, 2, alpha)) == [2]

    def test_semion_flavour(self):
        # tau(g,g) = 1 mod 2 on Z2: extension Z4, two faithful characters
        assert projective_irrep_dims(cyclic(2), TorsionCocycle.make(cyclic(2), 2, 2, {(1, 1): 1})) == [1, 1]

    def test_sum_rule_random_coboundaries(self):
        import random

        rng = random.Random(7)
        g = symmetric(3)
        n = 6
        for _ in range(5):
            lam = {x: rng.randrange(n) for x in range(1, g.order)}
            lam[0] = 0
            alpha = {}
            for x in range(1, g.order):
                for y in range(1, g.order):
                    v = (lam[y] - lam[g.mul[x][y]] + lam[x]) % n
                    if v:
                        alpha[(x, y)] = v
            dims = projective_irrep_dims(g, TorsionCocycle.make(g, 2, n, alpha))
            assert sum(d * d for d in dims) == g.order
            # coboundary twist must not change the dimension multiset
            assert dims == [1, 1, 2]

    def test_non_cocycle_rejected(self):
        bad = {(1, 1): 1, (1, 2): 1}
        with pytest.raises(ValueError, match="2-cocycle"):
            projective_irrep_dims(cyclic(4), TorsionCocycle.make(cyclic(4), 2, 4, bad))

    def test_central_order_cap(self):
        # the coboundary of lambda = 1 on non-identity elements is a valid
        # cocycle with gcd-1 values; at N = 24 the extension would have
        # order 576, over the cap
        g = build_group("S4")
        alpha = {
            (x, y): 2 - (1 if g.mul[x][y] != 0 else 0)
            for x in range(1, g.order)
            for y in range(1, g.order)
        }
        with pytest.raises(GroupError, match="central extension order"):
            projective_irrep_dims(g, TorsionCocycle.make(g, 2, 24, alpha))


class TestSubgroups:
    def test_centralizer_subgroup_roundtrip(self):
        g = symmetric(3)
        data = conjugacy_data(g)
        for rep, cent in zip(data.reps, data.centralizers):
            sub, embed = subgroup(g, cent)
            assert sub.order == len(cent)
            assert embed[0] == 0


ORDER_8 = [name for name in sorted(PRESETS) if build_group(name).order <= 8]


def brute_witness(mul, images, product):
    """Independent oracle: every failing pair listed, the first one kept."""
    n = len(mul)
    bad = [(a, b) for a in range(n) for b in range(n) if images[mul[a][b]] != product(images[a], images[b])]
    return bad[0] if bad else None


@st.composite
def structure_maps(draw):
    """(table, images, product, built): a map from a preset of order <= 8,
    into a preset's table or into permutations under compose.  built is
    True for a homomorphism by construction (trivial, identity, a power map
    of an abelian group, the left regular representation); random images
    and one changed image are the other cases."""
    g = build_group(draw(st.sampled_from(ORDER_8)))
    kind = draw(st.sampled_from(["table", "permutations", "trivial", "identity", "power", "regular"]))
    if kind == "table":
        h = build_group(draw(st.sampled_from(ORDER_8)))
        images = draw(st.lists(st.integers(0, h.order - 1), min_size=g.order, max_size=g.order))
        return g.mul, images, lambda x, y: h.mul[x][y], False
    if kind == "permutations":
        perms = st.permutations(range(draw(st.integers(1, 4)))).map(tuple)
        return g.mul, draw(st.lists(perms, min_size=g.order, max_size=g.order)), compose, False
    if kind == "regular":  # x -> left multiplication by x, into Sym(G)
        images, product = [tuple(row) for row in g.mul], compose
    elif kind == "power" and g.is_abelian:
        power = draw(st.integers(0, 8))
        images = [0] * g.order
        for x in g.elements():
            for _ in range(power):
                images[x] = g.mul[images[x]][x]
        product = lambda x, y: g.mul[x][y]
    else:  # the power map of a nonabelian group falls back to the identity
        images = [0] * g.order if kind == "trivial" else list(g.elements())
        product = lambda x, y: g.mul[x][y]
    if draw(st.booleans()):
        return g.mul, images, product, True
    at = draw(st.integers(0, g.order - 1))
    images = list(images)
    if product is compose:
        images[at] = compose(images[at], tuple(draw(st.permutations(range(g.order)))))
    else:
        images[at] = draw(st.integers(0, g.order - 1))
    return g.mul, images, product, False


class TestHomomorphismWitness:
    @settings(max_examples=400, deadline=None)
    @given(structure_maps())
    def test_witness_is_the_first_failing_pair(self, case):
        mul, images, product, built = case
        got = homomorphism_witness(mul, images, product)
        assert got == brute_witness(mul, images, product)
        is_hom = all(images[mul[a][b]] == product(images[a], images[b]) for a in range(len(mul)) for b in range(len(mul)))
        assert (got is None) == is_hom
        if built:
            assert got is None

    def test_compose_applies_the_right_factor_first(self):
        assert compose((1, 2, 0), (0, 2, 1)) == (1, 0, 2)  # x -> p[q[x]]
        s3 = symmetric(3)
        perms = sorted(itertools.permutations(range(3)))
        assert all(perms[s3.mul[a][b]] == compose(perms[a], perms[b]) for a in range(6) for b in range(6))

    @pytest.mark.parametrize("name", [name for name in ORDER_8 if build_group(name).order <= 6])
    def test_automorphisms_are_the_brute_force_aut(self, name):
        g = build_group(name)
        brute = [p for p in itertools.permutations(g.elements())
                 if all(p[g.mul[x][y]] == g.mul[p[x]][p[y]] for x in g.elements() for y in g.elements())]
        assert pointed._automorphisms(g) == brute
