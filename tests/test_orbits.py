"""One orbit primitive and one lattice enumerator.

``groups.orbit_labels`` and ``snf.lattice_points`` against the loops they
replaced (``orbit_oracles.py``): conjugacy classes, cosets and characters
on every preset, orbit partitions on relabeled groups, and the orbits of
the holomorphic enumeration against the closure it ran before.  Then the
paper's equivalence Rep A^G = D^w(G)-mod for a holomorphic A, read on
simples: equivariantizing the pointed ring of G under conjugation, with
the transgressed stabilizer cocycles, gives the simples of the twisted
double.  Last, the memory bound of ``chartab.character_sums``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_oracles import (
    characters_bfs,
    closure_orbits,
    commutator_subgroup,
    conjugacy_loop,
    orbits_loop,
    quotient_loop,
    relabel,
)
from gxcat.cohomology import ResourceLimit, TorsionCocycle, cohomology_group, transgress
from gxcat.corpus import load_entry
from gxcat.exact import QuadReal
from gxcat.fusion import RingGAction, pointed_ring
from gxcat.gauging import equivariantize
from gxcat.groups import (
    PRESETS,
    GroupError,
    abelian_characters,
    build_group,
    conjugacy_data,
    orbit_labels,
    quotient,
)
from gxcat.pointed import _gauge_moves, enumerate_holomorphic, twisted_double
from gxcat.snf import ENUM_STATE_CAP, lattice_points

CHARACTER_N = (1, 2, 3, 4, 6, 8, 12)
RELABELED = ("S3", "D4", "Q8", "Z2xZ4", "S4")


def partition(labels):
    """The orbits that labels names, each a sorted tuple, by least member."""
    labels = np.asarray(labels)
    return [tuple(np.flatnonzero(labels == i).tolist()) for i in range(labels.max(initial=-1) + 1)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_conjugacy_data_matches_the_class_loop(name):
    g = build_group(name)
    data = conjugacy_data(g)
    assert (data.classes, data.reps, data.centralizers, data.class_of) == conjugacy_loop(g)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_quotient_matches_the_coset_loop(name):
    g = build_group(name)
    center = tuple(c[0] for c in conjugacy_data(g).classes if len(c) == 1)
    for normal in (commutator_subgroup(g), center, (0,), tuple(g.elements())):
        q, cmap = quotient(g, normal)
        mul, names, want = quotient_loop(g, normal)
        assert (q.mul, q.element_names, cmap) == (tuple(map(tuple, mul)), tuple(names), want)


def test_quotient_by_a_subgroup_that_is_not_normal_is_refused():
    g = build_group("S3")  # element 1 is a transposition
    for make in (quotient, quotient_loop):
        with pytest.raises(GroupError, match="^subgroup is not normal$"):
            make(g, (0, 1))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_characters_match_the_bfs(name):
    g = build_group(name)
    for n in CHARACTER_N:
        try:
            want = characters_bfs(g, n)
        except GroupError as exc:
            with pytest.raises(GroupError) as got:
                abelian_characters(g, n)
            assert str(got.value) == str(exc)
        else:
            assert abelian_characters(g, n) == want


@st.composite
def relabelings(draw):
    g = build_group(draw(st.sampled_from(RELABELED)))
    return g, (0, *draw(st.permutations(range(1, g.order))))


@given(relabelings())
@settings(max_examples=25, deadline=None)
def test_orbit_labels_give_the_relabeled_partition(case):
    """Classes and the cosets of [G, G] of a relabeled group are the images
    of the old ones, numbered by least member, and agree with the loop."""
    g, p = case
    h = relabel(g, p)
    moved = [[p[x] for x in orbit] for orbit in partition(orbit_labels(g.conj_array)[0])]
    labels, reps = orbit_labels(h.conj_array)
    assert partition(labels) == sorted(tuple(sorted(orbit)) for orbit in moved)
    assert reps.tolist() == [orbit[0] for orbit in partition(labels)]
    assert partition(labels) == orbits_loop(h.conj_array.tolist())
    normal = sorted(p[x] for x in commutator_subgroup(g))
    cosets = partition(orbit_labels(h.mul_array[:, normal].T)[0])
    old = partition(orbit_labels(g.mul_array[:, list(commutator_subgroup(g))].T)[0])
    assert cosets == sorted(tuple(sorted(p[x] for x in c)) for c in old)


@pytest.mark.parametrize("name, n", [
    ("Z4", 3), ("Z5", 2), ("D2", 2), ("S3", 2), ("S3", 3), ("S3", 4), ("D3", 2), ("D3", 3), ("D3", 4),
])
def test_enumeration_orbits_match_the_closure(name, n):
    # D3 is S3 at other labels; at N = 2 and 4 its partition differs from
    # S3's (ROADMAP item 1a), and both must still match the closure
    g = build_group(name)
    orbits, states = enumerate_holomorphic(g, n)
    rows = {row.tobytes(): i for i, row in enumerate(states)}
    got = []
    for o in orbits:
        rep = o["representative"]
        braid = np.array(rep.braid, dtype=np.uint8)[1:, 1:].ravel()
        got.append((rows[np.concatenate([rep.assoc.to_vector().astype(np.uint8), braid]).tobytes()], o["size"]))
    assert sorted(got) == closure_orbits(states, *_gauge_moves(g, n), n)


def brute_lattice_points(a, n, rhs):
    """(counts, points) as lattice_points lists them, by trying every x in
    (Z/n)^width for each column of rhs in turn."""
    cosets = [[list(x) for x in np.ndindex((n,) * a.shape[1]) if not ((a @ np.array(x, dtype=np.int64) - r) % n).any()]
              for r in rhs.T]
    return [len(c) for c in cosets], [x for c in cosets for x in c]


def test_lattice_points_lists_each_coset_in_order():
    cases = [
        ([[1, 1, 0], [0, 2, 2]], 4, [[0, 1, 1], [0, 1, 2]]),  # the middle column is unsolvable
        ([[1, -1]], 5, [[3, 0]]),  # x0 - x1 = 3 wraps: (3, 0) + k (1, 1) is not in lexicographic order
        (np.zeros((2, 0), dtype=np.int64), 3, [[0, 1], [0, 0]]),  # zero width: one empty point, or none
        ([[2, 2]], 4, [[1, 3]]),  # no column is solvable
    ]
    for a, n, rhs in cases:
        a, rhs = np.array(a, dtype=np.int64), np.array(rhs, dtype=np.int64)
        counts, points = lattice_points(a, n, rhs)
        assert points.dtype == np.int64 and points.shape == (sum(counts), a.shape[1])
        assert (counts.tolist(), points.tolist()) == brute_lattice_points(a, n, rhs)
    with pytest.raises(ResourceLimit, match="over the enumeration cap"):
        lattice_points(np.zeros((1, 17), dtype=np.int64), 2, np.zeros((1, 1), dtype=np.int64))
    assert 2**17 > ENUM_STATE_CAP


# ---------------------------------------------------------------------------
# Rep A^G = D^w(G)-mod on simples


def gauged_holomorphic(g, omega):
    """(class rep, irrep dim, dim) of the equivariantization of the pointed
    ring of g under conjugation, each stabilizer carrying transgress(omega)."""
    action = RingGAction(g, tuple(map(tuple, g.conj_array.tolist())))
    cocycles = {g.element_names[r]: transgress(omega, r)[0] for r in conjugacy_data(g).reps}
    simples = equivariantize(pointed_ring(g), action, cocycles).simples
    assert all(s["cocycle_class"] == "supplied" for s in simples)
    return sorted((s["orbit"][0], s["irrep_dim"], s["dim"]) for s in simples)


def double_simples(g, omega):
    return sorted((s["class_rep"], s["irrep_dim"], QuadReal(s["dim"])) for s in twisted_double(g, omega).simples)


@pytest.mark.parametrize("name", sorted(name for name, make in PRESETS.items() if make().order <= 8))
def test_gauging_the_holomorphic_ring_gives_the_twisted_double(name):
    """At w = 0 and at each representative of H^3(G, mu_|G|).  The twisted
    doubles of the abelian groups of order 7 and 8 (49 and 64 simples) are
    left out: their Verlinde sums take seconds each, and the cases of order
    at most 6, the nonabelian groups of order 8 and the w = 0 cases of
    order 7 and 8 cover the same code."""
    g = build_group(name)
    omegas = [TorsionCocycle.make(g, 3, g.order, {})]
    if g.order < 7 or not g.is_abelian:
        omegas += cohomology_group(g, 3, g.order).representatives
    for omega in omegas:
        assert gauged_holomorphic(g, omega) == double_simples(g, omega)


@pytest.mark.parametrize("name", ["cocycle_Z2_h3_0", "cocycle_Z3_h3_0", "cocycle_Z4_h3_0"]
                         + [f"cocycle_Z2xZ2_h3_{i}" for i in range(4)])
def test_gauging_matches_the_double_on_corpus_cocycles(name):
    omega = load_entry(name)
    assert gauged_holomorphic(omega.group, omega) == double_simples(omega.group, omega)


# ---------------------------------------------------------------------------
# character_sums memory


def test_verlinde_sum_of_an_81_simple_double_stays_in_blocks():
    """D^w(Z3xZ3) has 81 simples.  Evaluated in one block, its Verlinde sum
    held about eight 81^3 int64 temporaries, a traced peak of 35.6 MB
    above entry; in blocks only the values and the mask are full size."""
    g = build_group("Z3xZ3")
    omega = cohomology_group(g, 3, 3).representatives[0]
    twisted_double(build_group("Z3"), load_entry("cocycle_Z3_h3_0"))  # character tables, imports
    tracemalloc.start()
    try:
        double = twisted_double(g, omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(double.simples) == 81 and double.fusion is not None
    assert peak < 25e6
