"""The hexagon solver on orbit coordinates against the dense solver it
replaced (``dense_hexagons.py``): the same closed invariant associators, the
same sorted braid tables per associator, the same holo-crossed output and
the same gauge system, on relabeled groups too."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_hexagons import (
    cocycles,
    dense_braid_system,
    dense_braid_tables,
    dense_invariant_associators,
    dense_invariant_system,
    invariance_rows,
)
from gxcat import pointed
from gxcat.cohomology import ResourceLimit, TorsionCocycle, bar_matrix
from gxcat.groups import PRESETS, build_group, orbit_labels
from gxcat.pointed import (
    _braid_system,
    _braid_tables,
    _cell_images,
    _conjugation_action,
    _invariant_associators,
    enumerate_holomorphic,
    holomorphic_crossed,
)
from gxcat.snf import ENUM_STATE_CAP, kernel_mod

RELABELED = ("S3", "D4", "Q8", "Z4", "Z2xZ2")
WORKLOAD_N = (2, 3, 4, 6)  # the N values of the benchmark's enumerate jobs


def relabel(g, p):
    """The group g with element i renamed p[i] (p fixes the identity 0)."""
    mul = [[0] * g.order for _ in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            mul[p[i]][p[j]] = p[g.mul[i][j]]
    return build_group({"name": g.name, "order": g.order, "mul": mul})


@st.composite
def relabeled_groups(draw):
    g = build_group(draw(st.sampled_from(RELABELED)))
    rest = draw(st.permutations(range(1, g.order)))
    return relabel(g, (0, *rest)), draw(st.sampled_from(WORKLOAD_N))


def associators(g, action, n):
    """The closed invariant associators the solvers are compared on.

    The orbit kernel, mapped back to the cells, must lie in the dense kernel
    and have as many points, so the two are the same set.  When the dense
    oracle can list that set, the orbit solver must list it in the same
    order, and the braid tables are compared on every member, or on every
    k-th one for k = len // 512 when the list is longer (a few thousand
    dense solves per example would take seconds); otherwise they are
    compared on the zero associator and the mapped-back orbit generators.
    """
    labels, reps = orbit_labels(_cell_images(action, 3))
    count = len(reps)
    gens, orders = kernel_mod(bar_matrix(g, 3) @ np.eye(count, dtype=np.int64)[labels], n)
    dense = dense_invariant_system(g, action)
    assert not (dense @ gens[labels] % n).any()
    assert math.prod(orders) == math.prod(kernel_mod(dense, n)[1])
    if math.prod(orders) <= ENUM_STATE_CAP:
        vectors = dense_invariant_associators(g, action, n)
        assert list(map(tuple, _invariant_associators(g, action, n).tolist())) == vectors
        return cocycles(g, n, vectors[:: max(1, len(vectors) // 512)])
    with pytest.raises(ResourceLimit):
        _invariant_associators(g, action, n)
    return cocycles(g, n, [np.zeros(len(labels), dtype=np.int64), *gens[labels].T])


@given(relabeled_groups())
@settings(max_examples=20, deadline=None)
def test_orbit_solver_matches_dense_solver(case):
    g, n = case
    action, deg = _conjugation_action(g), tuple(g.elements())
    assocs = associators(g, action, n)
    want = list(dense_braid_tables(g, dense_braid_system(g, g, deg, action), n, assocs))
    vectors = np.array([assoc.to_vector() for assoc in assocs])
    counts, tables = _braid_tables(g, _braid_system(g, deg, action), n, vectors)
    got = np.split(tables, np.cumsum(counts)[:-1])
    assert [[tuple(map(tuple, table)) for table in part.tolist()] for part in got] == want


def dense_holomorphic_crossed(group, omega):
    """(N, first braid table, number of braid tables) as holo-crossed chose
    them with the dense solver."""
    action, deg = _conjugation_action(group), tuple(group.elements())
    system = dense_braid_system(group, group, deg, action)
    for n in range(omega.n, pointed.N_CAP + 1, omega.n):
        (tables,) = dense_braid_tables(group, system, n, [omega.inflated(n)])
        if tables:
            return n, tables[0], len(tables)
    return None


@pytest.mark.parametrize("name", sorted(name for name, make in PRESETS.items() if make().order <= 8))
def test_holo_crossed_at_trivial_omega_matches_dense_solver(name):
    g = build_group(name)
    omega = TorsionCocycle.make(g, 3, g.order, {})
    data, count = holomorphic_crossed(g, omega)
    assert (data.n, data.braid, count) == dense_holomorphic_crossed(g, omega)


@pytest.mark.parametrize("name, n", [("S3", 2), ("Z4", 2)])
def test_gauge_system_is_invariance_rows_times_d2(name, n, monkeypatch):
    seen = []
    real = pointed.snf.kernel_mod
    monkeypatch.setattr(pointed.snf, "kernel_mod", lambda a, m: seen.append(a.copy()) or real(a, m))
    g0 = build_group(name)
    for g in (g0, relabel(g0, (0, *range(g0.order - 1, 0, -1)))):
        seen.clear()
        enumerate_holomorphic(g, n)
        invariance = invariance_rows(g, 3, _conjugation_action(g))
        if len(invariance):
            assert len(seen) == 1 and np.array_equal(seen[0], invariance @ bar_matrix(g, 2) % n)
        else:
            assert seen == []


def test_trivial_group_has_no_orbit_cells():
    g = build_group("Z1")
    labels, reps = orbit_labels(_cell_images(_conjugation_action(g), 2))
    assert len(labels) == 0 and len(reps) == 0
    counts, tables = _braid_tables(g, _braid_system(g, (0,), ((0,),)), 2, TorsionCocycle.make(g, 3, 2, {}).to_vector()[None])
    assert counts.tolist() == [1] and tables.tolist() == [[[0]]]
