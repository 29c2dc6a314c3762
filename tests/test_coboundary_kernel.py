"""The coboundary kernel against the flat-index kernel it replaced
(``reference_coboundary.py``) and against the textbook formula.

On every preset up to order 8 and on S4, at degrees 0 to 3 (and 4 on Z2xZ2
and Z4): the same ``coboundary`` table, the same ``is_cocycle`` verdict and
witness (a tuple of builtin ints), and the same ``bar_matrix``, on random
cochains, on the H^3 representatives, and on those representatives with one
cell moved, whose least witness can sit past the first slab.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coboundary as ref
from gxcat.cohomology import ResourceLimit, TorsionCocycle, bar_matrix, coboundary, cohomology_group, is_cocycle
from gxcat.groups import PRESETS, build_group

SMALL = sorted(name for name in PRESETS if build_group(name).order <= 8)
CASES = [(name, k) for name in SMALL + ["S4"] for k in (0, 1, 2, 3)] + [("Z2xZ2", 4), ("Z4", 4)]
TEXTBOOK = [(name, k) for name in ("Z2", "Z3", "S3") for k in (1, 2, 3)]


@lru_cache(maxsize=None)
def group(name):
    return build_group(name)


@lru_cache(maxsize=None)
def h3_representatives(name):
    g = group(name)
    return cohomology_group(g, 3, g.order).representatives


def random_cochain(g, k, n, seed):
    values = np.random.default_rng(seed).integers(0, n, (g.order - 1,) * k)
    return TorsionCocycle.from_table(g, k, n, np.pad(values, (1, 0)) if k else values)


def assert_kernels_agree(c):
    assert np.array_equal(coboundary(c).table, ref.coboundary_table(c))
    ok, wit = is_cocycle(c)
    assert (ok, wit) == ref.is_cocycle(c)
    assert wit is None or all(type(x) is int for x in wit)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from((2, 3, 4, 6, 0)), st.integers(0, 2**32 - 1))
def test_random_cochains(case, n, seed):
    name, k = case
    g = group(name)
    assert_kernels_agree(random_cochain(g, k, n or g.order, seed))


@pytest.mark.parametrize("name", ["Z1", "Z2", "S3"])
def test_degree_zero(name):
    # a 0-cochain is a constant: both faces of dc are the constant itself
    assert_kernels_agree(TorsionCocycle.from_table(group(name), 0, 5, 3))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_h3_representatives_and_one_moved_cell(name, data):
    g = group(name)
    reps = h3_representatives(name) or (TorsionCocycle.make(g, 3, g.order, {}),)
    rep = data.draw(st.sampled_from(reps))
    assert is_cocycle(rep) == (True, None)
    assert_kernels_agree(rep)
    if g.order > 1:
        cell = data.draw(st.tuples(*[st.integers(1, g.order - 1)] * 3))
        delta = data.draw(st.integers(1, rep.n - 1)) if rep.n > 1 else 0
        moved = rep + TorsionCocycle.make(g, 3, rep.n, {cell: delta})
        assert_kernels_agree(moved)


@pytest.mark.parametrize("name, k", [(name, k) for name in SMALL for k in (0, 1, 2, 3)] + [
    ("S4", 0), ("S4", 1), ("S4", 2), ("Z2xZ2", 4), ("Z4", 4),
])
def test_bar_matrix(name, k):
    assert np.array_equal(bar_matrix(group(name), k), ref.bar_matrix(group(name), k))


def test_bar_matrix_past_the_cell_cap_is_refused():
    with pytest.raises(ResourceLimit, match="bar_matrix: differential matrix 279841x12167 exceeds the cell cap"):
        bar_matrix(group("S4"), 3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TEXTBOOK), st.sampled_from((2, 3, 6)), st.integers(0, 2**32 - 1))
def test_textbook_formula(case, n, seed):
    name, k = case
    c = random_cochain(group(name), k, n, seed)
    want = ref.textbook_coboundary(c)
    assert np.array_equal(coboundary(c).table, want)
    assert np.array_equal(ref.coboundary_table(c), want)


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3"])
def test_textbook_formula_on_h3_representatives(name):
    for rep in h3_representatives(name):
        assert not ref.textbook_coboundary(rep).any()
