"""Projective irreps of abelian groups from one lattice coset, against the
central-extension character tables that nonabelian groups still use.

* The oracle: ``projective_irrep_data`` (the lattice route on abelian h)
  equals ``_extension_irreps`` (the character table of the central
  extension) on every abelian preset of order <= 12 at N in {2, 3, 4, 6}:
  for alpha = 0, each representative of H^2(H, mu_N) and one coboundary
  shift of it.  The reduced N, the dims, every section value with its n and
  the order of the irreps must agree.
* Reach: nondegenerate bicharacters whose extensions are over
  EXTENSION_ORDER_CAP.
* Routing: abelian centralizers build no extension, nonabelian ones do.
* Cohomologous cocycles give isomorphic twisted doubles: the same
  (class, dim, T), and the same dims, T and S up to relabeling.
"""

import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxcat.chartab as chartab
from cyc_oracle import Cyc
from dpr_oracle import h3_class
from relabel import match, modular_data
from gxcat.chartab import EXTENSION_ORDER_CAP, _extension_irreps, projective_irrep_data, projective_irrep_dims
from gxcat.cohomology import TorsionCocycle, coboundary, cohomology_group
from gxcat.cyclo import reduction_matrix
from gxcat.errors import GroupError
from gxcat.groups import PRESETS, build_group, cyclic, product
from gxcat.modular import twisted_double

ABELIAN = sorted(name for name in PRESETS if build_group(name).order <= 12 and build_group(name).is_abelian)


def record(data):
    """The reduced N, the dims, the m of zeta_m and every section value mod Phi_m."""
    dims, sections, n = data
    m = sections.shape[-1]
    return n, list(dims), m, (sections @ reduction_matrix(m)).tolist()


def shifted(alpha, rng):
    """alpha + d(beta) for a random normalized 1-cochain beta."""
    h = alpha.group
    beta = [0] + [rng.randrange(alpha.n) for _ in range(h.order - 1)]
    return alpha + coboundary(TorsionCocycle.from_table(h, 1, alpha.n, beta))


@pytest.mark.parametrize("name", ABELIAN)
def test_lattice_route_matches_extension_tables(name):
    h = build_group(name)
    rng = random.Random(name)
    for n in (2, 3, 4, 6):
        assert h.order * n <= EXTENSION_ORDER_CAP  # no case needs a skip
        reps = cohomology_group(h, 2, n).representatives
        cases = [TorsionCocycle.make(h, 2, n, {})] + [c for rep in reps for c in (rep, shifted(rep, rng))]
        for alpha in cases:
            assert record(projective_irrep_data(h, alpha)) == record(_extension_irreps(h, alpha)), (n, alpha.values)


# the Pauli cocycle on Z2xZ2 = {e, X, Z, Y} mod 4: s(X)s(Z) = i^3 s(Y), ...
PAULI = np.array([[0, 0, 0, 0], [0, 0, 3, 1], [0, 1, 0, 3], [0, 3, 1, 0]])
# the coboundary of the section s(UV) = -uv of <U> x <V> in a commuting Z4 extension
MINUS_UV = np.array([[0, 0, 0, 0], [0, 0, 2, 2], [0, 2, 0, 2], [0, 2, 2, 0]])


def test_lattice_route_when_every_section_squares_to_the_identity():
    """alpha(x, x) = 0 for all x, so every (x, 0) has the order of x and the
    exponent of the extension is N = 4 itself, the order of (e, 1)."""
    klein = product(cyclic(2), cyclic(2))
    h = product(klein, klein)  # the Pauli group times <U> x <V>
    x = np.arange(h.order)
    cases = [
        (klein, TorsionCocycle.from_table(klein, 2, 4, PAULI)),
        (h, TorsionCocycle.from_table(h, 2, 4, PAULI[np.ix_(x // 4, x // 4)] + MINUS_UV[np.ix_(x % 4, x % 4)])),
    ]
    for g, alpha in cases:
        got = record(projective_irrep_data(g, alpha))
        assert got == record(_extension_irreps(g, alpha))
        assert got[0] == 4 and got[2] == 4
    # on the radical {e, U, V, UV} the sections are 2 zeta_4^phi with phi(UV) = phi(U) + phi(V) + 2
    for section in projective_irrep_data(*cases[1])[1]:
        u, v, uv = (Cyc.from_ints(4, section[k].tolist()) for k in (2, 1, 3))
        assert uv + uv == -(u * v)


def bicharacter(k):
    """alpha(x, y) = x_1 y_2 on Z_k x Z_k: nondegenerate, one irrep of dimension k."""
    h = product(cyclic(k), cyclic(k))
    x = np.arange(h.order)
    return h, TorsionCocycle.from_table(h, 2, k, np.outer(x // k, x % k))


@pytest.mark.parametrize("k", [6, 7])
def test_nondegenerate_bicharacter_over_the_extension_cap(k):
    h, alpha = bicharacter(k)
    assert projective_irrep_dims(h, alpha) == [k]
    with pytest.raises(GroupError, match="central extension order"):
        _extension_irreps(h, alpha)  # order k^3 > EXTENSION_ORDER_CAP


def test_only_nonabelian_centralizers_build_extensions(monkeypatch):
    built = []
    real = chartab.central_extension

    def counting(h, values, n, name=None):
        built.append(h)
        return real(h, values, n, name)

    monkeypatch.setattr(chartab, "central_extension", counting)
    for name, n in (("Z2xZ2", 2), ("Z4", 4), ("Z3", 3)):
        g = build_group(name)
        for omega in cohomology_group(g, 3, n).representatives:
            twisted_double(g, omega)
    assert built == []
    d4 = build_group("D4")
    twisted_double(d4, cohomology_group(d4, 3, 8).representatives[0])
    # C(r2) = D4 carries a nontrivial transgression; C(e) = D4 an untwisted one
    assert [(h.order, h.is_abelian) for h in built] == [(8, False)]


GROUPS = ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"]


@lru_cache(maxsize=None)
def h3(name):
    g = build_group(name)
    return g, cohomology_group(g, 3, g.order).representatives


def spectrum(double):
    """Multiset of (class representative, irrep dim, T) with T an exact Cyc."""
    return Counter((s["class_rep"], s["irrep_dim"], s["t"]) for s in double.simples)


@lru_cache(maxsize=None)
def combination(name, coefficients):
    """The sum of coefficient times representative over H^3(G, mu_|G|), and its double."""
    g = build_group(name)
    omega = h3_class(g, g.order, coefficients)
    return omega, twisted_double(g, omega)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_cohomologous_cocycles_give_the_same_double(name, data):
    g, reps = h3(name)
    n = g.order
    omega, want = combination(name, tuple(data.draw(st.integers(0, n - 1)) for _ in reps))
    cells = data.draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
    beta = np.zeros((n, n), dtype=np.int64)
    beta[1:, 1:] = np.reshape(cells, (n - 1, n - 1))
    got = twisted_double(g, omega + coboundary(TorsionCocycle.from_table(g, 2, n, beta)))
    assert spectrum(got) == spectrum(want)
    assert match(modular_data(want), modular_data(got)) is not None
