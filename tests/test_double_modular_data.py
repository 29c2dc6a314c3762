"""Modular data of nonabelian twisted doubles, judged without the S sum.

* The Dijkgraaf-Pasquier-Roche fusion from induced characters
  (``dpr_oracle``) equals the Verlinde fusion ring of ``twisted_double`` on
  every class of H^3(G, mu_|G|) for S3, Q8, D4 and D5, and on two classes
  of D6 pulled back from S3, and S is the
  balancing identity S_ij = |G|^-1 T_i^-1 T_j^-1 sum_k N_{i* j}^k T_k d_k of
  that fusion; S is symmetric, (ST)^3 = S^2 and sum_i d_i^2 T_i = |G|.
* Goff, Mason and Ng (J. Algebra 312, 2007): the doubles of 7 of the 31
  twisted classes of D4 and of 1 of the 7 of Q8 match a double of
  Z2xZ2xZ2 at N = 2, up to relabeling, in dims, T and S.  A search over
  all 512 classes of H^3(Z2xZ2xZ2, mu_2) with 22 simples found exactly
  these; one partner of each is pinned here.
"""

import numpy as np
import pytest

from cyc_oracle import Cyc
from dpr_oracle import dpr_fusion, h3_class, h3_classes
from relabel import match, modular_data
from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.groups import build_group, quotient
from gxcat.pointed import twisted_double


def _judge(g, omega):
    """The DPR fusion, the balancing identity, symmetry, (ST)^3 = S^2 and the
    Gauss sum against twisted_double(g, omega), to 1e-9."""
    d = twisted_double(g, omega)
    n = d.fusion.tensor()
    assert np.abs(dpr_fusion(g, omega) - n).max() < 1e-9
    s = np.array([[complex(Cyc.of(v)) for v in row] for row in d.s_matrix])
    t = np.array([complex(Cyc.of(x["t"])) for x in d.simples])
    dims = np.array(d.dims)
    dual = n[:, :, 0].argmax(axis=1)  # N_{i j}^0 = 1 exactly at j = i*
    balanced = np.einsum("ijk,k->ij", n[dual], t * dims) / (g.order * np.outer(t, t))
    assert np.abs(s - balanced).max() < 1e-9
    assert np.abs(s - s.T).max() < 1e-9
    st = s * t
    assert np.abs(st @ st @ st - s @ s).max() < 1e-9
    assert abs((dims**2 * t).sum() - g.order) < 1e-9


@pytest.mark.parametrize("name, classes", [("S3", 6), ("Q8", 8), ("D4", 32), ("D5", 10)])
def test_induced_character_fusion_and_balancing_judge_s(name, classes):
    g = build_group(name)
    seen = 0
    for _, omega in h3_classes(g):
        _judge(g, omega)
        seen += 1
    assert seen == classes


@pytest.mark.parametrize("k", [1, 2])
def test_induced_character_fusion_and_balancing_judge_s_on_d6(k):
    """D6 with k times the generator of H^3(S3, mu_6), pulled back along
    D6 -> D6/Z(D6) = S3: reading the pair phase at (a, b) in place of the
    commuting pair (a, x) makes this Verlinde fusion non-integral, while on
    Q8, D4 and D5 the two readings give the same S."""
    g = build_group("D6")
    center = [z for z in g.elements() if all(g.mul[z][h] == g.mul[h][z] for h in g.elements())]
    q, coset = quotient(g, center)
    assert q.order == 6 and not q.is_abelian
    rep = cohomology_group(q, 3, 6).representatives[0]
    c = [coset[x] for x in g.elements()]
    _judge(g, TorsionCocycle.from_table(g, 3, 12, 2 * k * rep.table[np.ix_(c, c, c)]))


# (group, class coefficients over H^3(G, mu_|G|), class coefficients over H^3(Z2xZ2xZ2, mu_2))
GOFF_MASON_NG = [
    ("D4", (0, 0, 1, 2), (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("D4", (0, 1, 0, 2), (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("D4", (0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 0, 0, 1)),
    ("D4", (1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    ("D4", (1, 0, 1, 2), (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("D4", (1, 1, 0, 2), (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("D4", (1, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 0, 0, 1)),
    ("Q8", (4,), (0, 0, 0, 0, 1, 0, 1, 1, 0, 0)),
]


@pytest.mark.parametrize("name, coefficients, partner", GOFF_MASON_NG)
def test_twisted_double_matches_a_double_of_z2_cubed(name, coefficients, partner):
    g, z = build_group(name), build_group("Z2xZ2xZ2")
    omega = h3_class(g, g.order, coefficients)
    assert not omega.is_zero()
    d = twisted_double(g, omega)
    assert match(modular_data(d), modular_data(twisted_double(z, h3_class(z, 2, partner)))) is not None
