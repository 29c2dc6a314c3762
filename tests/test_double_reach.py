"""The untwisted double of A5, an explicit order-60 table with no preset.

Its 22 simples are the 5 irreps of A5 over the identity class, and the
irreps of the centralizers Z5, Z5, V4 and Z3 over the two classes of
5-cycles, the class of double transpositions and the class of 3-cycles.
The closedness of omega is evaluated once: one pass over the 60 slabs of
its first argument, whatever the number of classes that transgress it.
Ungauging D(A5) by its Rep(A5) gives back Vec(A5): one block per class,
each split into |class| simples of dim 1.
"""

import itertools
import time

from gxcat import chartab, cohomology
from gxcat.cohomology import TorsionCocycle
from gxcat.exact import QuadReal
from gxcat.gauging import crossed_product
from gxcat.groups import build_group
from gxcat.modular import twisted_double


def alternating5():
    """The even permutations of 0..4 in lexicographic order, (ab)(x) = a(b(x))."""
    perms = [p for p in itertools.permutations(range(5))
             if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(a[b[x]] for x in range(5))] for b in perms] for a in perms]
    return build_group({"name": "A5", "order": 60, "mul": mul})


def test_a5_double(monkeypatch):
    g = alternating5()
    omega = TorsionCocycle.make(g, 3, g.order, {})
    real, slabs = cohomology._slab, []
    monkeypatch.setattr(cohomology, "_slab", lambda c, a: slabs.append(c.degree) or real(c, a))
    d = twisted_double(g, omega)
    assert slabs.count(3) == g.order
    dims = [int(x) for x in d.dims]
    assert len(dims) == 22
    assert dims[:5] == [1, 3, 3, 4, 5]
    assert sorted(dims[5:]) == [12] * 10 + [15] * 4 + [20] * 3
    assert sum(x * x for x in dims) == g.order**2
    assert d.s_matrix is not None


def test_a5_double_ungauged_by_rep_a5():
    g = alternating5()
    fusion = twisted_double(g, TorsionCocycle.make(g, 3, g.order, {})).fusion
    labels = chartab.rep_fusion_data(g)[0]
    start = time.perf_counter()
    cp = crossed_product(fusion, {la: f"(e;{k})" for k, la in enumerate(labels)}, group=g)
    assert time.perf_counter() - start < 2
    assert all(b["resolved"] for b in cp.blocks) and len(cp.blocks) == 5
    dims = [s["dim"] for b in cp.blocks for s in b["simples"]]
    assert len(dims) == 60 and all(d == QuadReal(1) for d in dims)
    assert cp.output_ring is None  # the end dims of the nontrivial classes exceed 1
