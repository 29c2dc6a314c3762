"""Ungauging outputs frozen while crossed_product still searched for its splits.

``tests/data/gauging_frozen.json`` holds ``snapshot()`` as computed when
``gauging.crossed_product`` split each block by an exhaustive search over
the nonnegative integer matrices M with M M^T equal to the block's hom
matrix (written with ``python tests/test_gauging_frozen.py >
tests/data/gauging_frozen.json`` while ``splits`` called that search,
``gauging._gram_decompositions``).  Two sections:

- ``ungauge``: ``crossed_product(...).to_json()`` for D^omega(G) by Rep(G)
  (omega = 0 on Z2, Z3, Z4, Z2xZ2, S3, D4, Q8 and S4, and every
  representative of H^3(G, mu_|G|) on the four abelian groups), for Rep(G)
  by a sign (S3, D4, Q8, S4) and for a near-group ring whose block stays
  unresolved.
- ``splits``: the splits of single blocks h = k v v^T with member dims
  c v, as lists of (pattern, repr(dim)), on the grid of ``grid()``: exact
  rational, quadratic-surd and certified-float c, and c below 1.  The
  grid keeps the blocks that the search finished in under 1 s.
"""

import json
import math
import pathlib
import signal
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from gxcat import chartab, gauging
from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.exact import CertReal, QuadReal
from gxcat.fusion import GradedFusionRing
from gxcat.groups import build_group, cyclic
from gxcat.pointed import twisted_double
from gxcat.serialize import canonical_json

FROZEN = pathlib.Path(__file__).parent / "data" / "gauging_frozen.json"
PHI = QuadReal.root_of(1, 1)
DOUBLES = ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8", "S4"]
SIGNS = ["S3", "D4", "Q8", "S4"]


def rep_ring(g):
    labels, _, coeffs, duals = chartab.rep_fusion_data(g)
    return GradedFusionRing.make(f"rep_{g.name}", labels, "pi0", tuple(duals), coeffs)


def near_group_ring():
    """1 + x + r with r r = 1 + x + 2r: d_r = 1 + sqrt(3), and the split of r is not forced."""
    return GradedFusionRing.make(
        "neargroup", ["1", "x", "r"], "1", {"1": "1", "x": "x", "r": "r"},
        {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("1", "r", "r"): 1, ("x", "1", "x"): 1, ("r", "1", "r"): 1,
         ("x", "x", "1"): 1, ("x", "r", "r"): 1, ("r", "x", "r"): 1,
         ("r", "r", "1"): 1, ("r", "r", "x"): 1, ("r", "r", "r"): 2},
    )


@lru_cache(maxsize=None)
def ungauge_cases():
    """(key, ring, embedding, group) for every frozen crossed product."""
    out = []
    for name in DOUBLES:
        g = build_group(name)
        omegas = [("trivial", TorsionCocycle.make(g, 3, g.order, {}))]
        if g.is_abelian:
            omegas += [(f"h3/{i}", om) for i, om in enumerate(cohomology_group(g, 3, g.order).representatives)]
        labels = chartab.rep_fusion_data(g)[0]
        for tag, om in omegas:
            ring = twisted_double(g, om).fusion
            out.append((f"double/{name}/{tag}", ring, {la: f"(e;{k})" for k, la in enumerate(labels)}, g))
    for name in SIGNS:
        g = build_group(name)
        labels, dims, _, _ = chartab.rep_fusion_data(g)
        out.append((f"sign/{name}", rep_ring(g), {"pi0": "pi0", "pi1": labels[dims.index(1, 1)]}, cyclic(2)))
    out.append(("neargroup", near_group_ring(), {"pi0": "1", "pi1": "x"}, cyclic(2)))
    return tuple(out)


VS = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 3)]
CS = {"1": QuadReal(1), "2": QuadReal(2), "3": QuadReal(3), "4": QuadReal(4), "6": QuadReal(6),
      "1/2": QuadReal(Fraction(1, 2)), "phi": PHI, "2phi": PHI * 2, "1+r3": QuadReal(1, 1, 3),
      "cert3": CertReal(3.0, 1e-12), "cert2r2": CertReal(2 * math.sqrt(2), 1e-12), "cert1/2": CertReal(0.5, 1e-12)}


@lru_cache(maxsize=None)
def grid():
    """key -> (h, member dims) for the rank-one blocks k v v^T, k <= 8, with dims c v."""
    return {
        f"v={','.join(map(str, v))} k={k} c={c}": ([[k * a * b for b in v] for a in v], [CS[c] * a for a in v])
        for v in VS for k in range(1, 9) for c in CS
    }


def splits(h, member_dims):
    return [[[list(p), repr(d)] for p, d in sol] for sol in gauging._splits(np.array(h), member_dims)]


def snapshot(split_keys):
    cases = grid()
    return {
        "ungauge": {key: json.loads(canonical_json(gauging.crossed_product(ring, emb, group=g).to_json()))
                    for key, ring, emb, g in ungauge_cases()},
        "splits": {key: splits(*cases[key]) for key in split_keys},
    }


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {"ungauge": {}, "splits": {}}


def test_case_lists_match_fixture():
    assert sorted(key for key, *_ in ungauge_cases()) == sorted(FROZEN_CASES["ungauge"])
    assert set(FROZEN_CASES["splits"]) <= set(grid())


@pytest.mark.parametrize("key", sorted(FROZEN_CASES["ungauge"]))
def test_matches_frozen_crossed_product(key):
    ((_, ring, emb, g),) = [c for c in ungauge_cases() if c[0] == key]
    got = json.loads(canonical_json(gauging.crossed_product(ring, emb, group=g).to_json()))
    assert got == FROZEN_CASES["ungauge"][key]


@pytest.mark.parametrize("key", sorted(FROZEN_CASES["splits"]))
def test_matches_frozen_split(key):
    assert splits(*grid()[key]) == FROZEN_CASES["splits"][key]


def test_blocks_are_orbit_multiples_of_a_rank_one_matrix():
    """The premise of the split: in D^omega(G) and Rep(G) each block's hom
    matrix is k v v^T, and its end dims sum to |G|."""
    for key, ring, emb, g in ungauge_cases():
        if key == "neargroup":
            continue
        labels, rep_dims, _, _ = chartab.rep_fusion_data(g)
        n, index = ring.tensor(), {s: i for i, s in enumerate(ring.simples)}
        hom = sum(d * n[index[emb[la]]] for la, d in zip(labels, rep_dims))
        for block in gauging.crossed_product(ring, emb, group=g).blocks:
            h = hom[np.ix_(block["member_indices"], block["member_indices"])]
            v = h[0] // np.gcd.reduce(h[0])
            assert (h == h[0, 0] // v[0] ** 2 * np.outer(v, v)).all(), (key, block["members"])
            assert sum(block["end_dims"]) == g.order, (key, block["members"])


def finished_within(seconds):
    """The grid keys whose splits come back within the given wall time."""

    def stop(*_):
        raise TimeoutError

    signal.signal(signal.SIGALRM, stop)
    keys = []
    for key, case in grid().items():
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            splits(*case)
        except TimeoutError:
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        keys.append(key)
    return keys


if __name__ == "__main__":
    json.dump(snapshot(finished_within(1.0)), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
