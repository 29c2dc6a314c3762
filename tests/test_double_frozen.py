"""Twisted-double outputs frozen before the double builders left `Cyc` loops.

``tests/data/double_frozen.json`` holds ``snapshot()`` as computed when the
fusion, S-matrix and unitarity code of ``twisted_double`` still multiplied
``Cyc`` values in their inner loops (written with
``python tests/test_double_frozen.py > tests/data/double_frozen.json``).
For every case it records the sha256 of the canonical JSON of
``twisted_double(G, omega).to_json()`` and the sorted fusion coefficients,
so the simples, T, S and the fusion ring do not move when the kernel does.

Cases: omega = 0 (at N = |G|, as ``double --trivial``) on every preset of
order <= 8; every representative of H^3(G, mu_N) for Z2/2, Z3/3, Z4/4,
Z5/5, Z6/6, Z2xZ2/2 and Z2xZ2/4; the representatives of H^3(Z2xZ2xZ2, mu_2)
whose doubles are pointed (the type-III ones, 3, 5 and 6, were frozen with
no S and no fusion, so they are checked in ``tests/test_pointed.py``
instead); and the corpus H^3 cocycles.
"""

import hashlib
import json
import pathlib
import sys
from functools import lru_cache

import pytest

from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.corpus import corpus_list, load_entry
from gxcat.groups import PRESETS, build_group
from gxcat.modular import twisted_double
from gxcat.serialize import canonical_json
from verlinde_oracle import verlinde_fusion

FROZEN = pathlib.Path(__file__).parent / "data" / "double_frozen.json"
TYPE_III = (3, 5, 6)  # the representatives of H^3(Z2xZ2xZ2, mu_2) with 22 simples


@lru_cache(maxsize=None)
def cases():
    """(key, group, omega) for every frozen case, in a fixed order."""
    out = []
    for name in sorted(PRESETS):
        g = build_group(name)
        if g.order <= 8:
            out.append((f"{name}/trivial", g, TorsionCocycle.make(g, 3, g.order, {})))
    for name, n, skip in [("Z2", 2, ()), ("Z3", 3, ()), ("Z4", 4, ()), ("Z5", 5, ()), ("Z6", 6, ()),
                          ("Z2xZ2", 2, ()), ("Z2xZ2", 4, ()), ("Z2xZ2xZ2", 2, TYPE_III)]:
        g = build_group(name)
        for i, rep in enumerate(cohomology_group(g, 3, n).representatives):
            if i not in skip:
                out.append((f"{name}/h3/{n}/{i}", g, rep))
    for entry in corpus_list():
        if entry.kind == "cocycle":
            omega = load_entry(entry.name)
            out.append((f"corpus/{entry.name}", omega.group, omega))
    return tuple(out)


def record(group, omega):
    d = twisted_double(group, omega)
    return {
        "to_json_sha256": hashlib.sha256(canonical_json(d.to_json()).encode()).hexdigest(),
        "fusion_coeffs": None if d.fusion is None else [[*key, v] for key, v in sorted(d.fusion.coeffs)],
    }


def snapshot(keys=None):
    return {key: record(g, omega) for key, g, omega in cases() if keys is None or key in keys}


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


def test_case_list_matches_fixture():
    assert sorted(key for key, _, _ in cases()) == sorted(FROZEN_CASES)


@pytest.mark.parametrize("key", sorted(FROZEN_CASES))
def test_matches_frozen_double(key):
    ((_, g, omega),) = [c for c in cases() if c[0] == key]
    assert record(g, omega) == FROZEN_CASES[key]


@pytest.mark.parametrize("key", sorted(FROZEN_CASES))
def test_fusion_is_the_verlinde_ring(key):
    """The fusion ring from induced characters is the integer Verlinde ring
    of the printed S, coefficient for coefficient and dual for dual."""
    ((_, g, omega),) = [c for c in cases() if c[0] == key]
    d = twisted_double(g, omega)
    assert verlinde_fusion(d) == (d.fusion.coeffs, d.fusion.dual)


if __name__ == "__main__":
    # python tests/test_double_frozen.py [KEY ...] > out.json
    cases_now = snapshot(set(sys.argv[1:]) or None)
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(cases_now.items())) + "\n}")
