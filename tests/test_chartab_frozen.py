"""Character tables and projective irreps frozen before the F_p eigenvalue
step of ``character_table`` left its scan over every lambda in F_p.

``tests/data/chartab_frozen.json`` holds ``snapshot()`` as computed with
that scan and with the per-class ``pow`` loop of the cyclotomic lift
(written with ``python tests/test_chartab_frozen.py > tests/data/chartab_frozen.json``):

* ``table/<G>`` for every preset: the sha256 of the canonical JSON of
  ``character_table(G)`` (class representatives, class sizes, dims and the
  ``to_json`` of every value, in table order);
* ``proj/<G>/<n>/<i>`` for every representative of ``cohomology_group(G, 2, n)``
  over the presets of order <= 12 and n in {2, 3, 4}: the sha256 of
  ``projective_irrep_data`` (dims, section values, reduced N).
"""

import hashlib
import json
import pathlib
import sys
from functools import lru_cache

import pytest

from gxcat.chartab import character_table, projective_irrep_data
from gxcat.cohomology import cohomology_group
from gxcat.cyclo import Cyc
from gxcat.groups import PRESETS, build_group
from gxcat.serialize import canonical_json

FROZEN = pathlib.Path(__file__).parent / "data" / "chartab_frozen.json"


def _sha(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def table_record(g):
    tab = character_table(g)
    return _sha({
        "reps": list(tab.class_reps),
        "sizes": list(tab.class_sizes),
        "dims": list(tab.dims),
        "chars": _values_json(tab.coef),
    })


def _values_json(coef):
    """The Cyc to_json of every coefficient row of coef (..., m), nested as coef."""
    m = coef.shape[-1]
    return [[Cyc.from_ints(m, v).to_json() for v in row] for row in coef.tolist()]


def proj_record(g, alpha):
    dims, sections, n_red = projective_irrep_data(g, alpha)
    return _sha({"n": n_red, "irreps": [[d, values] for d, values in zip(dims, _values_json(sections))]})


@lru_cache(maxsize=None)
def cases():
    """(key, thunk) for every frozen case, in a fixed order."""
    out = []
    for name in sorted(PRESETS):
        g = build_group(name)
        out.append((f"table/{name}", lambda g=g: table_record(g)))
        if g.order > 12:
            continue
        for n in (2, 3, 4):
            for i, rep in enumerate(cohomology_group(g, 2, n).representatives):
                out.append((f"proj/{name}/{n}/{i}", lambda g=g, rep=rep: proj_record(g, rep)))
    return tuple(out)


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


def test_case_list_matches_fixture():
    assert sorted(key for key, _ in cases()) == sorted(FROZEN_CASES)


@pytest.mark.parametrize("prefix", sorted({key.rsplit("/", 2)[0] if key.startswith("proj/") else key
                                           for key in FROZEN_CASES}))
def test_matches_frozen_chartab(prefix):
    got = {key: thunk() for key, thunk in cases() if key == prefix or key.startswith(prefix + "/")}
    want = {key: v for key, v in FROZEN_CASES.items() if key == prefix or key.startswith(prefix + "/")}
    assert got == want


if __name__ == "__main__":
    # python tests/test_chartab_frozen.py [KEY ...] > out.json
    keys = set(sys.argv[1:])
    now = {key: thunk() for key, thunk in cases() if not keys or key in keys}
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(now.items())) + "\n}")
