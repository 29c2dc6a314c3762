"""Lattice outputs frozen before the integer eliminations were merged into one.

``tests/data/lattice_frozen.json`` holds ``snapshot()`` as computed when
``cohomology_group`` and ``u1_cohomology`` still ran the Python-int Smith
form over Z (written with ``json.dump(snapshot(), fh, sort_keys=True)``).
The test recomputes it with the current code and requires equality, so the
invariant factors, the generator orders, every representative table (through
its sha256) and the U(1) factors do not move when the kernel does.
"""

import hashlib
import json
import pathlib

from gxcat.cohomology import cohomology_group, u1_cohomology
from gxcat.groups import PRESETS, build_group

FROZEN = pathlib.Path(__file__).parent / "data" / "lattice_frozen.json"


def cases():
    """(preset, k): order <= 6 at k <= 3, order 7-8 at k <= 2, and Z2xZ2, Z4 at k = 4."""
    out = []
    for name in sorted(PRESETS):
        order = build_group(name).order
        top = 3 if order <= 6 else 2 if order <= 8 else 0
        out += [(name, k) for k in range(1, top + 1)]
    return out + [("Z2xZ2", 4), ("Z4", 4)]


def moduli(order):
    return sorted({2, 3, 4, 6, 12, order, 2 * order})


def snapshot():
    out = {}
    for name, k in cases():
        g = build_group(name)
        for n in moduli(g.order):
            h = cohomology_group(g, k, n)
            tables = b"".join(rep.table.tobytes() for rep in h.representatives)
            out[f"{name}/{k}/{n}"] = {
                "invariant_factors": list(h.invariant_factors),
                "generator_orders": list(h.generator_orders),
                "representatives_sha256": hashlib.sha256(tables).hexdigest(),
            }
        if k in (2, 3):
            out[f"{name}/{k}/u1"] = {"invariant_factors": list(u1_cohomology(g, k).invariant_factors)}
    return out


def test_matches_frozen_lattice_outputs():
    frozen = json.loads(FROZEN.read_text())
    now = snapshot()
    assert now.keys() == frozen.keys()
    bad = [key for key in frozen if now[key] != frozen[key]]
    assert not bad, f"{len(bad)} cases moved, first {bad[:3]}"
