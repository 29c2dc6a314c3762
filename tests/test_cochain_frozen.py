"""Cochain-level outputs frozen before cochains were stored as dense arrays.

``tests/data/cochain_frozen.json`` holds ``snapshot()`` as computed by the
tuple-and-dict implementation of ``TorsionCocycle`` (written with
``json.dump(snapshot(), fh, sort_keys=True)``).  The test recomputes it with
the current code and requires equality, so the bar matrices, transgressions,
validator issue lists (text, order and witnesses) and enumeration orbits do
not move when the cochain layout does.  The enumeration cases past the
first three (Z1, Z2 at N = 8, Z3 at N = 6, Z2xZ2, the S3 cases and the
relabeled ones) were added later, computed by the tuple-state
enumerator that preceded the state-array one.  Z4 at N = 4 and S3 at N = 6
were added after that, computed by the state-array enumerator while it
still returned its solutions as a list of tuple pairs.  Z2xZ2 at N = 4 and
S3 at N = 8 were added after that, computed by the state-array enumerator
while it still closed orbits over a move table.  The corrupted gradings and
actions of ``validate_pointed`` (keys ``<data>/deg/...`` and
``<data>/action/...``) were added last, computed while each structure map
of the validator was still checked by its own loop.
"""

import hashlib
import itertools
import json
import pathlib
import random

import numpy as np

from corpus_build import double_semion_pointed, toric_code_pointed
from gxcat.cohomology import TorsionCocycle, bar_matrix, transgress
from gxcat.groups import build_group, cyclic, symmetric
from gxcat.pointed import (
    PointedGXData,
    enumerate_holomorphic,
    holomorphic_crossed,
    validate_pointed,
)
from gxcat.serialize import load_cocycle

FROZEN = pathlib.Path(__file__).parent / "data" / "cochain_frozen.json"
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "gxcat" / "corpus"

SMALL_PRESETS = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2",
                 "S3", "D2", "D3", "D4", "Q8"]


def _bar_matrices():
    out = {}
    cases = [(name, k) for name in SMALL_PRESETS for k in range(4)] + [("Z2xZ2", 4), ("Z4", 4)]
    for name, k in cases:
        mat = np.ascontiguousarray(bar_matrix(build_group(name), k), dtype=np.int64)
        out[f"{name}/{k}"] = {"shape": list(mat.shape), "sha256": hashlib.sha256(mat.tobytes()).hexdigest()}
    return out


def _transgressions():
    out = {}
    for path in sorted(CORPUS.glob("cocycle_*_h3_*.json")):
        omega = load_cocycle(json.loads(path.read_text()))
        for g in omega.group.elements():
            tau, _, embed = transgress(omega, g)
            out[f"{path.stem}/{g}"] = {"embed": list(embed), "values": [[*k, v] for k, v in tau.values]}
    return out


def _issues(data, braid=None, assoc=None, deg=None, action=None):
    bent = PointedGXData.make(data.gamma, data.group, data.deg if deg is None else deg,
                              data.action if action is None else action, data.n,
                              data.assoc if assoc is None else assoc, data.braid if braid is None else braid)
    issues = validate_pointed(bent).issues
    return json.loads(json.dumps(issues))


def _mutations():
    """Every single-cell braid and associator shift; on the crossed S3 data,
    whose G-action is nontrivial, only the shift by 1.  Then every degree
    replaced by each other element of G, and every action-row entry swapped
    with the entry that holds each other value (the row stays a bijection)."""
    s3 = symmetric(3)
    holo_s3, _ = holomorphic_crossed(s3, TorsionCocycle.make(s3, 3, 6, {}))
    out = {}
    for label, data, shifts in [("toric", toric_code_pointed(), None), ("semion", double_semion_pointed(), None),
                                ("holo_s3", holo_s3, [1])]:
        n, order = data.n, data.gamma.order
        shifts = shifts or range(1, n)
        for x, y in itertools.product(range(order), repeat=2):
            for dv in shifts:
                braid = [list(r) for r in data.braid]
                braid[x][y] = (braid[x][y] + dv) % n
                out[f"{label}/braid/{x},{y}/{dv}"] = _issues(data, braid=braid)
        base = dict(data.assoc.values)
        for t in itertools.product(range(1, order), repeat=3):
            for dv in shifts:
                vals = dict(base)
                vals[t] = (vals.get(t, 0) + dv) % n
                out[f"{label}/assoc/{','.join(map(str, t))}/{dv}"] = _issues(data, assoc=vals)
        for x, g in itertools.product(range(order), range(data.group.order)):
            if g != data.deg[x]:
                deg = list(data.deg)
                deg[x] = g
                out[f"{label}/deg/{x}/{g}"] = _issues(data, deg=deg)
        for k, x, v in itertools.product(range(data.group.order), range(order), range(order)):
            row = list(data.action[k])
            if v != row[x]:
                y = row.index(v)
                row[x], row[y] = row[y], row[x]
                action = [row if i == k else p for i, p in enumerate(data.action)]
                out[f"{label}/action/{k},{x}/{v}"] = _issues(data, action=action)
    return out


def _relabeled(name, seed):
    """The preset ``name`` as an explicit table, its non-identity elements
    renamed by a shuffle drawn from ``random.Random(seed)``."""
    mul = build_group(name).mul
    rest = list(range(1, len(mul)))
    random.Random(seed).shuffle(rest)
    p = [0, *rest]
    table = [[0] * len(mul) for _ in mul]
    for i, j in itertools.product(range(len(mul)), repeat=2):
        table[p[i]][p[j]] = p[mul[i][j]]
    return build_group({"name": name, "mul": table})


def _enumeration_cases():
    """(key, group, N).  Cyclic cases are keyed Z<order>/<N>; the rest at
    the preset labels <name>/<N>; S3 and Z2xZ2 at N = 2 also relabeled
    (seeds 0 and 2: S3 splits 2x16 at seed 0, and 4x8 at seed 2 and as
    preset).  Z2xZ2/4 (131,072 states), Z4/4 and S3/8 (16,384 each) are
    the largest."""
    cases = [(f"Z{order}/{n}", cyclic(order), n) for order, n in [(2, 4), (3, 3), (4, 2)]]
    for name, n in [("Z1", 2), ("Z2", 8), ("Z3", 6), ("Z2xZ2", 2), ("S3", 2), ("S3", 3), ("Z4", 4), ("S3", 6),
                    ("Z2xZ2", 4), ("S3", 8)]:
        cases.append((f"{name}/{n}", build_group(name), n))
    for name, seed in itertools.product(["S3", "Z2xZ2"], [0, 2]):
        cases.append((f"{name}/2/relabel{seed}", _relabeled(name, seed), 2))
    return cases


def _solutions(group, states):
    """The state rows as the [associator vector, braid table] pairs that the
    enumerator once returned: the associator on the non-unit cells of G^3,
    and the braid table with its unit row and column put back."""
    o = group.order
    braids = np.pad(states[:, (o - 1) ** 3:].reshape(len(states), o - 1, o - 1), ((0, 0), (1, 0), (1, 0)))
    return [[a, b] for a, b in zip(states[:, :(o - 1) ** 3].tolist(), braids.tolist())]


def _enumerations():
    """Orbits in full; all_solutions in full up to 128 states, else as its
    count and the sha256 of its JSON text."""
    out = {}
    for key, group, n in _enumeration_cases():
        orbits, states = enumerate_holomorphic(group, n)
        states = _solutions(group, states)
        if len(states) > 128:
            states = {"count": len(states), "sha256": hashlib.sha256(json.dumps(states).encode()).hexdigest()}
        out[key] = {
            "orbits": [{"assoc": [[*k, v] for k, v in o["representative"].assoc.values],
                        "braid": [list(r) for r in o["representative"].braid],
                        "size": o["size"]} for o in orbits],
            "all_solutions": states,
        }
    return out


def snapshot():
    return {
        "bar_matrix": _bar_matrices(),
        "transgress": _transgressions(),
        "validate_pointed": _mutations(),
        "enumerate_holomorphic": _enumerations(),
    }


def _assert_plain(obj):
    """Every leaf is a JSON scalar of a builtin type (no numpy integers)."""
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _assert_plain(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            _assert_plain(v)
    else:
        assert obj is None or type(obj) in (int, str, bool), f"{obj!r} has type {type(obj).__name__}"


def test_matches_frozen_cochain_outputs():
    frozen = json.loads(FROZEN.read_text())
    now = snapshot()
    for section in frozen:
        assert now[section].keys() == frozen[section].keys(), section
        bad = [key for key in frozen[section] if now[section][key] != frozen[section][key]]
        assert not bad, f"{section}: {len(bad)} cases moved, first {bad[:3]}"


def test_witnesses_and_states_are_plain_ints():
    """Witnesses and orbit representatives hold builtin ints; the states are
    one uint8 array, one row per state of the associator's and the braid
    table's non-unit cells, rows strictly increasing."""
    data = toric_code_pointed()
    braid = [list(r) for r in data.braid]
    braid[2][1] ^= 1
    bent = PointedGXData.make(data.gamma, data.group, data.deg, data.action, data.n, data.assoc, braid)
    _assert_plain(validate_pointed(bent).issues)
    for _, group, n in _enumeration_cases():
        orbits, states = enumerate_holomorphic(group, n)
        assert states.dtype == np.uint8 and states.ndim == 2
        assert states.shape[1] == (group.order - 1) ** 3 + (group.order - 1) ** 2
        rows = list(map(tuple, states.tolist()))
        assert rows == sorted(set(rows))
        _assert_plain([(o["representative"].assoc.values, o["representative"].braid, o["size"]) for o in orbits])
