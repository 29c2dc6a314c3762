"""JSON file formats for groups, cocycles, rings and pointed data.

All emitters produce sorted-key, canonically ordered structures so that
reports and corpus files are byte-stable across runs.
"""

from __future__ import annotations

import json

from .cohomology import TorsionCocycle
from .fusion import GradedFusionRing, RingGAction
from .groups import PRESETS, FiniteGroup, GroupError, build_group
from .pointed import PointedGXData

__all__ = [
    "load_group",
    "dump_group",
    "load_cocycle",
    "dump_cocycle",
    "load_ring",
    "dump_ring",
    "load_pointed",
    "dump_pointed",
    "detect_kind",
    "canonical_json",
]


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def detect_kind(obj):
    if "braid" in obj:
        return "pointed"
    if "simples" in obj:
        return "ring"
    if "degree" in obj and "values" in obj:
        return "cocycle"
    if "mul" in obj:
        return "group"
    raise ValueError("unrecognized input file: expected group, cocycle, ring or pointed data")


def load_group(obj):
    if isinstance(obj, str):
        return build_group(obj)
    if "mul" in obj:
        g = build_group({"name": obj.get("name", "G"), "mul": obj["mul"]})
        if "order" in obj and obj["order"] != g.order:
            raise GroupError("declared order does not match the table")
        return g
    raise GroupError("group object needs a preset name or a mul table")


def dump_group(g: FiniteGroup):
    return {"name": g.name, "order": g.order, "mul": [list(r) for r in g.mul]}


def _element_index(g, x):
    if isinstance(x, int):
        return x
    return g.element_names.index(x)


def load_cocycle(obj):
    g = load_group(obj["group"])
    degree = int(obj["degree"])
    n = int(obj["N"])
    values = {}
    for entry in obj.get("values", []):
        *tup, v = entry
        values[tuple(_element_index(g, t) for t in tup)] = int(v)
    return TorsionCocycle.make(g, degree, n, values)


def _group_ref(g: FiniteGroup, inline=False):
    """Preset name when the preset reproduces this exact table, else inline."""
    if not inline and g.name in PRESETS:
        if build_group(g.name).mul == g.mul:
            return g.name
    return dump_group(g)


def dump_cocycle(c: TorsionCocycle, inline_group=False):
    return {
        "group": _group_ref(c.group, inline_group),
        "degree": c.degree,
        "N": c.n,
        "values": [[*k, v] for k, v in c.values],
    }


def load_ring(obj):
    grading_obj = obj.get("grading")
    group = None
    grading = None
    if grading_obj:
        group = load_group(grading_obj["group"])
        grading = {lab: _element_index(group, el) for lab, el in grading_obj["deg"].items()}
    coeffs = {}
    for i, j, k, mult in obj["N"]:
        coeffs[(i, j, k)] = int(mult)
    ring = GradedFusionRing.make(
        obj.get("name", "ring"),
        obj["simples"],
        obj["unit"],
        obj["dual"],
        coeffs,
        group=group,
        grading=grading,
    )
    action = None
    if "action" in obj:
        if group is None:
            raise ValueError("an action requires a grading group in the file")
        perms = []
        for el in group.elements():
            key = group.element_names[el]
            if key not in obj["action"]:
                raise ValueError(f"action missing entry for group element {key}")
            perms.append(tuple(int(x) for x in obj["action"][key]))
        action = RingGAction(group, tuple(perms))
    return ring, action


def dump_ring(ring: GradedFusionRing, action: RingGAction = None):
    obj = {
        "name": ring.name,
        "simples": list(ring.simples),
        "unit": ring.label(ring.unit),
        "dual": {ring.label(i): ring.label(d) for i, d in enumerate(ring.dual)},
        "N": [[i, j, k, v] for (i, j, k), v in ring.coeffs],
    }
    if ring.group.order > 1 or any(ring.grading):
        obj["grading"] = {
            "group": _group_ref(ring.group),
            "deg": {ring.label(i): el for i, el in enumerate(ring.grading)},
        }
    if action is not None:
        if "grading" not in obj:
            obj["grading"] = {
                "group": _group_ref(action.group),
                "deg": {ring.label(i): 0 for i in range(ring.rank)},
            }
        obj["action"] = {
            action.group.element_names[el]: list(action.perms[el]) for el in action.group.elements()
        }
    return obj


def load_pointed(obj):
    gamma = load_group(obj["Gamma"])
    group = load_group(obj["G"])
    n = int(obj["N"])
    deg_obj = obj["deg"]
    if isinstance(deg_obj, dict):
        deg = [_element_index(group, deg_obj[gamma.element_names[x]]) for x in gamma.elements()]
    else:
        deg = [int(x) for x in deg_obj]
    action_obj = obj["action"]
    if isinstance(action_obj, dict):
        action = [tuple(action_obj[group.element_names[k]]) for k in group.elements()]
    else:
        action = [tuple(p) for p in action_obj]
    assoc = {}
    for entry in obj.get("assoc", []):
        *tup, v = entry
        assoc[tuple(int(t) for t in tup)] = int(v)
    return PointedGXData.make(gamma, group, deg, action, n, assoc, obj["braid"])


def dump_pointed(d: PointedGXData):
    return d.to_json()

