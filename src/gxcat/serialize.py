"""JSON file formats for groups, cocycles, rings and pointed data.

All emitters produce sorted-key, canonically ordered structures so that
reports and corpus files are byte-stable across runs.  Each loader imports
the layer of its kind when it runs, so reading a group file loads no ring,
cocycle or pointed-data code.

The loaders take integers only as JSON integers: a float, a bool or a
numeric string where an integer belongs is refused with an error that names
the field, and so is a missing key or a nested field of the wrong JSON type
(a list where an object belongs, a number where a list belongs).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import FusionError, GroupError

if TYPE_CHECKING:
    from .cohomology import TorsionCocycle
    from .fusion import GradedFusionRing, RingGAction
    from .groups import FiniteGroup
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


def load_group(obj, where="group"):
    """A group from a preset name or an object with a mul table; ``where``
    names the field in errors."""
    from .groups import build_group

    _shaped(obj, (str, dict), where, GroupError)
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


def _field(obj, key, where, error=ValueError):
    """``obj[key]``, or ``error`` naming the key when ``obj`` has none."""
    if not isinstance(obj, dict) or key not in obj:
        raise error(f"{where} has no {key!r}")
    return obj[key]


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


def _shaped(x, kinds, field, error=ValueError):
    """``x`` when its JSON type is one of ``kinds`` (dict, list, str), else
    ``error`` naming the field and the type found."""
    if not isinstance(x, kinds):
        want = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise error(f"{field} must be {want}, not {_JSON_TYPES.get(type(x), type(x).__name__)}")
    return x


def _integer(x, field):
    from .groups import is_index

    if not is_index(x):
        raise ValueError(f"{field} is not an integer: {x!r}")
    return int(x)


def _element_index(g, x, field):
    """A group element given by its index or by its name."""
    if not isinstance(x, str):
        return _integer(x, field)
    if x not in g.element_names:
        raise ValueError(f"{field}: {x!r} is not an element of {g.name}")
    return g.element_names.index(x)


def _entries(obj, key):
    """The list of non-empty lists under ``key`` (empty when the file has none)."""
    rows = obj.get(key, [])
    if not isinstance(rows, list) or not all(isinstance(row, list) and row for row in rows):
        raise ValueError(f"{key} must be a list of non-empty lists")
    return rows


def load_cocycle(obj):
    from .cohomology import TorsionCocycle

    g = load_group(_field(obj, "group", "cocycle file"))
    degree = _integer(_field(obj, "degree", "cocycle file"), "degree")
    n = _integer(_field(obj, "N", "cocycle file"), "N")
    values = [(tuple(_element_index(g, t, "values entry") for t in tup), _integer(v, "values entry"))
              for *tup, v in _entries(obj, "values")]
    return TorsionCocycle.make(g, degree, n, values)


def _group_ref(g: FiniteGroup, inline=False):
    """Preset name when the preset reproduces this exact table, else inline."""
    from .groups import PRESETS, build_group

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
    from .fusion import GradedFusionRing, RingGAction
    from .groups import is_index

    grading_obj = obj.get("grading")
    group = None
    grading = None
    if grading_obj:
        _shaped(grading_obj, (dict,), "grading", FusionError)
        group = load_group(_field(grading_obj, "group", "the ring grading", FusionError), "grading.group")
        deg = _shaped(_field(grading_obj, "deg", "the ring grading", FusionError), (dict,), "grading.deg", FusionError)
        grading = {lab: _element_index(group, el, "grading") for lab, el in deg.items()}
    entries = _field(obj, "N", "ring file", FusionError)
    if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 4 for e in entries):
        raise FusionError("N must be a list of [i, j, k, multiplicity] entries")
    for entry in entries:
        for x in entry[:3]:
            _shaped(x, (str, int), "N entry label", FusionError)
    simples = _shaped(_field(obj, "simples", "ring file", FusionError), (list,), "simples", FusionError)
    for x in simples:
        _shaped(x, (str,), "simples entry", FusionError)
    ring = GradedFusionRing.make(
        obj.get("name", "ring"),
        simples,
        _field(obj, "unit", "ring file", FusionError),
        _shaped(_field(obj, "dual", "ring file", FusionError), (dict, list), "dual", FusionError),
        [((i, j, k), mult) for i, j, k, mult in entries],
        group=group,
        grading=grading,
    )
    action = None
    if "action" in obj:
        if group is None:
            raise ValueError("an action requires a grading group in the file")
        action_obj = _shaped(obj["action"], (dict,), "action")
        perms = []
        for el in group.elements():
            key = group.element_names[el]
            if key not in action_obj:
                raise ValueError(f"action missing entry for group element {key}")
            if not isinstance(action_obj[key], list) or not all(map(is_index, action_obj[key])):
                raise ValueError(f"action entry for group element {key} is not a list of label indices")
            perms.append(tuple(int(x) for x in action_obj[key]))
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
    from .pointed import PointedGXData

    gamma = load_group(_field(obj, "Gamma", "pointed file"), "Gamma")
    group = load_group(_field(obj, "G", "pointed file"), "G")
    n = _integer(_field(obj, "N", "pointed file"), "N")
    deg_obj = _shaped(_field(obj, "deg", "pointed file"), (dict, list), "deg")
    if isinstance(deg_obj, dict):
        deg = [_element_index(group, _field(deg_obj, gamma.element_names[x], "the deg map"), "deg entry")
               for x in gamma.elements()]
    else:
        deg = [_integer(x, "deg entry") for x in deg_obj]
    for x in deg:  # deg values index G's table (an action entry out of range is a validation issue)
        if not 0 <= x < group.order:
            raise ValueError(f"deg entry: {x} is not an element of {group.name}")
    action_obj = _shaped(_field(obj, "action", "pointed file"), (dict, list), "action")
    if isinstance(action_obj, dict):
        action_obj = [_field(action_obj, group.element_names[k], "the action map") for k in group.elements()]
    action = [tuple(_integer(x, "action entry") for x in _shaped(p, (list,), "action row")) for p in action_obj]
    assoc = [(tuple(_integer(t, "assoc entry") for t in tup), _integer(v, "assoc entry"))
             for *tup, v in _entries(obj, "assoc")]
    braid = [[_integer(v, "braid entry") for v in _shaped(row, (list,), "braid row")]
             for row in _shaped(_field(obj, "braid", "pointed file"), (list,), "braid")]
    return PointedGXData.make(gamma, group, deg, action, n, assoc, braid)


def dump_pointed(d: PointedGXData):
    return d.to_json()

