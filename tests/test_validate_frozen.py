"""``validate`` reports on corrupted inputs, frozen before the group and ring
checks left their dense numpy arrays.

``tests/data/validate_frozen.json`` holds ``snapshot()`` as computed with
the dense checks (written with
``python tests/test_validate_frozen.py > tests/data/validate_frozen.json``):

* ``cli/<case>``: the exit code and the exact stdout and stderr of
  ``gxcat validate FILE --format json`` on a corrupted group table, ring or
  ring with an action.  Hand-made cases name the axiom they break; the
  ``rand`` cases change one entry of a corpus file, chosen by a seeded RNG.
* ``direct/<case>``: reports in canonical JSON that no corrupted file reaches
  through the CLI (see ``direct_cases``).
* ``pf_dims/ising*fib``: ``[value, err]`` of each certified float dim of the
  Ising x Fibonacci ring.  A rewrite of the float seed may move a value by
  no more than its error bound.
"""

import copy
import json
import pathlib
import random
import sys
import tempfile
from functools import lru_cache
from unittest import mock

import pytest

from corpus_build import fibonacci_ring, ising_ring
from gxcat import fusion
from gxcat.corpus import corpus_dir
from gxcat.errors import FusionError
from gxcat.exact import CertReal, QuadReal
from gxcat.fusion import GradedFusionRing, RingGAction, pf_dims, pointed_ring, validate_action
from gxcat.groups import PRESETS, build_group, cyclic, product
from gxcat.serialize import canonical_json, dump_group, dump_ring
from test_cli_corpus import run_cli

FROZEN = pathlib.Path(__file__).parent / "data" / "validate_frozen.json"
CORPUS = pathlib.Path(str(corpus_dir()))


def _corpus(name):
    return json.loads((CORPUS / name).read_text())


def _table_cases():
    z3 = dump_group(build_group("Z3"))
    cases = {
        "identity-row": {**z3, "mul": [[0, 2, 1], [1, 2, 0], [2, 0, 1]]},
        "identity-col": {**z3, "mul": [[0, 1, 2], [2, 2, 0], [1, 0, 1]]},
        "associativity": {"name": "loop5", "mul": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                                   [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]},
        "inverse": {"name": "monoid", "mul": [[0, 1], [1, 1]]},
        "out-of-range": {**z3, "mul": [[0, 1, 2], [1, 2, 3], [2, 0, 1]]},
        "negative": {**z3, "mul": [[0, 1, 2], [1, 2, -1], [2, 0, 1]]},
        "declared-order": {**z3, "order": 4},
    }
    rng = random.Random(0)
    for name in sorted(PRESETS):
        g = build_group(name)
        if g.order < 3 or g.order > 12:
            continue
        for t in range(3):
            obj = dump_group(g)
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            obj["mul"][i][j] = (obj["mul"][i][j] + 1 + rng.randrange(g.order - 1)) % g.order
            cases[f"rand-{name}-{t}"] = obj
    return {f"table/{k}": v for k, v in cases.items()}


def _ring_cases():
    ising, graded = _corpus("ring_ising.json"), _corpus("ising_z2graded.json")

    def edit(obj, drop=(), add=()):
        obj = copy.deepcopy(obj)
        obj["N"] = [e for e in obj["N"] if tuple(e[:3]) not in drop] + [list(e) for e in add]
        return obj

    cases = {
        "unit-left": edit(ising, drop={(0, 1, 1)}),
        "unit-right": edit(ising, add=[(2, 0, 1, 1)]),
        "duality": {**ising, "dual": {"1": "1", "s": "p", "p": "s"}},
        "associativity": _corpus("broken_ring.json"),
        "grading": {**graded, "grading": {**graded["grading"], "deg": {"1": 0, "p": 1, "s": 1}}},
    }
    rng = random.Random(1)
    names = sorted(p.name for p in CORPUS.glob("*.json")
                   if p.name.startswith("ring_") or p.name == "ising_z2graded.json")
    for name in names:
        base = _corpus(name)
        rank = len(base["simples"])
        for t in range(4):
            obj = copy.deepcopy(base)
            pick = rng.randrange(len(obj["N"]))
            if t == 0:
                obj["N"][pick][3] += 1
            elif t == 1:
                del obj["N"][pick]
            else:
                key = [rng.randrange(rank) for _ in range(3)]
                obj["N"] = [e for e in obj["N"] if e[:3] != key] + [key + [1 + rng.randrange(2)]]
            cases[f"rand-{name[:-5]}-{t}"] = obj
    return {f"ring/{k}": v for k, v in cases.items()}


def _graded_toric_code():
    """Pointed Z2xZ2 ring graded by Z2 (a, ab odd) with the swap of a and b,
    which preserves fusion but not the grading."""
    ring = pointed_ring(product(cyclic(2), cyclic(2)), name="toric_graded", group=cyclic(2), grading=[0, 0, 1, 1])
    return ring, RingGAction(cyclic(2), ((0, 1, 2, 3), (0, 2, 1, 3)))


def _action_cases():
    swap = _corpus("ring_ising_ising_swap.json")

    def act(obj, **perms):
        return {**obj, "action": {**obj["action"], **perms}}

    cases = {
        "homomorphism-identity": act(swap, e=[0, 3, 6, 1, 4, 7, 2, 5, 8]),
        "homomorphism": act(swap, g=[0, 3, 6, 1, 5, 7, 2, 8, 4]),
        "fusion": act(swap, g=[0, 2, 1, 3, 4, 5, 6, 7, 8]),
        "permutation": act(swap, g=[0, 0, 6, 1, 4, 7, 2, 5, 8]),
        "missing-entry": {**swap, "action": {"e": swap["action"]["e"]}},
        "grading": dump_ring(*_graded_toric_code()),
    }
    rng = random.Random(2)
    for name in ("ring_fib_fib_swap.json", "ring_ising_ising_swap.json"):
        base = _corpus(name)
        rank = len(base["simples"])
        for t in range(4):
            obj = copy.deepcopy(base)
            perm = obj["action"]["g" if t % 2 == 0 else "e"]
            a, b = rng.sample(range(rank), 2)
            perm[a], perm[b] = perm[b], perm[a]
            cases[f"rand-{name[:-5]}-{t}"] = obj
    return {f"action/{k}": v for k, v in cases.items()}


def cli_record(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(obj))
        res = run_cli(["validate", str(path), "--format", "json"])
    return {"exit": res.exit_code, "stdout": res.stdout, "stderr": res.stderr}


def _zero_ring(rank, dual):
    return GradedFusionRing.make("zero", [f"x{i}" for i in range(rank)], 0, dual, {})


def _reducible_ring():
    return GradedFusionRing.make(
        "split", ["1", "x"], "1", {"1": "1", "x": "x"},
        {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1, ("x", "x", "x"): 1},
    )


def _report_with_dims(ring, dims):
    """validate_ring's report when pf_dims hands it dims."""
    with mock.patch.object(fusion, "pf_dims", lambda _: dims):
        return fusion.validate_ring(ring).to_json()


def _reducible_dims_error():
    try:
        pf_dims(_reducible_ring())
    except FusionError as exc:
        return {"error": str(exc)}
    return {"error": None}


def direct_cases():
    """Reports that no corrupted file reaches through the CLI.

    The unit and dual checks of validate_action: fusion-preserving maps of
    rings with no products, which validate_ring would refuse first.  The
    dims checks: every rank-3 ring with multiplicities below 4 that passes
    the unit, duality and associativity checks also passes the dims checks,
    so a wrong dim vector is handed to validate_ring directly, and the
    reducible ring goes to pf_dims.
    """
    z2 = cyclic(2)
    ising = ising_ring()
    return {
        "direct/action-unit": lambda: validate_action(
            _zero_ring(2, (0, 1)), RingGAction(z2, ((0, 1), (1, 0)))).to_json(),
        "direct/action-dual": lambda: validate_action(
            _zero_ring(4, (0, 2, 1, 3)), RingGAction(z2, ((0, 1, 2, 3), (0, 1, 3, 2)))).to_json(),
        "direct/dims-quadratic": lambda: _report_with_dims(
            ising, [QuadReal(1), QuadReal.root_of(0, 3), QuadReal(1)]),
        "direct/dims-certified": lambda: _report_with_dims(
            ising_fib_ring(), [CertReal(1.0, 1e-13)] * 6),
        "direct/dims-reducible": _reducible_dims_error,
    }


def ising_fib_ring():
    """Ising x Fibonacci: dims {1, phi, sqrt2, phi*sqrt2} lie in no single
    quadratic field, so pf_dims returns certified floats."""
    ising, fib = ising_ring(), fibonacci_ring()
    rf = fib.rank
    coeffs = {}
    for (i1, j1, k1), v1 in ising.coeffs:
        for (i2, j2, k2), v2 in fib.coeffs:
            coeffs[(i1 * rf + i2, j1 * rf + j2, k1 * rf + k2)] = v1 * v2
    labels = [f"{a}*{b}" for a in ising.simples for b in fib.simples]
    dual = [ising.dual[i] * rf + fib.dual[j] for i in range(ising.rank) for j in range(rf)]
    return GradedFusionRing.make("ising*fib", labels, 0, dual, coeffs)


def dims_record():
    return [[d.value, d.err] for d in pf_dims(ising_fib_ring())]


@lru_cache(maxsize=None)
def cli_cases():
    return {**_table_cases(), **_ring_cases(), **_action_cases()}


def snapshot():
    out = {f"cli/{key}": cli_record(obj) for key, obj in cli_cases().items()}
    for key, thunk in direct_cases().items():
        out[key] = canonical_json(thunk())
    out["pf_dims/ising*fib"] = dims_record()
    return out


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


def test_case_list_matches_fixture():
    keys = {f"cli/{key}" for key in cli_cases()} | set(direct_cases()) | {"pf_dims/ising*fib"}
    assert keys == set(FROZEN_CASES)


def test_every_axiom_has_a_failing_case():
    codes, errors = set(), ""
    for key, want in FROZEN_CASES.items():
        if key.startswith("cli/"):
            codes.update(issue["code"] for issue in json.loads(want["stdout"] or '{"issues": []}')["issues"])
            errors += want["stderr"]
        elif key.startswith("direct/"):
            codes.update(issue["code"] for issue in json.loads(want).get("issues", []))
    assert codes >= {"unit", "duality", "associativity", "grading", "dims",
                     "homomorphism", "fusion", "dual", "permutation"}
    for table_axiom in ("two-sided identity", "associativity fails", "has no inverse"):
        assert table_axiom in errors


@pytest.mark.parametrize("key", sorted(cli_cases()))
def test_cli_report_matches_frozen(key):
    assert cli_record(cli_cases()[key]) == FROZEN_CASES[f"cli/{key}"]


@pytest.mark.parametrize("key", sorted(direct_cases()))
def test_direct_report_matches_frozen(key):
    assert canonical_json(direct_cases()[key]()) == FROZEN_CASES[key]


def test_certified_dims_agree_within_their_error():
    want = FROZEN_CASES["pf_dims/ising*fib"]
    got = dims_record()
    assert len(got) == len(want)
    for (value, err), (old_value, old_err) in zip(got, want):
        assert abs(value - old_value) <= min(err, old_err)


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
