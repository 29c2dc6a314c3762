"""Tensor powers frozen while ``fusion.tensor_power`` still looped over
every pair of label tuples.

``tests/data/tensor_power_frozen.json`` holds ``snapshot()`` as computed
by that implementation (written with ``python tests/test_tensor_power_frozen.py >
tests/data/tensor_power_frozen.json``): for vect, Fibonacci, Ising and
Rep(S3), each raised to the power n of its slot group Z2 (n = 2), Z3,
S3 (n = 3) or Z4 (n = 4) under the natural embedding, the rank and the
sha256 of the JSON text of (simples, unit, dual, coeffs, perms).  The
largest case, Rep(S3)^4, has rank 81.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from corpus_build import fibonacci_ring, ising_ring, rep_s3_ring
from gxcat.cli import natural_embedding
from gxcat.fusion import pointed_ring, tensor_power
from gxcat.groups import build_group, cyclic

FROZEN = pathlib.Path(__file__).parent / "data" / "tensor_power_frozen.json"
BASES = {"vect": lambda: pointed_ring(cyclic(1), name="vect"), "fibonacci": fibonacci_ring,
         "ising": ising_ring, "rep_s3": rep_s3_ring}
GROUPS = {"Z2": 2, "Z3": 3, "S3": 3, "Z4": 4}
KEYS = [f"{base}/{group}" for base in BASES for group in GROUPS]


def power(key):
    base, name = key.split("/")
    group, n = build_group(name), GROUPS[name]
    ring, action = tensor_power(BASES[base](), n, group, natural_embedding(group, n))
    text = json.dumps([list(ring.simples), ring.unit, list(ring.dual), [[list(k), v] for k, v in ring.coeffs],
                       [list(p) for p in action.perms]])
    return {"rank": ring.rank, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def snapshot():
    return {key: power(key) for key in KEYS}


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


def test_case_list_matches_fixture():
    assert sorted(FROZEN_CASES) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_matches_frozen_tensor_power(key):
    assert power(key) == FROZEN_CASES[key]


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
