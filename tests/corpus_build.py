"""Regenerate the bundled corpus and its golden CLI outputs, and build the
example rings and pointed data that the tests share.

Deterministic by construction: rebuild and diff to audit.  Goldens are the
byte-exact JSON output of the CLI command recorded in the index.

    PYTHONPATH=src python3 tests/corpus_build.py [TARGET]

writes into TARGET, by default the package's own ``corpus`` directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import gxcat
from gxcat.cohomology import TorsionCocycle, cohomology_group
from gxcat.fusion import GradedFusionRing, pointed_ring, tensor_power
from gxcat.groups import build_group, cyclic, product
from gxcat.pointed import (
    PointedGXData,
    double_semion_pointed,
    holomorphic_crossed,
    toric_code_pointed,
)
from gxcat.serialize import canonical_json, dump_cocycle, dump_group, dump_pointed, dump_ring

ISING_COEFFS = {
    ("1", "1", "1"): 1, ("1", "s", "s"): 1, ("1", "p", "p"): 1,
    ("s", "1", "s"): 1, ("p", "1", "p"): 1,
    ("s", "s", "1"): 1, ("s", "s", "p"): 1, ("p", "p", "1"): 1,
    ("p", "s", "s"): 1, ("s", "p", "s"): 1,
}

FIB_COEFFS = {
    ("1", "1", "1"): 1, ("1", "t", "t"): 1, ("t", "1", "t"): 1,
    ("t", "t", "1"): 1, ("t", "t", "t"): 1,
}


def ising_ring(name="ising", group=None, grading=None):
    return GradedFusionRing.make(
        name, ["1", "s", "p"], "1", {"1": "1", "s": "s", "p": "p"}, ISING_COEFFS,
        group=group, grading=grading,
    )


def fibonacci_ring():
    return GradedFusionRing.make("fibonacci", ["1", "t"], "1", {"1": "1", "t": "t"}, FIB_COEFFS)


def rep_s3_ring():
    return GradedFusionRing.make(
        "rep_s3",
        ["1", "u", "v"],
        "1",
        {"1": "1", "u": "u", "v": "v"},
        {
            ("1", "1", "1"): 1, ("1", "u", "u"): 1, ("1", "v", "v"): 1,
            ("u", "1", "u"): 1, ("v", "1", "v"): 1,
            ("u", "u", "1"): 1, ("u", "v", "v"): 1, ("v", "u", "v"): 1,
            ("v", "v", "1"): 1, ("v", "v", "u"): 1, ("v", "v", "v"): 1,
        },
    )


def symmetric_pointed(n_elems=2):
    """Rep(Z_n) as a symmetric pointed category (degenerate braiding)."""
    gam = cyclic(n_elems)
    size = gam.order
    return PointedGXData.make(
        gam, cyclic(1), [0] * size, [tuple(range(size))], max(2, n_elems), {}, [[0] * size for _ in range(size)]
    )


def _golden(cli_args):
    from gxcat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(cli_args + ["--format", "json"])
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"golden command failed: {cli_args}: exit {exc.code}") from None
    return out.getvalue()


def build(target=None):
    target = pathlib.Path(target or pathlib.Path(gxcat.__file__).parent / "corpus")
    target.mkdir(exist_ok=True)
    (target / "goldens").mkdir(exist_ok=True)
    entries = []

    def write(relpath, payload_text):
        path = target / relpath
        path.write_text(payload_text)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def add(name, kind, relpath, obj, golden_cmd=None):
        digest = write(relpath, canonical_json(obj))
        golden_rel = None
        if golden_cmd is not None:
            golden_rel = f"goldens/{name}.json"
            cmd = [a.replace("@", str(target / relpath)) for a in golden_cmd]
            write(golden_rel, _golden(cmd))
        entries.append(
            {"name": name, "kind": kind, "path": relpath, "golden": golden_rel, "sha256": digest}
        )

    # groups
    for preset in ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3", "D4", "Q8", "S4"]:
        g = build_group(preset)
        add(f"group_{preset}", "group", f"group_{preset}.json", dump_group(g), ["validate", "@"])

    # H^3 generator cocycles
    for preset, n in [("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 2)]:
        g = build_group(preset)
        h = cohomology_group(g, 3, n)
        for i, rep in enumerate(h.representatives):
            add(
                f"cocycle_{preset}_h3_{i}",
                "cocycle",
                f"cocycle_{preset}_h3_{i}.json",
                dump_cocycle(rep),
                ["validate", "@"],
            )

    # rings
    z2 = cyclic(2)
    vect = pointed_ring(cyclic(1), name="vect")
    add("vect", "ring", "ring_vect.json", dump_ring(vect), ["dims", "@"])
    add("ising", "ring", "ring_ising.json", dump_ring(ising_ring()), ["dims", "@"])
    add("fibonacci", "ring", "ring_fibonacci.json", dump_ring(fibonacci_ring()), ["dims", "@"])
    add("rep_z2", "ring", "ring_rep_z2.json", dump_ring(pointed_ring(z2, name="rep_z2")), ["dims", "@"])
    add("rep_s3", "ring", "ring_rep_s3.json", dump_ring(rep_s3_ring()), ["dims", "@"])
    v4 = product(z2, z2)
    add("toric_code", "ring", "ring_toric_code.json", dump_ring(pointed_ring(v4, name="toric_code")), ["dims", "@"])
    ds_ring = GradedFusionRing.make(
        "double_semion",
        ["1", "s", "sb", "b"],
        "1",
        {"1": "1", "s": "s", "sb": "sb", "b": "b"},
        {
            (i, j, v4.mul[i][j]): 1
            for i in range(4)
            for j in range(4)
        },
    )
    add("double_semion", "ring", "ring_double_semion.json", dump_ring(ds_ring), ["dims", "@"])

    fib2, fib_act = tensor_power(fibonacci_ring(), 2, z2, [(0, 1), (1, 0)])
    add("fib_fib_swap", "ring", "ring_fib_fib_swap.json", dump_ring(fib2, fib_act), ["dims", "@"])
    ising2, ising_act = tensor_power(ising_ring(), 2, z2, [(0, 1), (1, 0)])
    add("ising_ising_swap", "ring", "ring_ising_ising_swap.json", dump_ring(ising2, ising_act), ["dims", "@"])
    graded = ising_ring(name="ising_z2graded", group=z2, grading={"1": 0, "s": 1, "p": 0})
    add("ising_z2graded", "ring", "ising_z2graded.json", dump_ring(graded), ["sectors", "@"])

    # pointed data
    add("toric_code_pointed", "pointed", "pointed_toric_code.json", dump_pointed(toric_code_pointed()), ["smatrix", "@"])
    add("double_semion_pointed", "pointed", "pointed_double_semion.json", dump_pointed(double_semion_pointed()), ["smatrix", "@"])
    om2 = cohomology_group(z2, 3, 2).representatives[0]
    holo_z2, _ = holomorphic_crossed(z2, om2)
    add("holo_z2_twisted", "pointed", "pointed_holo_z2_twisted.json", dump_pointed(holo_z2), ["smatrix", "@"])
    z3 = cyclic(3)
    holo_z3, _ = holomorphic_crossed(z3, TorsionCocycle.make(z3, 3, 3, {}))
    add("holo_z3", "pointed", "pointed_holo_z3.json", dump_pointed(holo_z3), ["smatrix", "@"])

    # deliberately broken ring: associativity fails (not an indexed entry)
    broken = dump_ring(ising_ring(name="broken_ring"))
    broken_n = []
    for i, j, k, v in broken["N"]:
        if (i, j, k) == (1, 1, 2):
            v = 2
        broken_n.append([i, j, k, v])
    broken["N"] = broken_n
    write("broken_ring.json", canonical_json(broken))

    write("index.json", canonical_json({"entries": entries}))
    return target


if __name__ == "__main__":
    build(*sys.argv[1:2])
