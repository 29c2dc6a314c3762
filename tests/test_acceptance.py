"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Tolerances are pinned here: identities in quadratic fields are asserted
with exact arithmetic (zero tolerance); certified-float comparisons use
1e-9; integer identities are exact.
"""

import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import gxcat
from corpus_build import (
    double_semion_pointed,
    fibonacci_ring,
    ising_ring,
    rep_s3_ring,
    symmetric_pointed,
    toric_code_pointed,
)
from gxcat.cohomology import TorsionCocycle, bar_matrix, cohomology_group, u1_cohomology
from gxcat.corpus import corpus_dir
from gxcat.cyclo import Cyc
from gxcat.exact import QuadReal, scalar_eq
from gxcat.fusion import (
    GradedFusionRing,
    global_dim,
    invertible_sector_obstruction,
    pf_dims,
    picard,
    pointed_ring,
    sector_dims,
    tensor_power,
    trivial_action,
    validate_ring,
)
from gxcat.gauging import crossed_product, equivariantize, perm_orbifold_picard
from gxcat.groups import build_group, cyclic, product, symmetric
from gxcat.pointed import (
    PointedGXData,
    enumerate_holomorphic,
    holomorphic_crossed,
    kirillov_S,
    twisted_double,
    validate_pointed,
)
from test_cohomology import brute_force_order

CORPUS = pathlib.Path(str(corpus_dir()))
ONE = QuadReal(1)


def report(num, description, ok, detail=None):
    print(f"ACCEPTANCE #{num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}" + (f"\n{detail}" if detail else "")


def swap_pair(ring):
    return tensor_power(ring, 2, cyclic(2), [(0, 1), (1, 0)])


def test_criterion_01_crossed_product_dimension_identity():
    z2, z3, s3 = cyclic(2), cyclic(3), symmetric(3)
    cases = []
    toric = pointed_ring(product(z2, z2), name="toric")
    cases.append((toric, {"pi0": "e", "pi1": "e.g"}, z2))
    ds_ring = pointed_ring(product(z2, z2), name="double_semion")
    cases.append((ds_ring, {"pi0": "e", "pi1": "g.g"}, z2))
    cases.append((pointed_ring(z3, name="rep_z3"), {"pi0": "e", "pi1": "g", "pi2": "g2"}, z3))
    d_s3 = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {})).fusion
    cases.append((d_s3, {"pi0": "(e;0)", "pi1": "(e;1)", "pi2": "(e;2)"}, s3))
    ok = True
    for ring, emb, grp in cases:
        cp = crossed_product(ring, emb, group=grp)
        ok = ok and scalar_eq(cp.global_dim * grp.order, global_dim(ring))
    report(1, "crossed product: output dim x |G| = input dim (exact)", ok)


def test_criterion_02_equivariantization_dimension():
    from gxcat.corpus import corpus_list, load_entry

    z2, z3 = cyclic(2), cyclic(3)
    pairs = []
    # every corpus ring that bundles an action
    for entry in corpus_list():
        if entry.kind == "ring":
            ring, action = load_entry(entry.name)
            if action is not None:
                pairs.append((ring, action))
    assert len(pairs) >= 2  # fib_fib_swap and ising_ising_swap at least
    pairs += [
        (pointed_ring(cyclic(1), name="vect"), trivial_action(pointed_ring(cyclic(1), name="vect"), z2)),
        (ising_ring(), trivial_action(ising_ring(), z2)),
        (rep_s3_ring(), trivial_action(rep_s3_ring(), z3)),
        (pointed_ring(product(z2, z2), name="toric"), trivial_action(pointed_ring(product(z2, z2), name="toric"), z2)),
    ]
    ok = True
    for ring, action in pairs:
        eq = equivariantize(ring, action)
        ok = ok and scalar_eq(eq.global_dim, global_dim(ring) * action.group.order)
    report(2, "equivariantization: sum d^2 = |G| x input dim (exact)", ok)


def test_criterion_03_full_spectrum_and_homogeneity():
    z2, z3 = cyclic(2), cyclic(3)
    outputs = []
    for g, om in [
        (z2, TorsionCocycle.make(z2, 3, 2, {})),
        (z2, cohomology_group(z2, 3, 2).representatives[0]),
        (z3, TorsionCocycle.make(z3, 3, 3, {})),
    ]:
        outputs.append(holomorphic_crossed(g, om)[0])
    for g, n in [(z2, 4), (z3, 3)]:
        for orbit in enumerate_holomorphic(g, n)[0]:
            outputs.append(orbit["representative"])
    ok = True
    for data in outputs:
        ok = ok and sorted(data.deg) == list(range(data.group.order))  # one simple per degree
        ring = pointed_ring(data.gamma, group=data.group, grading=data.deg)
        rep = sector_dims(ring)
        ok = ok and rep.full_spectrum and rep.m3_homogeneous
        ok = ok and all(v == ONE for v in rep.sectors.values())  # integer arithmetic, zero tolerance
    report(3, "holomorphic outputs: one simple per degree, all sectors exactly 1", ok)


def test_criterion_04_twisted_double_dimensions():
    ok = True
    for preset, n in [("Z2", 2), ("Z3", 3), ("Z2xZ2", 2), ("S3", 6), ("Z4", 4)]:
        g = build_group(preset)
        cocycles = [TorsionCocycle.make(g, 3, n, {})]
        cocycles += list(cohomology_group(g, 3, n).representatives)
        for om in cocycles:
            dd = twisted_double(g, om)
            ok = ok and sum(d * d for d in dd.dims) == g.order**2
    s3 = symmetric(3)
    dd = twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))
    ok = ok and len(dd.simples) == 8 and sorted(dd.dims) == [1, 1, 2, 2, 2, 2, 3, 3]
    report(4, "twisted doubles: sum dims^2 = |G|^2 exactly; D(S3) = 8 simples (1,1,2,3,3,2,2,2)", ok)


def test_criterion_05_holomorphic_chain():
    z2 = cyclic(2)
    ok = True
    for om in [TorsionCocycle.make(z2, 3, 2, {}), cohomology_group(z2, 3, 2).representatives[0]]:
        dd = twisted_double(z2, om)
        cp = crossed_product(dd.fusion, {"pi0": "(e;0)", "pi1": "(e;1)"}, group=z2)
        dims = cp.simple_dims()
        ok = ok and len(dims) == 2 and all(d == ONE for d in dims)
    report(5, "double x Rep(Z2): exactly 2 simples of dim 1 for both twists", ok)


def test_criterion_06_kirillov_modularity():
    z2, z3 = cyclic(2), cyclic(3)
    ok = True
    for g, om in [
        (z2, TorsionCocycle.make(z2, 3, 2, {})),
        (z2, cohomology_group(z2, 3, 2).representatives[0]),
        (z3, TorsionCocycle.make(z3, 3, 3, {})),
    ]:
        data, _ = holomorphic_crossed(g, om)
        ok = ok and kirillov_S(data).invertible
    ok = ok and kirillov_S(toric_code_pointed()).invertible
    ok = ok and not kirillov_S(symmetric_pointed(2)).invertible
    report(6, "Kirillov S: invertible on crossed/toric data, singular on symmetric Rep(Z2)", ok)


def test_criterion_07_perm_orbifold_picard():
    z2, z3 = cyclic(2), cyclic(3)
    swap = [(0, 1), (1, 0)]
    rot3 = [tuple((i + k) % 3 for i in range(3)) for k in range(3)]
    # perm_orbifold_picard raises if the brute-force equivariantization
    # count disagrees, so the counts below are doubly checked
    c_ising = len(perm_orbifold_picard(ising_ring(), 2, z2, swap))
    c_fib = len(perm_orbifold_picard(fibonacci_ring(), 2, z2, swap))
    c_vect = len(perm_orbifold_picard(pointed_ring(cyclic(1), name="vect"), 3, z3, rot3))
    ok = (c_ising, c_fib, c_vect) == (4, 2, 3)
    report(7, "permutation-orbifold Picard counts (4, 2, 3) match brute force", ok)


def test_criterion_08_obstruction_consistency():
    ok = True
    for base in [fibonacci_ring(), ising_ring()]:
        ring, action = swap_pair(base)
        witness = invertible_sector_obstruction(ring, action, 1)
        ok = ok and witness is not None
        # swap-degree budget audit: the equivariantization has exactly
        # |G| * dim(C); de-equivariantizing it back leaves dim(C), which the
        # degree-zero round trip exhausts -- budget 0 for the swap sector,
        # so no swap-degree block (in particular none of budget 1) can exist
        eq = equivariantize(ring, action)
        total_budget = eq.global_dim * Fraction(1, 2)
        ok = ok and scalar_eq(total_budget, global_dim(ring))
        # every invertible of the gauged theory is accounted for by the
        # degree-zero Picard data (pairs of fixed invertibles and characters)
        ones = [s for s in eq.simples if scalar_eq(s["dim"], ONE)]
        fixed_inv = [
            lab
            for lab in picard(ring)[0]
            if action.perms[1][ring.simples.index(lab)] == ring.simples.index(lab)
        ]
        ok = ok and len(ones) == 2 * len(fixed_inv)
    report(8, "swap obstruction witnessed; no swap-degree invertible budget survives", ok)


def test_criterion_09_cohomology():
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    v4, s3 = product(z2, z2), symmetric(3)
    ok = True
    rng = np.random.default_rng(20240809)
    matrix = [
        (z2, 1, 2), (z2, 2, 2), (z3, 1, 3), (z3, 2, 3),
        (z4, 2, 4), (v4, 2, 2), (s3, 1, 6), (s3, 2, 6),
    ]
    for g, k, n in matrix:
        d_low = bar_matrix(g, k)
        d_high = bar_matrix(g, k + 1)
        cochains = rng.integers(0, n, size=(d_low.shape[1], 1000))
        ok = ok and not ((d_high @ ((d_low @ cochains) % n)) % n).any()
    for g, n in [(z2, 2), (z3, 3)]:
        ok = ok and cohomology_group(g, 3, n).order == brute_force_order(g, 3, n)
    for g, n, want in [(z2, 2, 2), (z3, 3, 3), (z4, 4, 4)]:
        ok = ok and cohomology_group(g, 3, n).order == want
        ok = ok and u1_cohomology(g, 3).order == want
    report(9, "d o d = 0 on 1000 random cochains per cell; |H^3| matches brute force and U(1) orders", ok)


def test_criterion_10_mutation_suite():
    ok = True
    pointed_corpus = [
        toric_code_pointed(),
        double_semion_pointed(),
        holomorphic_crossed(cyclic(2), cohomology_group(cyclic(2), 3, 2).representatives[0])[0],
        holomorphic_crossed(cyclic(3), TorsionCocycle.make(cyclic(3), 3, 3, {}))[0],
    ]
    total = rejected = 0
    for data in pointed_corpus:
        n = data.n
        for x, y in itertools.product(range(data.gamma.order), repeat=2):
            braid = [list(r) for r in data.braid]
            braid[x][y] = (braid[x][y] + 1) % n
            bent = PointedGXData.make(data.gamma, data.group, data.deg, data.action, n, data.assoc, braid)
            total += 1
            rejected += not validate_pointed(bent).passed
        vals = dict(data.assoc.values)
        for t in itertools.product(range(1, data.gamma.order), repeat=3):
            mutated = dict(vals)
            mutated[t] = (mutated.get(t, 0) + 1) % n
            bent = PointedGXData.make(data.gamma, data.group, data.deg, data.action, n, mutated, data.braid)
            total += 1
            rejected += not validate_pointed(bent).passed
    ok = ok and rejected == total

    ising = ising_ring()
    r_total = r_rejected = 0
    for (i, j, k), v in ising.coeffs:
        for new in (v + 1, 0):
            coeffs = dict(ising.coeffs)
            coeffs[(i, j, k)] = new
            bad = GradedFusionRing.make("mut", ising.simples, ising.unit, ising.dual, coeffs)
            r_total += 1
            r_rejected += not validate_ring(bad).passed
    ok = ok and r_rejected == r_total
    report(
        10,
        f"mutations rejected: pointed {rejected}/{total}, Ising fusion {r_rejected}/{r_total}",
        ok,
    )


def test_criterion_11_cli_determinism():
    commands = [
        ["dims", str(CORPUS / "ring_fib_fib_swap.json")],
        ["sectors", str(CORPUS / "ising_z2graded.json")],
        ["picard", str(CORPUS / "ring_ising.json")],
        ["gauge", str(CORPUS / "ring_ising_ising_swap.json")],
        ["smatrix", str(CORPUS / "pointed_toric_code.json")],
        ["smatrix", str(CORPUS / "pointed_holo_z2_twisted.json")],
        ["cohomology", "--group", "Z2xZ2", "--k", "3"],
        ["double", "--group", "S3", "--trivial"],
        ["corpus"],
    ]
    # The children run from cwd="/", where a relative PYTHONPATH such as `src`
    # points nowhere, so the directory holding the imported gxcat goes first.
    src = str(pathlib.Path(gxcat.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    failure = None
    for args in commands:
        cmd = [sys.executable, "-m", "gxcat.cli", *args, "--format", "json"]
        outs = []
        for threads in ("1", "4"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
            env["OMP_NUM_THREADS"] = threads
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(cmd, capture_output=True, env=env, cwd="/")
            if proc.returncode != 0 and failure is None:
                failure = (
                    f"{cmd} with {threads} thread(s) exited {proc.returncode}; stderr:\n"
                    + proc.stderr.decode(errors="replace")
                )
            outs.append(proc.stdout)
        if failure is None and not (outs[0] == outs[1] and outs[0]):
            failure = f"{cmd}: stdout is empty or differs between 1 and 4 threads"
    report(11, "CLI JSON byte-identical across reruns and thread counts", failure is None, failure)
