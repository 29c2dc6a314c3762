"""Workload job lists, seeded inputs and output checks for the gxcat benchmark.

A job is one cold ``python -m gxcat.cli ... --format json`` invocation.  Its
arguments may hold two placeholders that are resolved per run:

* ``@name.json`` names a file in the bundled corpus, ``src/gxcat/corpus``;
* ``%G`` names a group: the preset name at seed 0, otherwise an explicit
  group JSON of the same name whose non-identity elements are relabeled.

The program only ever sees these generated arguments and files.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_COMMAND = {"group": "validate", "cocycle": "validate", "ring": "dims", "pointed": "smatrix"}


def _job(argv, group=None, exit_code=0, relabel=True):
    """``group`` is the preset that a ``%G`` in argv stands for."""
    return {"id": " ".join(a.replace("%G", group or "") for a in argv), "argv": argv, "group": group,
            "exit": exit_code, "golden": None, "relabel": relabel}


def _cohomology(group, k):
    return _job(["cohomology", "--group", "%G", "--k", str(k)], group)


def _golden_jobs(corpus_dir):
    index = json.loads((Path(corpus_dir) / "index.json").read_text())
    jobs = []
    for rec in index["entries"]:
        cmd = "sectors" if rec["name"] == "ising_z2graded" else GOLDEN_COMMAND[rec["kind"]]
        job = _job([cmd, "@" + rec["path"]])
        job["golden"] = rec["golden"]
        jobs.append(job)
    return jobs


def workload_jobs(name, corpus_dir):
    """The fixed job list of workload ``name``, in seed-0 order."""
    if name == "lattice":
        return [_cohomology(g, k) for g, k in
                [("S3", 3), ("Z6", 3), ("D4", 2), ("Q8", 2), ("Z2xZ2", 4), ("Z4", 4)]]
    if name == "doubles":
        return [
            _job(["double", "--group", "%G", "--trivial"], "S3"),
            _job(["double", "--group", "Z3", "--cocycle", "@cocycle_Z3_h3_0.json"]),
            _job(["double", "--group", "Z4", "--cocycle", "@cocycle_Z4_h3_0.json"]),
        ] + [_job(["double", "--group", "Z2xZ2", "--cocycle", f"@cocycle_Z2xZ2_h3_{i}.json"]) for i in range(4)]
    if name == "enumerate":
        # S3 keeps its preset labels: at the seed commit its orbit partition
        # depends on the labels (4 orbits of 8 as preset, 2 of 16 after some
        # relabelings), a defect of enumerate_holomorphic noted in NOTES.md.
        return [_job(["enumerate", "--group", "%G", "--N", str(n)], g, relabel=g != "S3") for g, n in
                [("Z2", 4), ("Z3", 3), ("Z3", 6), ("Z4", 2), ("Z2xZ2", 2), ("S3", 2)]] + [
            _job(["holo-crossed", "--group", "%G", "--trivial"], "S3"),
            _job(["holo-crossed", "--group", "%G", "--trivial"], "D4"),
            _job(["holo-crossed", "--group", "Z2", "--cocycle", "@cocycle_Z2_h3_0.json"]),
        ]
    if name == "corpus":
        return _golden_jobs(corpus_dir) + [
            _job(["gauge", "@ring_fib_fib_swap.json"]),
            _job(["gauge", "@ring_ising_ising_swap.json"]),
            _job(["ungauge", "@ring_toric_code.json", "--embed", "pi0=e,pi1=e.g", "--group", "Z2"]),
            _job(["roundtrip", "@ring_rep_z2.json", "--embed", "pi0=e,pi1=g", "--group", "Z2"]),
            _job(["picard", "@ring_ising.json"]),
            _job(["obstruct", "@ring_ising_ising_swap.json", "--g", "g"]),
            _job(["perm-picard", "--base", "@ring_ising.json", "--n", "2", "--group", "Z2"]),
            _job(["transgress", "@cocycle_Z2_h3_0.json", "--g", "g"]),
            _cohomology("Z2xZ2", 3),
            _job(["corpus"]),
            _job(["validate", "@broken_ring.json"], exit_code=1),
            _job(["cohomology", "--group", "S4", "--k", "4"], exit_code=3),
        ]
    raise KeyError(name)


WORKLOADS = ("lattice", "doubles", "enumerate", "corpus")


def relabel_table(mul, rng):
    """Conjugate a group table by a random permutation that fixes the identity 0."""
    n = len(mul)
    rest = list(range(1, n))
    rng.shuffle(rest)
    p = [0] + rest
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[mul[i][j]]
    return out


def materialize(jobs, seed, rep, corpus_dir, work_dir):
    """Resolve the placeholders of ``jobs`` for pass ``rep`` of a run with ``seed``.

    Returns ``(job, argv)`` pairs.  Seed 0 keeps the preset labels and the
    job order.  Any other seed permutes the order and relabels the ``%G``
    group of every job marked ``relabel``, drawing afresh for each pass.  The preset tables are read from
    the corpus files ``group_<name>.json``, which hold them verbatim.
    """
    rng = random.Random(f"{seed}:{rep}")
    order = list(jobs)
    if seed:
        rng.shuffle(order)
    out = []
    for job in order:
        argv = []
        for a in job["argv"]:
            if a.startswith("@"):
                a = str(Path(corpus_dir) / a[1:])
            elif a == "%G":
                a = job["group"]
                if seed and job["relabel"]:
                    preset = json.loads((Path(corpus_dir) / f"group_{a}.json").read_text())["mul"]
                    table = relabel_table(preset, rng)
                    text = json.dumps({"name": a, "order": len(table), "mul": table})
                    path = Path(work_dir) / f"group_{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
                    if not path.exists():
                        path.write_text(text)
                    a = str(path)
            argv.append(a)
        out.append((job, argv + ["--format", "json"]))
    return out


def label_free(argv, payload):
    """The fields of a JSON report that do not depend on the element labels."""
    cmd = argv[0]
    if cmd == "cohomology":
        return {k: payload.get(k) for k in ("group", "k", "N", "invariant_factors", "u1_invariant_factors")}
    if cmd == "enumerate":
        return {"orbit_count": payload["orbit_count"], "solution_count": payload["solution_count"],
                "sizes": sorted(o["size"] for o in payload["orbits"])}
    if cmd == "holo-crossed":
        return {"solutions": payload["solutions"]}
    if cmd == "double":
        return {"N": payload["N"], "dims": sorted(s["dim"] for s in payload["simples"]),
                "t": sorted(json.dumps(s["t"], sort_keys=True) for s in payload["simples"])}
    raise KeyError(cmd)


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def check(job, argv, code, stdout, expected, golden_bytes=None):
    """Return None when the job's output is right, else a short reason.

    ``expected`` holds the stdout sha256 and the label-free fields recorded
    at seed 0.  A job whose group was relabeled (its argv no longer holds
    the preset name) is checked on its label-free fields, every other job
    byte for byte, and a golden job also against its golden file.
    """
    if code != job["exit"]:
        return f"exit {'>T' if code is None else code}, expected {job['exit']}"
    if golden_bytes is not None and stdout != golden_bytes:
        return "stdout differs from the golden file"
    if job["group"] is None or job["group"] in argv:
        return None if digest(stdout) == expected["sha256"] else "stdout sha256 differs"
    try:
        got = label_free(argv, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    return None if got == expected["label_free"] else "label-free fields differ"
