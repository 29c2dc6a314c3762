"""Tests of the benchmark itself: python -m pytest -q bench"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import jobs
from child import Tracer, install_spans

CORPUS = Path(__file__).resolve().parent.parent / "src" / "gxcat" / "corpus"
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def _is_group_table(mul):
    n = len(mul)
    elems = range(n)
    if any(mul[0][x] != x or mul[x][0] != x for x in elems):
        return False
    if any(sorted(row) != list(elems) for row in mul):
        return False
    return all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x, y, z in itertools.product(elems, repeat=3))


@pytest.mark.parametrize("name", ["Z2xZ2", "Z6", "S3", "D4", "Q8"])
def test_relabeling_gives_a_group_table_with_identity_at_zero(name):
    preset = json.loads((CORPUS / f"group_{name}.json").read_text())["mul"]
    rng = random.Random(7)
    tables = [jobs.relabel_table(preset, rng) for _ in range(5)]
    assert all(_is_group_table(t) for t in tables)
    if name != "Z2xZ2":  # every relabeling of Z2xZ2 is an automorphism
        assert any(t != preset for t in tables)


def test_materialize_relabels_only_at_nonzero_seeds(tmp_path):
    job_list = jobs.workload_jobs("lattice", CORPUS)
    plain = jobs.materialize(job_list, 0, 0, CORPUS, tmp_path)
    assert [argv[2] for _, argv in plain] == [job["group"] for job in job_list]
    relabeled = jobs.materialize(job_list, 3, 0, CORPUS, tmp_path)
    assert relabeled == jobs.materialize(job_list, 3, 0, CORPUS, tmp_path)
    assert [j["id"] for j, _ in relabeled] != [j["id"] for j in job_list]
    for job, argv in relabeled:
        group = json.loads(Path(argv[2]).read_text())
        assert group["name"] == job["group"] and _is_group_table(group["mul"])


def _cohomology_case():
    job = next(j for j in jobs.workload_jobs("lattice", CORPUS) if j["id"] == "cohomology --group S3 --k 3")
    payload = {"group": "S3", "k": 3, "N": 6, "invariant_factors": [6], "generator_orders": [6],
               "u1_invariant_factors": [6]}
    expected = {"sha256": "0" * 64, "label_free": jobs.label_free(["cohomology"], payload)}
    return job, ["cohomology", "--group", "relabeled_S3.json", "--k", "3", "--format", "json"], payload, expected


def test_label_free_check_accepts_a_relabeled_report():
    job, argv, payload, expected = _cohomology_case()
    relabeled = dict(payload, generator_orders=[2, 3])
    assert jobs.check(job, argv, 0, json.dumps(relabeled).encode(), expected) is None


@pytest.mark.parametrize("tamper", [
    lambda p: dict(p, invariant_factors=[2]),
    lambda p: dict(p, u1_invariant_factors=[]),
    lambda p: {k: v for k, v in p.items() if k != "N"},
])
def test_label_free_check_rejects_a_tampered_report(tamper):
    job, argv, payload, expected = _cohomology_case()
    assert jobs.check(job, argv, 0, json.dumps(tamper(payload)).encode(), expected) is not None


def test_check_rejects_wrong_exit_code_bytes_and_golden():
    job, argv, payload, expected = _cohomology_case()
    assert jobs.check(job, argv, 1, json.dumps(payload).encode(), expected).startswith("exit 1")
    assert jobs.check(job, argv, None, b"", expected).startswith("exit >T")
    preset_argv = ["cohomology", "--group", "S3", "--k", "3", "--format", "json"]
    assert jobs.check(job, preset_argv, 0, b"{}", expected) == "stdout sha256 differs"
    golden = next(j for j in jobs.workload_jobs("corpus", CORPUS) if j["golden"])
    good = (CORPUS / golden["golden"]).read_bytes()
    entry = EXPECTED["corpus"][golden["id"]]
    assert jobs.check(golden, golden["argv"], 0, good, entry, good) is None
    assert jobs.check(golden, golden["argv"], 0, good + b" ", entry, good) == "stdout differs from the golden file"


def test_every_workload_job_has_a_reference():
    for name in jobs.WORKLOADS:
        assert {j["id"] for j in jobs.workload_jobs(name, CORPUS)} == set(EXPECTED[name])
    corpus = jobs.workload_jobs("corpus", CORPUS)
    assert len(corpus) == 44 and sum(bool(j["golden"]) for j in corpus) == 32


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_accounting_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(seconds):
        clock.now += seconds

    # top level -> a.top (1) -> b.mid (2) -> b.leaf (4, same layer) -> c.deep (8)
    #                     -> c.deep (8) ; a.top -> a.helper (16, same layer)
    deep = tracer.wrap(lambda: work(8), "c")
    leaf = tracer.wrap(lambda: (work(4), deep()), "b")
    mid = tracer.wrap(lambda: (work(2), leaf()), "b")
    helper = tracer.wrap(lambda: work(16), "a")
    top = tracer.wrap(lambda: (work(1), mid(), deep(), helper()), "a")
    top()
    stats = tracer.summary()["layers"]
    assert stats == {"a": {"calls": 1, "self_s": 17.0}, "b": {"calls": 1, "self_s": 6.0},
                     "c": {"calls": 2, "self_s": 16.0}}
    assert sum(v["self_s"] for v in stats.values()) == clock.now == 39.0
    assert tracer.stack == []


def test_span_accounting_survives_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 3
        raise ValueError

    inner = tracer.wrap(fail, "b")
    outer = tracer.wrap(lambda: (setattr(clock, "now", clock.now + 1), inner()), "a")
    with pytest.raises(ValueError):
        outer()
    assert tracer.summary()["layers"] == {"a": {"calls": 1, "self_s": 1.0}, "b": {"calls": 1, "self_s": 3.0}}
    assert tracer.stack == []


def test_install_spans_rebinds_imported_copies(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("from .b import g, K\n\ndef f():\n    return g() + K().p + K.s()\n")
    (pkg / "b.py").write_text(
        "def g():\n    return h()\n\ndef h():\n    return 1\n\n"
        "class K:\n    @property\n    def p(self):\n        return 2\n\n    @staticmethod\n    def s():\n        return 3\n")
    (pkg / "snf.py").write_text("def solve(a, n):\n    return len(a)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        package = importlib.import_module("fakepkg")
        tracer = Tracer()
        install_spans(tracer, package)
        a, snf = sys.modules["fakepkg.a"], sys.modules["fakepkg.snf"]
        assert a.f() == 6
        snf.solve([[1, 2], [3, 4]], 5)
        snf.solve([[1, 2], [3, 4]], 5)
        snf.solve([[1, 2], [3, 4]], 7)
    finally:
        for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
            del sys.modules[name]
    summary = tracer.summary()
    assert summary["layers"]["a"]["calls"] == 1
    assert summary["layers"]["b"]["calls"] == 3  # g (h stays inside b), K.p, K.s
    assert summary["layers"]["snf"]["calls"] == 3
    assert summary["snf_cells_in"] == 12 and summary["snf_repeats"] == 1
