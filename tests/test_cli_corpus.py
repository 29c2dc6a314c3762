import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import gxcat
from gxcat.cli import main
from gxcat.corpus import CorpusError, corpus_dir, corpus_list
from gxcat.serialize import (
    canonical_json,
    detect_kind,
    dump_pointed,
    dump_ring,
    load_pointed,
    load_ring,
)

CORPUS = pathlib.Path(str(corpus_dir()))


def run_cli(args):
    runner = CliRunner()
    return runner.invoke(main, args)


class TestCorpus:
    def test_entry_counts(self):
        entries = corpus_list()
        kinds = {}
        for e in entries:
            kinds.setdefault(e.kind, []).append(e.name)
        assert len(kinds["group"]) == 11
        assert len(kinds["ring"]) >= 9
        assert len(kinds["pointed"]) == 4
        assert len(kinds["cocycle"]) == 7
        assert any("ising" in n for n in kinds["ring"])

    def test_every_entry_validates(self):
        for e in corpus_list():
            res = run_cli(["validate", e.path, "--format", "json"])
            assert res.exit_code == 0, f"{e.name}: {res.output}"

    def test_checksum_mismatch_detected(self, tmp_path, monkeypatch):
        import shutil

        import gxcat.corpus as corpus_mod

        work = tmp_path / "corpus"
        shutil.copytree(CORPUS, work)
        target = work / "ring_vect.json"
        target.write_text(target.read_text() + "\n")
        monkeypatch.setattr(corpus_mod, "corpus_dir", lambda: work)
        with pytest.raises(CorpusError, match="checksum mismatch"):
            corpus_mod.corpus_list()

    def test_goldens_are_current_cli_output(self):
        index = json.loads((CORPUS / "index.json").read_text())
        commands = {"group": "validate", "cocycle": "validate", "ring": "dims", "pointed": "smatrix"}
        for rec in index["entries"]:
            if not rec["golden"]:
                continue
            cmd = commands[rec["kind"]]
            if rec["name"] == "ising_z2graded":
                cmd = "sectors"
            res = run_cli([cmd, str(CORPUS / rec["path"]), "--format", "json"])
            assert res.exit_code == 0
            assert res.output == (CORPUS / rec["golden"]).read_text(), rec["name"]


class TestSerialization:
    def test_ring_roundtrip(self, ising):
        obj = dump_ring(ising)
        back, action = load_ring(obj)
        assert back.simples == ising.simples
        assert back.coeffs == ising.coeffs
        assert action is None

    def test_ring_with_action_roundtrip(self, fib2_swap):
        ring, action = fib2_swap
        obj = dump_ring(ring, action)
        back, act2 = load_ring(obj)
        assert act2.perms == action.perms

    def test_pointed_roundtrip(self):
        from gxcat.pointed import double_semion_pointed

        data = double_semion_pointed()
        back = load_pointed(json.loads(canonical_json(dump_pointed(data))))
        assert back.braid == data.braid
        assert back.assoc.values == data.assoc.values

    def test_detect_kind(self):
        assert detect_kind({"mul": []}) == "group"
        assert detect_kind({"simples": []}) == "ring"
        assert detect_kind({"degree": 3, "values": []}) == "cocycle"
        assert detect_kind({"braid": []}) == "pointed"
        with pytest.raises(ValueError):
            detect_kind({"whatever": 1})


class TestCliContracts:
    def test_sectors_golden_example(self):
        res = run_cli(["sectors", str(CORPUS / "ising_z2graded.json"), "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["sectors"] == {"e": {"a": 2, "b": 0, "den": 1, "m": 1}, "g": {"a": 2, "b": 0, "den": 1, "m": 1}}
        assert payload["full_spectrum"] is True

    def test_cohomology_example(self):
        res = run_cli(["cohomology", "--group", "Z2", "--k", "3", "--N", "2", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["invariant_factors"] == [2]

    def test_validate_broken_ring_exits_1(self):
        res = run_cli(["validate", str(CORPUS / "broken_ring.json"), "--format", "json"])
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["issues"][0]["code"] == "associativity"

    def test_validate_open_cochain_exits_1(self, tmp_path):
        bad = tmp_path / "open.json"
        bad.write_text(json.dumps({"group": "Z3", "degree": 3, "N": 3, "values": [[1, 1, 1, 1]]}))
        res = run_cli(["validate", str(bad), "--format", "json"])
        assert res.exit_code == 1
        payload = json.loads(res.output)
        first = payload["issues"][0]
        assert (first["code"], first["witness"]) == ("cocycle", [1, 1, 1, 1])
        assert all(type(v) is int for v in first["witness"])

    def test_validate_invalid_pointed_exits_1(self, tmp_path):
        from gxcat.pointed import toric_code_pointed

        data = toric_code_pointed()
        obj = dump_pointed(data)
        obj["braid"] = [list(r) for r in obj["braid"]]
        obj["braid"][2][1] = (obj["braid"][2][1] + 1) % 2
        bad = tmp_path / "bent.json"
        bad.write_text(json.dumps(obj))
        res = run_cli(["validate", str(bad), "--format", "json"])
        assert res.exit_code == 1
        first = json.loads(res.output)["issues"][0]
        assert (first["code"], first["witness"]) == ("hexagon-1", ["x2", "x1", "x2"])

    @pytest.mark.parametrize("field, value", [
        ("braid", [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]]),  # 3 rows, |Gamma| = 4
        ("deg", [0, 0, 0]),
        ("action", [[0, 1, 2]]),
    ])
    def test_validate_misshapen_pointed_exits_1(self, tmp_path, field, value):
        obj = json.loads((CORPUS / "pointed_toric_code.json").read_text())
        obj[field] = value
        bad = tmp_path / "misshapen.json"
        bad.write_text(json.dumps(obj))
        res = _subprocess_cli(["validate", str(bad), "--format", "json"], 1)
        stderr = res.stderr.decode()
        assert res.returncode == 1, stderr
        assert stderr.startswith(f"error: {field} has ") and "Traceback" not in stderr

    def test_validate_cochain_over_cell_cap_exits_3(self, tmp_path):
        # S4 at degree 5: 24^6 cells to check, over CELL_CAP; refused before allocating
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"group": "S4", "degree": 5, "N": 2, "values": []}))
        res = run_cli(["validate", str(big), "--format", "json"])
        assert res.exit_code == 3

    def test_text_format_renders(self):
        res = run_cli(["dims", str(CORPUS / "ring_ising.json")])
        assert res.exit_code == 0
        assert "global_dim" in res.output

    def test_usage_error_exits_2(self):
        assert run_cli(["sectors", "/does/not/exist.json"]).exit_code == 2
        assert run_cli(["cohomology", "--group", "M11", "--k", "3"]).exit_code == 2

    def test_resource_guard_exits_3(self):
        res = run_cli(["cohomology", "--group", "S4", "--k", "4"])
        assert res.exit_code == 3

    def test_double_command(self):
        res = run_cli(["double", "--group", "S3", "--trivial", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert sorted(s["dim"] for s in payload["simples"]) == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_holo_crossed_and_smatrix(self, tmp_path):
        res = run_cli([
            "holo-crossed", "--group", "Z2",
            "--cocycle", str(CORPUS / "cocycle_Z2_h3_0.json"),
            "--format", "json", "--out", str(tmp_path / "holo.json"),
        ])
        assert res.exit_code == 0
        data = json.loads((tmp_path / "holo.json").read_text())
        assert data["solutions"] == 2
        pointed_path = tmp_path / "pointed.json"
        pointed_path.write_text(canonical_json(data["data"]))
        res2 = run_cli(["smatrix", str(pointed_path), "--format", "json"])
        assert res2.exit_code == 0
        assert json.loads(res2.output)["invertible"] is True

    def test_transgress_command(self):
        res = run_cli([
            "transgress", str(CORPUS / "cocycle_Z2_h3_0.json"), "--g", "g", "--format", "json",
        ])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["is_coboundary"] is False
        assert payload["tau"]["values"] == [[1, 1, 1]]

    def test_gauge_and_ungauge(self):
        res = run_cli(["gauge", str(CORPUS / "ring_fib_fib_swap.json"), "--format", "json"])
        assert res.exit_code == 0
        assert len(json.loads(res.output)["simples"]) == 5
        res2 = run_cli([
            "ungauge", str(CORPUS / "ring_toric_code.json"),
            "--embed", "pi0=e,pi1=e.g", "--group", "Z2", "--format", "json",
        ])
        assert res2.exit_code == 0
        assert json.loads(res2.output)["global_dim"] == {"a": 2, "b": 0, "den": 1, "m": 1}

    def test_roundtrip_command(self):
        res = run_cli([
            "roundtrip", str(CORPUS / "ring_rep_z2.json"),
            "--embed", "pi0=e,pi1=g", "--group", "Z2", "--format", "json",
        ])
        assert res.exit_code == 0
        assert json.loads(res.output)["dims_match"] is True

    def test_enumerate_command(self):
        res = run_cli(["enumerate", "--group", "Z2", "--N", "4", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["orbit_count"] == 4

    def test_enumerate_seed_leaves_output_unchanged(self):
        args = ["enumerate", "--group", "S3", "--N", "2", "--format", "json"]
        base = run_cli(args)
        assert base.exit_code == 0
        for seed in ("1", "2", "7"):
            res = run_cli(args + ["--seed", seed])
            assert res.exit_code == 0, res.output
            assert res.stdout == base.stdout

    def test_perm_picard_command(self):
        res = run_cli([
            "perm-picard", "--base", str(CORPUS / "ring_ising.json"),
            "--n", "2", "--group", "Z2", "--format", "json",
        ])
        assert res.exit_code == 0
        assert json.loads(res.output)["count"] == 4

    def test_obstruct_command(self):
        res = run_cli([
            "obstruct", str(CORPUS / "ring_ising_ising_swap.json"), "--g", "g", "--format", "json",
        ])
        assert res.exit_code == 0
        assert json.loads(res.output)["witness"] is not None

    def test_json_reports_reparse(self):
        for args in [
            ["dims", str(CORPUS / "ring_ising.json")],
            ["picard", str(CORPUS / "ring_ising.json")],
            ["sectors", str(CORPUS / "ising_z2graded.json")],
        ]:
            res = run_cli(args + ["--format", "json"])
            assert res.exit_code == 0
            json.loads(res.output)  # must parse


def _child_env(threads):
    # The child runs from cwd="/", where a relative PYTHONPATH such as `src`
    # points nowhere, so the directory holding the imported gxcat goes first.
    env = dict(os.environ)
    src = str(pathlib.Path(gxcat.__file__).resolve().parent.parent)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _subprocess_cli(args, threads):
    return subprocess.run(
        [sys.executable, "-m", "gxcat.cli", *args],
        capture_output=True,
        env=_child_env(threads),
        cwd="/",
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["dims", "ring_fib_fib_swap.json"],
            ["sectors", "ising_z2graded.json"],
            ["gauge", "ring_ising_ising_swap.json"],
            ["smatrix", "pointed_double_semion.json"],
            ["cohomology", "--group", "Z2xZ2", "--k", "3"],
        ],
    )
    def test_byte_identical_across_runs_and_threads(self, args):
        full = [a if not a.endswith(".json") else str(CORPUS / a) for a in args]
        full += ["--format", "json"]
        a = _subprocess_cli(full, 1)
        b = _subprocess_cli(full, 2)
        assert a.returncode == 0 and b.returncode == 0, (a.stderr, b.stderr)
        assert a.stdout == b.stdout


# Replaces one section value handed to twisted_double (the identity entry of
# the last irrep of the last class) by itself plus one, then runs the CLI.
_CORRUPT_SECTION_CLI = """
import sys
import gxcat.pointed as pointed
real = pointed.projective_irrep_data
def corrupted(cent, tau):
    irreps, n = real(cent, tau)
    if cent.order == 3:
        dim, section = irreps[-1]
        irreps[-1] = (dim, (section[0] + 1,) + tuple(section[1:]))
    return irreps, n
pointed.projective_irrep_data = corrupted
from gxcat.cli import main
main(sys.argv[1:])
"""


class TestInvariantChecks:
    ARGS = ["double", "--group", "S3", "--trivial", "--format", "json"]

    @staticmethod
    def _check_optimized_run(args):
        plain = _subprocess_cli(args, 1)
        optimized = subprocess.run(
            [sys.executable, "-O", "-m", "gxcat.cli", *args], capture_output=True, env=_child_env(1), cwd="/"
        )
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert plain.stdout == optimized.stdout

    def test_optimized_run_is_byte_identical(self):
        self._check_optimized_run(self.ARGS)

    def test_optimized_twisted_run_is_byte_identical(self):
        # character tables of central extensions: the path of the chartab checks
        cocycle = str(CORPUS / "cocycle_Z4_h3_0.json")
        self._check_optimized_run(["double", "--group", "Z4", "--cocycle", cocycle, "--format", "json"])

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_corrupt_section_exits_4(self, flags):
        res = subprocess.run(
            [sys.executable, *flags, "-c", _CORRUPT_SECTION_CLI, *self.ARGS],
            capture_output=True, env=_child_env(1), cwd="/",
        )
        assert res.returncode == 4, res.stderr
        assert res.stderr.startswith(b"invariant violated: ") and b"Traceback" not in res.stderr
