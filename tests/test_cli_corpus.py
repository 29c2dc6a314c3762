import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import traceback
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxcat
from corpus_build import double_semion_pointed, toric_code_pointed
from gxcat.cli import UsageError, _parse_embedding, main
from gxcat.corpus import corpus_dir, corpus_list
from gxcat.errors import CorpusError, FusionError
from gxcat.serialize import (
    canonical_json,
    detect_kind,
    dump_pointed,
    dump_ring,
    load_pointed,
    load_ring,
)

CORPUS = pathlib.Path(str(corpus_dir()))


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(args):
    """Run ``gxcat ARGS`` in this process and capture its exit code, stdout
    and stderr.  An exception that escapes ``main`` exits 1 with its
    traceback on stderr, as it would in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def golden_commands():
    """(entry name, arguments, golden path) of every corpus entry with a golden."""
    commands = {"group": "validate", "cocycle": "validate", "ring": "dims", "pointed": "smatrix"}
    for rec in json.loads((CORPUS / "index.json").read_text())["entries"]:
        if rec["golden"]:
            cmd = "sectors" if rec["name"] == "ising_z2graded" else commands[rec["kind"]]
            yield rec["name"], [cmd, str(CORPUS / rec["path"]), "--format", "json"], CORPUS / rec["golden"]


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
        for name, args, golden in golden_commands():
            res = run_cli(args)
            assert res.exit_code == 0
            assert res.output == golden.read_text(), name


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
        data = double_semion_pointed()
        back = load_pointed(json.loads(canonical_json(dump_pointed(data))))
        assert back.braid == data.braid
        assert back.assoc.values == data.assoc.values

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
                       | st.dictionaries(st.integers() | st.floats(allow_nan=False), inner)
                       | st.dictionaries(st.booleans(), inner)),
        max_leaves=40))
    def test_canonical_json_is_json_dumps(self, obj):
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("obj", [{(1, 2): 1}, [{1, 2}], {"a": np.int64(1)}, {"a": 1, 2: "b"}, {None: 0, True: 1}],
                             ids=["tuple-key", "set", "numpy-int", "mixed-keys", "none-and-bool-keys"])
    def test_canonical_json_refuses_as_json_dumps(self, obj):
        with pytest.raises(TypeError) as ours:
            canonical_json(obj)
        with pytest.raises(TypeError) as theirs:
            json.dumps(obj, sort_keys=True, indent=1)
        assert str(ours.value) == str(theirs.value)

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

    @pytest.mark.parametrize("mul", [
        [[0, 1.5], [1, 0]],  # a float
        [[0, "1"], [1, 0]],  # a numeric string
        [[0, True], [1, 0]],  # a bool
        [[0, 1], [1]],  # ragged
        [],  # empty
        [[0, 2], [1, 0]],  # out of range
    ])
    def test_validate_refuses_a_table_not_over_its_indices(self, tmp_path, mul):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"name": "bad", "mul": mul}))
        res = run_cli(["validate", str(path), "--format", "json"])
        n = len(mul)
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == f"error: bad: not an {n}x{n} table over 0..{n - 1}\n"

    @pytest.mark.parametrize("command", ["validate", "dims"])
    @pytest.mark.parametrize("mult", [1.5, "1", True])
    def test_ring_multiplicity_must_be_an_integer(self, tmp_path, command, mult):
        obj = json.loads((CORPUS / "ring_fibonacci.json").read_text())
        obj["N"][4][3] = mult  # N_tt^t
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(obj))
        res = run_cli([command, str(path), "--format", "json"])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == f"error: multiplicity at (1, 1, 1) is not an integer: {mult!r}\n"

    @pytest.mark.parametrize("command", ["validate", "dims"])
    @pytest.mark.parametrize("again", [[1, 1, 1, 7], ["t", "t", "t", 1], ["t", 1, "t", 1]])
    def test_ring_entry_given_twice_is_refused(self, tmp_path, command, again):
        # before, the last entry won: [1, 1, 1, 7] gave t = (7 + sqrt(53)) / 2
        obj = json.loads((CORPUS / "ring_fibonacci.json").read_text())
        obj["N"].append(again)
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(obj))
        res = run_cli([command, str(path), "--format", "json"])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == "error: multiplicity at (1, 1, 1) is given twice\n"

    @pytest.mark.parametrize("values", [
        [[1, 1, 1, 1], [1, 1, 1, 0]],  # before, this validated as the zero cocycle
        [[1, 1, 1, 1], [1, 1, 1, 1]],
        [[0, 1, 1, 0], [0, 1, 1, 0]],
    ])
    def test_cocycle_entry_given_twice_is_refused(self, tmp_path, values):
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps({"group": "Z2", "degree": 3, "N": 2, "values": values}))
        res = run_cli(["validate", str(path), "--format", "json"])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == f"error: tuple {tuple(values[0][:3])} is given twice\n"

    def test_cocycle_entry_given_twice_by_name_and_index_is_refused(self, tmp_path):
        from gxcat.groups import build_group

        x = build_group("Z2").element_names[1]
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps({"group": "Z2", "degree": 3, "N": 2, "values": [[x, x, x, 1], [1, 1, 1, 1]]}))
        res = run_cli(["validate", str(path), "--format", "json"])
        assert (res.exit_code, res.stderr) == (1, "error: tuple (1, 1, 1) is given twice\n")

    def test_pointed_assoc_entry_given_twice_is_refused(self, tmp_path):
        obj = json.loads((CORPUS / "pointed_toric_code.json").read_text())
        obj["assoc"] = [[1, 2, 3, 0], [1, 2, 3, 1]]
        path = tmp_path / "pointed.json"
        path.write_text(json.dumps(obj))
        res = run_cli(["validate", str(path), "--format", "json"])
        assert (res.exit_code, res.stderr) == (1, "error: tuple (1, 2, 3) is given twice\n")

    def test_validate_refuses_a_table_over_the_order_cap(self, tmp_path):
        path = tmp_path / "z65.json"
        path.write_text(json.dumps({"name": "Z65", "mul": [[(i + j) % 65 for j in range(65)] for i in range(65)]}))
        res = run_cli(["validate", str(path), "--format", "json"])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == "error: explicit tables capped at order 64\n"

    @pytest.mark.parametrize("command", ["double", "holo-crossed"])
    @pytest.mark.parametrize("flag", [["--trivial"], ["--N", "2"]])
    def test_zero_cocycle_flags_do_not_go_with_a_cocycle(self, command, flag):
        # before, --trivial printed the untwisted answer and --N was ignored
        res = run_cli([command, "--group", "Z2", "--cocycle", str(CORPUS / "cocycle_Z2_h3_0.json"), *flag,
                       "--format", "json"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert f"error: {flag[0]} is for the zero cocycle and cannot go with --cocycle" in res.stderr

    @pytest.mark.parametrize("entry", [2.5, 2.0, "2", True])
    def test_action_entries_must_be_label_indices(self, tmp_path, entry):
        obj = json.loads((CORPUS / "ring_fib_fib_swap.json").read_text())
        obj["action"]["g"][1] = entry
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(obj))
        res = run_cli(["gauge", str(path), "--format", "json"])
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr == "error: action entry for group element g is not a list of label indices\n"

    @pytest.mark.parametrize("name, where, value, message", [
        ("cocycle_Z2_h3_0.json", ["degree"], 3.0, "degree is not an integer: 3.0"),
        ("cocycle_Z2_h3_0.json", ["N"], "2", "N is not an integer: '2'"),
        ("cocycle_Z2_h3_0.json", ["values", 0, 3], 1.5, "values entry is not an integer: 1.5"),
        ("cocycle_Z2_h3_0.json", ["values", 0, 0], True, "values entry is not an integer: True"),
        ("pointed_toric_code.json", ["N"], 2.0, "N is not an integer: 2.0"),
        ("pointed_toric_code.json", ["deg", 1], True, "deg entry is not an integer: True"),
        ("pointed_double_semion.json", ["assoc", 0, 3], 2.5, "assoc entry is not an integer: 2.5"),
        ("pointed_double_semion.json", ["assoc", 0, 0], "1", "assoc entry is not an integer: '1'"),
        ("pointed_toric_code.json", ["action", 0, 2], "2", "action entry is not an integer: '2'"),
        ("pointed_toric_code.json", ["braid", 1, 2], 1.0, "braid entry is not an integer: 1.0"),
    ])
    def test_cocycle_and_pointed_integers_must_be_integers(self, tmp_path, name, where, value, message):
        obj = json.loads((CORPUS / name).read_text())
        *path, last = where
        target = obj
        for key in path:
            target = target[key]
        target[last] = value
        bad = tmp_path / name
        bad.write_text(json.dumps(obj))
        res = run_cli(["validate", str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("degree, n, message", [
        (-1, 2, "cochain degree must be at least 0, not -1"),
        (2, 0, "cochain modulus N must be at least 1, not 0"),
        (2, -3, "cochain modulus N must be at least 1, not -3"),
        (2, 2**31, "cochain modulus N must be below 2**31, not 2147483648"),
        (2, 2**70, "cochain modulus N must be below 2**31, not 1180591620717411303424"),
    ])
    def test_cocycle_degree_and_modulus_must_be_in_range(self, tmp_path, degree, n, message):
        bad = tmp_path / "cocycle.json"
        bad.write_text(json.dumps({"group": "Z2", "degree": degree, "N": n, "values": []}))
        res = run_cli(["validate", str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("group, degree, cells", [
        ("Z2", 25, "67108864"),
        ("Z3", 25, "2541865828329"),
        ("Z2", 26, "more than 2**26"),
        ("Z2", 2**70, "more than 2**1180591620717411303424"),
    ])
    def test_cocycle_degree_is_priced_without_its_power(self, tmp_path, group, degree, cells):
        # a degree of 2**70 read from a file built 2**(2**70 + 1) before it was refused
        bad = tmp_path / "cocycle.json"
        bad.write_text(json.dumps({"group": group, "degree": degree, "N": 2, "values": []}))
        res = run_cli(["validate", str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", (
            f"resource guard: degree-{degree} cochain on a group of order {group[1:]}: "
            f"{cells} cells to check exceed the cell cap 33554432\n"))

    @pytest.mark.parametrize("n", [2**31, 2**70])
    @pytest.mark.parametrize("command", ["validate", "smatrix"])
    def test_pointed_modulus_must_be_below_2_31(self, tmp_path, command, n):
        obj = json.loads((CORPUS / "pointed_toric_code.json").read_text())
        obj["N"] = n
        bad = tmp_path / "pointed.json"
        bad.write_text(json.dumps(obj))
        res = run_cli([command, str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: cochain modulus N must be below 2**31, not {n}\n")

    @pytest.mark.parametrize("n, cells", [(10**6, 400000000000), (2**31 - 1, 4611686011984936962)])
    def test_smatrix_refuses_an_n_whose_reduction_is_over_the_cell_cap(self, tmp_path, n, cells):
        # without the guard, building Phi_N for the output ran past 20 s at N = 10**6
        obj = json.loads((CORPUS / "pointed_holo_z3.json").read_text())
        obj["N"] = n
        bad = tmp_path / "pointed.json"
        bad.write_text(json.dumps(obj))
        assert run_cli(["validate", str(bad), "--format", "json"]).exit_code == 0
        res = run_cli(["smatrix", str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            3, "", f"resource guard: reduction mod Phi_{n}: {cells} cells exceed the cell cap 33554432\n")

    @pytest.mark.parametrize("n, code", [(2**31 - 1, 0), (2**31, 1), (2**32, 1), (2**70, 1)])
    def test_double_modulus_must_be_below_2_31(self, n, code):
        res = run_cli(["double", "--group", "Z2", "--trivial", "--N", str(n), "--format", "json"])
        assert res.exit_code == code, res.output
        if code:
            assert (res.stdout, res.stderr) == ("", f"error: cochain modulus N must be below 2**31, not {n}\n")

    @pytest.mark.parametrize("name, message", [(["S3"], "a list"), (3, "a number"), (None, "null")])
    @pytest.mark.parametrize("command", [["validate"], ["cohomology", "--k", "2", "--group"]])
    def test_group_name_must_be_a_string(self, tmp_path, command, name, message):
        obj = json.loads((CORPUS / "group_S3.json").read_text())
        obj["name"] = name
        bad = tmp_path / "group.json"
        bad.write_text(json.dumps(obj))
        res = run_cli([*command, str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: group.name must be a string, not {message}\n")

    @pytest.mark.parametrize("where, message", [
        (["dual", "t"], "the dual map has no entry for 't'"),
        (["unit"], "ring file has no 'unit'"),
        (["N"], "ring file has no 'N'"),
    ])
    def test_ring_file_missing_a_key(self, tmp_path, where, message):
        obj = json.loads((CORPUS / "ring_fibonacci.json").read_text())
        *path, last = where
        target = obj
        for key in path:
            target = target[key]
        del target[last]
        with pytest.raises(FusionError) as info:
            load_ring(obj)
        assert str(info.value) == message
        bad = tmp_path / "ring.json"
        bad.write_text(json.dumps(obj))
        for command in ("validate", "dims"):
            res = run_cli([command, str(bad), "--format", "json"])
            assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    def test_ring_label_index_must_be_a_label(self, tmp_path):
        obj = json.loads((CORPUS / "ring_fibonacci.json").read_text())
        obj["N"][4][0] = 7
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(obj))
        res = run_cli(["validate", str(path), "--format", "json"])
        assert (res.exit_code, res.stderr) == (1, "error: 7 is not a label of fibonacci\n")

    @pytest.mark.parametrize("name, command, where, value, message", [
        ("ising_z2graded.json", "sectors", ["grading"], [1], "grading must be an object, not a list"),
        ("ising_z2graded.json", "sectors", ["grading", "group"], 5,
         "grading.group must be a string or an object, not a number"),
        ("ising_z2graded.json", "sectors", ["grading", "deg"], [0, 0, 1], "grading.deg must be an object, not a list"),
        ("ising_z2graded.json", "sectors", ["grading", "deg"], {"1": 0}, "the grading has no entry for 'p'"),
        ("ising_z2graded.json", "sectors", ["simples"], "1", "simples must be a list, not a string"),
        ("ising_z2graded.json", "sectors", ["simples", 0], ["1"], "simples entry must be a string, not a list"),
        ("ising_z2graded.json", "sectors", ["dual"], 5, "dual must be an object or a list, not a number"),
        ("ising_z2graded.json", "sectors", ["N", 0, 0], [0], "N entry label must be a string or a number, not a list"),
        ("ring_fib_fib_swap.json", "gauge", ["action"], [[0, 1, 2, 3]], "action must be an object, not a list"),
        ("ring_fib_fib_swap.json", "gauge", ["action", "g"], 3,
         "action entry for group element g is not a list of label indices"),
        ("pointed_toric_code.json", "validate", ["Gamma"], 4, "Gamma must be a string or an object, not a number"),
        ("pointed_toric_code.json", "validate", ["G"], None, "G must be a string or an object, not null"),
        ("pointed_toric_code.json", "validate", ["deg"], 5, "deg must be an object or a list, not a number"),
        ("pointed_toric_code.json", "validate", ["deg", 1], 5, "deg entry: 5 is not an element of Z1"),
        ("pointed_toric_code.json", "validate", ["action"], "e", "action must be an object or a list, not a string"),
        ("pointed_toric_code.json", "validate", ["action", 0], 0, "action row must be a list, not a number"),
        ("pointed_toric_code.json", "validate", ["braid"], {"x": 1}, "braid must be a list, not an object"),
        ("pointed_toric_code.json", "validate", ["braid", 0], 0, "braid row must be a list, not a number"),
    ])
    def test_nested_field_of_the_wrong_shape(self, tmp_path, name, command, where, value, message):
        obj = json.loads((CORPUS / name).read_text())
        *path, last = where
        target = obj
        for key in path:
            target = target[key]
        target[last] = value
        bad = tmp_path / name
        bad.write_text(json.dumps(obj))
        res = run_cli([command, str(bad), "--format", "json"])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {message}\n")

    def test_text_format_renders(self):
        res = run_cli(["dims", str(CORPUS / "ring_ising.json")])
        assert res.exit_code == 0
        assert "global_dim" in res.output

    def test_usage_error_exits_2(self, tmp_path):
        assert run_cli(["sectors", "/does/not/exist.json"]).exit_code == 2
        assert run_cli(["cohomology", "--group", "M11", "--k", "3"]).exit_code == 2
        for text in ("[1]", "3"):  # JSON, but not an object
            (tmp_path / "x.json").write_text(text)
            for command in ("validate", "dims", "gauge"):
                res = run_cli([command, str(tmp_path / "x.json")])
                assert res.exit_code == 2 and "does not hold a JSON object" in res.stderr, res.stderr

    @pytest.mark.parametrize("n", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["cohomology", "--group", "Z2", "--k", "3"],
        ["double", "--group", "Z2", "--trivial"],
        ["holo-crossed", "--group", "Z2", "--trivial"],
        ["enumerate", "--group", "Z2"],
    ])
    def test_nonpositive_n_is_a_usage_error(self, command, n):
        res = run_cli(command + ["--N", n, "--format", "json"])
        assert res.exit_code == 2, res.output
        assert f"argument --N: N must be a positive integer, not {n}" in res.stderr
        assert res.stdout == ""

    def test_seed_is_a_usage_error(self):
        # enumerate has no start order to shuffle, so it takes no --seed
        res = run_cli(["enumerate", "--group", "Z2", "--N", "2", "--seed", "1", "--format", "json"])
        assert res.exit_code == 2, res.output
        assert "unrecognized arguments: --seed 1" in res.stderr
        assert res.stdout == ""

    def test_directory_input_is_a_usage_error(self):
        res = run_cli(["validate", str(CORPUS), "--format", "json"])
        assert res.exit_code == 2, res.output
        assert f"cannot read {CORPUS}: " in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["validate", "dims"])
    def test_input_that_is_not_utf8_is_a_usage_error(self, tmp_path, command):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        res = run_cli([command, str(bad), "--format", "json"])
        assert res.exit_code == 2, res.output
        assert f"cannot read {bad}: not UTF-8 (invalid start byte at byte 0)" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    def test_out_in_a_missing_directory_is_refused_before_the_work(self, tmp_path, monkeypatch):
        import gxcat.fusion

        def not_run(ring):
            raise AssertionError("the command ran")

        monkeypatch.setattr(gxcat.fusion, "pf_dims", not_run)
        out = tmp_path / "missing" / "x.json"
        res = run_cli(["dims", str(CORPUS / "ring_ising.json"), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"cannot write {out}: no such directory" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == "" and not out.parent.exists()

    def test_out_that_cannot_be_opened_is_a_usage_error(self, tmp_path):
        res = run_cli(["dims", str(CORPUS / "ring_ising.json"), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert f"cannot write {tmp_path}: " in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, ring, embed, group, label", [
        ("ungauge", "toric_code", "pi0=e,pi1=nope", "Z2", "nope"),
        ("roundtrip", "rep_z2", "pi0=e,pi1=nope", "Z2", "nope"),
        ("ungauge", "rep_s3", "pi0=1,pi1=sgn,pi2=std", "S3", "sgn"),
    ])
    def test_embedding_outside_the_ring_exits_1(self, command, ring, embed, group, label):
        res = run_cli([command, str(CORPUS / f"ring_{ring}.json"), "--embed", embed, "--group", group])
        assert res.exit_code == 1, res.output
        assert res.stderr == f"error: embedding image {label!r} is not a label of {ring}\n"
        assert res.stdout == ""

    def test_resource_guard_exits_3(self):
        res = run_cli(["cohomology", "--group", "S4", "--k", "4"])
        assert res.exit_code == 3

    def test_holo_crossed_over_the_cell_cap_exits_3(self, tmp_path):
        # Z32: 2 * 32^3 = 65,536 hexagon rows over 31^2 = 961 orbit columns,
        # over CELL_CAP; refused before the braid system is built
        z32 = tmp_path / "z32.json"
        z32.write_text(json.dumps({"name": "Z32", "mul": [[(i + j) % 32 for j in range(32)] for i in range(32)]}))
        res = run_cli(["holo-crossed", "--group", str(z32), "--trivial"])
        assert res.exit_code == 3, res.stderr
        assert "65536x961 = 62980096 cells exceed the cell cap 33554432" in res.stderr
        assert "Traceback" not in res.stderr

    def test_holo_crossed_reaches_s4(self, tmp_path):
        out = tmp_path / "holo.json"
        res = run_cli(["holo-crossed", "--group", "S4", "--trivial", "--N", "2", "--format", "json", "--out", str(out)])
        assert res.exit_code == 0, res.stderr
        pointed_path = tmp_path / "pointed.json"
        pointed_path.write_text(canonical_json(json.loads(out.read_text())["data"]))
        res2 = run_cli(["validate", str(pointed_path), "--format", "json"])
        assert res2.exit_code == 0 and json.loads(res2.output)["passed"] is True

    def test_double_command(self):
        res = run_cli(["double", "--group", "S3", "--trivial", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert sorted(s["dim"] for s in payload["simples"]) == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_double_of_a_type_iii_cocycle_has_a_fusion_ring(self, tmp_path):
        from gxcat.cohomology import cohomology_group
        from gxcat.groups import build_group
        from gxcat.serialize import dump_cocycle

        omega = cohomology_group(build_group("Z2xZ2xZ2"), 3, 2).representatives[3]
        path = tmp_path / "type_iii.json"
        path.write_text(canonical_json(dump_cocycle(omega)))
        res = run_cli(["double", "--group", "Z2xZ2xZ2", "--cocycle", str(path), "--format", "json"])
        assert res.exit_code == 0, res.stderr
        payload = json.loads(res.output)
        assert payload["has_fusion_ring"] is True and len(payload["s_matrix"]) == 22

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

    def test_smatrix_on_the_trivial_group(self, tmp_path):
        # N = 1 takes the F_2 test of invertibility, whose primitive root is 1
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"Gamma": "Z1", "G": "Z1", "deg": [0], "action": [[0]], "N": 1,
                                    "assoc": [], "braid": [[0]]}))
        res = run_cli(["smatrix", str(path), "--format", "json"])
        assert res.exit_code == 0, res.stderr
        assert json.loads(res.output)["invertible"] is True

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

    # Labels of a tensor product, such as (1,1), hold a comma; --embed splits
    # only at the commas outside brackets, and with no --group, G is the group
    # of the ring file's action.  The sha256 of each canonical JSON output was
    # frozen from crossed_product and roundtrip_check in process while the CLI
    # still split at every comma and refused these calls with exit 2.
    @pytest.mark.parametrize("command, sha256", [
        ("ungauge", "dfcfcb8615305af352c021556eb310f73f6a7f13c7da6103b5f6ca0cca8ed05b"),
        ("roundtrip", "275f926bfe1f68759e1d9186a8c93a29127a8c7dbf1b9f0efbdcc9349b6da72e"),
    ])
    def test_embedding_labels_with_commas(self, command, sha256):
        res = run_cli([command, str(CORPUS / "ring_ising_ising_swap.json"), "--embed", "pi0=(1,1),pi1=(p,p)",
                       "--format", "json"])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == sha256
        payload = json.loads(res.stdout)
        assert not payload.get("has_output_ring") and payload.get("simple_counts") is None

    @pytest.mark.parametrize("embed, pairs", [
        ("pi0=((1,1),s),pi1=[a,b]", {"pi0": "((1,1),s)", "pi1": "[a,b]"}),
        ("pi0=(1,1),(p,p)", None),
        ("pi0=(1,1)),pi1=x", None),
        ("pi0=(1,1,pi1=x", None),
    ])
    def test_embedding_splits_at_commas_outside_brackets(self, embed, pairs):
        if pairs is None:
            with pytest.raises(UsageError, match="embedding must look like"):
                _parse_embedding(embed)
        else:
            assert _parse_embedding(embed) == pairs

    def test_enumerate_command(self):
        res = run_cli(["enumerate", "--group", "Z2", "--N", "4", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["orbit_count"] == 4

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
# the last irrep of the last class) by itself plus one, one more on its
# coefficient of zeta_m^0, then runs the CLI.
_CORRUPT_SECTION_CLI = """
import sys
import gxcat.modular as modular
real = modular.projective_irrep_data
def corrupted(cent, tau):
    dims, sections, n = real(cent, tau)
    if cent.order == 3:
        sections = sections.copy()
        sections[-1, 0, 0] += 1
    return dims, sections, n
modular.projective_irrep_data = corrupted
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

    def test_optimized_gauge_run_is_byte_identical(self):
        # the gauging dimension identities and the groups class checks
        self._check_optimized_run(["gauge", str(CORPUS / "ring_ising_ising_swap.json"), "--format", "json"])

    @pytest.mark.parametrize("args", [
        ["cohomology", "--group", "S3", "--k", "3", "--format", "json"],
        ["transgress", str(CORPUS / "cocycle_Z2xZ2_h3_1.json"), "--g", "g.e", "--format", "json"],
    ])
    def test_optimized_cochain_run_is_byte_identical(self, args):
        # the closedness and exactness checks of cohomology and transgress
        self._check_optimized_run(args)

    @pytest.mark.parametrize("args, degree", [
        (["cohomology", "--group", "S3", "--k", "3"], 3),  # the representatives
        (["transgress", str(CORPUS / "cocycle_Z2_h3_0.json"), "--g", "g"], 2),  # the output
    ])
    def test_open_cochain_exits_4(self, monkeypatch, args, degree):
        import gxcat.cohomology as cohomology

        real = cohomology.is_cocycle
        monkeypatch.setattr(cohomology, "is_cocycle",
                            lambda c: (False, (1,) * (degree + 1)) if c.degree == degree else real(c))
        res = run_cli(args)
        assert res.exit_code == 4, res.stderr
        assert res.stderr.startswith("invariant violated: ") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_corrupt_section_exits_4(self, flags):
        res = subprocess.run(
            [sys.executable, *flags, "-c", _CORRUPT_SECTION_CLI, *self.ARGS],
            capture_output=True, env=_child_env(1), cwd="/",
        )
        assert res.returncode == 4, res.stderr
        assert res.stderr.startswith(b"invariant violated: ") and b"Traceback" not in res.stderr
