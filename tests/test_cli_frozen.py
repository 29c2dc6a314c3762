"""Exit codes, stdout and stderr of ``gxcat``, frozen before the command line
front end moved from click to argparse.

``tests/data/cli_frozen.json`` holds ``snapshot()`` as computed with the
click front end (written with
``python tests/test_cli_frozen.py > tests/data/cli_frozen.json``).  For each
call it records the exit code, the sha256 of stdout (and of the ``--out``
file) and the full stderr.  Paths of the corpus and of the scratch
directory are masked first, so the record does not depend on the checkout.

Two kinds of stderr are not frozen word for word:

* usage and parse errors (exit 2): their wording belongs to the argument
  parser, so only a non-empty stderr without a traceback is checked;
* calls that ended in a traceback (a file of another kind handed to a
  command): the traceback names source lines.  Only its last line is kept,
  and the call may now end in a one-line ``error:`` message instead.

The calls: every command in text and JSON and with ``--out``; ``validate``,
``dims``, ``sectors`` and ``smatrix`` on every corpus file; usage errors;
the ``Error:`` exits of the front end; and the resource guard.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from test_cli_corpus import CORPUS, run_cli

FROZEN = pathlib.Path(__file__).parent / "data" / "cli_frozen.json"

# name -> arguments; ``{c}`` is the corpus directory, ``{t}`` the scratch one
COMMANDS = {
    "validate": ["validate", "{c}/group_S3.json"],
    "dims": ["dims", "{c}/ring_ising.json"],
    "sectors": ["sectors", "{c}/ising_z2graded.json"],
    "picard": ["picard", "{c}/ring_ising.json"],
    "obstruct": ["obstruct", "{c}/ring_ising_ising_swap.json", "--g", "g"],
    "gauge": ["gauge", "{c}/ring_fib_fib_swap.json"],
    "ungauge": ["ungauge", "{c}/ring_toric_code.json", "--embed", "pi0=e,pi1=e.g", "--group", "Z2"],
    "roundtrip": ["roundtrip", "{c}/ring_rep_z2.json", "--embed", "pi0=e,pi1=g", "--group", "Z2"],
    "cohomology": ["cohomology", "--group", "Z2xZ2", "--k", "3"],
    "cohomology-warning": ["cohomology", "--group", "S3", "--k", "3", "--N", "2"],
    "transgress": ["transgress", "{c}/cocycle_Z2_h3_0.json", "--g", "g"],
    "double": ["double", "--group", "S3", "--trivial"],
    "double-twisted": ["double", "--group", "Z4", "--cocycle", "{c}/cocycle_Z4_h3_0.json"],
    "holo-crossed": ["holo-crossed", "--group", "Z2", "--cocycle", "{c}/cocycle_Z2_h3_0.json"],
    "enumerate": ["enumerate", "--group", "Z2", "--N", "4", "--seed", "1"],
    "smatrix": ["smatrix", "{c}/pointed_toric_code.json"],
    "perm-picard": ["perm-picard", "--base", "{c}/ring_ising.json", "--n", "2", "--group", "Z2"],
    "corpus": ["corpus"],
}

USAGE_ERRORS = {
    "no-command": [],
    "missing-argument": ["dims"],
    "missing-option": ["cohomology", "--group", "S3"],
    "unknown-command": ["no-such-command"],
    "unknown-option": ["dims", "{c}/ring_ising.json", "--no-such-option"],
    "bad-format": ["double", "--group", "S3", "--format", "xml"],
    "non-integer-k": ["cohomology", "--group", "S3", "--k", "x"],
    "unknown-preset": ["cohomology", "--group", "M11", "--k", "3"],
    "missing-file": ["sectors", "/does/not/exist.json"],
    "parse-error": ["validate", "{t}/truncated.json"],
    "unknown-kind": ["validate", "{t}/unknown.json"],
    "unknown-element": ["obstruct", "{c}/ring_ising_ising_swap.json", "--g", "h"],
    "bad-embedding": ["ungauge", "{c}/ring_toric_code.json", "--embed", "pi0"],
    "no-natural-embedding": ["perm-picard", "--base", "{c}/ring_ising.json", "--n", "3", "--group", "Z2"],
}

ERRORS = {
    "obstruct-without-action": ["obstruct", "{c}/ring_ising.json", "--g", "g"],
    "gauge-without-action": ["gauge", "{c}/ring_ising.json"],
    "smatrix-invalid": ["smatrix", "{t}/bent.json"],
    "double-cocycle-mismatch": ["double", "--group", "Z3", "--cocycle", "{c}/cocycle_Z2_h3_0.json"],
    "resource-guard": ["cohomology", "--group", "S4", "--k", "4"],
}


def _write_inputs(tmp):
    (tmp / "truncated.json").write_text('{"name": "Z2", "mul": [[0, 1],')
    (tmp / "unknown.json").write_text('{"whatever": 1}')
    bent = json.loads((CORPUS / "pointed_toric_code.json").read_text())
    bent["braid"][2][1] = (bent["braid"][2][1] + 1) % 2
    (tmp / "bent.json").write_text(json.dumps(bent))


def cases():
    out = {}
    for name, args in COMMANDS.items():
        out[f"{name}/json"] = args + ["--format", "json"]
        out[f"{name}/text"] = args + ["--format", "text"]
        out[f"{name}/out"] = args + ["--format", "json", "--out", f"{{t}}/out-{name}.json"]
    for path in sorted(CORPUS.glob("*.json")):
        if path.name != "index.json":
            for command in ("validate", "dims", "sectors", "smatrix"):
                out[f"corpus/{command}/{path.stem}"] = [command, f"{{c}}/{path.name}", "--format", "json"]
    out.update({f"usage/{k}": v for k, v in USAGE_ERRORS.items()})
    out.update({f"error/{k}": v for k, v in ERRORS.items()})
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(args, tmp):
    """Run one call: its record (exit code, hashed stdout, masked stderr)
    and its raw result."""
    args = [a.format(c=CORPUS, t=tmp) for a in args]
    res = run_cli(args)

    def mask(text):
        return text.replace(str(tmp), "<tmp>").replace(str(CORPUS), "<corpus>")

    rec = {"exit": res.exit_code, "stdout": _sha(mask(res.stdout))}
    if "--out" in args:
        rec["out"] = _sha(mask(pathlib.Path(args[args.index("--out") + 1]).read_text()))
    if "Traceback" in res.stderr:
        rec["traceback"] = res.stderr.strip().splitlines()[-1]
    elif res.exit_code != 2:
        rec["stderr"] = mask(res.stderr)
    return rec, res


def snapshot():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _write_inputs(tmp)
        return {key: record(args, tmp)[0] for key, args in cases().items()}


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    _write_inputs(tmp)
    return tmp


def test_frozen_cases_are_current():
    assert sorted(FROZEN_CASES) == sorted(cases())


@pytest.mark.parametrize("key", sorted(FROZEN_CASES))
def test_cli_matches_frozen(key, inputs):
    want = FROZEN_CASES[key]
    got, res = record(cases()[key], inputs)
    if want["exit"] == 2:
        assert (got["exit"], got["stdout"]) == (2, want["stdout"])
        assert res.stderr.strip() and "Traceback" not in res.stderr, res.stderr
    elif "traceback" in want:
        assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
        if "traceback" in got:
            assert got["traceback"] == want["traceback"]
        else:
            assert got["stderr"].startswith("error: ") and got["stderr"].count("\n") == 1, got["stderr"]
    else:
        assert got == want


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
