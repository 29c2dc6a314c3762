"""Cold start: a gxcat process imports only the layers its command uses.

Each case runs in a fresh interpreter from cwd="/" and reports which of
numpy, numpy.ma, click, argparse, gettext, locale and the gxcat modules
it loaded.  Only commands that run an array kernel (cochains, character
tables, doubles, gauging) may load numpy, none loads numpy.ma, and no case
loads click or the argparse stack: gxcat parses each command from its own
table.  The process entry,
``cli.run``, runs ``main`` with the cyclic collector off and ends with
``os._exit`` after the atexit handlers and a flush; it prints every
golden byte for byte.
"""

import gc
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gxcat.cli
from test_cli_corpus import CORPUS, _child_env, _subprocess_cli, golden_commands, run_cli
from test_cli_frozen import COMMANDS as FROZEN_COMMANDS
from test_cli_frozen import FROZEN_CASES, USAGE_ERRORS, _write_inputs, cases

# Runs `python -m gxcat.cli ARGS` in this interpreter (as runpy does for -m).
# An atexit handler registered before the entry runs writes the loaded module
# names to the file argv[1]; the exit code is the child's return code.
_RUN_CLI = """
import atexit, json, runpy, sys
out, sys.argv = sys.argv[1], ["gxcat"] + sys.argv[2:]

def report():
    with open(out, "w") as fh:
        json.dump({"modules": sorted(sys.modules)}, fh)

atexit.register(report)
runpy.run_module("gxcat.cli", run_name="__main__", alter_sys=True)
"""

# the package, its exception types and the JSON formats: no numpy
_BASE = {"gxcat", "gxcat.errors", "gxcat.serialize"}

_IMPORT = """
import json, sys
import {module}
json.dump(sorted(sys.modules), sys.stdout)
"""


_ARGPARSE = {"argparse", "gettext", "locale"}  # argparse loads gettext, and its first message locale
# np.unique on an int array imports numpy.ma, which costs a cold process
# milliseconds and over a megabyte; no command needs it
_UNUSED = _ARGPARSE | {"numpy.ma"}


def _loaded(modules):
    return {m for m in modules if m in {"numpy", "click", *_UNUSED} or m.startswith(("gxcat", "click."))}


def _run_cli(tmp_path, args):
    out = tmp_path / "modules.json"
    res = subprocess.run([sys.executable, "-c", _RUN_CLI, str(out), *args],
                         capture_output=True, env=_child_env(1), cwd="/")
    report = json.loads(out.read_text())
    return res.returncode, _loaded(report["modules"]), res


@pytest.mark.parametrize("module", ["gxcat", "gxcat.cli"])
def test_import_loads_no_numpy(module):
    res = subprocess.run([sys.executable, "-c", _IMPORT.format(module=module)],
                         capture_output=True, env=_child_env(1), cwd="/")
    assert res.returncode == 0, res.stderr
    assert _loaded(json.loads(res.stdout)) <= {"gxcat", "gxcat.cli"} | _BASE


COMMANDS = ["cohomology", "corpus", "dims", "double", "enumerate", "gauge", "holo-crossed", "obstruct",
            "perm-picard", "picard", "roundtrip", "sectors", "smatrix", "transgress", "ungauge", "validate"]


def test_help_lists_every_command(tmp_path):
    exit_code, loaded, res = _run_cli(tmp_path, ["--help"])
    assert exit_code == 0, res.stderr
    stdout = res.stdout.decode()
    assert "Usage" in stdout
    listed = [line.split()[0] for line in stdout.partition("Commands:\n")[2].splitlines()]
    assert listed == COMMANDS


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["dims", "--help"], 0),
    (["dims"], 2),  # missing argument
    (["no-such-command"], 2),
    (["double", "--group", "S3", "--format", "xml"], 2),
])
def test_help_and_usage_errors_load_no_numpy(tmp_path, args, code):
    exit_code, loaded, res = _run_cli(tmp_path, args)
    assert exit_code == code, res.stderr
    assert loaded <= _BASE, loaded


@pytest.mark.parametrize("name", COMMANDS)
def test_command_help_lists_its_table(tmp_path, name):
    exit_code, loaded, res = _run_cli(tmp_path, [name, "--help"])
    assert (exit_code, res.stderr) == (0, b""), res.stderr
    stdout = res.stdout.decode()
    assert stdout.startswith(f"Usage: gxcat {name}")
    _, arguments = gxcat.cli.COMMANDS[name]
    for flags, _ in (*arguments, *gxcat.cli.COMMON):
        assert flags[0] in stdout
    assert loaded <= _BASE, loaded


@pytest.mark.parametrize("key, args", [pytest.param(f"{k}/json", [*a, "--format", "json"], id=k)
                                       for k, a in FROZEN_COMMANDS.items()]
                         + [pytest.param(f"usage/{k}", a, id=f"usage/{k}") for k, a in USAGE_ERRORS.items()])
def test_no_command_loads_the_argparse_stack(tmp_path, key, args):
    _write_inputs(tmp_path)
    exit_code, loaded, res = _run_cli(tmp_path, [a.format(c=CORPUS, t=tmp_path) for a in args])
    assert exit_code == FROZEN_CASES[key]["exit"], res.stderr
    assert not loaded & _UNUSED, sorted(loaded & _UNUSED)


def test_frozen_jobs_cover_every_command():
    assert {a[0] for a in FROZEN_COMMANDS.values()} == set(COMMANDS)


# the input layers check groups and rings on their tuple and sparse forms
_GROUP = _BASE | {"gxcat.groups"}
_RING = _GROUP | {"gxcat.exact", "gxcat.fusion"}
_COHOMOLOGY = _GROUP | {"numpy", "gxcat.snf", "gxcat.cohomology"}
_ALL = _RING | _COHOMOLOGY | {"gxcat.cyclo", "gxcat.chartab", "gxcat.gauging", "gxcat.modular", "gxcat.pointed"}


@pytest.mark.parametrize("args, allowed", [
    (["validate", "group_S3.json"], _GROUP),
    (["validate", "cocycle_Z2_h3_0.json"], _COHOMOLOGY),
    (["validate", "ring_fibonacci.json"], _RING),
    (["dims", "ring_ising_ising_swap.json"], _RING),
    (["sectors", "ising_z2graded.json"], _RING),
    (["picard", "ring_ising.json"], _RING),
    (["cohomology", "--group", "Z2xZ2", "--k", "3"], _COHOMOLOGY),
    (["corpus"], _BASE | {"gxcat.corpus"}),
    (["smatrix", "pointed_toric_code.json"], _ALL - {"gxcat.gauging"}),
    (["double", "--group", "S3", "--trivial"], _ALL - {"gxcat.gauging", "gxcat.pointed"}),
    (["double", "--group", "Z4", "--cocycle", "cocycle_Z4_h3_0.json"], _ALL - {"gxcat.gauging", "gxcat.pointed"}),
    (["gauge", "ring_ising_ising_swap.json"], _ALL - {"gxcat.modular", "gxcat.pointed"}),
])
def test_command_loads_only_its_layers(tmp_path, args, allowed):
    args = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    exit_code, loaded, res = _run_cli(tmp_path, [*args, "--format", "json"])
    assert exit_code == 0, res.stderr
    assert loaded <= allowed, sorted(loaded - allowed)


@pytest.mark.parametrize("args, code", [
    (["validate", "ring_ising_ising_swap.json"], 0),  # a ring with an action
    (["validate", "broken_ring.json"], 1),
    (["obstruct", "ring_ising_ising_swap.json", "--g", "g"], 0),
])
def test_ring_input_commands_load_no_numpy(tmp_path, args, code):
    args = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    exit_code, loaded, res = _run_cli(tmp_path, [*args, "--format", "json"])
    assert exit_code == code, res.stderr
    assert loaded <= _RING, sorted(loaded - _RING)


# Records are plain classes: importing a layer generates no methods, so no
# command loads dataclasses, and the commands that need no numpy (which
# itself loads inspect) load no inspect either.  No module of gxcat, numpy
# or the stdlib modules they load imports __future__, so no command loads it.
def _every_module_loaded(tmp_path, args):
    args = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    exit_code, _, res = _run_cli(tmp_path, args)
    return exit_code, set(json.loads((tmp_path / "modules.json").read_text())["modules"]), res


# The crossed-data commands solve over Z/N and never print a cyclotomic
# value: they load neither the modular-data stack nor the exact scalars.
_MODULAR_STACK = {"gxcat.chartab", "gxcat.cyclo", "gxcat.fusion", "gxcat.exact", "gxcat.modular",
                  "fractions", "decimal"}


@pytest.mark.parametrize("args", [
    ["enumerate", "--group", "Z2", "--N", "4"],
    ["enumerate", "--group", "S3", "--N", "2"],
    ["holo-crossed", "--group", "D4", "--trivial"],
    ["validate", "pointed_toric_code.json"],
])
def test_crossed_data_commands_load_no_modular_stack(tmp_path, args):
    exit_code, modules, res = _every_module_loaded(tmp_path, [*args, "--format", "json"])
    assert exit_code == 0, res.stderr
    assert "gxcat.pointed" in modules
    assert not modules & _MODULAR_STACK, sorted(modules & _MODULAR_STACK)


_NUMPY_FREE_CASES = [
    (["--help"], 0),
    (["dims", "--help"], 0),
    (["dims"], 2),
    (["no-such-command"], 2),
    (["double", "--group", "S3", "--format", "xml"], 2),
    (["validate", "group_S3.json", "--format", "json"], 0),
    (["validate", "ring_fibonacci.json", "--format", "json"], 0),
    (["validate", "ring_ising_ising_swap.json", "--format", "json"], 0),
    (["validate", "broken_ring.json", "--format", "json"], 1),
    (["dims", "ring_ising.json", "--format", "json"], 0),
    (["sectors", "ising_z2graded.json", "--format", "json"], 0),
    (["picard", "ring_ising.json", "--format", "json"], 0),
    (["obstruct", "ring_ising_ising_swap.json", "--g", "g", "--format", "json"], 0),
    (["corpus", "--format", "json"], 0),
]

_ARRAY_CASES = [
    (["validate", "cocycle_Z2_h3_0.json", "--format", "json"], 0),
    (["cohomology", "--group", "Z2xZ2", "--k", "3", "--format", "json"], 0),
    (["smatrix", "pointed_toric_code.json", "--format", "json"], 0),
    (["double", "--group", "S3", "--trivial", "--format", "json"], 0),
    (["double", "--group", "Z4", "--cocycle", "cocycle_Z4_h3_0.json", "--format", "json"], 0),
    (["gauge", "ring_ising_ising_swap.json", "--format", "json"], 0),
    (["enumerate", "--group", "Z2", "--N", "2", "--format", "json"], 0),
]


# cohomology refuses a differential over the cell cap before it loads numpy
_REFUSED_CASES = [
    (["cohomology", "--group", "S4", "--k", "4", "--format", "json"], 3),
]


@pytest.mark.parametrize("args, code", _NUMPY_FREE_CASES + _ARRAY_CASES + _REFUSED_CASES)
def test_no_command_loads_dataclasses(tmp_path, args, code):
    exit_code, modules, res = _every_module_loaded(tmp_path, args)
    assert exit_code == code, res.stderr
    assert not modules & {"dataclasses", "__future__"}, sorted(modules & {"dataclasses", "__future__"})


@pytest.mark.parametrize("args, code", _NUMPY_FREE_CASES + _REFUSED_CASES)
def test_numpy_free_commands_load_no_inspect(tmp_path, args, code):
    exit_code, modules, res = _every_module_loaded(tmp_path, args)
    assert exit_code == code, res.stderr
    assert "numpy" not in modules
    assert "inspect" not in modules


# The process entry: `python -m gxcat.cli` and the `gxcat` script run
# cli.run, which runs main() with the cyclic collector off and ends the
# process with os._exit once the atexit handlers have run and stdout and
# stderr are flushed.  main() itself leaves the collector alone: tests and
# bench/child.py call it in process.  The child below spies on main() and
# writes what it saw from a handler registered before run().
_RUN_ENTRY = """
import atexit, gc, json, sys
import gxcat.cli

out, sys.argv = sys.argv[1], ["gxcat"] + sys.argv[2:]
main, seen = gxcat.cli.main, []

def spy(*args, **kwargs):
    seen.append(gc.isenabled())
    return main(*args, **kwargs)

def report():
    with open(out, "w") as fh:
        json.dump({"gc_enabled_in_main": seen, "gc_enabled_at_exit": gc.isenabled()}, fh)

gxcat.cli.main = spy
atexit.register(report)
gxcat.cli.run()
"""


@pytest.mark.parametrize("args, code", [
    (["cohomology", "--group", "Z2", "--k", "2", "--format", "json"], 0),
    (["validate", "broken_ring.json", "--format", "json"], 1),
    (["dims"], 2),
    (["cohomology", "--group", "S4", "--k", "4"], 3),
])
def test_module_entry_runs_main_with_the_collector_off(tmp_path, args, code):
    out = tmp_path / "entry.json"
    args = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    res = subprocess.run([sys.executable, "-c", _RUN_ENTRY, str(out), *args],
                         capture_output=True, env=_child_env(1), cwd="/")
    assert res.returncode == code, res.stderr
    assert json.loads(out.read_text()) == {"gc_enabled_in_main": [False], "gc_enabled_at_exit": False}
    assert res.stdout == run_cli(args).stdout.encode()


def test_main_in_process_freezes_nothing():
    before, enabled = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(["cohomology", "--group", "Z2", "--k", "2", "--format", "json"]).exit_code == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("args, golden", [
    pytest.param(a, g, id=name) for name, a, g in golden_commands() if name in ("ising", "toric_code_pointed")
])
def test_process_entry_writes_a_complete_out_file(tmp_path, args, golden):
    target = tmp_path / "out.json"
    res = _subprocess_cli([*args, "--out", str(target)], 1)
    assert (res.returncode, res.stdout, res.stderr) == (0, b"", b""), res.stderr
    assert target.read_bytes() == golden.read_bytes()


# With stdout a pipe whose reader is gone, the entry exits as main() alone
# would: a write that fails in main() ends in a traceback (exit 1), and a
# flush that fails at exit in "Exception ignored" (exit 120).
_MAIN_ONLY = "import sys; from gxcat.cli import main; main(sys.argv[1:])"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [
    ["cohomology", "--group", "Z2", "--k", "2", "--format", "json"],
    ["--help"],
], ids=["cohomology", "help"])
def test_process_entry_on_a_closed_stdout_pipe(args, unbuffered):
    env = dict(_child_env(1), PYTHONUNBUFFERED=unbuffered)
    results = []
    for cmd in (["-m", "gxcat.cli"], ["-c", _MAIN_ONLY]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, *cmd, *args], stdout=write_end, stderr=subprocess.PIPE,
                                 env=env, cwd="/")
        finally:
            os.close(write_end)
        results.append((res.returncode, res.stderr.decode().splitlines()[-1]))
    entry, main_only = results
    assert entry == main_only
    assert entry[0] in (1, 120) and "Broken pipe" in entry[1]


# A stdout that cannot be written is a usage error, as an --out that cannot
# be: one message, exit 2, and no traceback or "Exception ignored" from a
# later flush of the text that was not written.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [
    ["cohomology", "--group", "S3", "--k", "3"],
    ["dims", "ring_ising.json"],
    ["corpus", "--format", "json"],
    ["double", "--group", "S3", "--trivial", "--format", "json"],
    ["--help"],
    ["dims", "--help"],
], ids=["cohomology", "dims", "corpus", "double", "help", "dims-help"])
def test_a_full_stdout_is_a_usage_error(args, unbuffered):
    env = dict(_child_env(1), PYTHONUNBUFFERED=unbuffered)
    args = [str(CORPUS / a) if a.endswith(".json") else a for a in args]
    with open("/dev/full", "wb") as full:
        res = subprocess.run([sys.executable, "-m", "gxcat.cli", *args], stdout=full, stderr=subprocess.PIPE,
                             env=env, cwd="/")
    stderr = res.stderr.decode()
    assert res.returncode == 2, stderr
    prog = "gxcat" if args[0] == "--help" else f"gxcat {args[0]}"
    assert stderr.count("cannot write") == 1 and f"{prog}: error: cannot write stdout: " in stderr, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["gxcat"].partition(":")
    assert getattr(importlib.import_module(module), name) is gxcat.cli.run


@pytest.mark.parametrize("args, golden", [pytest.param(a, g, id=name) for name, a, g in golden_commands()])
def test_process_entry_prints_each_golden(args, golden):
    res = _subprocess_cli(args, 1)
    assert (res.returncode, res.stderr) == (0, b""), res.stderr
    assert res.stdout == golden.read_bytes()


@pytest.mark.parametrize("key", ["corpus/validate/broken_ring", "error/resource-guard"])
def test_process_entry_keeps_frozen_failures(key):
    res = _subprocess_cli([a.format(c=CORPUS) for a in cases()[key]], 1)
    want = FROZEN_CASES[key]
    assert res.returncode == want["exit"]
    assert hashlib.sha256(res.stdout).hexdigest() == want["stdout"]
    assert res.stderr.decode() == want["stderr"]
