"""Differential test of the command-line parser against argparse.

``gxcat.cli`` reads each command's arguments from its ``COMMANDS`` entry
with a parser of its own.  The reference is the argparse front end it
replaced, rebuilt here from the same table: one ``ArgumentParser`` per
command with ``allow_abbrev=False``, the command's ``(flags, keywords)``
entries, ``--format`` and ``--out``.  Its ``--N`` type is the argparse
version of ``cli._positive``, which raised ``ArgumentTypeError``.

For every argv both must agree: argparse accepts it exactly when gxcat
does, with the same options; argparse prints help exactly when gxcat does
(exit 0); and a refused argv exits 2 with an empty stdout, a message on
stderr and no traceback.  gxcat runs through ``main`` with the command's
function swapped for one that records its keyword arguments, so no
command does any work.

Inputs: every argv of ``tests/test_cli_frozen.py``, the golden commands,
and a derandomized hypothesis strategy over each command's own flags, their
``--flag=value`` forms, values (ints, negative ints, ``-x``, the empty
string, paths, words with a space), repeated flags, unknown flags and
abbreviations, stray positionals and ``--``.  Two argparse corners are left
out of the strategy: ``--flag=--``, which argparse reads as an empty list,
and ``-h`` run together with other letters (``-hx``), which argparse reads
as clustered short flags; gxcat has no short flag but ``-h``.
"""

import argparse
import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxcat.cli as cli
from test_cli_corpus import CORPUS, golden_commands, run_cli
from test_cli_frozen import cases


def _positive(text):
    """The argparse type of the --N options."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"N must be a positive integer, not {value}")
    return value


def _reference(name):
    fn, arguments = cli.COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"gxcat {name}", description=fn.__doc__, allow_abbrev=False)
    for flags, keywords in arguments:
        if keywords.get("type") is cli._positive:
            keywords = dict(keywords, type=_positive)
        parser.add_argument(*flags, **keywords)
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None)
    return parser


def argparse_outcome(name, argv):
    """("accepted", options), ("help", None) or ("refused", None) from argparse."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "accepted", vars(_reference(name).parse_args(argv))
        except SystemExit as exc:
            return ("help" if exc.code == 0 else "refused"), None


def gxcat_outcome(name, argv):
    """The same from ``gxcat.cli.main``, whose command only records its options."""
    fn, arguments = cli.COMMANDS[name]
    calls = []

    def record(**options):
        calls.append(options)

    record.__doc__ = fn.__doc__
    with mock.patch.dict(cli.COMMANDS, {name: (record, arguments)}):
        res = run_cli([name, *argv])
    if calls:
        assert (res.exit_code, res.stdout, res.stderr) == (0, "", ""), res
        return "accepted", calls[0]
    if res.exit_code == 0:
        assert res.stdout.startswith(f"Usage: gxcat {name}") and res.stderr == "", res
        return "help", None
    assert res.exit_code == 2 and res.stdout == "", res
    assert f"gxcat {name}: error: " in res.stderr and "Traceback" not in res.stderr, res.stderr
    return "refused", None


def _check(name, argv):
    assert gxcat_outcome(name, argv) == argparse_outcome(name, argv), argv


def _known_argvs():
    for key, args in cases().items():
        if args and args[0] in cli.COMMANDS:
            yield pytest.param(args, id=key)
    for name, args, _ in golden_commands():
        yield pytest.param(args, id=f"golden/{name}")


@pytest.mark.parametrize("args", _known_argvs())
def test_frozen_and_golden_argvs(args, tmp_path):
    args = [a.format(c=CORPUS, t=tmp_path) for a in args]
    _check(args[0], args[1:])


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0(name, flag):
    assert gxcat_outcome(name, [flag]) == argparse_outcome(name, [flag]) == ("help", None)


_VALUES = ["0", "1", "2", "3", "12", "-1", "-2", "-1.5", "-.5", "1e3", "-x", "-", "", "-x y", "x",
           "Z2", "S3", "g", "json", "text", "xml", "pi0=e,pi1=g", "x.json", str(CORPUS / "ring_ising.json")]
_INTS = ["1", "2", "3", "0", "-1"]
_WORDS = ["x.json", "S3", "-", "-1", "-.5", "-x y", ""]  # each is a value, not a flag
_OTHER = ["--seed", "--no-such-option", "--grou", "--form", "--forma", "--Format", "-N", "-g", "-1e3", "--seed=1", "--",
          "-h", "--help"]  # unknown flags and abbreviations, the separator and, rarely, help


def _flags(name):
    _, arguments = cli.COMMANDS[name]
    return [f[0] for f, _ in arguments if f[0].startswith("-")] + ["--format", "--out"]


@st.composite
def well_formed(draw, name):
    """The command's positional and required flags and some other flags, each
    with a value of its kind, in any order; ``--`` somewhere or nowhere."""
    _, arguments = cli.COMMANDS[name]
    argv = []
    for flags, keywords in draw(st.permutations([*arguments, *cli.COMMON])):
        if flags[0].startswith("-") and not keywords.get("required") and draw(st.booleans()):
            continue
        value = draw(st.sampled_from(keywords.get("choices") or (_INTS if "type" in keywords else _WORDS)))
        if not flags[0].startswith("-"):
            argv.append(value)
        elif keywords.get("action"):
            argv.append(flags[0])
        else:
            argv += draw(st.sampled_from([[flags[0], value], [f"{flags[0]}={value}"]]))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--")
    return argv


@st.composite
def command_lines(draw):
    """A well-formed line with up to four tokens inserted, replaced or deleted."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = draw(well_formed(name))
    flags, value = _flags(name), st.sampled_from(_VALUES)
    token = st.one_of(
        st.sampled_from(flags),
        st.builds(lambda f, v: f"{f}={v}", st.sampled_from(flags + ["--help"]), value),
        value,
        st.sampled_from(_OTHER),
    )
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]) if at < len(argv) else st.just("insert"))
        if edit == "delete":
            del argv[at]
        else:
            argv[at:at + (edit == "replace")] = [draw(token)]
    return name, argv


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_parser_matches_argparse(line):
    _check(*line)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parser_matches_argparse_on_well_formed_lines(data):
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    _check(name, data.draw(well_formed(name)))
