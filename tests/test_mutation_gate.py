"""A standing mutation gate over the CLI: no corpus file, bent at one place,
makes a command end in anything but an exit code.

Each example takes one of the data files of the bundled corpus, picks a
JSON path in it at random and either deletes the key there, shortens or
lengthens the list there, or puts a bad value there.  The file is written
to ``tmp_path`` and every command of its kind runs on it in process
through ``cli.main``.  Each run must end in ``SystemExit`` with one of the
documented exit codes, and print nothing or exactly one JSON document.
"""

import contextlib
import copy
import io
import json
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gxcat
from gxcat.cli import main
from gxcat.serialize import detect_kind

CORPUS = pathlib.Path(gxcat.__file__).parent / "corpus"
FILES = sorted(p.name for p in CORPUS.glob("*.json") if p.name != "index.json")
BAD_VALUES = [None, True, 1.5, -1, 0, 10**6, 2**70, "x", [], {}]
EXIT_CODES = {0, 1, 2, 3, 4}


def commands(kind, original, path):
    """The commands of a file's kind, each with the file at ``path``."""
    runs = [["validate", path]]
    if kind == "ring":
        runs += [["dims", path], ["sectors", path], ["picard", path]]
    elif kind == "pointed":
        runs.append(["smatrix", path])
    elif kind == "cocycle":
        runs.append(["double", "--group", original["group"], "--cocycle", path])
    else:
        runs.append(["cohomology", "--group", path, "--k", "2"])
    return runs


@st.composite
def mutations(draw):
    """(file name, original document, mutated document)."""
    name = draw(st.sampled_from(FILES))
    original = json.loads((CORPUS / name).read_text())
    doc = copy.deepcopy(original)
    key = draw(st.sampled_from(sorted(doc)))  # every file holds an object
    parent, node = doc, doc[key]
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
        parent, node = node, node[key]
    ops = ["put", "delete"] if isinstance(parent, dict) else ["put"]
    if isinstance(node, list):
        ops += ["shorten", "lengthen"] if node else ["lengthen"]
    op = draw(st.sampled_from(ops))
    if op == "put":
        parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    elif op == "delete":
        del parent[key]
    elif op == "shorten":
        node.pop()
    else:
        node.append(copy.deepcopy(node[-1]) if node else 0)
    return name, original, doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutations())
def test_a_bent_corpus_file_ends_in_an_exit_code(case, tmp_path):
    name, original, doc = case
    path = tmp_path / name  # every example rewrites the one file
    path.write_text(json.dumps(doc))
    for args in commands(detect_kind(original), original, str(path)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args + ["--format", "json"])
            except SystemExit as exc:
                code = exc.code
            else:
                code = None
        assert code in EXIT_CODES, (args, code, err.getvalue())
        if out.getvalue():
            json.loads(out.getvalue())  # exactly one JSON document
