"""Bundled example corpus: groups, cocycles, rings and pointed data.

Every indexed entry validates under its module's validator and has a
sha256 recorded in index.json; corpus_list verifies the digests and raises
on any mismatch.  (broken_ring.json ships alongside the corpus as a
deliberately invalid CLI fixture and is not an indexed entry.)
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

from .errors import CorpusError, FrozenRecord

__all__ = ["CorpusEntry", "CorpusError", "corpus_list", "corpus_dir", "load_entry"]


class CorpusEntry(FrozenRecord):
    _fields = ("name", "kind", "path", "golden", "sha256")

    def __init__(self, name, kind, path, golden, sha256):
        # kind: group | cocycle | ring | pointed
        self.__dict__.update(name=name, kind=kind, path=path, golden=golden, sha256=sha256)


def corpus_dir():
    return resources.files("gxcat").joinpath("corpus")


def _digest(path):
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def corpus_list():
    base = corpus_dir()
    index_path = base.joinpath("index.json")
    if not index_path.is_file():
        raise CorpusError("corpus index.json is missing")
    index = json.loads(index_path.read_text())
    entries = []
    for rec in index["entries"]:
        fpath = base.joinpath(rec["path"])
        if not fpath.is_file():
            raise CorpusError(f"corpus entry {rec['name']} is missing its file {rec['path']}")
        got = _digest(fpath)
        if got != rec["sha256"]:
            raise CorpusError(
                f"checksum mismatch for corpus entry {rec['name']}: expected {rec['sha256']}, got {got}"
            )
        entries.append(
            CorpusEntry(rec["name"], rec["kind"], str(fpath), rec.get("golden"), rec["sha256"])
        )
    return entries


def load_entry(name):
    """Load a corpus entry by name into its domain object."""
    from .serialize import load_cocycle, load_group, load_pointed, load_ring

    for e in corpus_list():
        if e.name == name:
            obj = json.loads(corpus_dir().joinpath(e.path.split("corpus/")[-1]).read_text())
            if e.kind == "group":
                return load_group(obj)
            if e.kind == "cocycle":
                return load_cocycle(obj)
            if e.kind == "ring":
                return load_ring(obj)
            return load_pointed(obj)
    raise CorpusError(f"no corpus entry named {name}")
