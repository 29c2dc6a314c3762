import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import gxcat

MODULES = ["gxcat"] + [f"gxcat.{m.name}" for m in pkgutil.iter_modules(gxcat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_defined_names(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_no_module_imports_a_private_name_of_another():
    """Each module's underscore names are its own layout decisions."""
    found = []
    for path in sorted(pathlib.Path(gxcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gxcat")):
                found += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_no_module_builds_object_arrays():
    """Integer work stays in int64: no numpy array of Python objects in src."""
    found = []
    for path in sorted(pathlib.Path(gxcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "dtype":
                v = node.value
                if (isinstance(v, ast.Name) and v.id == "object") or (
                    isinstance(v, ast.Constant) and v.value in ("object", "O")
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dtype=object passed at {found}"


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name is read in its module or listed in its __all__."""
    found = []
    for path in sorted(pathlib.Path(gxcat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name, f"{node.module}.{a.name}") for a in node.names]
            else:
                continue
            found += [f"{path.name}: {full}" for name, full in bound if name not in used]
    assert not found, f"imported and never used: {found}"


def test_every_private_definition_is_used():
    """Each underscore function, method or class in src is read somewhere in src."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(pathlib.Path(gxcat.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__") and node.name not in used
    ]
    assert not found, f"private definitions never used: {found}"


def _library_tour():
    """The names that README's "Library tour" section puts in backticks: every
    part of the dotted name that opens a backticked span."""
    readme = (pathlib.Path(gxcat.__file__).parents[2] / "README.md").read_text()
    start = readme.index("\n## Library tour\n")
    section = readme[start:readme.index("\n## ", start + 1)]
    spans = (re.match(r"[A-Za-z_][\w.]*", span) for span in re.findall(r"`([^`\n]+)`", section))
    return {part for m in spans if m for part in m.group().split(".")}


def test_every_exported_name_is_reached():
    """Each name in an __all__ of src, the package's included, is read in src
    (an ast.Name or ast.Attribute) or named in backticks in README's library tour."""
    src = pathlib.Path(gxcat.__file__).parent
    read = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    tour = _library_tour()
    found = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", [])
        if n not in read and n not in tour
    ]
    assert not found, (
        f"exported names read by no ast.Name or ast.Attribute in {src}/*.py and named in no backticks "
        f"of README.md's '## Library tour' section: {found}"
    )
