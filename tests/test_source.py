"""Source-level rules for the package."""

import ast
import fnmatch
import graphlib
import pathlib

import pytest

import bandforge
from bandforge import fixtures


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a result guard must be a raised error
    package = pathlib.Path(bandforge.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is not checked
    package = pathlib.Path(bandforge.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def _private_definitions(tree):
    """Module-level `_private` names a module defines (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names a module reads, imports by name, or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def test_every_private_name_is_used():
    # a module-level `_name` nothing in the package reads is a leftover
    package = pathlib.Path(bandforge.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    assert [f"{name}:{n}" for name, tree in trees.items()
            for n in sorted(_private_definitions(tree)) if n not in used] == []


def _imports(tree, modules):
    """The package modules among `modules` that a module's import
    statements name, at any depth of its code; `from . import x` names the
    package (`__init__`) and, when x is a module, x."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("bandforge" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            dotted += [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return {d.split(".")[1] if "." in d else "__init__" for d in dotted
            if d.partition(".")[0] == "bandforge"} & modules


def test_module_imports_are_layered():
    # no import cycle, counting imports inside functions, and the
    # triangulation layer imports none of the numeric ones
    package = pathlib.Path(bandforge.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    graph = {name: _imports(tree, set(trees)) for name, tree in trees.items()}
    assert "__init__" in graph["tri"] and "tri" in graph["gluing"]  # seen at all
    [*graphlib.TopologicalSorter(graph).static_order()]  # CycleError names one
    assert not graph["tri"] & {"gluing", "dilog", "krawczyk", "_ball"}


def test_package_data_ships_every_fixture():
    # an installed package reads its fixtures through importlib.resources,
    # so each embedded file must match a package-data glob to be installed
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())[
        "tool"]["setuptools"]["package-data"]["bandforge"]
    package = pathlib.Path(bandforge.__file__).parent
    for name in fixtures.EMBEDDED.values():
        assert (package / "data" / name).is_file(), name
        assert any(fnmatch.fnmatch(f"data/{name}", g) for g in globs), name
