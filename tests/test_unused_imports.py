"""Every name a module of the package imports is used in it, and every
private function and class a module defines is used in the package."""

import ast
from pathlib import Path

import pytest

import polyspan

SOURCES = sorted(Path(polyspan.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no ``Name`` node reads:
    a name used in code or in an annotation is read by one.  Imports from
    ``__future__`` switch on a feature and bind nothing used."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes (a leading ``_``,
    not a dunder) of these modules, by module name, that no ``Name`` or
    ``Attribute`` node reads outside their own definition, in any of the
    modules, as ``module.name``."""
    defined, reads = [], []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            name = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.endswith("__")):
                defined.append((module, name, len(reads)))
            reads.append({node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(top)
                          if isinstance(node, (ast.Name, ast.Attribute))})
    return sorted(f"{module}.{name}" for module, name, own in defined
                  if not any(name in read for i, read in enumerate(reads)
                             if i != own))


def test_the_sources_are_found():
    assert {"documents.py", "fincat.py", "modpoly.py"} <= {
        path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from os import path as p, sep\n"
              "from .finset import FinSetMap\n"
              "def f(x: FinSetMap) -> str:\n"
              "    return sep\n")
    assert unused_imports(source) == ["json", "p"]


def test_every_private_definition_is_used():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unused_private_definitions(sources) == []


def test_an_unused_private_definition_is_found():
    sources = {"a": ("def _used():\n"
                     "    return 1\n"
                     "def _dead(n):\n"
                     "    return _dead(n - 1)\n"
                     "class _Gone:\n"
                     "    pass\n"
                     "def __getattr__(name):\n"
                     "    return name\n"
                     "def public():\n"
                     "    return 2\n"
                     "def _method_name():\n"
                     "    pass\n"),
               "b": ("from .a import _used\n"
                     "x = _used() + y._method_name\n")}
    assert unused_private_definitions(sources) == ["a._Gone", "a._dead"]
