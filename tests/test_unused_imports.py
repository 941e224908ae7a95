"""Every name a module of the package imports is used in it."""

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
