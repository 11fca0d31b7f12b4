"""Module boundaries: no modxl module imports another's private names.

A name with a leading underscore is an implementation detail of the module
that defines it; code another module needs belongs in that module's public
interface, where it is documented and tested as such.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "modxl").glob("*.py"))


def private_imports(source: str):
    "The ``from .x import _name`` imports in ``source``, as (line, name) pairs."
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_detects_a_private_import():
    source = "from .geometry import (\n    aperture,\n    _distance_components,\n)\n"
    assert private_imports(source) == [(1, "_distance_components")]
    assert private_imports("from .geometry import aperture\n") == []


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
