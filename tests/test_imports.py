"""Module boundaries: no modxl module imports another's private names or
reads the process environment, only ``numerics.compensated_sum`` calls
``math.fsum``, and every public function, class, constant, method and property
is used by some module.

A name with a leading underscore is an implementation detail of the module
that defines it; code another module needs belongs in that module's public
interface, where it is documented and tested as such.  ``math.fsum`` walks a
Python iterator one term at a time, so over every element of a large array it
costs more than the rest of the exact sum; compensated sums of a few partials
go through the one helper.  A public name that no module uses, and only
``__init__`` re-exports, is code that no ``src/`` path runs.
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


def fsum_uses(source: str):
    """The ``math.fsum`` calls and ``from math import fsum`` imports in
    ``source``, as (line, enclosing function) pairs; ``<module>`` outside any
    function."""
    uses = []

    def is_fsum(func) -> bool:
        if isinstance(func, ast.Attribute):
            return (
                func.attr == "fsum"
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            )
        return isinstance(func, ast.Name) and func.id == "fsum"

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and is_fsum(child.func):
                uses.append((child.lineno, function))
            if isinstance(child, ast.ImportFrom) and child.module == "math":
                if any(alias.name == "fsum" for alias in child.names):
                    uses.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return uses


def test_detects_fsum_uses():
    source = (
        "import math\n"
        "from math import fsum\n"
        "def total(x):\n"
        "    return math.fsum(x) + fsum(x)\n"
        "TOTAL = math.fsum([1.0])\n"
    )
    assert fsum_uses(source) == [(2, "<module>"), (4, "total"), (4, "total"),
                                 (5, "<module>")]
    assert fsum_uses("import math\nx = math.fabs(-1.0)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_fsum_only_in_compensated_sum(path):
    uses = fsum_uses(path.read_text(encoding="utf-8"))
    if path.name == "numerics.py":
        assert [function for _, function in uses] == ["compensated_sum"]
    else:
        assert uses == []


def environment_reads(source: str):
    """The lines in ``source`` that read the process environment: the
    attributes ``os.environ``, ``os.environb`` and ``os.getenv``, and their
    imports from ``os``."""
    names = {"environ", "environb", "getenv"}
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in names for alias in node.names)
        )
    )


def test_detects_environment_reads():
    source = (
        "import os\n"
        "from os import getenv\n"
        "SIZE = int(os.environ.get('SIZE', '1'))\n"
        "def size():\n"
        "    return os.getenv('SIZE') or os.environ['SIZE']\n"
    )
    assert environment_reads(source) == [2, 3, 5, 5]
    assert environment_reads("import os\npath = os.path.join('a', 'b')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_reads(path):
    # Settings such as the distance kernel's block size are constants, so a
    # run does not depend on the caller's environment.
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def public_definitions(tree: ast.Module):
    """The public names ``tree`` defines, as dotted paths: module-level
    functions, classes and assigned constants, and the methods and properties
    of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not member.name.startswith("_")
            )


def unused_public_names(sources: dict) -> list:
    """The public definitions (see :func:`public_definitions`), as
    ``module.name``, of ``sources`` (module name -> source text) that no
    module other than ``__init__`` loads by name or as an attribute.  A load
    in the defining module counts; a name match anywhere counts, so the scan
    errs towards "used"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items()
        if module != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name in public_definitions(tree)
        if name.rpartition(".")[2] not in loaded
    )


def test_detects_unused_public_names():
    sources = {
        "__init__": "from .a import Kept, dead, used\n",
        "a": (
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "_HIDDEN = 5\n"
            "class Kept:\n"
            "    def size(self):\n        return LIMIT\n"
            "    @property\n    def spare(self):\n        return 0\n"
            "    def __len__(self):\n        return 1\n"
            "def used():\n    return Kept().size()\n"
            "def dead():\n    return 1\n"
            "def _private():\n    return 2\n"
        ),
        "b": "from . import a\nprint(a.used())\n",
    }
    assert unused_public_names(sources) == ["a.Kept.spare", "a.UNUSED", "a.dead"]


def test_every_public_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_public_names(sources) == []
