"""Every module of qcongest uses each name it imports, and imports no
private name of another qcongest module; no line of it or of tools/ is
longer than MAX_LINE characters.

No linter runs in tier-1, and a deletion easily leaves an import behind;
this check reads each module's syntax tree instead.  The package root
re-exports nothing, so __init__.py is checked like every other module.
A helper that several modules share (graph.bits, qsearch.derive_seed)
is public, so a `_`-prefixed name stays private to its module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcongest"
MODULES = sorted(SRC.glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))
MAX_LINE = 100


def unused_imports(source: str):
    """Names that source imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_imports(source: str):
    """The `_`-prefixed names that source imports from a qcongest module."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == "qcongest")
                  for a in node.names if a.name.startswith("_"))


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from x import a, b as c\nnp.zeros(c)\n")
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom ._x import a\n"
              "from .graph import _bits, bits\nfrom qcongest.qsearch import _seed\n"
              "from os import _exit\nfrom . import _private\n")
    assert private_imports(source) == ["_bits", "_private", "_seed"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def long_lines(source: str):
    """The numbers of the lines of source longer than MAX_LINE characters."""
    return [i for i, line in enumerate(source.splitlines(), 1) if len(line) > MAX_LINE]


def test_checker_finds_a_long_line():
    assert long_lines("x = 1\n" + "#" * MAX_LINE + "\n" + "#" * (MAX_LINE + 1) + "\n") == [3]


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_long_lines(path):
    assert long_lines(path.read_text()) == []
