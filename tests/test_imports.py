"""Every name a tiltcell module imports is used in that module.

`__init__.py` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltcell"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads; an
    attribute access such as `poly.charpoly` reads `poly`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_unused_imports_are_found():
    source = ("import random\nfrom .linalg import Matrix, coordinates\n"
              "from .tilting import TiltingRegistry\n\n"
              "def f(m: Matrix):\n    return random.Random(0)\n")
    assert unused_imports(source) == ["TiltingRegistry", "coordinates"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
