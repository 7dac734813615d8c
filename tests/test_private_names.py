"""Every module-level private function or class in tiltcell has a caller.

A private name is one with a leading underscore (dunder names are left
out).  It counts as used when its name is read, as a name, an attribute or
an imported name, anywhere in the package outside its own definition; a
helper that only calls itself is an orphan.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltcell"


def private_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def names_read(node, skip=None):
    """Every name the subtree reads, leaving out the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        yield from names_read(child, skip)


def orphans(sources: dict[str, str]) -> list[str]:
    """'module:name' of each module-level private function or class that no
    module of `sources` (module name -> source text) reads outside its own
    definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in private_definitions(tree):
            if not any(node.name in names_read(other, skip=node) for other in trees.values()):
                found.append(f"{module}:{node.name}")
    return found


def test_orphans_are_found():
    sources = {
        "a": ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
              "class _Lonely:\n    def _method(self):\n        return 2\n\n"
              "def _imported():\n    return 3\n\n"
              "def _by_attribute():\n    return 4\n\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n\n"
              "def public():\n    return _used()\n"),
        "b": ("from .a import _imported\nfrom . import a\n\n"
              "def f():\n    return a._by_attribute()\n"),
    }
    assert orphans(sources) == ["a:_recursive", "a:_Lonely"]


def test_every_private_helper_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphans(sources) == []
