"""No tiltcell module divides with `/` outside `Field.inv`.

Over Q an integral scalar is a plain int, and `int / int` is a float, so
every true division other than the field's exact inverse is a hazard.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltcell"

ALLOWED = ("Field", "inv")


def true_divisions(source: str) -> list[str]:
    """'scope:line' of every `/` or `/=` outside the scope `Field.inv`; the
    scope is the dotted path of enclosing classes and functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div)
                    and scope != ALLOWED):
                found.append(f"{'.'.join(scope) or '<module>'}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_true_divisions_are_found():
    source = ("HALF = 1 / 2\n\n"
              "class Field:\n"
              "    def inv(self, a):\n        return 1 / a\n\n"
              "    def mul(self, a, b):\n        return a * b // 1\n\n"
              "def roots(f):\n    x = f[0]\n    x /= f[1]\n"
              "    return [lambda t: t / 2]\n")
    assert true_divisions(source) == ["<module>:1", "roots:12", "roots:13"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_divides_only_in_field_inverse(path):
    assert true_divisions(path.read_text(encoding="utf-8")) == []
