"""No tiltcell module assigns to a Matrix's storage after construction, to
a presentation's sparse table after its fill, or to a basis datum's End(T)
outside its constructor and `finalize_datum`.

`Matrix` caches its hash and its sparse rows on first use, which is only
sound while `entries`, `rows`, `cols` and the two caches never change once
a constructor has set them.  The one exception is each cache's own lazy
fill.  `AlgebraPresentation` lists its structure table's nonzero entries
once (`sparse_table`), and every product reads that list, so only its
constructor and that fill may assign it.  `finalize_datum` installs a
datum's End(T), an `EndAlgebra` that forms its presentation once, so the
cell modules of one datum share it until the datum is finalized again.
A class other than the owner may keep attributes of these names on its
own `self`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltcell"

MATRIX_STORAGE = {"entries", "rows", "cols", "_hash", "_sparse"}

# guarded attribute -> the class that owns it
OWNER = {**dict.fromkeys(MATRIX_STORAGE, "Matrix"), "_sparse_table": "AlgebraPresentation",
         "end": "StandardBasisDatum"}

# scope -> the guarded attributes it may assign
ALLOWED = {
    ("Matrix", "__init__"): MATRIX_STORAGE,
    ("Matrix", "_of"): MATRIX_STORAGE,
    ("Matrix", "__hash__"): {"_hash"},
    ("Matrix", "sparse_rows"): {"_sparse"},
    ("AlgebraPresentation", "__init__"): {"_sparse_table"},
    ("AlgebraPresentation", "sparse_table"): {"_sparse_table"},
    ("StandardBasisDatum", "__init__"): {"end"},
    ("finalize_datum",): {"end"},
}


def storage_writes(source: str) -> list[str]:
    """'scope:line:attribute' of every assignment, augmented assignment,
    deletion or setattr of a guarded attribute outside the scopes allowed
    to write it; `self.<attr>` in a method of a class other than the
    attribute's owner is that class's own attribute and passes."""
    found = []

    def written(node):
        """The (object, attribute name) pairs the statement writes."""
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")):
            return [(node.args[0], node.args[1].value)]
        else:
            return []
        out = []
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                    out.append((sub.value, sub.attr))
        return out

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            for obj, attr in written(child):
                if attr not in OWNER or attr in ALLOWED.get(scope, ()):
                    continue
                own = (len(scope) >= 2 and scope[0] != OWNER[attr]
                       and isinstance(obj, ast.Name) and obj.id == "self")
                if not own:
                    found.append(f"{'.'.join(scope) or '<module>'}:{child.lineno}:{attr}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_storage_writes_are_found():
    source = ("class Matrix:\n"
              "    def __init__(self, entries):\n"
              "        self.entries, self._hash = entries, None\n\n"
              "    def __hash__(self):\n"
              "        self._hash = 1\n"
              "        self._sparse = None\n"
              "        return self._hash\n\n"
              "    def transpose(self):\n"
              "        self.rows = 0\n\n"
              "class Closure:\n"
              "    def __init__(self, m):\n"
              "        self.rows = {}\n"
              "        m.cols = 1\n\n"
              "def pad(m, other):\n"
              "    m.cols += 1\n"
              "    m.entries, (m.rows, x) = (), (0, 1)\n"
              "    setattr(m, '_hash', None)\n"
              "    object.__setattr__(m, 'entries', ())\n"
              "    del m._sparse\n"
              "    other.field = m.entries\n")
    assert storage_writes(source) == [
        "Matrix.__hash__:7:_sparse", "Matrix.transpose:11:rows", "Closure.__init__:16:cols",
        "pad:19:cols", "pad:20:entries", "pad:20:rows", "pad:21:_hash", "pad:22:entries",
        "pad:23:_sparse"]


def test_presentation_table_writes_are_found():
    source = ("class AlgebraPresentation:\n"
              "    def __init__(self, table):\n"
              "        self.table, self._sparse_table = table, None\n\n"
              "    def sparse_table(self):\n"
              "        if self._sparse_table is None:\n"
              "            self._sparse_table = [list(r) for r in self.table]\n"
              "        return self._sparse_table\n\n"
              "    def opposite(self):\n"
              "        op = AlgebraPresentation(self.table)\n"
              "        op._sparse_table = self._sparse_table\n"
              "        self._sparse_table = None\n"
              "        return op\n\n"
              "class Closure:\n"
              "    def __init__(self, algebra):\n"
              "        self._sparse_table = algebra.sparse_table()\n\n"
              "def share(a, b):\n"
              "    b._sparse_table = a.sparse_table()\n"
              "    setattr(b, '_sparse_table', None)\n")
    assert storage_writes(source) == [
        "AlgebraPresentation.opposite:12:_sparse_table",
        "AlgebraPresentation.opposite:13:_sparse_table",
        "share:21:_sparse_table", "share:22:_sparse_table"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_writes_matrix_storage_only_in_its_constructors(path):
    assert storage_writes(path.read_text(encoding="utf-8")) == []
