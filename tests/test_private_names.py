"""Every module-level private function or class in tiltcell has a caller,
every method of a tiltcell class is read, every parameter is read, and
every name the package exports has a use or is documented.

A private name is one with a leading underscore (dunder names are left
out).  It counts as used when its name is read, as a name, an attribute or
an imported name, anywhere in the package outside its own definition; a
helper that only calls itself is an orphan.  An exported name, one that
`__init__.py` imports, counts as used in the same way (the import in
`__init__.py` itself does not count), or when README's "Library entry
points" block lists it.  A method counts as read in the same way, by its
name anywhere in the package outside its own definition, or when the
benchmark tracer's `TARGETS` (`bench/tracer.py`) names it as a span.  A
parameter of a function or lambda counts as read when its body reads it as
a name; a leading underscore declares it unused on purpose, and a method's
receiver (`self`, `cls`) is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltcell"


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


def methods(tree: ast.Module):
    """(class name, method) of each method of a module-level class, dunder
    methods left out."""
    return [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def traced(tracer: str) -> set[str]:
    """'module:attribute path' of each target in the tracer's TARGETS."""
    node = next(node for node in ast.parse(tracer).body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {f"{module.rsplit('.', 1)[-1]}:{path}"
            for module, path, _ in ast.literal_eval(node.value)}


def orphan_methods(sources: dict[str, str], exempt=()) -> list[str]:
    """'module:Class.method' of each method that no module of `sources`
    reads outside its own definition and that is not in `exempt`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for cls, node in methods(tree):
            name = f"{module}:{cls}.{node.name}"
            if name not in exempt and not any(
                    node.name in names_read(other, skip=node) for other in trees.values()):
                found.append(name)
    return found


def test_orphan_methods_are_found():
    sources = {
        "a": ("class Shape:\n"
              "    def __init__(self):\n        self.size = self.measure()\n\n"
              "    def measure(self):\n        return 1\n\n"
              "    def lonely(self):\n        return 2\n\n"
              "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
              "    def traced(self):\n        return 3\n\n"
              "    @property\n    def area(self):\n        return 4\n\n"
              "    @classmethod\n    def unit(cls):\n        return cls()\n\n"
              "def helper():\n    return 5\n"),
        "b": ("from .a import Shape\n\n"
              "def f():\n    return Shape.unit().area\n"),
    }
    tracer = ('TARGETS = (\n    ("pkg.a", "Shape.traced", "a.Shape.traced"),\n'
              '    ("pkg.a", "helper", "a.helper"),\n)\n')
    assert traced(tracer) == {"a:Shape.traced", "a:helper"}
    assert orphan_methods(sources, traced(tracer)) == ["a:Shape.lonely", "a:Shape.recursive"]
    assert orphan_methods(sources) == ["a:Shape.lonely", "a:Shape.recursive", "a:Shape.traced"]


def test_every_method_is_read_or_traced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    exempt = traced((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    assert orphan_methods(sources, exempt) == []


def imported_names(source: str) -> list[str]:
    """The names a module's `from ... import` statements bind."""
    return [a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def entry_points(readme: str) -> set[str]:
    """The names imported by the code block under "Library entry points"."""
    block = readme.split("## Library entry points", 1)[1].split("```", 2)[1]
    return set(imported_names(block.split("\n", 1)[1]))


def unused_exports(exports, sources: dict[str, str], documented) -> list[str]:
    """Each exported name that no module of `sources` reads outside its own
    definition and that is not in `documented`."""
    trees = [ast.parse(text) for text in sources.values()]

    def definition(tree, name):
        return next((node for node in tree.body if getattr(node, "name", None) == name), None)

    return [name for name in exports if name not in documented
            and not any(name in names_read(tree, skip=definition(tree, name)) for tree in trees)]


def test_unused_exports_are_found():
    init = "from .a import Used, Documented, Lonely, Recursive, by_attribute\n"
    sources = {
        "a": ("class Used:\n    pass\n\n"
              "class Documented:\n    pass\n\n"
              "class Lonely:\n    pass\n\n"
              "def Recursive(n):\n    return Recursive(n - 1) if n else 0\n\n"
              "def by_attribute():\n    return 1\n"),
        "b": ("from .a import Used\nfrom . import a\n\n"
              "def f():\n    return Used(), a.by_attribute()\n"),
    }
    readme = ("# x\n\n## Library entry points\n\n```python\n"
              "from x import (\n    Documented,\n)\n```\n\nLonely is described here.\n")
    assert entry_points(readme) == {"Documented"}
    assert unused_exports(imported_names(init), sources, entry_points(readme)) == [
        "Lonely", "Recursive"]


def test_every_export_is_used_or_documented():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    exports = imported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    documented = entry_points((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unused_exports(exports, sources, documented) == []


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """'module:function(parameter)' of each parameter of a function or lambda
    of `sources` that its body never reads as a name, leaving out names with
    a leading underscore and the receivers `self` and `cls`."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [f"{module}:{name}({a.arg})" for a in params
                      if a.arg not in read and a.arg not in ("self", "cls")
                      and not a.arg.startswith("_")]
    return found


def test_unread_parameters_are_found():
    sources = {
        "a": ("def used(x, y=1, *args, z, **kw):\n    return x + y + z + len(args) + len(kw)\n\n"
              "def lonely(x, ignored, _declared):\n    return x\n\n"
              "def outer(x):\n    def inner(y):\n        return x\n    return inner\n\n"
              "class Shape:\n    def size(self, attr):\n        return self.attr\n\n"
              "    @classmethod\n    def unit(cls):\n        return 1\n\n"
              "f = lambda piece, incl: piece\n"
              "g = lambda piece, _incl: piece\n"),
    }
    assert sorted(unread_parameters(sources)) == [
        "a:<lambda>(incl)", "a:inner(y)", "a:lonely(ignored)", "a:size(attr)"]


def test_every_parameter_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_parameters(sources) == []


def unread_slots(sources: dict[str, str]) -> list[str]:
    """'module:Class.slot' of each `__slots__` name of a module-level class
    of `sources` that no module loads as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__" for t in node.targets):
                    found += [f"{module}:{cls.name}.{slot}"
                              for slot in ast.literal_eval(node.value) if slot not in loaded]
    return found


def test_unread_slots_are_found():
    sources = {
        "a": ("class Shape:\n"
              "    __slots__ = ('size', 'label', 'colour')\n\n"
              "    def __init__(self, size, label, colour):\n"
              "        self.size = size\n        self.label = label\n"
              "        setattr(self, 'colour', colour)\n\n"
              "    def area(self):\n        return self.size ** 2\n"),
        "b": ("def paint(shape):\n    return shape.colour\n"),
    }
    assert unread_slots(sources) == ["a:Shape.label"]


def test_every_slot_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_slots(sources) == []
