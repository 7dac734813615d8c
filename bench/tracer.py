"""Outside-in tracer for tiltcell, installed from the benchmark's own files.

`Tracer.install()` wraps each traced function or method once and rebinds
the wrapper under every name that holds the original in any loaded
`tiltcell` module (`hom_space`, for one, is imported by name into four
modules, and `cli` imports the pipeline functions).  It then fails if any
module or class still holds an unwrapped original.  A target the program
no longer defines is listed in `absent` and reports zero.

Each call becomes a span (id, parent id, operation id, name, start, end)
kept in memory; `write()` saves them when the process ends and `summary()`
derives calls, inclusive and self seconds, and the boundary counters from
them.  Spans of one operation share the id of its root span, opened with
`operation()`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module

# (module, attribute path, span name); a span name may collect several
# functions, as report.render does for the two renderers
TARGETS = (
    ("tiltcell.linalg", "Matrix.rref", "linalg.rref"),
    ("tiltcell.linalg", "Matrix.solve", "linalg.solve"),
    ("tiltcell.linalg", "Matrix.kernel", "linalg.kernel"),
    ("tiltcell.linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("tiltcell.algebra", "hom_space", "algebra.hom_space"),
    ("tiltcell.algebra", "EndAlgebra.__init__", "algebra.EndAlgebra"),
    ("tiltcell.algebra", "krull_schmidt", "algebra.krull_schmidt"),
    ("tiltcell.algebra", "find_splitting_idempotent", "algebra.find_splitting_idempotent"),
    ("tiltcell.algebra", "algebra_radical", "algebra.algebra_radical"),
    ("tiltcell.algebra", "simples_and_split_check", "algebra.simples_and_split_check"),
    ("tiltcell.highest_weight", "Registry.__init__", "highest_weight.Registry"),
    ("tiltcell.highest_weight", "Registry.hom", "highest_weight.Registry.hom"),
    ("tiltcell.highest_weight", "verify_standard_category",
     "highest_weight.verify_standard_category"),
    ("tiltcell.highest_weight", "ext1_with_classes", "highest_weight.ext1_with_classes"),
    ("tiltcell.tilting", "TiltingRegistry.__init__", "tilting.TiltingRegistry"),
    ("tiltcell.tilting", "universal_extension", "tilting.universal_extension"),
    ("tiltcell.tilting", "tilting_support", "tilting.tilting_support"),
    ("tiltcell.standard_basis", "build_standard_basis", "standard_basis.build_standard_basis"),
    ("tiltcell.standard_basis", "verify_standard_axioms",
     "standard_basis.verify_standard_axioms"),
    ("tiltcell.standard_basis", "StandardBasisDatum.coords",
     "standard_basis.StandardBasisDatum.coords"),
    ("tiltcell.standard_basis", "StandardBasisDatum.in_lower_span",
     "standard_basis.StandardBasisDatum.in_lower_span"),
    ("tiltcell.standard_basis", "change_of_basis_unitriangular",
     "standard_basis.change_of_basis_unitriangular"),
    ("tiltcell.cells", "CellData.__init__", "cells.CellData"),
    ("tiltcell.cells", "is_semisimple_endalgebra", "cells.is_semisimple_endalgebra"),
    ("tiltcell.duality", "build_cellular_basis", "duality.build_cellular_basis"),
    ("tiltcell.docio", "parse_document", "docio.parse_document"),
    ("tiltcell.report", "to_json_bytes", "report.render"),
    ("tiltcell.report", "render_text", "report.render"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# counters measured at the boundaries, beyond calls and seconds
COUNTERS = ("linalg.rref.cells", "linalg.rref.max_cells", "linalg.rref.nonzero",
            "algebra.hom_space.max_unknowns", "algebra.find_splitting_idempotent.splits",
            "highest_weight.Registry.hom.hits")
DISTINCT = ("linalg.solve.distinct_lhs", "algebra.hom_space.distinct")


class UnwrappedReference(RuntimeError):
    """A tiltcell module still holds a traced object that is not wrapped."""


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, op, name, start, end, outermost)
        self.ops = []              # (op id, label)
        self.absent = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.distinct = {key: set() for key in DISTINCT}
        self._ids = itertools.count(1)
        self._stack = [0]
        self._op = 0
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        self._entries = dict.fromkeys(SPAN_NAMES, 0)
        self._originals = {}        # id(function) -> (function, wrapper)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack, depth, entries = self.spans, self._stack, self._depth, self._entries
        ids, clock = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            sid = next(ids)
            parent = stack[-1]
            outermost = depth[name] == 0
            depth[name] += 1
            entries[name] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                spans.append((sid, parent, self._op, name, t0, t1, outermost))
            if after:
                after(state, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    @contextmanager
    def operation(self, label):
        """Root span of one benchmark operation; nested spans carry its id."""
        sid = next(self._ids)
        self.ops.append((sid, label))
        self._op = sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._op = 0
            self.spans.append((sid, 0, sid, "op", t0, t1, True))

    # -- boundary counters ---------------------------------------------------------

    def _probes(self):
        c, d = self.counters, self.distinct

        def rref_before(args):
            m = args[0]
            cells = m.rows * m.cols
            c["linalg.rref.cells"] += cells
            c["linalg.rref.max_cells"] = max(c["linalg.rref.max_cells"], cells)
            c["linalg.rref.nonzero"] += cells - sum(r.count(0) for r in m.entries)

        def solve_before(args):
            m = args[0]
            d["linalg.solve.distinct_lhs"].add(hash(m))

        def hom_before(args):
            m, n = args[0], args[1]
            c["algebra.hom_space.max_unknowns"] = max(
                c["algebra.hom_space.max_unknowns"], m.dim * n.dim)
            d["algebra.hom_space.distinct"].add(
                hash((m.dim, n.dim, tuple(m.action), tuple(n.action))))

        def split_after(_, result):
            if result is not None:
                c["algebra.find_splitting_idempotent.splits"] += 1

        def registry_hom_before(_):
            return self._entries["algebra.hom_space"]

        def registry_hom_after(before, _):
            # a hit answers without computing a hom space
            if self._entries["algebra.hom_space"] == before:
                c["highest_weight.Registry.hom.hits"] += 1

        return {
            "linalg.rref": (rref_before, None),
            "linalg.solve": (solve_before, None),
            "algebra.hom_space": (hom_before, None),
            "algebra.find_splitting_idempotent": (None, split_after),
            "highest_weight.Registry.hom": (registry_hom_before, registry_hom_after),
        }

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever tiltcell refers to it."""
        import_module("tiltcell")
        probes = self._probes()
        for module_name, path, name in TARGETS:
            owner, attr, fn = _lookup(module_name, path)
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(fn, name, *probes.get(name, (None, None)))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                self._originals[id(fn)] = (fn, wrapper)
        for module in _tiltcell_modules():
            for key, val in list(vars(module).items()):
                wrapper = self._wrapper_of(val)
                if wrapper is not None:
                    setattr(module, key, wrapper)
        self.check()

    def _wrapper_of(self, val):
        hit = self._originals.get(id(val))
        return hit[1] if hit is not None and hit[0] is val else None

    def check(self):
        """Raise UnwrappedReference if any tiltcell module or class still
        holds an unwrapped target."""
        stray = [f"{module.__name__}.{key}" for module in _tiltcell_modules()
                 for key, val in vars(module).items() if self._wrapper_of(val) is not None]
        for module_name, path, _ in TARGETS:
            owner, _, fn = _lookup(module_name, path)
            if isinstance(owner, type) and fn is not None and not hasattr(fn, "__traced__"):
                stray.append(f"{module_name}.{path}")
        if stray:
            raise UnwrappedReference("unwrapped traced objects: " + ", ".join(sorted(stray)))

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds, plus counters."""
        calls = dict.fromkeys(SPAN_NAMES + ("op",), 0)
        incl = dict.fromkeys(calls, 0.0)
        self_s = dict.fromkeys(calls, 0.0)
        name_of = {sid: name for sid, _, _, name, _, _, _ in self.spans}
        for sid, parent, _, name, t0, t1, outermost in self.spans:
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur
            if outermost:
                incl[name] += dur
            if parent:
                self_s[name_of[parent]] -= dur
        out = {"calls": calls, "s": incl, "self_s": self_s,
               "counters": dict(self.counters),
               "distinct": {key: len(val) for key, val in self.distinct.items()},
               "absent": list(self.absent), "spans": len(self.spans)}
        return out

    def write(self, path):
        """Save the spans, times in microseconds from the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        names = list(SPAN_NAMES) + ["op"]
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "ops": self.ops,
                       "fields": ["id", "parent", "op", "name", "start_us", "end_us"],
                       "spans": [[sid, parent, op, index[name],
                                  round((t0 - base) * 1e6), round((t1 - base) * 1e6)]
                                 for sid, parent, op, name, t0, t1, _ in self.spans]},
                      fh, separators=(",", ":"))


def _lookup(module_name, path):
    """(owner, attribute, value) of a target; the value is None when the
    program no longer defines it."""
    owner = import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return owner, attr, None
    return owner, attr, vars(owner)[attr]


def _tiltcell_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "tiltcell" or name.startswith("tiltcell."))]
