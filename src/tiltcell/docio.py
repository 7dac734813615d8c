"""Input documents: parsing, validation, and the built-in algebra catalog.

A document is a JSON object with a field spec ("Q" or "Fp <p>"), an algebra
given by structure constants and a unit vector, a weight poset, and
optional anti-involution matrix, tilting request, and options.  All scalars
are exact (ints or "a/b" strings); floats and unknown keys are rejected.
"""

from __future__ import annotations

import json

from .algebra import AlgebraPresentation
from .errors import InputError
from .highest_weight import WeightPoset
from .linalg import Field, Matrix


DEFAULT_TRIALS = 100


class InputDocument:
    """Validated input: algebra, poset, optional duality and options."""

    def __init__(self, field, algebra, poset, anti_involution, tilting_request, options, name):
        self.field = field
        self.algebra = algebra
        self.poset = poset
        self.anti_involution = anti_involution      # Matrix or None
        self.tilting_request = tilting_request      # "characteristic" or [(label, mult)]
        self.options = options                      # dict: seed, trials, dim_bound
        self.name = name


def parse_field(spec) -> Field:
    if not isinstance(spec, str):
        raise InputError(f"field spec must be a string, got {spec!r}")
    text = spec.strip()
    if text == "Q":
        return Field()
    if text.startswith("Fp"):
        rest = text[2:].strip()
        if rest.isdigit():
            return Field(int(rest))
    raise InputError(f'field spec must be "Q" or "Fp <p>", got {spec!r}')


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"unknown keys in {where}: {sorted(unknown)}")


def _is_int(x) -> bool:
    """An integer, and not a JSON boolean, which Python reads as 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_document(raw, field_override: str | None = None) -> InputDocument:
    _require_keys(raw, {"field", "algebra", "poset", "anti_involution",
                        "tilting", "options", "name"}, "document")
    for key in ("field", "algebra", "poset"):
        if key not in raw:
            raise InputError(f"document is missing {key!r}")
    field = parse_field(field_override if field_override is not None else raw["field"])

    alg_raw = raw["algebra"]
    _require_keys(alg_raw, {"dim", "struct_consts", "unit", "name"}, "algebra")
    dim = alg_raw.get("dim")
    if not _is_int(dim) or dim <= 0:
        raise InputError("algebra.dim must be a positive integer")
    entries = []
    for ent in alg_raw.get("struct_consts", []):
        if not (isinstance(ent, (list, tuple)) and len(ent) == 4):
            raise InputError(f"structure constant entry {ent!r} must be [i, j, k, value]")
        i, j, k, val = ent
        if not all(_is_int(x) for x in (i, j, k)):
            raise InputError(f"structure constant indices in {ent!r} must be integers")
        entries.append((i, j, k, field.parse(val)))
    unit = alg_raw.get("unit")
    if not isinstance(unit, list) or len(unit) != dim:
        raise InputError("algebra.unit must be a list of length dim")
    name = raw.get("name", alg_raw.get("name", ""))
    algebra = AlgebraPresentation.from_struct_consts(
        field, dim, entries, [field.parse(u) for u in unit], name=name, check=True)

    poset_raw = raw["poset"]
    _require_keys(poset_raw, {"labels", "covers"}, "poset")
    labels = poset_raw.get("labels")
    if not isinstance(labels, list) or not labels:
        raise InputError("poset.labels must be a nonempty list")
    covers = poset_raw.get("covers", [])
    poset = WeightPoset(labels, [tuple(c) for c in covers])

    anti = None
    if "anti_involution" in raw and raw["anti_involution"] is not None:
        rows = raw["anti_involution"]
        if not (isinstance(rows, list) and len(rows) == dim
                and all(isinstance(r, list) and len(r) == dim for r in rows)):
            raise InputError("anti_involution must be a dim x dim matrix")
        anti = Matrix(field, [[field.parse(x) for x in r] for r in rows])

    tilting_request = raw.get("tilting", "characteristic")
    if tilting_request != "characteristic":
        if not isinstance(tilting_request, list):
            raise InputError('tilting must be "characteristic" or a list of [label, mult]')
        req = []
        for ent in tilting_request:
            if not (isinstance(ent, (list, tuple)) and len(ent) == 2):
                raise InputError(f"tilting entry {ent!r} must be [label, multiplicity]")
            lab, mult = str(ent[0]), ent[1]
            if lab not in poset.labels:
                raise InputError(f"tilting entry references unknown label {lab!r}")
            if not _is_int(mult) or mult <= 0:
                raise InputError(f"tilting multiplicity in {ent!r} must be a positive integer")
            req.append((lab, mult))
        tilting_request = req

    options = {"seed": 0, "trials": DEFAULT_TRIALS, "dim_bound": 10 * dim * dim}
    if "options" in raw and raw["options"] is not None:
        _require_keys(raw["options"], {"seed", "trials", "dim_bound"}, "options")
        for key in ("seed", "trials", "dim_bound"):
            if key in raw["options"]:
                val = raw["options"][key]
                if not _is_int(val) or val < 0:
                    raise InputError(f"options.{key} must be a nonnegative integer")
                options[key] = val
    return InputDocument(field, algebra, poset, anti, tilting_request, options, name)


def load_document(path, field_override=None) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document {path}: {exc}") from exc
    return parse_document(raw, field_override)


# -- built-in catalog -----------------------------------------------------------

def _quiver_like(name, dim, sc, unit, labels, covers, tau=None):
    doc = {
        "name": name,
        "field": "Q",
        "algebra": {"dim": dim, "struct_consts": sc, "unit": unit},
        "poset": {"labels": labels, "covers": covers},
    }
    if tau is not None:
        doc["anti_involution"] = tau
    return doc


def catalog_names():
    return sorted(_CATALOG)


def catalog_document(name, field_spec: str | None = None) -> InputDocument:
    if name not in _CATALOG:
        raise InputError(f"unknown catalog algebra {name!r}; "
                         f"available: {', '.join(catalog_names())}")
    return parse_document(_CATALOG[name], field_spec)


def _ut3_struct_consts():
    basis = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    idx = {b: i for i, b in enumerate(basis)}
    return [[idx[(a, b)], idx[(c, d)], idx[(a, d)], 1]
            for (a, b) in basis for (c, d) in basis if b == c]


_CATALOG = {
    # the base field alone: one simple, everything trivial
    "trivial": _quiver_like("trivial", 1, [[0, 0, 0, 1]], [1], ["1"], [],
                            tau=[[1]]),
    # product of two fields: semisimple, two incomparable labels
    "semisimple2": _quiver_like("semisimple2", 2,
                                [[0, 0, 0, 1], [1, 1, 1, 1]], [1, 1],
                                ["1", "2"], [],
                                tau=[[1, 0], [0, 1]]),
    # path algebra of the two-vertex quiver with one arrow 1 -> 2
    # (basis e1, e2, a with a = e2 a e1); label 1 tops the 2-dim projective
    "a2path": _quiver_like("a2path", 3,
                           [[0, 0, 0, 1], [1, 1, 1, 1], [2, 0, 2, 1], [1, 2, 2, 1]],
                           [1, 1, 0], ["1", "2"], [["2", "1"]]),
    # endomorphism algebra of (K[x]/x^2) + K over K[x]/x^2: quiver 1 <=> 2
    # with the loop through vertex 1 equal to zero; basis e1, e2, a(1->2),
    # b(2->1), w = a b; arrow swap is an anti-involution
    "auslander-dualnumbers": _quiver_like(
        "auslander-dualnumbers", 5,
        [[0, 0, 0, 1], [1, 1, 1, 1],
         [2, 0, 2, 1], [1, 2, 2, 1],
         [3, 1, 3, 1], [0, 3, 3, 1],
         [2, 3, 4, 1],
         [1, 4, 4, 1], [4, 1, 4, 1]],
        [1, 1, 0, 0, 0], ["1", "2"], [["2", "1"]],
        tau=[[1, 0, 0, 0, 0],
             [0, 1, 0, 0, 0],
             [0, 0, 0, 1, 0],
             [0, 0, 1, 0, 0],
             [0, 0, 0, 0, 1]]),
    # upper triangular 3x3 matrices, basis E11, E22, E33, E12, E13, E23,
    # diagonal order; standard modules are the projective columns
    "ut3": _quiver_like("ut3", 6, _ut3_struct_consts(), [1, 1, 1, 0, 0, 0],
                        ["1", "2", "3"], [["1", "2"], ["2", "3"]]),
    # dual numbers K[x]/(x^2): the negative test, extensions of the single
    # simple by itself never vanish
    "dualnumbers": _quiver_like("dualnumbers", 2,
                                [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
                                [1, 0], ["1"], [],
                                tau=[[1, 0], [0, 1]]),
}
