"""Indecomposable tilting modules by iterated universal extensions.

Starting from a standard module, extension groups against lower standard
modules are killed one label at a time by gluing on the full extension
space; the result is filtered on both sides and the summand containing the
top composition factor is the indecomposable tilting module.  Each triple
stores the embedding of the standard module, the projection onto the
costandard module, and their normalized composite.

Any other tilting module is split into its T(label) once per content: a
`direct_sum` through its parts, a module with some T(label)'s content as
that T(label), and only any other module by Krull-Schmidt.
"""

from __future__ import annotations

from .algebra import (
    ModuleRep,
    Morphism,
    _indec_isomorphism,
    hom_space,
    krull_schmidt,
)
from .errors import (
    ConstructionDiverged,
    NothingToDo,
    TheoremViolation,
    UnidentifiedSummand,
)
from .highest_weight import Registry, ext1_dim, ext1_with_classes
from .linalg import Matrix, block_diag


class TiltingTriple:
    """T(label) with i: Delta -> T, pi: T ->> Nabla and c = pi . i != 0.

    c is normalized so its first nonzero entry in row-major order is 1; the
    scalar is absorbed into pi.
    """

    __slots__ = ("module", "i", "pi", "c")

    def __init__(self, module, i, pi, c):
        self.module = module
        self.i = i
        self.pi = pi
        self.c = c


def universal_extension(reg: Registry, x: ModuleRep, label: str):
    """Glue the full extension space of Delta(label) on top of x.

    Returns (x', inclusion x -> x') with x'/x a direct sum of d copies of
    the standard module, d the extension-space dimension; afterwards the
    extension group vanishes.  Raises NothingToDo when d = 0.
    """
    delta = reg.standard(label)
    d, cocycles, build = ext1_with_classes(reg, delta, x)
    if d == 0:
        raise NothingToDo(f"no extensions of the standard module at {label!r}")
    middle, incl, proj, _ = build(cocycles)
    if ext1_dim(reg, delta, middle) != 0:
        raise TheoremViolation("universal extension failed to kill the extension group")
    return middle, incl


def indecomposable_tilting(reg: Registry, label: str,
                           dim_bound: int | None = None) -> TiltingTriple:
    """Build T(label) from Delta(label) by the universal-extension loop.

    Lower labels are processed along the linear extension, descending, until
    a full pass leaves every extension group zero; the summand carrying the
    top factor is the tilting module.
    """
    if dim_bound is None:
        dim_bound = 10 * reg.algebra.dim ** 2
    x = reg.standard(label)
    below = [mu for mu in reversed(reg.poset.linear_extension)
             if reg.poset.lt(mu, label)]
    while True:
        dirty = False
        for mu in below:
            if ext1_dim(reg, reg.standard(mu), x) > 0:
                x, _ = universal_extension(reg, x, mu)
                dirty = True
                if x.dim > dim_bound:
                    raise ConstructionDiverged(
                        f"tilting construction for {label!r} exceeded dimension bound {dim_bound}")
        if not dirty:
            break
    # the top factor occurs once; it singles out the summand that is T(label)
    t_mod = None
    for (summand, _, _) in krull_schmidt(x):
        if reg.mult(summand, label) > 0:
            t_mod = summand
            break
    if t_mod is None:
        raise TheoremViolation("no summand carries the top composition factor")
    return _make_triple(reg, label, t_mod)


def _make_triple(reg: Registry, label: str, t_mod: ModuleRep) -> TiltingTriple:
    F = reg.algebra.field
    embeddings = hom_space(reg.standard(label), t_mod)
    projections = hom_space(t_mod, reg.costandard(label))
    if len(embeddings) != 1 or len(projections) != 1:
        raise TheoremViolation(
            f"hom spaces to/from the tilting module at {label!r} are not one-dimensional")
    i = embeddings[0]
    pi = projections[0]
    if not i.is_injective() or not pi.is_surjective():
        raise TheoremViolation("canonical maps are not a mono/epi pair")
    c = pi @ i
    first = next((x for row in c.matrix.entries for x in row if x), None)
    if first is None:
        raise TheoremViolation("composite through the tilting module vanishes")
    pi = pi.scale(F.inv(first))
    c = pi @ i
    if reg.mult(t_mod, label) != 1:
        raise TheoremViolation("top factor multiplicity in the tilting module is not 1")
    for mu in reg.factor_labels(t_mod):
        if not reg.poset.leq(mu, label):
            raise TheoremViolation(f"factor {mu!r} above the tilting label {label!r}")
    return TiltingTriple(t_mod, i, pi, c)


class TiltingRegistry:
    """All indecomposable tilting triples for a verified registry."""

    def __init__(self, reg: Registry, dim_bound: int | None = None):
        self.base = reg
        self.triples = {}
        self._summands = {}  # action matrices of a module -> [(label, q matrix)]
        for label in reg.poset.linear_extension:
            self.triples[label] = indecomposable_tilting(reg, label, dim_bound)

    def triple(self, label) -> TiltingTriple:
        return self.triples[label]

    def module(self, label) -> ModuleRep:
        return self.triples[label].module


def tilting_summands(tilt: TiltingRegistry, t: ModuleRep):
    """[(label, q)] with each q: t ->> T(label) a projection, the q's stacked
    an isomorphism of t onto the sum of the T(label), found once per module
    content in the registry, as `syzygy` is.

    A `direct_sum` is read off its parts, each q a part's projection
    composed with the block projection onto it; a module with T(label)'s
    content is T(label), q = 1; any other module is split by Krull-Schmidt,
    and each summand, being indecomposable, is matched exactly by
    `_indec_isomorphism` w, q = w . proj.
    """
    if t.action not in tilt._summands:
        tilt._summands[t.action] = _split_tilting(tilt, t)
    return [(lab, Morphism(t, tilt.module(lab), q)) for lab, q in tilt._summands[t.action]]


def _split_tilting(tilt: TiltingRegistry, t: ModuleRep):
    F = t.algebra.field
    if t.action.parts:
        out, offset = [], 0
        for part in t.action.parts:
            rest = t.dim - offset - part.dim
            out += [(lab, block_diag([Matrix.zeros(F, 0, offset), q.matrix,
                                      Matrix.zeros(F, 0, rest)]))
                    for lab, q in tilting_summands(tilt, part)]
            offset += part.dim
        return out
    for lab in tilt.base.poset.labels:
        if tilt.module(lab).action == t.action:
            return [(lab, Matrix.identity(F, t.dim))]
    out = []
    for (summand, _, proj) in krull_schmidt(t):
        for lab in tilt.base.poset.labels:
            w = _indec_isomorphism(summand, tilt.module(lab))
            if w is not None:
                out.append((lab, (w @ proj).matrix))
                break
        else:
            raise UnidentifiedSummand(
                f"summand of dimension {summand.dim} matches no indecomposable tilting module")
    return out


def tilting_support(tilt: TiltingRegistry, t: ModuleRep):
    """Multiset {label: multiplicity of T(label) in t}, counted off
    `tilting_summands` in first-occurrence order."""
    out = {}
    for lab, _ in tilting_summands(tilt, t):
        out[lab] = out.get(lab, 0) + 1
    return out
