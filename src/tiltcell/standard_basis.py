"""Standard bases of endomorphism algebras of tilting modules.

Factorizing the maps between T and the (co)standard modules through the
indecomposable tilting modules produces a basis of End(T) fibered over the
weight poset, whose multiplication is triangular with respect to the
filtration of End(T) by the labels occurring in images of morphisms: a
product's residual lies in the span of strictly lower fibers.  This module
builds the basis for seeded lift choices, computes the structure
coefficients, and verifies the fibered-multiplication axioms exactly.
Lifts work a fiber at a time: all the maps of one fiber share one lift
space, which is solved once for all of them, and
StandardBasisDatum.add_fiber assembles a fiber for both the standard and
the cellular basis.  The axiom check probes a generating set of cells: the
endomorphisms that obey both fibered-multiplication rules form a unital
subalgebra (the lemma in `structure.py`), so once the probes generate
End(T), every endomorphism is certified.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .algebra import EndAlgebra, ModuleRep, Morphism, hom_space
from .errors import (
    AxiomViolation,
    BasisFailure,
    DependentFamily,
    InconsistentSystem,
    NoLift,
    TheoremViolation,
)
from .linalg import Matrix, coordinates, linear_combination
from .structure import _Closure
from .tilting import TiltingRegistry


def _lift_fiber(F, source, target, compose_to, fiber, rng, what):
    """Morphisms x: source -> target with compose_to(x) = f, one for each f
    of a fiber, all from the one lift space Hom(source, target).

    compose_to maps a candidate matrix to the constrained composite.  The
    candidates' composites are formed once and one solve takes every f as a
    right-hand side; its column for f is f's own solve, free variables zero,
    which is the canonical lift (rng None).  Otherwise the same elimination
    gives the kernel, and f's free variables are PRNG-sampled, a draw per null
    row, f by f.
    """
    candidates = hom_space(source, target)
    if not candidates:
        raise NoLift("lift space is empty")
    cols = Matrix(F, [compose_to(c.matrix).flat() for c in candidates]).transpose()
    targets = Matrix(F, [f.matrix.flat() for f in fiber]).transpose()
    try:
        if rng is None:
            part, null_rows = cols.solve(targets), ()
        else:
            part, null = cols.solve(targets, with_kernel=True)
            null_rows = null.entries
    except InconsistentSystem as exc:  # upstream axiom violation
        raise NoLift(f"no factorization exists: {exc}") from exc
    mats = [c.matrix for c in candidates]
    out = []
    for f, coeffs in zip(fiber, part.transpose().entries):
        for null_row in null_rows:
            c = F.sample(rng)
            if c:
                coeffs = [F.add(a, F.mul(c, b)) for a, b in zip(coeffs, null_row)]
        mat = linear_combination(F, coeffs, mats, target.dim, source.dim)
        if compose_to(mat) != f.matrix:
            raise TheoremViolation(f"{what} does not reproduce the morphism")
        out.append(Morphism(source, target, mat))
    return out


def lift_through_tilting(tilt: TiltingRegistry, fs: list[Morphism], label: str,
                         rng: random.Random | None = None) -> list[Morphism]:
    """f-hat: M -> T(label) with pi . f-hat = f, for each f: M -> Nabla(label)
    of a fiber with the one source M."""
    if not fs:
        return []
    triple = tilt.triple(label)
    return _lift_fiber(tilt.base.algebra.field, fs[0].source, triple.module,
                       lambda m: triple.pi.matrix @ m, fs, rng, "lift")


def extend_through_tilting(tilt: TiltingRegistry, gs: list[Morphism], label: str,
                           rng: random.Random | None = None) -> list[Morphism]:
    """g-hat: T(label) -> N with g-hat . i = g, for each g: Delta(label) -> N
    of a fiber with the one target N."""
    if not gs:
        return []
    triple = tilt.triple(label)
    return _lift_fiber(tilt.base.algebra.field, triple.module, gs[0].target,
                       lambda m: m @ triple.i.matrix, gs, rng, "extension")


class StandardBasisDatum:
    """The fibered basis {c_ij at each label} of End(T) with all choices kept.

    Per support label: G (Delta -> T basis), F (T -> Nabla basis), their
    lifts Ghat (T(label) -> T) and Fhat (T -> T(label)), and the cell
    matrix of composites c[i][j] = Ghat[i] . Fhat[j].  `order` lists the
    support along the linear extension.  finalize_datum installs `end`,
    End(T) as an EndAlgebra on the cells in index order (coords() expresses
    any endomorphism in the cell basis through it), the coordinate maps of
    each label's G and F bases, the position of every (label, i, j) in the
    basis, and for each label the positions whose label is not strictly
    below it, and clears verify_standard_axioms' verdict.
    """

    def __init__(self, tilt: TiltingRegistry, module: ModuleRep, seed: int):
        self.tilt = tilt
        self.module = module
        self.seed = seed
        self.order: list[str] = []
        self.G = {}
        self.F = {}
        self.Ghat = {}
        self.Fhat = {}
        self.cells = {}
        self._index = []        # ordered (label, i, j)
        self.end = None          # EndAlgebra on the cells, installed by finalize_datum
        self._pos = {}           # (label, i, j) -> position in the basis
        self._not_lower = {}     # label -> positions whose label is not strictly below
        self._fiber_coords = {}  # label -> (coordinate map of G, of F)
        self._certified = False  # the multiplication rules hold on these cells

    # -- assembly -------------------------------------------------------------

    def add_fiber(self, label, G, Fs, Ghat, Fhat):
        """Append the fiber at `label` along the order: its hom bases, their
        lifts and the cells Ghat[i] . Fhat[j], indexed (label, i, j)."""
        self.order.append(label)
        self.G[label], self.F[label] = G, Fs
        self.Ghat[label], self.Fhat[label] = Ghat, Fhat
        self.cells[label] = [[gh @ fh for fh in Fhat] for gh in Ghat]
        self._index.extend((label, i, j) for i in range(len(G)) for j in range(len(Fs)))

    def coords(self, matrix: Matrix):
        return self.end.coords(matrix)

    def index(self):
        return tuple(self._index)

    def cell(self, label, i, j) -> Morphism:
        return self.cells[label][i][j]

    def fiber_sizes(self):
        return {lam: (len(self.G[lam]), len(self.F[lam])) for lam in self.order}

    def dim(self):
        return len(self._index)

    def in_lower_span(self, label, matrix: Matrix) -> bool:
        """Membership in the span of the fibers at labels strictly below,
        read from the matrix's coordinates in the whole cell basis; a matrix
        outside End(T) fails."""
        try:
            v = self.end.coords(matrix)
        except InconsistentSystem:
            return False
        return self._congruent(label, v, {})

    def _congruent(self, label, v, expected) -> bool:
        """Whether the element with cell coordinates v is sum c * cell(pos)
        over the (pos, c) pairs of `expected`, up to fibers at labels strictly
        below: v equals c at each expected position and vanishes at every
        other position whose label is not strictly below."""
        return all(v[pos] == expected.get(pos, 0) for pos in self._not_lower[label])


def build_standard_basis(tilt: TiltingRegistry, module: ModuleRep,
                         seed: int = 0) -> StandardBasisDatum:
    """Construct and certify the fibered basis of End(module).

    G and F are the canonical hom bases; lifts are canonical for seed 0 and
    PRNG-perturbed otherwise.  Certification: the composites are linearly
    independent, count dim End(module), and every nonzero element of a
    fiber's span has nonzero image multiplicity at its own label.
    """
    reg = tilt.base
    datum = StandardBasisDatum(tilt, module, seed)
    rng = None if seed == 0 else random.Random(seed)
    for lam in reg.poset.linear_extension:
        G = hom_space(reg.standard(lam), module)
        Fs = hom_space(module, reg.costandard(lam))
        if not G or not Fs:
            continue
        Ghat = extend_through_tilting(tilt, G, lam, rng)  # the G side draws first
        datum.add_fiber(lam, G, Fs, Ghat, lift_through_tilting(tilt, Fs, lam, rng))
    finalize_datum(datum)
    return datum


def finalize_datum(datum: StandardBasisDatum):
    """Certify an assembled datum and install its coordinate maps.

    Checks the fiber count against dim End, linear independence of the
    composites, and the image-weight property of every fiber: each nonzero
    element of its span has nonzero weight at its label, one rank apiece.
    """
    reg = datum.tilt.base
    F = reg.algebra.field
    module = datum.module
    end_dim = len(hom_space(module, module))
    if len(datum._index) != end_dim:
        raise BasisFailure(datum.order[-1] if datum.order else "",
                           f"fiber count {len(datum._index)} != dim End = {end_dim}")
    end = EndAlgebra(module, [datum.cell(*key) for key in datum._index])
    try:
        end._coords  # the coordinate map, formed now to certify independence
    except DependentFamily:
        raise BasisFailure(datum.order[-1], "cell composites are linearly dependent") from None
    datum.end = end
    datum._pos = {key: pos for pos, key in enumerate(datum._index)}
    datum._certified = False
    for lam in datum.order:
        datum._not_lower[lam] = tuple(pos for pos, (mu, _, _) in enumerate(datum._index)
                                      if not reg.poset.lt(mu, lam))
        datum._fiber_coords[lam] = tuple(
            coordinates(F, [h.matrix.flat() for h in homs], len(homs[0].matrix.flat()))
            for homs in (datum.G[lam], datum.F[lam]))
    _certify_fiber_weights(datum)
    return datum


def _certify_fiber_weights(datum: StandardBasisDatum):
    """Every nonzero element of a fiber's span must carry nonzero image
    multiplicity at the fiber's own label.  The weight of x is the rank of
    e_label . x, so this holds exactly when the e_label . c over the fiber's
    cells c are linearly independent, the cells themselves being so."""
    reg = datum.tilt.base
    for lam in datum.order:
        e_act = datum.module.act(reg.data[lam].idempotent)
        rows = [(e_act @ c.matrix).flat() for row in datum.cells[lam] for c in row]
        if Matrix(reg.algebra.field, rows).rank() < len(rows):
            raise BasisFailure(lam, "fiber span has zero weight at its own label")


# -- structure coefficients and the fibered-multiplication axioms -----------------


# Expansion matrices of one endomorphism on each fiber: left[label][k][i] is
# the coefficient of G_k in phi . G_i, right[label][l][j] that of F_l in F_j . phi.
StructureCoefficients = namedtuple("StructureCoefficients", "left right")


def structure_coefficients(datum: StandardBasisDatum, phi: Morphism) -> StructureCoefficients:
    return StructureCoefficients(
        {lam: left_coefficients(datum, phi, lam) for lam in datum.order},
        {lam: _expansion(datum._fiber_coords[lam][1], [f @ phi for f in datum.F[lam]])
         for lam in datum.order})


def left_coefficients(datum: StandardBasisDatum, phi: Morphism, label) -> Matrix:
    """structure_coefficients(datum, phi).left[label] alone."""
    return _expansion(datum._fiber_coords[label][0], [phi @ g for g in datum.G[label]])


def _expansion(coords, morphisms) -> Matrix:
    return Matrix(morphisms[0].matrix.field,
                  [coords(m.matrix.flat()) for m in morphisms]).transpose()


def verify_standard_axioms(datum: StandardBasisDatum, trials: int = 100):
    """Check the two fibered-multiplication congruences for every
    endomorphism: residuals must lie in the span of strictly lower fibers.
    The cells are walked from the top fiber down; one that 1 and the passed
    probes generate obeys both (the lemma in `structure.py`) and is skipped,
    any other is probed on both sides of every cell.  `trials` draws no
    endomorphism and checks nothing: it only adds to the summary's counts,
    `probes` = n + trials and `congruences_checked` = 2 (n + trials) n for
    the n cells.  The datum keeps the verdict until finalize_datum.  On a
    failure AxiomViolation names the least (cell, side) of the first failing
    cell in index order."""
    n, index, pos, end = datum.dim(), datum.index(), datum._pos, datum.end
    summary = {"probes": n + trials, "congruences_checked": 2 * (n + trials) * n, "ok": True}
    if datum._certified:
        return summary
    rows, cols = {}, {}  # probe m -> coordinates of cell_m . cell_b, of cell_a . cell_m

    def probe(m):
        """The least (at, side) at which cell_m breaks a rule, or None."""
        if m not in rows:
            rows[m] = [cols[b][m] if b in cols else end.product(m, b) for b in range(n)]
            cols[m] = [rows[a][m] if a in rows else end.product(a, m) for a in range(n)]
        sc = structure_coefficients(datum, datum.cell(*index[m]))
        for at, (lam, i, j) in enumerate(index):
            left, right = sc.left[lam].entries, sc.right[lam].entries
            if not datum._congruent(lam, rows[m][at],
                                    {pos[(lam, k, j)]: left[k][i] for k in range(len(left))}):
                return at, 0
            if not datum._congruent(lam, cols[m][at],
                                    {pos[(lam, i, l)]: right[l][j] for l in range(len(right))}):
                return at, 1
        return None

    F, left_rows = datum.tilt.base.algebra.field, {}
    closure = _Closure(F, n, datum.coords(Matrix.identity(F, datum.module.dim)), left_rows)
    for m in reversed(range(n)):
        if closure.full():
            break
        if closure.contains(m):
            continue
        if probe(m) is not None:
            at, side = next(w for w in map(probe, range(n)) if w is not None)
            which = ("fibered_left_multiplication", "fibered_right_multiplication")[side]
            raise AxiomViolation(index[at][0], index[at][1:], which,
                                 "residual escapes the lower fiber span")
        left_rows[m] = [[(t, x) for t, x in enumerate(v) if x] for v in rows[m]]
        closure.add_generator(m)
    datum._certified = True
    return summary


def change_of_basis_unitriangular(datum_a: StandardBasisDatum,
                                  datum_b: StandardBasisDatum) -> bool:
    """Certify that datum_b's cells expand over datum_a's as the identity
    plus strictly-lower-fiber corrections (same G/F bases, different lifts).
    """
    return datum_a.index() == datum_b.index() and all(
        datum_a._congruent(lam, datum_a.coords(datum_b.cell(lam, i, j).matrix), {pos: 1})
        for pos, (lam, i, j) in enumerate(datum_a.index()))
