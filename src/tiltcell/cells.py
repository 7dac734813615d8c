"""Cell modules, Gram pairings and the simple modules of End(T).

The left cell module at a label is the hom space from the standard module
into T with End(T) acting by post-composition; the pairing comes from the
scalar part of composites through the indecomposable tilting module, whose
endomorphism ring is local.  Ranks of the pairings classify the simple
End(T)-modules and are cross-checked against the Krull-Schmidt multiplicity
of each indecomposable tilting summand.
"""

from __future__ import annotations

from .algebra import (
    AlgebraPresentation,
    EndAlgebra,
    ModuleRep,
    algebra_radical,
    module_radical,
)
from .errors import LabelNotInSupport, TheoremViolation
from .linalg import Matrix, Subspace, coordinates
from .standard_basis import StandardBasisDatum, structure_coefficients
from .tilting import TiltingRegistry


class CellData:
    """Gram matrices and simple-module data attached to a basis datum."""

    def __init__(self, datum: StandardBasisDatum):
        self.datum = datum
        self.gram = {}           # label -> |J| x |I| matrix
        self.gram_rank = {}
        self.support = list(datum.order)
        for lam in self.support:
            self.gram[lam] = gram_matrix(datum, lam)
            self.gram_rank[lam] = self.gram[lam].rank()

    def nonzero_support(self):
        """Labels whose pairing is nonzero; these index the simple modules."""
        return [lam for lam in self.support if not self.gram[lam].is_zero()]

    def simple_dims(self):
        return {lam: self.gram_rank[lam] for lam in self.nonzero_support()}


def _scalar_part(tilt: TiltingRegistry, label):
    """Decomposition End(T(label)) = K id + radical; returns the map from an
    endomorphism matrix to its scalar part."""
    n = tilt.module(label).dim
    E = EndAlgebra(tilt.module(label))
    rad = algebra_radical(E.presentation)
    rows = [Matrix.identity(E.field, n).flat()]
    rows.extend(E.from_coords(r).matrix.flat() for r in rad.basis.entries)
    if len(rows) != E.dim:
        raise TheoremViolation(
            f"endomorphism ring at {label!r} is not scalar-plus-radical; "
            "the module is not indecomposable over a split algebra")
    coords = coordinates(E.field, rows, n * n)
    return lambda mat: coords(mat.flat())[0]


def gram_matrix(datum: StandardBasisDatum, label) -> Matrix:
    """beta at `label`: entry (j, k) is the scalar part of Fhat_j . Ghat_k
    inside the local ring End(T(label)).

    Cross-checked by the product rule: c_ij . c_kl must equal
    beta(j, k) c_il up to strictly lower fibers.
    """
    if label not in datum.order:
        raise LabelNotInSupport(f"label {label!r} has an empty fiber")
    scalar = _scalar_part(datum.tilt, label)
    beta = Matrix(datum.reg.algebra.field,
                  [[scalar((fh @ gh).matrix) for gh in datum.Ghat[label]]
                   for fh in datum.Fhat[label]], cols=len(datum.G[label]))
    _check_product_rule(datum, label, beta)
    return beta


def _check_product_rule(datum: StandardBasisDatum, label, beta: Matrix):
    """c_ij . c_kl read from the datum's product table."""
    table = datum.product_table()
    pos = datum._pos
    n_i = len(datum.G[label])
    n_j = len(datum.F[label])
    for i in range(n_i):
        for j in range(n_j):
            for k in range(n_i):
                for l in range(n_j):
                    prod = table[pos[(label, i, j)]][pos[(label, k, l)]]
                    if not datum._congruent(label, prod, {pos[(label, i, l)]: beta.entries[j][k]}):
                        raise TheoremViolation(
                            f"product rule fails at {label!r} for (i,j,k,l)="
                            f"({i},{j},{k},{l})")


def cell_module(datum: StandardBasisDatum, label) -> ModuleRep:
    """The left cell module at `label`: underlying space Hom(Delta, T), the
    endomorphism algebra acting through its expansion coefficients.

    The action is a module structure over End(T) presented on the cell
    basis; the module axioms (associativity against the presentation) are
    checked on construction.
    """
    return _cell_module(datum, label, right=False)


def co_cell_module(datum: StandardBasisDatum, label) -> ModuleRep:
    """Right-action companion on Hom(T, Nabla), packaged as a left module
    over the opposite of End(T)."""
    return _cell_module(datum, label, right=True)


def _cell_module(datum: StandardBasisDatum, label, right: bool) -> ModuleRep:
    """Each cell acts through its left (right) structure coefficients at
    `label`, on the G (F) side, over End(T) (its opposite)."""
    if label not in datum.order:
        raise LabelNotInSupport(f"label {label!r} has an empty fiber")
    E_pres = end_presentation(datum)
    if right:
        E_pres = E_pres.opposite()
    coeffs = [structure_coefficients(datum, datum.cell(*key)) for key in datum.index()]
    action = [(c.right if right else c.left)[label] for c in coeffs]
    side = datum.F if right else datum.G
    return ModuleRep(E_pres, len(side[label]), action, check=True)


def end_presentation(datum: StandardBasisDatum):
    """End(T) as an abstract algebra on the cell basis: its structure
    constants are the datum's product table."""
    F = datum.reg.algebra.field
    unit = datum.coords(Matrix.identity(F, datum.module.dim))
    return AlgebraPresentation(F, datum.dim(), datum.product_table(), unit,
                               name="End(T)", check=False)


def classify_simples(cell_data: CellData, support_multiplicities=None):
    """Labels and dimensions of the simple End(T)-modules.

    dim of the simple at each label = rank of the pairing there; when the
    Krull-Schmidt support of T is supplied, each rank is cross-checked
    against the multiplicity of the corresponding tilting summand.
    """
    dims = cell_data.simple_dims()
    if support_multiplicities is not None:
        for lam, d in dims.items():
            want = support_multiplicities.get(lam, 0)
            if d != want:
                raise TheoremViolation(
                    f"rank of the pairing at {lam!r} is {d} but the tilting "
                    f"summand multiplicity is {want}")
        for lam, want in support_multiplicities.items():
            if want > 0 and lam not in dims:
                raise TheoremViolation(
                    f"summand at {lam!r} has multiplicity {want} but the pairing vanishes")
    return dims


def cell_simple_module(datum: StandardBasisDatum, label) -> ModuleRep:
    """The simple head of the cell module: quotient by the pairing radical."""
    beta = gram_matrix(datum, label)
    cm = cell_module(datum, label)
    radical_space = Subspace(cm.dim, beta.kernel())
    from .algebra import quotient_rep

    return quotient_rep(cm, radical_space)[0]


def is_semisimple_endalgebra(cell_data: CellData) -> bool:
    """Semisimplicity of End(T), computed two independent ways.

    (a) the radical of the abstract endomorphism algebra vanishes;
    (b) T itself is semisimple (zero module radical).  The two verdicts
    must agree; disagreement is a hard error.

    Agreement is a theorem whenever the standard and costandard
    multiplicities of T match at every label (any T when a duality
    exchanges the two sides, and every characteristic tilting module).
    Without that symmetry (b) can be false while (a) holds: already
    T(max)^2 over the two-vertex path algebra has End = M_2(K) semisimple
    with T non-semisimple, because the top label carries morphisms from
    the standard module but none onto the costandard one.
    """
    datum = cell_data.datum
    pres = end_presentation(datum)
    by_radical = algebra_radical(pres).dim == 0
    by_module = module_radical(datum.module).dim == 0
    if by_radical != by_module:
        raise TheoremViolation(
            f"semisimplicity verdicts disagree: End radical zero = {by_radical}, "
            f"module radical zero = {by_module}")
    return by_radical
