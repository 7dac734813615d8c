"""Cell modules, Gram pairings and the simple modules of End(T).

The left cell module at a label is the hom space from the standard module
into T with End(T) acting by post-composition.  The pairing is read off
Hom(Delta, Nabla) = K c, where c = pi . i is the composite through the
indecomposable tilting module: F_j . G_k = beta(j, k) c, so no radical of
End(T(label)) is needed.  Ranks of the pairings are the dimensions of
the simple End(T)-modules (Graham-Lehrer; Du-Rui for standard bases), so
End(T) is semisimple exactly when their squares sum to dim End(T).  The
ranks are cross-checked against the Krull-Schmidt multiplicity of each
indecomposable tilting summand, and the semisimplicity verdict against T's
module radical; no radical of End(T) is taken.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation, ModuleRep, module_radical
from .errors import LabelNotInSupport, TheoremViolation
from .linalg import Matrix
from .standard_basis import StandardBasisDatum, structure_coefficients


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


def gram_matrix(datum: StandardBasisDatum, label) -> Matrix:
    """beta at `label`: entry (j, k) is the b with F_j . G_k = b c in
    Hom(Delta, Nabla) = K c, c = pi . i, checked exactly.  As pi . Fhat_j = F_j
    and Ghat_k . i = G_k, b is the scalar part of Fhat_j . Ghat_k in the local
    ring End(T(label)), since pi . phi . i is the scalar part of phi times c.

    Cross-checked by the product rule: c_ij . c_kl must equal
    beta(j, k) c_il up to strictly lower fibers.
    """
    if label not in datum.order:
        raise LabelNotInSupport(f"label {label!r} has an empty fiber")
    c = datum.tilt.triple(label).c.matrix
    # c is normalized to 1 at its first nonzero entry (r, s); b is read there
    r, s = next((r, s) for r, row in enumerate(c.entries) for s, x in enumerate(row) if x)
    composites = [[(f @ g).matrix for g in datum.G[label]] for f in datum.F[label]]
    beta = Matrix(datum.reg.algebra.field, [[m.entries[r][s] for m in row] for row in composites],
                  cols=len(datum.G[label]))
    for j, row in enumerate(composites):
        for k, m in enumerate(row):
            if m != c.scale(beta.entries[j][k]):
                raise TheoremViolation(f"F_{j} . G_{k} at {label!r} is not a multiple of pi . i")
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
    checked on construction.  Each cell acts through its left structure
    coefficients at `label`.
    """
    if label not in datum.order:
        raise LabelNotInSupport(f"label {label!r} has an empty fiber")
    action = [structure_coefficients(datum, datum.cell(*key)).left[label]
              for key in datum.index()]
    return ModuleRep(end_presentation(datum), len(datum.G[label]), action, check=True)


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


def is_semisimple_endalgebra(cell_data: CellData) -> bool:
    """Semisimplicity of End(T), computed two independent ways.

    (a) Wedderburn's count on the cells: the simples have the pairings'
    ranks as dimensions, so End(T) is semisimple exactly when the squared
    ranks sum to dim End(T); (b) T itself is semisimple (zero module
    radical).  The two verdicts must agree; disagreement is a hard error.

    Agreement is a theorem whenever the standard and costandard
    multiplicities of T match at every label (any T when a duality
    exchanges the two sides, and every characteristic tilting module).
    Without that symmetry (b) can be false while (a) holds: already
    T(max)^2 over the two-vertex path algebra has End = M_2(K) semisimple
    with T non-semisimple, because the top label carries morphisms from
    the standard module but none onto the costandard one.
    """
    datum = cell_data.datum
    by_cells = sum(r * r for r in cell_data.gram_rank.values()) == datum.dim()
    by_module = module_radical(datum.module).dim == 0
    if by_cells != by_module:
        raise TheoremViolation(
            f"semisimplicity verdicts disagree: squared ranks sum to dim End = {by_cells}, "
            f"module radical zero = {by_module}")
    return by_cells
