"""Reference implementations the tests compare the pipeline against.

No stage of the pipeline calls these: they decide the same questions by
other routes (explicit filtrations, composition series, membership
conditions solved directly), so a test can check a pipeline result against
an independent computation.
"""

from __future__ import annotations

import argparse

from tiltcell import poly
from tiltcell.algebra import (
    EndAlgebra,
    ModuleRep,
    Morphism,
    _fitting_projection,
    _hom_basis,
    _indec_isomorphism,
    direct_sum,
    hom_space,
    krull_schmidt,
    module_head,
    module_socle,
    quotient_rep,
    submodule_generated,
    submodule_rep,
)
from tiltcell.cells import cell_module, gram_matrix
from tiltcell.cli import COMMANDS
from tiltcell.docio import catalog_names
from tiltcell.errors import (
    AxiomViolation,
    DimensionMismatch,
    InputError,
    TheoremViolation,
    TiltcellError,
)
from tiltcell.highest_weight import Registry, dualize_plain, ext1_dim, projective_cover
from tiltcell.linalg import Matrix, Subspace, coordinates
from tiltcell.standard_basis import StandardBasisDatum, structure_coefficients
from tiltcell.structure import _Closure
from tiltcell.tilting import TiltingRegistry


# -- errors ------------------------------------------------------------------


class NotSimple(TiltcellError):
    """A module claimed simple has a proper nonzero submodule."""


class NoFiltration(TiltcellError):
    """Module admits no (co)standard filtration; carries a witness label."""

    def __init__(self, label, detail=""):
        self.label = label
        super().__init__(f"no filtration, witness label {label!r} {detail}".rstrip())


# -- matrices, subspaces and labels ---------------------------------------------


def from_int_rows(field, rows) -> Matrix:
    """A matrix of integer entries, each read into the field."""
    return Matrix(field, [[field.of(x) for x in r] for r in rows])


def span_sum(v: Subspace, w: Subspace) -> Subspace:
    """V + W, from the rows of both bases."""
    if v.ambient != w.ambient:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return Subspace.from_rows(v.field, v.ambient, v.basis.entries + w.basis.entries)


def image(f: Morphism) -> Subspace:
    """The image of f as a subspace of its target."""
    return Subspace.from_rows(f.matrix.field, f.target.dim, f.matrix.transpose().entries)


def hstack(mats):
    """The matrices side by side; their row counts must agree."""
    mats = list(mats)
    F = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack: row counts differ")
    return Matrix(F, [sum((list(m.entries[i]) for m in mats), []) for i in range(rows)],
                  cols=sum(m.cols for m in mats))


def intersect(v: Subspace, w: Subspace) -> Subspace:
    """V cap W: x = a V = b W, read off the null space of [V^T | -W^T]."""
    if v.ambient != w.ambient:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    F = v.field
    if v.dim == 0 or w.dim == 0:
        return Subspace.zero(F, v.ambient)
    ker = hstack([v.basis.transpose(), -w.basis.transpose()]).kernel()
    return Subspace.from_rows(F, v.ambient, [
        (Matrix(F, [kr[:v.dim]]) @ v.basis).entries[0] for kr in ker.entries])


def maximal_among(poset, subset):
    """A maximal element of a label subset, tie-broken by latest position in
    the linear extension."""
    subset = list(subset)
    maxima = [x for x in subset if not any(poset.lt(x, y) for y in subset)]
    return max(maxima, key=poset.linear_extension.index)


# -- A's identities on every basis pair ----------------------------------------
# The load checks take their first factor among A's generators only; these
# take it over the whole basis, with the same messages.


def module_axioms_all_pairs(m: ModuleRep):
    F = m.algebra.field
    if m.act(m.algebra.unit) != Matrix.identity(F, m.dim):
        raise InputError("unit does not act as the identity")
    for i in range(m.algebra.dim):
        for j in range(m.algebra.dim):
            if m.action[i] @ m.action[j] != m.act(m.algebra.table[i][j]):
                raise InputError(f"module axiom fails at basis pair ({i},{j})")


def intertwines_all_basis(f: Morphism):
    for i in range(f.source.algebra.dim):
        if f.matrix @ f.source.action[i] != f.target.action[i] @ f.matrix:
            raise InputError(f"matrix does not intertwine basis element {i}")


def anti_involution_all_pairs(algebra, matrix: Matrix):
    """`AntiInvolution`'s checks: shape, involutivity, the unit, then
    tau(b_i b_j) = tau(b_j) tau(b_i) for every basis pair."""
    F, n = algebra.field, algebra.dim
    if matrix.rows != n or matrix.cols != n:
        raise InputError("anti-involution matrix has wrong shape")
    if matrix @ matrix != Matrix.identity(F, n):
        raise InputError("anti-involution does not square to the identity")
    unit_col = Matrix.column(F, algebra.unit)
    if matrix @ unit_col != unit_col:
        raise InputError("anti-involution does not fix the unit")
    tau = [tuple(row[i] for row in matrix.entries) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = tuple(r[0] for r in (matrix @ Matrix.column(F, algebra.table[i][j])).entries)
            if lhs != algebra.multiply(tau[j], tau[i]):
                raise InputError(f"anti-multiplicativity fails at basis pair ({i},{j})")


# -- the routes the structural shortcuts replaced -------------------------------
# `submodule_rep`, `quotient_rep`, `AlgebraPresentation.multiply` and
# `_ideal_defect` as they were before they read pivot rows, free columns, the
# sparse table and A's generators; the tests compare them entry for entry.


def submodule_rep_all_actions(m: ModuleRep, space: Subspace):
    """`submodule_rep` reading every action's coordinates off a @ incl."""
    F = m.algebra.field
    incl = space.basis.transpose()
    action = [space.coordinates(a @ incl) if space.dim else Matrix.zeros(F, 0, 0)
              for a in m.action]
    sub = ModuleRep(m.algebra, space.dim, action, check=False)
    return sub, Morphism(sub, m, incl)


def quotient_rep_two_products(m: ModuleRep, space: Subspace):
    """`quotient_rep` forming proj @ a @ section for every action."""
    proj, section = space.complement_projection()
    quot = ModuleRep(m.algebra, m.dim - space.dim, [proj @ a @ section for a in m.action],
                     check=False)
    return quot, Morphism(m, quot, proj), section


def multiply_dense(algebra, a, b):
    """The product of two coefficient vectors through the field operations,
    over every entry of the structure table."""
    F = algebra.field
    out = [F.zero()] * algebra.dim
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            c = F.mul(ai, bj)
            for k, t in enumerate(algebra.table[i][j]):
                if t:
                    out[k] = F.add(out[k], F.mul(c, t))
    return tuple(out)


def ideal_defect_all_basis(algebra, rad: Subspace) -> str | None:
    """`_ideal_defect` with every basis element as the first factor of the
    ideal test, in basis order, and dense products."""
    F, n = algebra.field, algebra.dim
    for b in range(n):
        e_b = algebra.basis_vector(b)
        for row in rad.basis.entries:
            if not rad.contains_vector(multiply_dense(algebra, e_b, row)):
                return "not a left ideal"
            if not rad.contains_vector(multiply_dense(algebra, row, e_b)):
                return "not a right ideal"
    current = rad
    while current.dim:
        nxt = Subspace.from_rows(F, n, [multiply_dense(algebra, u, v) for u in current.basis.entries
                                        for v in rad.basis.entries])
        if nxt.dim == current.dim:
            return "not nilpotent"
        current = nxt
    return None


# -- composition multiplicities ----------------------------------------------


def is_simple(m: ModuleRep) -> bool:
    if m.dim == 0:
        return False
    if module_socle(m).dim != m.dim:
        return False
    return len(krull_schmidt(m)) == 1


def composition_multiplicity(m: ModuleRep, simple: ModuleRep) -> int:
    """[m : simple] by peeling socles and counting hom multiplicities.

    For split algebras dim Hom(simple, socle layer) counts exactly the
    occurrences in that layer; summing over the socle series gives the
    Jordan-Hoelder multiplicity.
    """
    if not is_simple(simple):
        raise NotSimple("second argument has a proper nonzero submodule")
    total = 0
    current = m
    while current.dim > 0:
        soc = module_socle(current)
        layer, _ = submodule_rep(current, soc)
        total += len(hom_space(simple, layer))
        current, _, _ = quotient_rep(current, soc)
    return total


# -- hom spaces and extension groups, solved -----------------------------------


def solved_homs(m: ModuleRep, n: ModuleRep) -> list[Matrix]:
    """The canonical basis of Hom(m, n) solved from the intertwining
    equations (`algebra._hom_basis`), with no memo read, even for a
    registered projective m, whose Hom `hom_space` reads off e.N instead."""
    return list(_hom_basis(m, n)) if m.dim and n.dim else []


def projective_cover_greedy(reg: Registry, m: ModuleRep):
    """`projective_cover` as it was before one elimination: per label, up to
    [head : L(label)] maps of Hom(P(label), m) whose head images enlarge the
    span covered so far, each tested by a subspace sum, and pi summed from
    the maps composed with the projections of P0."""
    F = reg.algebra.field
    head, head_proj = module_head(m)
    blocks, labels_used = [], []
    covered = Subspace.zero(F, head.dim)
    for label in reg.poset.labels:
        want = reg.mult(head, label)
        if want == 0:
            continue
        P = reg.data[label].projective
        taken = 0
        for f in hom_space(P, m):
            if taken == want:
                break
            to_head = head_proj.matrix @ f.matrix
            candidate = span_sum(covered, Subspace.from_rows(F, head.dim,
                                                             to_head.transpose().entries))
            if candidate.dim > covered.dim:
                covered = candidate
                blocks.append((P, f))
                labels_used.append(label)
                taken += 1
    if covered.dim != head.dim:
        raise TheoremViolation(
            f"projective cover of a module of dimension {m.dim} covers {covered.dim} of its "
            f"{head.dim}-dimensional head (labels used: {labels_used})")
    if not blocks:
        zero_mod = ModuleRep(reg.algebra, 0, [Matrix.zeros(F, 0, 0)] * reg.algebra.dim, check=False)
        return zero_mod, Morphism(zero_mod, m, Matrix.zeros(F, m.dim, 0)), []
    P0, _, projs = direct_sum([b[0] for b in blocks])
    total = Matrix.zeros(F, m.dim, P0.dim)
    for (_, f), pr in zip(blocks, projs):
        total = total + f.matrix @ pr.matrix
    return P0, Morphism(P0, m, total), labels_used


def cover_route_ext_dims(reg: Registry, m: ModuleRep, n: ModuleRep):
    """(dim Ext^1(m, n), dim Ext^2(m, n)) from `projective_cover`'s
    presentations and solved hom spaces: no cover read off the Registry and
    no Hom out of a projective read off e.N.  Ext^1(x, n) is Hom(Omega x, n)
    modulo the restrictions of Hom(P0, n), and Ext^2(m, n) = Ext^1(Omega m, n)."""
    F = reg.algebra.field

    def ext1(x):
        P0, pi, _ = projective_cover(reg, x)
        omega, incl = submodule_rep(P0, pi.kernel())
        width = n.dim * omega.dim
        cobound = Subspace.from_rows(F, width, [(g @ incl.matrix).flat()
                                                for g in solved_homs(P0, n)])
        both = span_sum(cobound, Subspace.from_rows(F, width, [h.flat()
                                                               for h in solved_homs(omega, n)]))
        return both.dim - cobound.dim, omega

    e1, omega = ext1(m)
    return e1, ext1(omega)[0] if omega.dim else 0


# -- injectives ----------------------------------------------------------------


def opposite_projective(reg: Registry, label: str) -> ModuleRep:
    """P^op(label), generated by label's idempotent in the opposite algebra."""
    reg_op = reg.opposite.regular_module()
    space = submodule_generated(reg_op, [reg.data[label].idempotent])
    return submodule_rep(reg_op, space)[0]


def injective(reg: Registry, label: str) -> ModuleRep:
    """I(label), the dual of P^op(label)."""
    return dualize_plain(reg.algebra, opposite_projective(reg, label))


def costandard_incl(reg: Registry, label: str) -> Morphism:
    """Nabla(label) -> I(label), the dual of the projection of P^op(label)
    onto the opposite algebra's standard module at label."""
    proj_op = opposite_projective(reg, label)
    proj = reg._standardize(proj_op, label)[1]
    return Morphism(reg.costandard(label), dualize_plain(reg.algebra, proj_op),
                    proj.matrix.transpose())


# -- isomorphism by matching Krull-Schmidt summands ------------------------------


def is_isomorphic(m: ModuleRep, n: ModuleRep) -> Morphism | None:
    """An invertible intertwiner m -> n, or None.

    An invertible element of the hom basis is returned when there is one,
    which there always is for isomorphic indecomposables; otherwise, unless
    the hom space is zero, both modules are decomposed and their
    indecomposable summands matched.
    """
    w = _indec_isomorphism(m, n)
    if w is not None or m.dim != n.dim or (m.dim and not hom_space(m, n)):
        return w
    dec_m = krull_schmidt(m)
    dec_n = krull_schmidt(n)
    if len(dec_m) != len(dec_n):
        return None
    total = Matrix.zeros(m.algebra.field, n.dim, m.dim)
    used = [False] * len(dec_n)
    for (sm, incl_m, proj_m) in dec_m:
        found = False
        for idx, (sn, incl_n, proj_n) in enumerate(dec_n):
            if used[idx]:
                continue
            w = _indec_isomorphism(sm, sn)
            if w is not None:
                used[idx] = True
                total = total + (incl_n @ w @ proj_m).matrix
                found = True
                break
        if not found:
            return None
    cand = Morphism(m, n, total)
    return cand if cand.is_invertible() else None


def ks_tilting_support(tilt: TiltingRegistry, t: ModuleRep) -> dict:
    """{label: multiplicity of T(label) in t} by splitting t with
    Krull-Schmidt, whatever its content, and matching each summand."""
    out = {}
    for (summand, _, _) in krull_schmidt(t):
        matched = next(lab for lab in tilt.base.poset.labels
                       if _indec_isomorphism(summand, tilt.module(lab)) is not None)
        out[matched] = out.get(matched, 0) + 1
    return out


# -- (co)standard filtrations and extension witnesses ------------------------


class FiltrationWitness:
    """Ascending chain 0 = N_0 < ... < N_k = module with identified factors.

    chain holds Subspaces of the module; factor_labels[i] names the factor
    N_{i+1}/N_i and factor_isos[i] is an invertible morphism from that
    subquotient onto the registry's standard or costandard module.
    """

    __slots__ = ("module", "kind", "chain", "factor_labels", "factor_isos")

    def __init__(self, module, kind, chain, factor_labels, factor_isos):
        self.module = module
        self.kind = kind
        self.chain = chain
        self.factor_labels = factor_labels
        self.factor_isos = factor_isos


def subquotient(m: ModuleRep, big: Subspace, small: Subspace) -> ModuleRep:
    """The module big/small for nested invariant subspaces of m."""
    F = m.algebra.field
    big_mod, _ = submodule_rep(m, big)
    if small.dim == 0:
        return big_mod
    inner = big.coordinates(small.basis.transpose())
    inner_space = Subspace.from_rows(F, big_mod.dim, inner.transpose().entries)
    return quotient_rep(big_mod, inner_space)[0]


def _identify_factors(reg: Registry, m: ModuleRep, chain, labels, targets):
    """Isomorphism witnesses for each chain subquotient against its target."""
    isos = []
    for i, lam in enumerate(labels):
        factor = subquotient(m, chain[i + 1], chain[i])
        w = is_isomorphic(factor, targets(lam))
        if w is None:
            raise NoFiltration(lam, "(chain factor failed identification)")
        isos.append(w)
    return isos


def delta_filtration(reg: Registry, m: ModuleRep) -> FiltrationWitness:
    """Explicit standard filtration of m, or NoFiltration.

    Membership is decided by the extension criterion (vanishing against all
    costandard modules); the chain is then peeled from the top: an
    epimorphism onto the standard module at a maximal head label always
    exists and its kernel is again filtered.
    """
    for lam in reg.poset.labels:
        if ext1_dim(reg, m, reg.costandard(lam)) != 0:
            raise NoFiltration(lam, "(extension against costandard does not vanish)")
    chain, labels = _delta_chain(reg, m)
    chain = [Subspace.zero(reg.algebra.field, m.dim)] + chain
    isos = _identify_factors(reg, m, chain, labels, reg.standard)
    return FiltrationWitness(m, "standard", chain, labels, isos)


def _peel_candidates(poset, labels):
    """Label order for peeling: the maximal one first, then the rest by
    decreasing linear-extension position.  A peel at the smallest head label
    always succeeds on a filtered module, so the loop terminates."""
    first = maximal_among(poset, labels)
    rest = sorted((x for x in labels if x != first),
                  key=poset.linear_extension.index, reverse=True)
    return [first] + rest


def _delta_chain(reg: Registry, m: ModuleRep):
    """Ascending subspaces of m (zero excluded, full included) and labels."""
    F = reg.algebra.field
    if m.dim == 0:
        return [], []
    head, _ = module_head(m)
    epi = None
    lam = None
    for cand in _peel_candidates(reg.poset, reg.factor_labels(head)):
        delta = reg.standard(cand)
        delta_head_proj = module_head(delta)[1]
        for f in hom_space(m, delta):
            # nonzero composite to the simple head makes f surjective
            if not (delta_head_proj @ f).is_zero():
                epi, lam = f, cand
                break
        if epi is not None:
            break
    if epi is None:
        raise NoFiltration(maximal_among(reg.poset, reg.factor_labels(head)),
                           "(no epimorphism onto a standard module)")
    delta = reg.standard(lam)
    assert epi.is_surjective()
    ker_space = epi.kernel()
    ker_mod, ker_incl = submodule_rep(m, ker_space)
    sub_chain, sub_labels = _delta_chain(reg, ker_mod)
    chain = [Subspace.from_rows(F, m.dim, (s.basis @ ker_incl.matrix.transpose()).entries)
             for s in sub_chain[:-1]]
    if sub_chain:
        chain.append(ker_space)
    chain.append(Subspace.full(F, m.dim))
    return chain, sub_labels + [lam]


def nabla_filtration(reg: Registry, n: ModuleRep) -> FiltrationWitness:
    """Explicit costandard filtration of n, or NoFiltration (dual peel)."""
    for lam in reg.poset.labels:
        if ext1_dim(reg, reg.standard(lam), n) != 0:
            raise NoFiltration(lam, "(extension from standard does not vanish)")
    chain, labels = _nabla_chain(reg, n)
    chain = [Subspace.zero(reg.algebra.field, n.dim)] + chain
    isos = _identify_factors(reg, n, chain, labels, reg.costandard)
    return FiltrationWitness(n, "costandard", chain, labels, isos)


def _nabla_chain(reg: Registry, n: ModuleRep):
    F = reg.algebra.field
    if n.dim == 0:
        return [], []
    soc_mod, _ = submodule_rep(n, module_socle(n))
    mono = None
    lam = None
    for cand in _peel_candidates(reg.poset, reg.factor_labels(soc_mod)):
        nabla = reg.costandard(cand)
        nabla_soc_incl = submodule_rep(nabla, module_socle(nabla))[1]
        for f in hom_space(nabla, n):
            # nonzero restriction to the simple socle makes f injective
            if not (f @ nabla_soc_incl).is_zero():
                mono, lam = f, cand
                break
        if mono is not None:
            break
    if mono is None:
        raise NoFiltration(maximal_among(reg.poset, reg.factor_labels(soc_mod)),
                           "(no monomorphism from a costandard module)")
    nabla = reg.costandard(lam)
    assert mono.is_injective()
    img = image(mono)
    quot, qproj, _ = quotient_rep(n, img)
    sub_chain, sub_labels = _nabla_chain(reg, quot)
    chain = [img] + [_preimage(F, qproj.matrix, s) for s in sub_chain]
    return chain, [lam] + sub_labels


def _preimage(F, proj_matrix: Matrix, s: Subspace) -> Subspace:
    """Preimage of a subspace under a surjection, as a subspace upstairs."""
    amb = proj_matrix.cols
    if s.dim == 0:
        return Subspace(amb, proj_matrix.kernel())
    ker = hstack([proj_matrix, -s.basis.transpose()]).kernel()
    rows = [r[:amb] for r in ker.entries]
    return Subspace.from_rows(F, amb, rows)


def ext1_witness_factor(reg: Registry, m: ModuleRep, n: ModuleRep):
    """A composition factor label of m witnessing Ext^1(m, n) != 0, or None."""
    if ext1_dim(reg, m, n) == 0:
        return None
    for label in reg.factor_labels(m):
        if ext1_dim(reg, reg.simple(label), n) > 0:
            return label
    return None


def is_tilting(reg: Registry, t: ModuleRep):
    """(verdict, per-label extension report) for the two-sided criterion."""
    report = {lam: (ext1_dim(reg, t, reg.costandard(lam)), ext1_dim(reg, reg.standard(lam), t))
              for lam in reg.poset.labels}
    return not any(left or right for left, right in report.values()), report


# -- image weights and the label filtration of hom spaces --------------------


def phi_weight(reg: Registry, f: Morphism, label: str) -> int:
    """Multiplicity of the simple at `label` in the image of f.

    Equals the rank of (primitive idempotent action) . f, since the
    idempotent picks out exactly that isotypic layer in a split algebra.
    """
    return (f.target.act(reg.data[label].idempotent) @ f.matrix).rank()


def hom_filtration_oracle(reg: Registry, m: ModuleRep, n: ModuleRep, label: str,
                          homs: list[Morphism] | None = None) -> Subspace:
    """Hom(m, n)^{<= label} by brute membership: the subspace of morphisms
    whose image avoids all simples at labels not below-or-equal `label`.

    Image avoidance of the simple at mu is the linear condition
    e_mu . f = 0, so the subspace is a kernel computation in the
    coordinates of the canonical hom basis.
    """
    F = reg.algebra.field
    if homs is None:
        homs = hom_space(m, n)
    h = len(homs)
    if h == 0:
        return Subspace.zero(F, 0)
    rows = []
    for mu in reg.poset.labels:
        if reg.poset.leq(mu, label):
            continue
        e_act = n.act(reg.data[mu].idempotent)
        cols = [(e_act @ f.matrix).flat() for f in homs]
        for entry_idx in range(len(cols[0])):
            rows.append([col[entry_idx] for col in cols])
    if not rows:
        return Subspace.full(F, h)
    return Subspace(h, Matrix(F, rows).kernel())


def hom_filtration_from_datum(datum: StandardBasisDatum, label: str,
                              homs: list[Morphism]) -> Subspace:
    """Hom^{<= label} as the span of fibers at labels <= label, expressed in
    the coordinates of the given hom basis."""
    reg = datum.tilt.base
    F = reg.algebra.field
    coords = coordinates(F, [f.matrix.flat() for f in homs], datum.module.dim ** 2)
    rows = [coords(datum.cell(mu, i, j).matrix.flat())
            for (mu, i, j) in datum.index() if reg.poset.leq(mu, label)]
    return Subspace.from_rows(F, len(homs), rows)


# -- cell modules ------------------------------------------------------------


def cell_simple_module(datum: StandardBasisDatum, label) -> ModuleRep:
    """The simple head of the cell module: quotient by the pairing radical."""
    beta = gram_matrix(datum, label)
    cm = cell_module(datum, label)
    radical_space = Subspace(cm.dim, beta.kernel())
    return quotient_rep(cm, radical_space)[0]


# -- the fibered-multiplication axioms on the full product table ---------------


def product_table(datum: StandardBasisDatum):
    """table[a][b]: the coordinates of cell_a . cell_b in the whole cell
    basis, the structure constants of End(T) on the cells, one product per
    pair."""
    mats = [datum.cell(*key).matrix for key in datum.index()]
    return [[datum.coords(a @ b) for b in mats] for a in mats]


def basis_residuals(datum: StandardBasisDatum):
    """{(at, side, pos): [(m, r), ...]} over the nonzero residuals r of every
    basis probe phi = cell_m.  For c_ij = cell_at, side 0 is phi . c_ij -
    sum_k left_ki c_kj and side 1 is c_ij . phi - sum_l right_lj c_il; r is
    its coordinate at pos, a position whose label is not strictly below
    c_ij's, read off table[m][at] resp. table[at][m]."""
    F = datum.tilt.base.algebra.field
    table = product_table(datum)
    index, pos = datum.index(), datum._pos
    out = {}
    for m, key in enumerate(index):
        sc = structure_coefficients(datum, datum.cell(*key))
        for at, (lam, i, j) in enumerate(index):
            left, right = sc.left[lam].entries, sc.right[lam].entries
            sides = ((table[m][at], {pos[(lam, k, j)]: left[k][i] for k in range(len(left))}),
                     (table[at][m], {pos[(lam, i, l)]: right[l][j] for l in range(len(right))}))
            for side, (v, expected) in enumerate(sides):
                for q in datum._not_lower[lam]:
                    r = F.sub(v[q], expected.get(q, 0))
                    if r:
                        out.setdefault((at, side, q), []).append((m, r))
    return out


def table_replay(datum: StandardBasisDatum, trials: int = 100):
    """The axiom check with every cell a probe, read off the full product
    table: verify_standard_axioms' summary dict, or AxiomViolation at the
    least (m, entry) with a nonzero residual R_m."""
    residuals = basis_residuals(datum)
    if residuals:
        _, (at, side, _) = min((m, entry) for entry, terms in residuals.items() for m, _ in terms)
        lam, i, j = datum.index()[at]
        which = ("fibered_left_multiplication", "fibered_right_multiplication")[side]
        raise AxiomViolation(lam, (i, j), which, "residual escapes the lower fiber span")
    probes = datum.dim() + trials
    return {"probes": probes, "congruences_checked": 2 * probes * datum.dim(), "ok": True}


# -- End(M)'s products formed whole, and eigenvalues off the charpoly -------------


def full_product_coords(E: EndAlgebra, a: int, b: int):
    """`EndAlgebra.product` formed whole: basis[a] . basis[b] as a matrix,
    its coordinates read with the exact membership check."""
    return E.coords(E.basis[a].matrix @ E.basis[b].matrix)


def charpoly_idempotent_from_element(E: EndAlgebra, phi: Morphism):
    """`algebra._idempotent_from_element` with no trace step: an eigenvalue
    is always the str-least linear root of phi's characteristic
    polynomial."""
    F = E.field
    n = phi.matrix.rows
    ident = Matrix.identity(F, n)
    if phi.matrix == ident:
        return None, F.one()
    if (phi @ phi).matrix == phi.matrix and not phi.matrix.is_zero():
        return phi, None
    proj = _fitting_projection(phi.matrix)
    if proj is not None:
        return Morphism(phi.source, phi.source, proj), None
    roots = poly.linear_roots(F, poly.charpoly(phi.matrix))[0]
    if not roots:
        return None, None
    root = min(roots, key=str)
    proj = _fitting_projection(phi.matrix - ident.scale(root))
    return (None, root) if proj is None else (Morphism(phi.source, phi.source, proj), None)


# -- the generating set, each pruning closure grown from scratch -----------------


def generating_set_rebuilt(algebra) -> tuple[int, ...]:
    """structure.generating_set with the pruning pass building every
    closure anew from the unit: the greedy generators in basis order, then
    each dropped when the others still generate."""
    sparse = algebra.sparse_table()
    closure = _Closure(algebra.field, algebra.dim, algebra.unit, sparse)
    gens = []
    for i in range(algebra.dim):
        if not closure.full() and not closure.contains(i):
            closure.add_generator(i)
            gens.append(i)
    for g in tuple(gens):
        rest = [h for h in gens if h != g]
        closure = _Closure(algebra.field, algebra.dim, algebra.unit, sparse)
        for h in rest:
            closure.add_generator(h)
        if closure.full():
            gens = rest
    return tuple(gens)


# -- the command line, parsed by argparse ---------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line had before `cli.parse_args`:
    one parser, the subcommand its positional argument, each flag declared
    once."""
    parser = argparse.ArgumentParser(
        prog="tiltcell",
        description="standard and cellular bases of endomorphism algebras "
                    "of tilting modules, with exact arithmetic")
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a JSON input document")
    src.add_argument("--catalog", choices=catalog_names(), help="built-in algebra by name")
    parser.add_argument("--field", default=None,
                        help='override the base field: "Q" or "Fp <p>"')
    parser.add_argument("--seed", type=int, default=None, help="PRNG seed for lift choices")
    parser.add_argument("--trials", type=int, default=None,
                        help="random endomorphisms per axiom verification")
    parser.add_argument("--dim-bound", type=int, default=None,
                        help="abort tilting construction above this dimension")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser
