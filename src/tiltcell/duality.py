"""Module dualities, fixed points, and cellular structure on End(T).

The duality twists the vector-space dual by an algebra anti-involution; on
matrices it transposes actions and morphisms, and the double-dual
identification is the identity in coordinates.  A `DualityDatum` carries
the tilting registry and the anti-involution: check_standard_duality(tilt,
tau) solves each isomorphism T(label) -> D(T(label)) once, in any
characteristic; fixed_point_data(datum) symmetrizes them (away from
characteristic 2), making each self-dual indecomposable a fixed point; and
fixed_point_for_tilting(datum, t) pulls their block form back along the
summand projections of `tilting_summands`.  Fixed points make the induced
anti-automorphism of End(T) an involution, and choosing the projection-side
basis as the dual of the embedding-side basis makes the standard basis
cellular: the involution transposes each fiber and the Gram matrices come
out symmetric.
"""

from __future__ import annotations

import random

from .algebra import (
    AlgebraPresentation,
    ModuleRep,
    Morphism,
    _indec_isomorphism,
    hom_space,
)
from .errors import (
    CellularityFailure,
    InputError,
    NotInvolutive,
    NotStandardDuality,
    SymmetrizationDegenerate,
)
from .linalg import Matrix, block_diag, vstack
from .standard_basis import (
    StandardBasisDatum,
    extend_through_tilting,
    finalize_datum,
)
from .tilting import TiltingRegistry, tilting_summands


class AntiInvolution:
    """An algebra anti-involution given by its matrix on the basis.

    Columns are images: tau(b_i) = sum_j matrix[j][i] b_j.  The constructor
    verifies involutivity, unit preservation and anti-multiplicativity, the
    last on the generators (the lemma in `structure`).
    """

    def __init__(self, algebra: AlgebraPresentation, matrix: Matrix):
        self.algebra = algebra
        self.matrix = matrix
        n = algebra.dim
        if matrix.rows != n or matrix.cols != n:
            raise InputError("anti-involution matrix has wrong shape")
        F = algebra.field
        if matrix @ matrix != Matrix.identity(F, n):
            raise InputError("anti-involution does not square to the identity")
        unit_col = Matrix.column(F, algebra.unit)
        if matrix @ unit_col != unit_col:
            raise InputError("anti-involution does not fix the unit")
        for i in algebra.generators():
            for j in range(n):
                lhs = matrix @ Matrix.column(F, algebra.table[i][j])
                rhs = algebra.multiply(self.apply_basis(j), self.apply_basis(i))
                if tuple(r[0] for r in lhs.entries) != rhs:
                    raise InputError(
                        f"anti-multiplicativity fails at basis pair ({i},{j})")

    def apply_basis(self, i):
        return tuple(row[i] for row in self.matrix.entries)


def dualize_module(tau: AntiInvolution, m: ModuleRep) -> ModuleRep:
    """Twisted dual: b acts on the dual space as the transpose of tau(b)."""
    action = [m.act(tau.apply_basis(i)).transpose() for i in range(m.algebra.dim)]
    return ModuleRep(m.algebra, m.dim, action, check=False)


class DualityDatum:
    """Exchange witnesses and fixed-point forms of the duality tau on tilt."""

    def __init__(self, tilt: TiltingRegistry, tau: AntiInvolution):
        self.tilt = tilt
        self.tau = tau
        self.exchange = {}        # label -> iso D(Nabla(label)) -> Delta(label)
        self.tilting_self_dual = {}   # label -> iso psi: T(label) -> D(T(label))
        self.fixed_forms = {}     # label -> symmetric invertible Psi' (T -> D(T))
        self.phi = {}             # label -> Phi = Psi'^{-1} (D(T(label)) -> T(label))


def check_standard_duality(tilt: TiltingRegistry, tau: AntiInvolution) -> DualityDatum:
    """Verify exchange of standard and costandard modules and self-duality of
    every indecomposable tilting module; collect the witnesses.  Delta(label)
    and T(label) are indecomposable, so `_indec_isomorphism` decides both
    exactly.  The self-duality witness is the isomorphism T(label) ->
    D(T(label)) that fixed_point_data symmetrizes, so it is solved once per
    label."""
    reg = tilt.base
    datum = DualityDatum(tilt, tau)
    for lam in reg.poset.labels:
        dual_nabla = dualize_module(tau, reg.costandard(lam))
        w = _indec_isomorphism(dual_nabla, reg.standard(lam))
        if w is None:
            raise NotStandardDuality(lam, "exchange",
                                     "(dual of costandard is not the standard module)")
        datum.exchange[lam] = w
        t_mod = tilt.module(lam)
        psi = _indec_isomorphism(t_mod, dualize_module(tau, t_mod))
        if psi is None:
            raise NotStandardDuality(lam, "tilting_self_dual",
                                     "(indecomposable tilting module is not self-dual)")
        datum.tilting_self_dual[lam] = psi
    return datum


def fixed_point_iso(psi: Morphism) -> Morphism:
    """Symmetrize a self-duality of an indecomposable module.

    psi: x -> D(x) encodes an associative bilinear form; the symmetrized
    form psi + D(psi).xi is again a morphism, and if psi^{-1} composed with
    it is not nilpotent the result is invertible, exhibiting x as a fixed
    point.  Requires characteristic != 2; raises SymmetrizationDegenerate
    with skewness diagnostics when the symmetrization is nilpotent.
    """
    F = psi.source.algebra.field
    if F.characteristic == 2:
        raise InputError("fixed-point symmetrization needs characteristic != 2")
    p = psi.matrix
    sym = p + p.transpose()
    psi_sym = Morphism(psi.source, psi.target, sym, check=True)
    if not sym.is_invertible():
        comp = psi.matrix.inverse() @ sym
        if comp.power(psi.source.dim).is_zero():
            skew = (p.transpose() == -p)
            raise SymmetrizationDegenerate(
                f"symmetrized form is nilpotent (form is skew: {skew})")
        raise SymmetrizationDegenerate(
            "symmetrized form is singular but not nilpotent (module decomposable?)")
    return psi_sym


def fixed_point_data(datum: DualityDatum) -> DualityDatum:
    """Fill in fixed-point isomorphisms for every indecomposable tilting
    module by symmetrizing the self-duality check_standard_duality stored,
    certifying the fixed-point equation exactly."""
    for lam in datum.tilt.base.poset.labels:
        t_mod = datum.tilt.module(lam)
        psi_sym = fixed_point_iso(datum.tilting_self_dual[lam])
        datum.fixed_forms[lam] = psi_sym
        phi = Morphism(dualize_module(datum.tau, t_mod), t_mod, psi_sym.matrix.inverse())
        # Phi . D(Phi^{-1}) . xi = id for Phi = Psi^{-1}: P^T cancels P^{-1}
        if phi.matrix @ psi_sym.matrix.transpose() != Matrix.identity(phi.matrix.field, t_mod.dim):
            raise NotStandardDuality(lam, "fixed_point",
                                     "(symmetrized iso fails the fixed-point equation)")
        datum.phi[lam] = phi
    return datum


def fixed_point_for_tilting(datum: DualityDatum, t: ModuleRep) -> Morphism:
    """Symmetric invertible form on an arbitrary tilting module: with Q the
    stacked projections of `tilting_summands`, an isomorphism of t onto the
    sum of its T(label), the form is Q^T . block_diag(Psi_label) . Q."""
    summands = tilting_summands(datum.tilt, t)
    q = vstack([proj.matrix for _, proj in summands])
    block = block_diag([datum.fixed_forms[lam].matrix for lam, _ in summands])
    sym = q.transpose() @ block @ q
    out = Morphism(t, dualize_module(datum.tau, t), sym, check=True)
    if not sym.is_invertible():
        raise SymmetrizationDegenerate("transported form is singular")
    return out


def induced_involution(psi_sym: Morphism):
    """The anti-automorphism of End(t) induced by the duality and a chosen
    self-duality form psi_sym: t -> D(t): phi -> Psi^{-1} . D(phi) . Psi.

    Returns (alpha, a) where alpha maps endomorphism matrices and a is the
    obstruction element Phi . D(Phi^{-1}) . xi; a = identity exactly when the
    form exhibits a fixed point, making alpha an involution.  Raises
    NotInvolutive (carrying a) when alpha^2 != id.
    """
    P = psi_sym.matrix
    P_inv = P.inverse()

    def alpha(mat: Matrix) -> Matrix:
        return P_inv @ mat.transpose() @ P

    a_elem = P_inv @ P.transpose()
    for probe in hom_space(psi_sym.source, psi_sym.source):
        if alpha(alpha(probe.matrix)) != probe.matrix:
            raise NotInvolutive(a_elem, "(the chosen form is not a fixed point)")
    return alpha, a_elem


def build_cellular_basis(tilt: TiltingRegistry, t: ModuleRep, tau: AntiInvolution,
                         seed: int = 0):
    """Standard basis of End(t) whose projection side is the dual of the
    embedding side, together with the involution and the certificate that
    the involution transposes every fiber.

    Returns (datum, duality_datum, alpha, certificate dict).
    """
    reg = tilt.base
    duality = fixed_point_data(check_standard_duality(tilt, tau))
    psi_t = fixed_point_for_tilting(duality, t)
    alpha, a_elem = induced_involution(psi_t)
    rng = None if seed == 0 else random.Random(seed)
    datum = StandardBasisDatum(tilt, t, seed)
    for lam in reg.poset.linear_extension:
        # dim Hom(t, Nabla) = dim Hom(Delta, t) under the certified duality,
        # and finalize_datum's count against dim End(t) certifies it
        G = hom_space(reg.standard(lam), t)
        if not G:
            continue
        triple, phi = tilt.triple(lam), duality.phi[lam].matrix
        # bar: D(Delta) -> Nabla with pi . Phi = bar . D(i), D(i) = i^T of full row rank
        bar = triple.i.matrix.solve((triple.pi.matrix @ phi).transpose()).transpose()
        Ghat = extend_through_tilting(tilt, G, lam, rng)
        Fs = [Morphism(t, reg.costandard(lam), bar @ g.matrix.transpose() @ psi_t.matrix)
              for g in G]
        Fhat = [Morphism(t, triple.module, phi @ gh.matrix.transpose() @ psi_t.matrix)
                for gh in Ghat]
        for f, fh in zip(Fs, Fhat):
            if (triple.pi.matrix @ fh.matrix) != f.matrix:
                raise CellularityFailure(lam, -1, -1, "(dualized lift is not a lift)")
        datum.add_fiber(lam, G, Fs, Ghat, Fhat)
    finalize_datum(datum)
    # cellularity certificate: alpha transposes each fiber
    for (lam, i, j) in datum.index():
        if alpha(datum.cell(lam, i, j).matrix) != datum.cell(lam, j, i).matrix:
            raise CellularityFailure(lam, i, j, "(involution does not transpose the fiber)")
    cert = {
        "fibers_square": all(len(datum.G[lam]) == len(datum.F[lam]) for lam in datum.order),
        "alpha_involutive": True,
        "a_element_is_identity": a_elem == Matrix.identity(t.algebra.field, t.dim),
    }
    return datum, duality, alpha, cert
