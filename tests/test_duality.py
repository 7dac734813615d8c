import pytest

from tiltcell import algebra, duality
from tiltcell.algebra import (
    AlgebraPresentation,
    ModuleRep,
    Morphism,
    direct_sum,
    hom_space,
)
from tiltcell.cells import CellData
from tiltcell.duality import (
    AntiInvolution,
    build_cellular_basis,
    check_standard_duality,
    dualize_module,
    fixed_point_data,
    fixed_point_for_tilting,
    fixed_point_iso,
    induced_involution,
)
from tiltcell.errors import (
    InputError,
    NotInvolutive,
    NotStandardDuality,
    SymmetrizationDegenerate,
)
from tiltcell.linalg import Field, Matrix
from tiltcell.standard_basis import verify_standard_axioms

from oracles import from_int_rows

Q = Field()


def auslander_tau(doc):
    return AntiInvolution(doc.algebra, doc.anti_involution)


def test_anti_involution_validation(pipelines):
    doc, reg, _ = pipelines["a2path"]
    # the identity is not anti-multiplicative on a path algebra
    with pytest.raises(InputError):
        AntiInvolution(doc.algebra, Matrix.identity(Q, 3))
    # swapping the vertex idempotents and fixing the arrow works
    swap = from_int_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    AntiInvolution(doc.algebra, swap)
    # a non-involutive matrix is rejected
    with pytest.raises(InputError):
        AntiInvolution(doc.algebra, from_int_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 2]]))


def test_dualize_dimensions_and_double_dual(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    for lab in reg.poset.labels:
        m = reg.projective(lab)
        dm = dualize_module(tau, m)
        assert dm.dim == m.dim
        ddm = dualize_module(tau, dm)
        assert ddm.action == m.action  # double dual is the identity on the nose
    # the double-dual identification is the identity in coordinates: it
    # intertwines m with its double dual
    m = reg.projective("1")
    ddm = dualize_module(tau, dualize_module(tau, m))
    Morphism(m, ddm, Matrix.identity(Q, m.dim), check=True)


def test_dualize_morphism_contravariant(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    m = reg.projective("2")
    n = reg.projective("1")
    dm, dn = dualize_module(tau, m), dualize_module(tau, n)
    for f in hom_space(m, n):
        df = Morphism(dn, dm, f.matrix.transpose())
        df.check_intertwines()
        assert df.matrix == f.matrix.transpose()
    # naturality of the double-dual identification: D^2(f) = f in coordinates
    for f in hom_space(m, n):
        assert f.matrix.transpose().transpose() == f.matrix


def test_duality_preserves_multiplicities(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    for lab in reg.poset.labels:
        m = reg.projective(lab)
        dm = dualize_module(tau, m)
        for mu in reg.poset.labels:
            assert reg.mult(dm, mu) == reg.mult(m, mu)


def test_exchange_on_auslander(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    datum = check_standard_duality(tilt, tau)
    for lab in reg.poset.labels:
        assert datum.exchange[lab].is_invertible()
        assert datum.tilting_self_dual[lab].is_invertible()
        # the witness really maps D(costandard) onto the standard module
        dual_nabla = dualize_module(tau, reg.costandard(lab))
        datum.exchange[lab].check_intertwines()
        assert datum.exchange[lab].source.dim == dual_nabla.dim


def test_exchange_fails_on_a2_swap(pipelines):
    doc, reg, tilt = pipelines["a2path"]
    swap = AntiInvolution(doc.algebra, from_int_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(NotStandardDuality) as exc:
        check_standard_duality(tilt, swap)
    assert exc.value.which == "exchange"


def test_exchange_on_semisimple_identity(pipelines):
    doc, reg, tilt = pipelines["semisimple2"]
    tau = AntiInvolution(doc.algebra, Matrix.identity(Q, 2))
    datum = check_standard_duality(tilt, tau)
    fixed_point_data(datum)
    assert sorted(datum.phi) == ["1", "2"]


def test_fixed_point_simple(pipelines):
    doc, reg, tilt = pipelines["trivial"]
    tau = AntiInvolution(doc.algebra, Matrix.identity(Q, 1))
    L = reg.simple("1")
    psi = Morphism(L, dualize_module(tau, L), from_int_rows(Q, [[3]]))
    sym = fixed_point_iso(psi)
    # symmetrization doubles an already-symmetric form
    assert sym.matrix == psi.matrix.scale(Q.of(2))


def test_fixed_point_equation_on_tiltings(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    datum = check_standard_duality(tilt, tau)
    fixed_point_data(datum)
    for lab in reg.poset.labels:
        phi = datum.phi[lab]
        p = phi.matrix
        # Phi . D(Phi^{-1}) . xi = id, with xi the identity matrix
        assert p @ p.inverse().transpose() == Matrix.identity(Q, p.rows)
        phi.check_intertwines()


def test_symmetrization_degenerate_on_skew_form():
    alg = AlgebraPresentation.from_struct_consts(Q, 1, [(0, 0, 0, 1)], [1], name="K")
    tau = AntiInvolution(alg, Matrix.identity(Q, 1))
    x = ModuleRep(alg, 2, [Matrix.identity(Q, 2)])
    skew = Morphism(x, dualize_module(tau, x), from_int_rows(Q, [[0, 1], [-1, 0]]))
    with pytest.raises(SymmetrizationDegenerate) as exc:
        fixed_point_iso(skew)
    assert "skew: True" in str(exc.value)


def test_characteristic_two_rejected():
    F2 = Field(2)
    alg = AlgebraPresentation.from_struct_consts(F2, 1, [(0, 0, 0, 1)], [1], name="K")
    tau = AntiInvolution(alg, Matrix.identity(F2, 1))
    x = ModuleRep(alg, 1, [Matrix.identity(F2, 1)])
    psi = Morphism(x, dualize_module(tau, x), Matrix.identity(F2, 1))
    with pytest.raises(InputError):
        fixed_point_iso(psi)


def test_induced_involution_properties(pipelines, rng):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    duality = check_standard_duality(tilt, tau)
    fixed_point_data(duality)
    T, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    psi_t = fixed_point_for_tilting(duality, T)
    alpha, a_elem = induced_involution(psi_t)
    assert a_elem == Matrix.identity(Q, T.dim)
    homs = hom_space(T, T)
    F = Q
    for _ in range(8):
        f = homs[rng.randrange(len(homs))].matrix
        g = homs[rng.randrange(len(homs))].matrix
        # anti-multiplicative and involutive
        assert alpha(f @ g) == alpha(g) @ alpha(f)
        assert alpha(alpha(f)) == f


def test_non_fixed_point_reports_obstruction(pipelines, rng):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    duality = check_standard_duality(tilt, tau)
    fixed_point_data(duality)
    T, _, _ = direct_sum([tilt.module("1")] * 2)
    psi_good = fixed_point_for_tilting(duality, T)
    # twist by a non-central invertible endomorphism: still a self-duality,
    # no longer symmetric
    homs = hom_space(T, T)
    twist = None
    for h in homs:
        cand = psi_good.matrix @ h.matrix
        if h.is_invertible() and cand != cand.transpose():
            twist = h
            break
    if twist is None:
        ident = Morphism.identity(T)
        for h in homs:
            cand_m = ident.matrix + h.matrix
            cand = psi_good.matrix @ cand_m
            if cand_m.is_invertible() and cand != cand.transpose():
                twist = Morphism(T, T, cand_m)
                break
    assert twist is not None
    psi_bad = Morphism(T, psi_good.target, psi_good.matrix @ twist.matrix)
    with pytest.raises(NotInvolutive) as exc:
        induced_involution(psi_bad)
    a = exc.value.a_element
    assert a != Matrix.identity(Q, T.dim)
    # the square of the inverse involution is conjugation by the obstruction
    p = psi_bad.matrix

    def alpha_inv(mat):
        return p.inverse() @ mat.transpose() @ p

    for h in homs[:6]:
        lhs = alpha_inv(alpha_inv(h.matrix))
        rhs = a @ h.matrix @ a.inverse()
        assert lhs == rhs


def test_cellular_basis_on_auslander(pipelines, rng):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    T, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    datum, duality, alpha, cert = build_cellular_basis(tilt, T, tau, seed=0)
    assert cert["fibers_square"] and cert["alpha_involutive"]
    assert verify_standard_axioms(datum, trials=25)["ok"]
    # the involution transposes every fiber, entrywise
    for (lam, i, j) in datum.index():
        assert alpha(datum.cell(lam, i, j).matrix) == datum.cell(lam, j, i).matrix
    cd = CellData(datum)
    for lam in datum.order:
        assert cd.gram[lam] == cd.gram[lam].transpose()


def test_cellular_basis_after_seed_change(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    T, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    for seed in (1, 2):
        datum, _, alpha, cert = build_cellular_basis(tilt, T, tau, seed=seed)
        assert cert["alpha_involutive"]
        for (lam, i, j) in datum.index():
            assert alpha(datum.cell(lam, i, j).matrix) == datum.cell(lam, j, i).matrix


def test_cellular_trivial_and_semisimple(pipelines):
    for name in ("trivial", "semisimple2"):
        doc, reg, tilt = pipelines[name]
        tau = AntiInvolution(doc.algebra, doc.anti_involution)
        T, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
        datum, _, alpha, cert = build_cellular_basis(tilt, T, tau, seed=0)
        assert cert["fibers_square"] and cert["alpha_involutive"]
        sizes = datum.fiber_sizes()
        assert all(v == (1, 1) for v in sizes.values())


def test_alpha_identity_on_simple_tilting(pipelines):
    doc, reg, tilt = pipelines["trivial"]
    tau = AntiInvolution(doc.algebra, doc.anti_involution)
    duality = check_standard_duality(tilt, tau)
    fixed_point_data(duality)
    T = tilt.module("1")
    psi = fixed_point_for_tilting(duality, T)
    alpha, _ = induced_involution(psi)
    ident = Matrix.identity(Q, 1)
    assert alpha(ident) == ident


def test_cellular_basis_solves_each_self_duality_once(pipelines, monkeypatch):
    # T(label) and D(T(label)) are compared by one hom-space solve per label,
    # in either direction, whose isomorphism is then symmetrized
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = auslander_tau(doc)
    T, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    duals, solved = [], []
    real_dualize, real_hom = duality.dualize_module, algebra.hom_space

    def spy_dualize(tau, m):
        duals.append((m, real_dualize(tau, m)))
        return duals[-1][1]

    def spy_hom(m, n):
        solved.append((m, n))
        return real_hom(m, n)

    monkeypatch.setattr(duality, "dualize_module", spy_dualize)
    monkeypatch.setattr(algebra, "hom_space", spy_hom)
    monkeypatch.setattr(duality, "hom_space", spy_hom)
    build_cellular_basis(tilt, T, tau)
    for lab in reg.poset.labels:
        t = tilt.module(lab)
        dual_ids = {id(d) for m, d in duals if m is t}
        pairs = [(m, n) for m, n in solved
                 if (m is t and id(n) in dual_ids) or (n is t and id(m) in dual_ids)]
        assert len(pairs) == 1, lab
