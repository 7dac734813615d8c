import functools
from collections import Counter

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tiltcell import algebra as algebra_module
from tiltcell import poly
from tiltcell.algebra import (
    AlgebraPresentation,
    EndAlgebra,
    ModuleRep,
    Morphism,
    _decompose,
    _fitting_projection,
    _hom_basis,
    _idempotent_from_element,
    _indec_isomorphism,
    _yoneda_basis,
    algebra_radical,
    direct_sum,
    find_splitting_idempotent,
    hom_space,
    krull_schmidt,
    module_head,
    module_radical,
    module_socle,
    quotient_rep,
    simples_and_split_check,
    submodule_generated,
    submodule_rep,
)
from tiltcell.cells import cell_module
from tiltcell.docio import catalog_document, catalog_names
from tiltcell.duality import AntiInvolution
from tiltcell.errors import (
    InconsistentSystem,
    InputError,
    NotComputable,
    NotSplit,
    TheoremViolation,
)
from tiltcell.highest_weight import Registry
from tiltcell.linalg import Field, Matrix, Subspace, block_diag, vstack
from tiltcell.standard_basis import build_standard_basis, structure_coefficients
from tiltcell.structure import generating_set
from tiltcell.tilting import TiltingRegistry, tilting_support

from oracles import (
    NotSimple,
    anti_involution_all_pairs,
    composition_multiplicity,
    from_int_rows,
    generating_set_rebuilt,
    image,
    injective,
    intertwines_all_basis,
    is_isomorphic,
    is_simple,
    module_axioms_all_pairs,
    opposite_projective,
)
from test_schur import schur_algebra, schur_pipeline
from test_standard_basis import auslander3_pipeline, char_tilting, check_closures_reduced
from test_stress import auslander_algebra, chain_poset

Q = Field()
F5 = Field(5)
F10007 = Field(10007)


def a2_algebra(field=Q):
    # path algebra of 1 -> 2: basis e1, e2, a with a = e2 a e1
    ents = [(0, 0, 0, 1), (1, 1, 1, 1), (2, 0, 2, 1), (1, 2, 2, 1)]
    return AlgebraPresentation.from_struct_consts(field, 3, ents, [1, 1, 0], name="a2")


def dual_numbers(field=Q):
    ents = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    return AlgebraPresentation.from_struct_consts(field, 2, ents, [1, 0], name="dual")


def upper_triangular2(field=Q):
    # basis E11, E22, E12
    ents = [(0, 0, 0, 1), (1, 1, 1, 1), (0, 2, 2, 1), (2, 1, 2, 1)]
    return AlgebraPresentation.from_struct_consts(field, 3, ents, [1, 1, 0], name="ut2")


def test_presentation_rejects_nonassociative():
    # (b1 b1) b2 = b2 b2 = 0 but b1 (b1 b2) = b1 b0 = b1
    ents = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
            (1, 1, 2, 1), (1, 2, 0, 1)]
    with pytest.raises(InputError):
        AlgebraPresentation.from_struct_consts(Q, 3, ents, [1, 0, 0])


def test_presentation_rejects_bad_unit():
    ents = [(0, 0, 0, 1), (1, 1, 1, 1)]
    with pytest.raises(InputError):
        AlgebraPresentation.from_struct_consts(Q, 2, ents, [1, 0])


@pytest.mark.parametrize("field", [Q, F5])
def test_a2_simples_and_homs(field):
    alg = a2_algebra(field)
    simples = simples_and_split_check(alg)
    assert len(simples) == 2
    assert [s.simple.dim for s in simples] == [1, 1]
    assert [s.projective.dim for s in simples] == [2, 1]
    L1, L2 = simples[0].simple, simples[1].simple
    P1 = simples[0].projective
    assert len(hom_space(L1, L1)) == 1
    assert len(hom_space(L1, L2)) == 0
    # the 2-dim indecomposable has the second simple as socle, first as top
    assert len(hom_space(L2, P1)) == 1
    assert len(hom_space(P1, L1)) == 1
    assert len(hom_space(P1, L2)) == 0


def test_hom_space_contains_identity():
    alg = a2_algebra()
    reg = alg.regular_module()
    homs = hom_space(reg, reg)
    F = alg.field
    ident = Matrix.identity(F, reg.dim)
    stacked = Matrix(F, [h.matrix.flat() for h in homs]).transpose()
    stacked.solve(Matrix.column(F, ident.flat()))  # no exception: id in span


def test_algebra_radical_cases():
    assert algebra_radical(a2_algebra()).dim == 1
    rad = algebra_radical(upper_triangular2())
    assert rad.dim == 1
    assert rad.basis.entries[0] == (0, 0, 1)  # the strictly upper part
    rad_dual = algebra_radical(dual_numbers())
    assert rad_dual.basis.entries == ((0, 1),)
    # semisimple: product of fields
    ss = AlgebraPresentation.from_struct_consts(Q, 2, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1])
    assert algebra_radical(ss).dim == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_algebra_radical_prime_fields(p):
    field = Field(p)
    assert algebra_radical(a2_algebra(field)).dim == 1
    assert algebra_radical(dual_numbers(field)).dim == 1


def test_radical_group_algebra_char_p():
    # F_3[C_3] = F_3[x]/(x^3 - 1): radical is the augmentation ideal (dim 2)
    F3 = Field(3)
    ents = []
    for i in range(3):
        for j in range(3):
            ents.append((i, j, (i + j) % 3, 1))
    alg = AlgebraPresentation.from_struct_consts(F3, 3, ents, [1, 0, 0], name="F3C3")
    assert algebra_radical(alg).dim == 2
    # over F_5 the same algebra is F_5 x F_25, semisimple but not split
    ents5 = [(i, j, (i + j) % 3, 1) for i in range(3) for j in range(3)]
    alg5 = AlgebraPresentation.from_struct_consts(F5, 3, ents5, [1, 0, 0], name="F5C3")
    with pytest.raises(NotSplit):
        algebra_radical(alg5)


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "not nilpotent"),   # A itself
    ([[1, 0, 0]], "not a left ideal"),                      # a.e1 = a
    ([[0, 1, 0]], "not a right ideal"),                     # e2.a = a
], ids=["whole-algebra", "not-left-ideal", "not-right-ideal"])
def test_certify_radical_rejects_bad_candidates(monkeypatch, rows, message):
    alg = a2_algebra()
    monkeypatch.setattr(algebra_module, "_radical_from_projectives",
                        lambda algebra: Subspace.from_rows(Q, 3, rows))
    with pytest.raises(NotComputable, match=message):
        algebra_radical(alg)
    assert "radical" not in alg._invariants


def test_module_radical_socle_head():
    alg = a2_algebra()
    reg = alg.regular_module()
    assert module_radical(reg).dim == 1
    simples = simples_and_split_check(alg)
    P1 = simples[0].projective
    assert module_radical(P1).dim == 1
    assert module_socle(P1).dim == 1
    head, proj = module_head(P1)
    assert head.dim == 1 and proj.is_surjective()
    # heads are semisimple: socle of the head is everything
    assert module_socle(head).dim == head.dim
    # semisimple module: radical 0, socle everything
    L = simples[1].simple
    assert module_radical(L).dim == 0 and module_socle(L).dim == L.dim


def test_composition_multiplicity():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    L1, L2 = simples[0].simple, simples[1].simple
    P1 = simples[0].projective
    assert composition_multiplicity(L1, L1) == 1
    assert composition_multiplicity(P1, L1) == 1
    assert composition_multiplicity(P1, L2) == 1
    double, _, _ = direct_sum([P1, P1])
    assert composition_multiplicity(double, L2) == 2
    with pytest.raises(NotSimple):
        composition_multiplicity(P1, P1)
    # dimension bookkeeping
    reg = alg.regular_module()
    total = sum(composition_multiplicity(reg, s.simple) * s.simple.dim for s in simples)
    assert total == reg.dim


def test_krull_schmidt_regular_a2():
    alg = a2_algebra()
    summands = krull_schmidt(alg.regular_module())
    dims = sorted(s.dim for s, _, _ in summands)
    assert dims == [1, 2]
    for (mod, incl, proj) in summands:
        assert (proj @ incl).matrix == Matrix.identity(Q, mod.dim)
        assert len(hom_space(mod, mod)) == 1  # local certificate here


def test_krull_schmidt_multiplicities():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    P1, P2 = simples[0].projective, simples[1].projective
    big, _, _ = direct_sum([P1, P1, P2])
    summands = krull_schmidt(big)
    assert sorted(s.dim for s, _, _ in summands) == [1, 2, 2]
    assert sum(s.dim for s, _, _ in summands) == big.dim


def test_image_kernel_cokernel():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    P1 = simples[0].projective
    head, proj = module_head(P1)
    assert proj.kernel().dim == 1
    assert image(proj).dim == 1
    zero = Morphism.zero(P1, P1)
    assert image(zero).dim == 0
    ident = Morphism.identity(P1)
    assert ident.kernel().dim == 0
    coker, cproj, _ = quotient_rep(proj.target, image(proj))
    assert coker.dim == 0
    zero = Morphism.zero(head, P1)
    coker2, cproj2, _ = quotient_rep(zero.target, image(zero))
    assert coker2.dim == P1.dim and cproj2.is_surjective()


def test_is_isomorphic_conjugated_presentation():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    P1 = simples[0].projective
    g = from_int_rows(Q, [[1, 2], [1, 3]])
    conj = ModuleRep(alg, 2, [g @ a @ g.inverse() for a in P1.action])
    w = is_isomorphic(P1, conj)
    assert w is not None and w.is_invertible()
    assert is_isomorphic(P1, simples[1].simple) is None
    # different dimensions: trivially None
    assert is_isomorphic(P1, simples[0].simple) is None


def test_is_isomorphic_direct_sum_permuted():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    P1, P2 = simples[0].projective, simples[1].projective
    left, _, _ = direct_sum([P1, P2])
    right, _, _ = direct_sum([P2, P1])
    w = is_isomorphic(left, right)
    assert w is not None and w.is_invertible()


def test_not_split_detected():
    # Q[x]/(x^2 + 1): a field extension, not split over Q
    ents = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)]
    alg = AlgebraPresentation.from_struct_consts(Q, 2, ents, [1, 0], name="Qi")
    with pytest.raises(NotSplit):
        simples_and_split_check(alg)


def test_is_simple():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    assert is_simple(simples[0].simple)
    assert not is_simple(simples[0].projective)
    ss, _, _ = direct_sum([simples[0].simple, simples[0].simple])
    assert not is_simple(ss)


def test_submodule_generated():
    alg = a2_algebra()
    reg = alg.regular_module()
    # the arrow generates the 1-dim radical ideal as a left module
    span = submodule_generated(reg, [(0, 0, 1)])
    assert span.dim == 1
    # e1 generates P(1) = span{e1, a}
    span2 = submodule_generated(reg, [(1, 0, 0)])
    assert span2.dim == 2


def submodule_generated_reference(m, vectors):
    """The fixed-point loop: apply every action matrix to the span's basis,
    one vector at a time, until the span stops growing."""
    F = m.algebra.field
    space = Subspace.from_rows(F, m.dim, vectors)
    while True:
        rows = list(space.basis.entries)
        new_rows = list(rows)
        for a in m.action:
            for row in rows:
                img = a @ Matrix.column(F, row)
                new_rows.append(tuple(x[0] for x in img.entries))
        bigger = Subspace.from_rows(F, m.dim, new_rows)
        if bigger.dim == space.dim:
            return space
        space = bigger


@functools.cache
def regular_modules(field):
    """Regular modules of the catalog algebras and of the Auslander algebra
    of K[x]/x^3, over `field`, and of their opposites."""
    spec = "Q" if field.p is None else f"Fp {field.p}"
    algebras = [catalog_document(name, spec).algebra for name in catalog_names()]
    algebras.append(auslander_algebra(field, 3))
    return [a.regular_module() for alg in algebras for a in (alg, alg.opposite())]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_submodule_generated_matches_fixed_point_loop(data):
    field = data.draw(st.sampled_from([Q, F5]))
    m = data.draw(st.sampled_from(regular_modules(field)))
    entries = st.sampled_from([0, 0, 0, 0, 0, 1, 1, -1, 2])
    vectors = data.draw(st.lists(st.lists(entries, min_size=m.dim, max_size=m.dim)
                                 .map(lambda r: [field.of(x) for x in r]), max_size=3))
    assert submodule_generated(m, vectors) == submodule_generated_reference(m, vectors)


def test_end_algebra_structure():
    alg = a2_algebra()
    simples = simples_and_split_check(alg)
    big, _, _ = direct_sum([simples[0].projective, simples[1].projective])
    E = EndAlgebra(big)
    # End(P1 + P2) has dim 1 + 1 + 1 (Hom(P2, P1) is one-dimensional)
    assert E.dim == 3
    ident_coords = E.coords(Matrix.identity(Q, big.dim))
    back = E.from_coords(ident_coords)
    assert back.matrix == Matrix.identity(Q, big.dim)


# -- the char-p radical chain against its dense form --------------------------


def charpoly_chain_reference(algebra):
    """The radical of a split algebra by the Cohen-Ivanyos-Wales chain run
    from the full space, with a whole characteristic polynomial per basis
    product at every step: the kernels of a -> e_q(L_ab) at q = 1, p, p^2, ...
    up to dim A.  Over Q the chain stops after its first step, the trace
    form's kernel, which is the radical in characteristic 0."""
    F = algebra.field
    n = algebra.dim
    space = Subspace.full(F, n)
    q = 1
    while q <= n and space.dim > 0:
        basis_elems = [tuple(r) for r in space.basis.entries]
        rows = [[poly.charpoly(algebra.left_mult(algebra.multiply(a, b)))[n - q]
                 for a in basis_elems] for b in basis_elems]
        new_rows = []
        for kr in Matrix(F, rows).kernel().entries:
            vec = [F.zero()] * n
            for c, b in zip(kr, basis_elems):
                for t in range(n):
                    vec[t] = F.add(vec[t], F.mul(c, b[t]))
            new_rows.append(vec)
        space = Subspace.from_rows(F, n, new_rows)
        q = n + 1 if F.p is None else q * F.p
    return space


def truncated_polynomials(field, d):
    """K[x]/x^d on the basis 1, x, ..., x^(d-1)."""
    ents = [(i, j, i + j, 1) for i in range(d) for j in range(d) if i + j < d]
    return AlgebraPresentation.from_struct_consts(field, d, ents, [1] + [0] * (d - 1))


def cyclic_group_algebra(field, n):
    ents = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    return AlgebraPresentation.from_struct_consts(field, n, ents, [1] + [0] * (n - 1),
                                                  name=f"C{n}")


def small_algebras(field):
    out = [catalog_document(name, f"Fp {field.p}").algebra for name in catalog_names()]
    out.append(cyclic_group_algebra(field, 3))
    base = truncated_polynomials(field, 3)
    out.append(base)
    # End of the sum of all indecomposables K[x]/x^d, d = 1, 2, 3 (dim 14)
    mods = []
    for d in (1, 2, 3):
        x = Matrix(field, [[field.of(int(c == r - 1)) for c in range(d)] for r in range(d)])
        mods.append(ModuleRep(base, d, [Matrix.identity(field, d), x, x @ x]))
    out.append(EndAlgebra(direct_sum(mods)[0]).presentation)
    return out


# F_p[C_3] is split exactly when x^2 + x + 1 has a root mod p, at p = 3 and
# p = 1 mod 3; otherwise it is F_p x F_(p^2) and the radical raises NotSplit
@pytest.mark.parametrize("p", [2, 3, 7, 17, 10007])
def test_radical_candidate_matches_charpoly_chain(p):
    field = Field(p)
    continued = False
    for alg in small_algebras(field):
        if alg.name == "C3" and p % 3 == 2:
            with pytest.raises(NotSplit):
                algebra_radical(alg)
            continue
        rad = algebra_radical(alg)
        assert rad == charpoly_chain_reference(alg)
        # the trace form tr(L_a L_b), the chain's first step
        lm = alg.left_mult_basis()
        gram = Matrix(field, [[sum((a @ b).entries[k][k] for k in range(alg.dim)) % p
                               for b in lm] for a in lm])
        continued |= gram.kernel().rows > rad.dim
    # only the small primes need the chain past the trace-form step here
    assert continued == (p in (2, 3))


# -- the regular module from A's own multiplication against the hom route ------


REGULAR_REFERENCE_CASES = (
    [pytest.param(lambda name=name, spec=spec: catalog_document(name, spec).algebra,
                  id=f"{name}-{spec}")
     for name in ["trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3"]
     for spec in ("Q", "Fp 3")]
    + [pytest.param(lambda n=n, p=p: auslander_algebra(Field(p), n), id=f"auslander{n}-{p or 'Q'}")
       for n, p in [(3, None), (3, 2), (3, 3), (3, 10007), (4, 10007)]]
    + [pytest.param(lambda: schur_algebra(Q, 3)[0], id="S(2,3)-Q")])


# every piece's End basis, the hom bases between the summands, the summands
# and the simples' idempotents and projectives against krull_schmidt's
# hom_space route
@pytest.mark.parametrize("make_algebra", REGULAR_REFERENCE_CASES)
def test_regular_decomposition_matches_hom_space_route(make_algebra):
    alg = make_algebra()
    pieces = []

    def checked(piece, incl):
        basis = [Morphism(piece, piece, x) for x in _yoneda_basis(piece, incl.matrix)]
        assert [f.matrix for f in basis] == list(_hom_basis(piece, piece))
        pieces.append(piece.dim)
        return EndAlgebra(piece, basis)

    reg = alg.regular_module()
    summands = _decompose(reg, checked)
    reference = krull_schmidt(reg)
    # every split has two nonzero pieces, and every piece was checked
    assert pieces[0] == alg.dim and len(pieces) == 2 * len(summands) - 1
    assert sum(s.dim for s, *_ in summands) == alg.dim

    def content(summand):
        mod, incl, proj = summand[:3]
        idem = (incl @ proj).matrix @ Matrix.column(alg.field, alg.unit)
        return ([a.entries for a in mod.action], incl.matrix.entries, proj.matrix.entries,
                idem.entries)

    assert [content(x) for x in summands] == [content(x) for x in reference]
    for source, incl, *_ in summands:
        for target, *_ in summands:
            assert _yoneda_basis(target, incl.matrix) == _hom_basis(source, target)
    # each simple's idempotent and projective is one of the reference summands
    by_idempotent = {tuple(r[0] for r in content(x)[3]): x[0] for x in reference}
    for sd in simples_and_split_check(alg):
        assert ([a.entries for a in sd.projective.action]
                == [a.entries for a in by_idempotent[sd.idempotent].action])


# -- split before certifying, against the radical-first hunt ------------------


def radical_first_splitting_idempotent(E):
    """The hunt with rad End computed before any basis element is tried, by
    the characteristic-polynomial chain: None, with that radical recorded,
    as soon as End/rad is one-dimensional."""
    if E.dim > 1:
        rad = charpoly_chain_reference(E.presentation)
        if E.dim - rad.dim == 1:
            E.radical = rad
            return None
    return find_splitting_idempotent(E)


def summand_entries(summands):
    return [([a.entries for a in mod.action], incl.matrix.entries, proj.matrix.entries)
            for mod, incl, proj in summands]


def simple_entries(simples):
    return [(sd.idempotent, [a.entries for a in sd.simple.action],
             [a.entries for a in sd.projective.action], sd.head_proj.matrix.entries)
            for sd in simples]


def catalog_input(name, spec):
    doc = catalog_document(name, spec)
    return doc.algebra, doc.poset


SPLIT_REFERENCE_CASES = (
    [pytest.param(lambda name=name, spec=spec: catalog_input(name, spec), id=f"{name}-{spec}")
     for name in ["trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3"]
     for spec in ("Q", "Fp 3", "Fp 2")]
    + [pytest.param(lambda p=p: (auslander_algebra(Field(p), 3), chain_poset(3)),
                    id=f"auslander3-{p or 'Q'}") for p in (None, 2, 10007)])


# every summand of the regular and characteristic tilting modules, and every
# simple's idempotent, simple, projective and head map, entry for entry
@pytest.mark.parametrize("make_input", SPLIT_REFERENCE_CASES)
def test_split_before_certifying_matches_radical_first(make_input, monkeypatch):
    def decompositions():
        reg = Registry(*make_input())
        modules = [reg.algebra.regular_module(), char_tilting(reg, TiltingRegistry(reg))]
        return ([summand_entries(krull_schmidt(m)) for m in modules],
                simple_entries(simples_and_split_check(reg.algebra)))

    got = decompositions()
    monkeypatch.setattr(algebra_module, "find_splitting_idempotent",
                        radical_first_splitting_idempotent)
    assert got == decompositions()


def test_krull_schmidt_certifies_no_radical_of_the_whole_end(monkeypatch):
    _, _, T = auslander3_pipeline(F10007)
    sizes = []
    monkeypatch.setattr(algebra_module, "algebra_radical",
                        lambda alg: sizes.append(alg.dim) or algebra_radical(alg))
    summands = krull_schmidt(T)
    # End(T) is 14-dimensional and splits on a basis element; every local
    # piece is certified by its own eigenvalues, with no radical computed
    assert len(hom_space(T, T)) == 14 and len(summands) > 1
    assert sizes == []


def test_registry_takes_no_charpoly_of_the_whole_algebra(monkeypatch):
    # the char-p chain took the characteristic polynomial of L_ab, a dim-14
    # matrix, for pairs of basis elements; the radical from the projectives
    # reads only the eigenvalues of the summands' endomorphisms
    A = auslander_algebra(Field(2), 3)
    fresh = AlgebraPresentation(A.field, A.dim, A.table, A.unit, check=False)
    sizes = []
    charpoly = poly.charpoly
    monkeypatch.setattr(poly, "charpoly", lambda m: sizes.append(m.rows) or charpoly(m))
    Registry(fresh, chain_poset(3))
    assert sizes and max(sizes) < 14


def test_opposite_has_its_own_projectives():
    # A's split of its regular module is not A^op's, though the two share
    # their radical: A^op's simples, taken after A's radical, are those of
    # an unrelated presentation of A^op
    alg = a2_algebra()
    algebra_radical(alg)
    op = alg.opposite()
    got = simples_and_split_check(op)
    assert algebra_radical(op) is algebra_radical(alg)
    unrelated = AlgebraPresentation(Q, alg.dim, op.table, op.unit)
    assert simple_entries(got) == simple_entries(simples_and_split_check(unrelated))
    assert [sd.projective.dim for sd in got] == [1, 2]
    assert [sd.projective.dim for sd in simples_and_split_check(alg)] == [2, 1]


def test_radical_auslander4_char2():
    # dim 30 over F_2, with four 1-dimensional simples
    alg = auslander_algebra(Field(2), 4)
    assert algebra_radical(alg).dim == 26
    assert [sd.simple.dim for sd in simples_and_split_check(alg)] == [1, 1, 1, 1]


def test_radical_too_small_fails_wedderburn_count(monkeypatch):
    # the zero subspace is a nilpotent ideal, so it passes certification
    monkeypatch.setattr(algebra_module, "_radical_from_projectives",
                        lambda alg: Subspace.zero(alg.field, alg.dim))
    with pytest.raises(TheoremViolation, match="Wedderburn count fails: .* = 3 .* 5"):
        simples_and_split_check(catalog_document("a2path").algebra)
    # K[1 <-> 2]/(ab, ba), basis e1, e2, a, b with a = e2 a e1, b = e1 b e2:
    # the two 2-dim projectives, taken for heads, would square-sum to
    # dim A = 4 if they counted as one class, so the count relies on their
    # grouping not reading the radical
    ents = [(0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 2, 1), (2, 0, 2, 1), (0, 3, 3, 1), (3, 1, 3, 1)]
    cycle = AlgebraPresentation.from_struct_consts(Q, 4, ents, [1, 1, 0, 0])
    with pytest.raises(TheoremViolation, match="Wedderburn count fails: .* = 4 .* 8"):
        simples_and_split_check(cycle)


def test_no_decomposition_when_hom_is_zero(pipelines, monkeypatch):
    _, _, tilt = pipelines["semisimple2"]
    calls = []
    monkeypatch.setattr(algebra_module, "krull_schmidt",
                        lambda m: calls.append(m) or krull_schmidt(m))
    assert tilt.module("1").dim == tilt.module("2").dim == 1
    assert is_isomorphic(tilt.module("1"), tilt.module("2")) is None
    assert calls == []


# -- the Fitting step against the coprime-factor idempotent it replaced ---------
#
# The polynomial route below split an endomorphism phi by a coprime
# factorization g h of its minimal polynomial: e = u g with u g + v h = 1 is
# 0 mod g and 1 mod h, so e(phi) projects along ker g(phi) onto ker h(phi).
# At a linear root r, g = (x - r)^m and that is the Fitting projection of
# phi - r.1.


def extended_gcd(field, f, g):
    """(d, u, v) with u f + v g = d = monic gcd(f, g)."""
    r0, r1 = f, g
    s0, s1 = (field.one(),), ()
    t0, t1 = (), (field.one(),)
    while r1:
        q, r = poly.divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly.add(field, s0, poly.scale(field, field.neg(field.one()),
                                                    poly.mul(field, q, s1)))
        t0, t1 = t1, poly.add(field, t0, poly.scale(field, field.neg(field.one()),
                                                    poly.mul(field, q, t1)))
    if not r0:
        return (), (), ()
    lead_inv = field.inv(r0[-1])
    return (poly.scale(field, lead_inv, r0), poly.scale(field, lead_inv, s0),
            poly.scale(field, lead_inv, t0))


def eval_matrix(field, f, m: Matrix) -> Matrix:
    acc = Matrix.zeros(field, m.rows, m.cols)
    for c in reversed(f):
        acc = (acc @ m) + Matrix.identity(field, m.rows).scale(c)
    return acc


def derivative(field, f):
    return poly.normalize([field.mul(field.of(i), c) for i, c in enumerate(f)][1:])


def _coprime_pair(field, f):
    """A factorization f = g h with gcd(g, h) = 1 and both nonconstant, or None."""
    f = poly.monic(field, f)
    if poly.degree(f) < 2:
        return None
    roots, leftover = poly.linear_roots(field, f)
    distinct = sorted(set(roots), key=str)
    if distinct and (len(distinct) > 1 or poly.degree(leftover) >= 1):
        r = distinct[0]
        g = (field.one(),)
        for _ in range(roots.count(r)):
            g = poly.mul(field, g, (field.neg(r), field.one()))
        if 0 < poly.degree(g) < poly.degree(f):
            return g, poly.divmod_poly(field, f, g)[0]
    df = derivative(field, f)
    if df:
        # separate the squarefree part from the repeated part when coprime
        d = poly.gcd(field, f, df)
        if 0 < poly.degree(d) < poly.degree(f):
            s = poly.divmod_poly(field, f, d)[0]
            shared = poly.gcd(field, s, d)
            coprime_part = poly.divmod_poly(field, s, shared)[0]
            if 0 < poly.degree(coprime_part) < poly.degree(f):
                return coprime_part, poly.divmod_poly(field, f, coprime_part)[0]
    elif field.p is not None and poly.degree(f) >= field.p:
        # f' = 0 over F_p means f = r(x)^p with r sharing f's coefficients
        r = poly.normalize([f[i] for i in range(0, len(f), field.p)])
        sub = _coprime_pair(field, r)
        if sub is not None:
            g = sub[0]
            gp = (field.one(),)
            for _ in range(field.p):
                gp = poly.mul(field, gp, g)
            return gp, poly.divmod_poly(field, f, gp)[0]
    return None


def minpoly(m: Matrix):
    """Minimal polynomial of a square matrix, monic, ascending coefficients:
    the first power of m that the lower powers span."""
    F = m.field
    n = m.rows
    if n == 0:
        return (F.one(),)
    powers = [Matrix.identity(F, n)]
    rows = [Matrix(F, [powers[0].flat()])]
    k = 1
    while True:
        powers.append(powers[-1] @ m)
        stacked = vstack(rows)
        target = Matrix(F, [powers[-1].flat()])
        try:
            sol = stacked.transpose().solve(target.transpose())
        except InconsistentSystem:
            rows.append(target)
            k += 1
            if k > n + 1:
                raise RuntimeError("minimal polynomial search failed") from None
            continue
        coeffs = [F.neg(sol.entries[i][0]) for i in range(k)] + [F.one()]
        return poly.normalize(coeffs)


def coprime_split_idempotent(field, f):
    """A polynomial e with e^2 = e mod f and e != 0, 1 mod f, or None."""
    pair = _coprime_pair(field, f)
    if pair is None:
        return None
    g, h = pair
    d, u, v = extended_gcd(field, g, h)
    if poly.degree(d) != 0:
        return None
    # e = u g  (== 0 mod g, == 1 mod h)
    return poly.divmod_poly(field, poly.mul(field, u, g), poly.monic(field, f))[1]


def reference_idempotent_from_element(phi: Morphism):
    """The idempotent test, the Fitting projection at 0, then the coprime
    factor of the minimal polynomial, each as the polynomial route had them."""
    F = phi.matrix.field
    n = phi.matrix.rows
    ident = Matrix.identity(F, n)
    if (phi @ phi).matrix == phi.matrix and not phi.matrix.is_zero() and phi.matrix != ident:
        return phi.matrix
    power = phi.matrix.power(n)
    r = power.rank()
    if 0 < r < n and (power @ power).rank() == r:
        img = Subspace.from_rows(F, n, power.transpose().entries)
        basis = vstack([img.basis, power.kernel()]).transpose()
        sel = Matrix(F, [[F.one() if (i == j and i < img.dim) else F.zero() for j in range(n)]
                         for i in range(n)])
        return basis @ sel @ basis.inverse()
    e_poly = coprime_split_idempotent(F, minpoly(phi.matrix))
    if e_poly is not None:
        mat = eval_matrix(F, e_poly, phi.matrix)
        if not mat.is_zero() and mat != ident:
            return mat
    return None


# monic x^2 + b x + c as (c, b, 1), without a root in the field: x^2 + 1 and
# x^2 + x + 1 over Q and F_10007 (10007 = 3 mod 4 and = 2 mod 3), x^2 + 2 and
# x^2 + x + 1 over F_5
QUADRATICS = {Q: [(1, 0, 1), (1, 1, 1)], F5: [(2, 0, 1), (1, 1, 1)],
              F10007: [(1, 0, 1), (1, 1, 1)]}


def jordan_block(field, ev, size):
    return Matrix(field, [[field.of(ev) if c == r else field.of(int(c == r + 1))
                           for c in range(size)] for r in range(size)])


def companion(field, q):
    c, b, _ = q
    return from_int_rows(field, [[0, -c], [1, -b]])


@st.composite
def conjugated_jordan_forms(draw):
    """P J P^-1: J is Jordan blocks at eigenvalues in the field and companion
    blocks of rootless quadratics, P = L U with unit triangular L and U."""
    F = draw(st.sampled_from([Q, F5, F10007]))
    blocks = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)), max_size=3))
    quads = draw(st.lists(st.sampled_from(QUADRATICS[F]), max_size=2))
    assume(blocks or quads)
    J = block_diag([jordan_block(F, ev, size) for ev, size in blocks]
                   + [companion(F, q) for q in quads])
    n = J.rows
    entries = st.sampled_from([0, 0, 1, -1, 2])
    low = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    up = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    L = Matrix(F, [[F.of(1 if r == c else low[r * n + c] if c < r else 0) for c in range(n)]
                   for r in range(n)])
    U = Matrix(F, [[F.of(1 if r == c else up[r * n + c] if c > r else 0) for c in range(n)]
                   for r in range(n)])
    P = L @ U
    return P @ J @ P.inverse()


def bare_endomorphism(mat: Matrix):
    """(End, phi) for mat acting on K^n as a module over K."""
    F = mat.field
    K = AlgebraPresentation.from_struct_consts(F, 1, [(0, 0, 0, 1)], [1])
    m = ModuleRep(K, mat.rows, [Matrix.identity(F, mat.rows)])
    return EndAlgebra(m, []), Morphism(m, m, mat)


# on this family the reference splits only at a linear root or returns None
@settings(max_examples=150, deadline=None)
@given(conjugated_jordan_forms())
def test_eigenvalue_split_matches_coprime_reference(mat):
    E, phi = bare_endomorphism(mat)
    e, chi = _idempotent_from_element(E, phi)
    assert (None if e is None else e.matrix) == reference_idempotent_from_element(phi)
    # an eigenvalue is read only when nothing splits, and phi - chi.1 is nilpotent
    if chi is not None:
        n = mat.rows
        assert e is None and (mat - Matrix.identity(mat.field, n).scale(chi)).power(n).is_zero()


def recorded_sweep(monkeypatch, run):
    """(End, candidate, idempotent or None) for every candidate the sweep tries."""
    calls = []

    def recording(E, phi):
        out = _idempotent_from_element(E, phi)
        calls.append((E, phi, out[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(algebra_module, "_idempotent_from_element", recording)
        run()
    return calls


# every sweep candidate of the regular module's and V^{⊗r}'s decompositions
@pytest.mark.parametrize("r, field", [(3, Q), (4, Field(3))], ids=["r3-Q", "r4-F3"])
def test_schur_sweep_candidates_match_coprime_reference(r, field, monkeypatch):
    alg, tensor, _, _ = schur_algebra(field, r)
    reg, tilt, _ = schur_pipeline(field, r)
    # a fresh copy of S(2, r): the cached one keeps the split its Registry made
    fresh = AlgebraPresentation(field, alg.dim, alg.table, alg.unit, check=False)
    stages = [recorded_sweep(monkeypatch, lambda: simples_and_split_check(fresh)),
              recorded_sweep(monkeypatch, lambda: tilting_support(tilt, tensor))]
    for calls in stages:
        for E, phi, out in calls:
            assert (None if out is None else out.matrix) == reference_idempotent_from_element(phi)
    if (r, field) == (3, Q):
        # both decompositions need the split at an eigenvalue other than 0
        for calls in stages:
            assert any(out is not None and out.matrix != phi.matrix
                       and _fitting_projection(phi.matrix) is None for _, phi, out in calls)


# -- hom spaces on a generating set, against the all-basis equations -------------


def equation_rows(m, n, elements):
    """The nonzero rows of X a_M(b) = a_N(b) X for each b in elements, X
    flattened row-major, as hom_space builds them."""
    F = m.algebra.field
    dm, dn = m.dim, n.dim
    rows = []
    for b in elements:
        am, an = m.action[b].entries, n.action[b].entries
        for r in range(dn):
            for c in range(dm):
                row = [F.zero()] * (dn * dm)
                for k in range(dm):
                    row[r * dm + k] = F.add(row[r * dm + k], am[k][c])
                for k in range(dn):
                    row[k * dm + c] = F.sub(row[k * dm + c], an[r][k])
                if any(row):
                    rows.append(row)
    return rows


def hom_space_reference(m, n):
    """The canonical hom basis from the equations of every basis element."""
    F = m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return []
    ker = Matrix(F, equation_rows(m, n, range(m.algebra.dim)), cols=n.dim * m.dim).kernel()
    return [Matrix(F, [v[r * m.dim:(r + 1) * m.dim] for r in range(n.dim)])
            for v in ker.entries]


def generated_subalgebra(alg, gens):
    """The span of the words in gens applied to the unit, by a fixed-point loop."""
    F = alg.field
    space = Subspace.from_rows(F, alg.dim, [alg.unit])
    while True:
        bigger = Subspace.from_rows(F, alg.dim, list(space.basis.entries) + [
            alg.multiply(alg.basis_vector(g), v) for g in gens for v in space.basis.entries])
        if bigger == space:
            return space
        space = bigger


def registry_modules(reg, tilt):
    """Simples, projectives, (co)standards, injectives and indecomposable tiltings."""
    return [m for lab in reg.poset.labels
            for m in (reg.simple(lab), reg.projective(lab), reg.standard(lab),
                      reg.costandard(lab), injective(reg, lab))
            ] + [tilt.module(lab) for lab in reg.poset.labels]


def opposite_modules(reg):
    """Modules over A^op: its projectives."""
    return [opposite_projective(reg, lab) for lab in reg.poset.labels]


def cell_modules(datum):
    """The cell modules over End(T), and over End(T)^op the co-cell modules:
    Hom(T, Nabla) with each cell acting through its right structure
    coefficients, the module axioms checked on construction."""
    E_op = datum.end.presentation.opposite()
    coeffs = [structure_coefficients(datum, datum.cell(*key)) for key in datum.index()]
    return ([cell_module(datum, lab) for lab in datum.order],
            [ModuleRep(E_op, len(datum.F[lab]), [c.right[lab] for c in coeffs])
             for lab in datum.order])


def pipeline_groups(reg, tilt, T, cells=True):
    """Groups of modules over one algebra each, for pairwise hom spaces."""
    groups = [registry_modules(reg, tilt) + [T], opposite_modules(reg)]
    if cells:
        groups.extend(cell_modules(build_standard_basis(tilt, T, seed=0)))
    return groups


def catalog_groups(spec):
    groups = []
    for name in ["trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3"]:
        doc = catalog_document(name, spec)
        reg = Registry(doc.algebra, doc.poset)
        tilt = TiltingRegistry(reg)
        groups.extend(pipeline_groups(reg, tilt, char_tilting(reg, tilt)))
        groups.extend([[doc.algebra.regular_module()], [reg.opposite.regular_module()]])
    return groups


def auslander_groups(field, n):
    if n == 3 and field.p in (None, 10007):
        reg, tilt, T = auslander3_pipeline(field)
    else:
        reg = Registry(auslander_algebra(field, n), chain_poset(n))
        tilt = TiltingRegistry(reg)
        T = char_tilting(reg, tilt)
    # the cells at n = 4 are left to the smaller inputs
    return pipeline_groups(reg, tilt, T, cells=n == 3)


def schur_groups(field):
    reg, tilt, datum = schur_pipeline(field, 3)
    return [registry_modules(reg, tilt) + [datum.module], opposite_modules(reg),
            *cell_modules(datum)]


HOM_REFERENCE_CASES = (
    [pytest.param(lambda spec=spec: catalog_groups(spec), id=f"catalog-{spec}")
     for spec in ("Q", "Fp 3")]
    + [pytest.param(lambda n=n, p=p: auslander_groups(Field(p), n), id=f"auslander{n}-{p or 'Q'}")
       for n, p in [(3, None), (3, 2), (3, 10007), (4, 10007)]]
    + [pytest.param(lambda p=p: schur_groups(Field(p)), id=f"schur3-{p or 'Q'}")
       for p in (None, 3)])


@pytest.mark.parametrize("make_groups", HOM_REFERENCE_CASES)
def test_hom_space_matches_all_basis_equations(make_groups):
    # the generators' equations give the canonical basis of the whole system,
    # entry for entry, on every ordered pair of modules in a group
    nonzero = 0
    for mods in make_groups():
        for m in mods:
            for n in mods:
                got = [f.matrix for f in hom_space(m, n)]
                want = hom_space_reference(m, n)
                assert got == want
                assert [str(g) for g in got] == [str(g) for g in want]
                nonzero += bool(got)
    assert nonzero > 0


def radical_layers(m):
    """m, its radical and its head, and the same of the radical, down the
    radical series: modules whose actions have zero rows and columns."""
    layers = []
    while m.dim:
        rad = module_radical(m)
        layers += [m, quotient_rep(m, rad)[0]]
        m = submodule_rep(m, rad)[0]
    return layers


@pytest.mark.parametrize("make_algebra", [
    pytest.param(lambda: catalog_document("ut3", "Q").algebra, id="ut3-Q"),
    pytest.param(lambda: auslander_algebra(Q, 3), id="auslander3-Q"),
    pytest.param(lambda: auslander_algebra(Field(2), 3), id="auslander3-2"),
    pytest.param(lambda: auslander_algebra(F10007, 3), id="auslander3-10007")])
def test_hom_basis_matches_all_basis_equations_on_sparse_actions(make_algebra):
    # _hom_basis forms only the entries of its equations that can be nonzero;
    # on simples and radical layers most rows and columns of the actions are 0
    alg = make_algebra()
    simples = simples_and_split_check(alg)
    mods = [sd.simple for sd in simples] + [x for sd in simples for x in radical_layers(sd.projective)]
    gens = alg.generators()
    assert any(not any(r) for m in mods for g in gens for r in m.action[g].entries)
    assert any(not any(c) for m in mods for g in gens for c in m.action[g].transpose().entries)
    nonzero = 0
    for m in mods:
        for n in mods:
            got, want = list(_hom_basis(m, n)), hom_space_reference(m, n)
            assert got == want
            assert [str(g) for g in got] == [str(g) for g in want]
            nonzero += bool(got)
    assert nonzero > len(mods)


def test_hom_space_imposes_generator_equations_only(monkeypatch):
    # a fresh presentation of the same table: the cached one may already
    # hold Hom(A, A) from earlier tests
    cached = auslander_algebra(F10007, 3)
    alg = AlgebraPresentation(F10007, cached.dim, cached.table, cached.unit, check=False)
    A = alg.regular_module()
    shapes = []
    kernel = Matrix.kernel
    monkeypatch.setattr(Matrix, "kernel",
                        lambda self: shapes.append((self.rows, self.cols)) or kernel(self))
    homs = hom_space(A, A)
    again = hom_space(A, A)
    monkeypatch.undo()
    gens = alg.generators()
    # 473 nonzero equations from the 6 generators, against 904 from all 14;
    # those with one unknown force 156 of the 196 unknowns to zero, and 29
    # equations are left on the 40 free unknowns; the second call solves nothing
    assert len(gens) == 6 and len(homs) == 14
    assert shapes == [(29, 40)]
    assert [f.matrix for f in again] == [f.matrix for f in homs]
    assert len(equation_rows(A, A, gens)) == 473 and len(equation_rows(A, A, range(14))) == 904


def test_hom_space_is_solved_once_per_presentation_and_content(monkeypatch):
    cached = auslander_algebra(Q, 3)
    alg = AlgebraPresentation(Q, cached.dim, cached.table, cached.unit, check=False)
    op = alg.opposite()
    solved = []
    kernel = algebra_module.sparse_kernel
    monkeypatch.setattr(algebra_module, "sparse_kernel",
                        lambda *args: solved.append(args[2]) or kernel(*args))
    first = hom_space(alg.regular_module(), alg.regular_module())
    assert solved == [14 * 14]
    # fresh modules with equal actions: the same matrices, bound to them
    m = ModuleRep(alg, alg.dim, [Matrix(Q, a.entries) for a in alg.left_mult_basis()],
                  check=False)
    n = ModuleRep(alg, alg.dim, list(m.action), check=False)
    again = hom_space(m, n)
    assert solved == [14 * 14]
    assert [f.matrix for f in again] == [f.matrix for f in first]
    assert all(f.source is m and f.target is n for f in again)
    # A^op keeps its own memo: the same actions over A^op are solved again
    op_m = ModuleRep(op, alg.dim, m.action, check=False)
    assert [f.matrix for f in hom_space(op_m, op_m)] == [f.matrix for f in first]
    assert solved == [14 * 14, 14 * 14]
    assert op._homs is not alg._homs and list(op._homs) == list(alg._homs)


GENERATOR_CASES = (
    [pytest.param(lambda name=name, spec=spec: catalog_document(name, spec).algebra,
                  id=f"{name}-{spec}")
     for name in catalog_names() for spec in ("Q", "Fp 3")]
    + [pytest.param(lambda n=n, p=p: auslander_algebra(Field(p), n), id=f"auslander{n}-{p or 'Q'}")
       for n, p in [(3, None), (3, 2), (3, 10007), (4, 10007)]]
    + [pytest.param(lambda: schur_algebra(Q, 3)[0], id="schur3-Q"),
       pytest.param(lambda: schur_pipeline(Field(3), 3)[2].end.presentation, id="schur3-F3-end")])


@pytest.mark.parametrize("make_algebra", GENERATOR_CASES)
def test_generators_generate_and_none_can_be_dropped(make_algebra):
    alg = make_algebra()
    gens = alg.generators()
    assert list(gens) == sorted(set(gens)) and all(0 <= g < alg.dim for g in gens)
    assert generated_subalgebra(alg, gens).dim == alg.dim
    for g in gens:
        assert generated_subalgebra(alg, [h for h in gens if h != g]).dim < alg.dim
    # computed once, and handed to the opposite algebra as it is
    assert alg.generators() is gens
    assert alg.opposite().generators() is gens
    # deterministic: a fresh presentation of A, and one of A^op by its own
    # table, choose the same indices
    F = alg.field
    assert AlgebraPresentation(F, alg.dim, alg.table, alg.unit, check=False).generators() == gens
    op_table = [[alg.table[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
    assert AlgebraPresentation(F, alg.dim, op_table, alg.unit, check=False).generators() == gens


def test_generator_counts():
    # the Auslander algebra of K[x]/x^n needs its n - 1 non-unit idempotents
    # and the 2(n - 1) arrows of its quiver
    for n, size in [(3, 6), (4, 9), (5, 12)]:
        assert len(auslander_algebra(F10007, n).generators()) == size
    assert catalog_document("ut3").algebra.generators() == (0, 1, 3, 5)
    assert catalog_document("trivial").algebra.generators() == ()


def test_generating_set_matches_closures_rebuilt_from_the_unit():
    # the pruning pass grows one closure of the kept generators instead of
    # building each candidate's closure anew; the indices are the same
    algebras = [catalog_document(name, spec).algebra
                for name in catalog_names() for spec in (None, "Fp 3")]
    algebras += [auslander_algebra(F, n) for F in (Q, F10007) for n in range(2, 6)]
    algebras += [schur_algebra(F, r)[0] for F in (Q, Field(3)) for r in (3, 4)]
    for alg in algebras:
        assert generating_set(alg) == generating_set_rebuilt(alg), alg.name


@pytest.mark.parametrize("make_algebra", [
    pytest.param(lambda name=name: catalog_document(name).algebra, id=name)
    for name in catalog_names()]
    + [pytest.param(lambda n=n, p=p: auslander_algebra(Field(p), n), id=f"auslander{n}-{p or 'Q'}")
       for p in (None, 2, 10007) for n in (2, 3, 4)]
    + [pytest.param(lambda r=r: schur_algebra(Q, r)[0], id=f"schur{r}-Q") for r in (2, 3, 4)])
def test_closures_stay_reduced(make_algebra, monkeypatch):
    # the generating set's closures and the radical's left ideal keep their
    # rows in reduced row echelon form after every step
    checked = check_closures_reduced(monkeypatch)
    algebra = make_algebra()
    assert generating_set(algebra) == algebra.generators()
    algebra_radical(algebra)
    assert checked or algebra.dim == 1


# -- isomorphism from one hom basis, against the composite search ------------


def composite_search_isomorphism(m, n):
    """The first f in Hom(m, n)'s basis with some g in Hom(n, m)'s basis
    making g . f invertible, or None."""
    if m.dim != n.dim:
        return None
    bwd = hom_space(n, m)
    for f in hom_space(m, n):
        for g in bwd:
            if (g @ f).is_invertible():
                return f
    return None


def indecomposable_modules(reg, tilt):
    """Projectives, standards, costandards, injectives and tiltings."""
    return [m for lab in reg.poset.labels
            for m in (reg.projective(lab), reg.standard(lab), reg.costandard(lab),
                      injective(reg, lab))
            ] + [tilt.module(lab) for lab in reg.poset.labels]


def catalog_indecomposables(spec):
    out = []
    for name in ["trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3"]:
        doc = catalog_document(name, spec)
        reg = Registry(doc.algebra, doc.poset)
        out.append(indecomposable_modules(reg, TiltingRegistry(reg)))
    return out


def auslander3_indecomposables(field):
    if field.p in (None, 10007):
        reg, tilt, _ = auslander3_pipeline(field)
    else:
        reg = Registry(auslander_algebra(field, 3), chain_poset(3))
        tilt = TiltingRegistry(reg)
    return [indecomposable_modules(reg, tilt)]


ISOMORPHISM_REFERENCE_CASES = (
    [pytest.param(lambda spec=spec: catalog_indecomposables(spec), id=f"catalog-{spec}")
     for spec in ("Q", "Fp 3")]
    + [pytest.param(lambda p=p: auslander3_indecomposables(Field(p)), id=f"auslander3-{p or 'Q'}")
       for p in (None, 2, 10007)]
    + [pytest.param(lambda: [indecomposable_modules(*schur_pipeline(Q, 3)[:2])], id="schur3-Q")])


@pytest.mark.parametrize("make_groups", ISOMORPHISM_REFERENCE_CASES)
def test_indec_isomorphism_matches_composite_search(make_groups):
    # the same morphism, or None, on every ordered pair of indecomposables
    found = 0
    for mods in make_groups():
        for m in mods:
            for n in mods:
                got = _indec_isomorphism(m, n)
                want = composite_search_isomorphism(m, n)
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.source, got.target) == (m, n)
                    assert got.matrix == want.matrix
                    assert str(got.matrix.entries) == str(want.matrix.entries)
                    found += 1
    assert found > 0


# -- state the structure layer keeps: one radical, a self-seeded hunt ---------


def test_radical_computed_once_per_presentation(monkeypatch):
    seen = []
    candidate = algebra_module._radical_from_projectives
    monkeypatch.setattr(algebra_module, "_radical_from_projectives",
                        lambda alg: seen.append(alg) or candidate(alg))
    doc = catalog_document("auslander-dualnumbers")
    reg = Registry(doc.algebra, doc.poset)
    for lab in reg.poset.labels:
        module_head(reg.standard(lab))
        module_socle(reg.costandard(lab))
        assert composition_multiplicity(reg.projective(lab), reg.simple(lab)) >= 1
    assert algebra_radical(reg.opposite) is algebra_radical(doc.algebra)
    assert algebra_radical(doc.algebra.opposite()) is algebra_radical(doc.algebra)
    # A's radical once, shared with A^op; any other presentation at most once
    assert [alg for alg in seen if alg is doc.algebra or alg is reg.opposite] == [doc.algebra]
    assert len({id(alg) for alg in seen}) == len(seen)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_idempotent_hunt_is_reproducible(field, monkeypatch):
    # End_A(A) = A^op for the path algebra of 1 -> 2 splits, but with every
    # sweep candidate made to fail only the hunt's random probes can split it
    E = EndAlgebra(a2_algebra(field).regular_module())
    sweep = ({f.matrix for f in E.basis}
             | {(f + g).matrix for f in E.basis for g in E.basis}
             | {(f @ g).matrix for f in E.basis for g in E.basis})
    probed = []

    def sweep_fails(E, phi):
        if phi.matrix in sweep:
            return None, None
        probed.append(phi.matrix)
        return _idempotent_from_element(E, phi)

    monkeypatch.setattr(algebra_module, "_idempotent_from_element", sweep_fails)
    first = find_splitting_idempotent(E)
    tries = len(probed)
    # a decomposition that hunts in between does not move the second hunt
    krull_schmidt(a2_algebra(field).regular_module())
    start = len(probed)
    second = find_splitting_idempotent(E)
    assert first is not None and tries > 0 and start > tries
    assert (first @ first).matrix == first.matrix
    assert second.matrix == first.matrix
    assert probed[start:] == probed[:tries]


# -- associativity on the sparse table against the dense products ---------------


def dense_check_axioms(alg):
    """The presentation check on dense left multiplications: the unit on both
    sides, then L_i L_j = L_{b_i b_j} pair by pair."""
    F = alg.field
    lm = alg.left_mult_basis()
    if alg.left_mult(alg.unit) != Matrix.identity(F, alg.dim):
        raise InputError("unit is not a left identity")
    for i in range(alg.dim):
        e_i = alg.basis_vector(i)
        if alg.multiply(e_i, alg.unit) != e_i:
            raise InputError("unit is not a right identity")
    for i in range(alg.dim):
        for j in range(alg.dim):
            if lm[i] @ lm[j] != alg.left_mult(alg.table[i][j]):
                raise InputError(f"multiplication not associative at basis pair ({i},{j})")


def check_error(run):
    try:
        run()
    except InputError as exc:
        return str(exc)
    return None


def assert_names_nonassociative_pair(alg, msg):
    """A pair (i, j) that msg names has i among the generators and
    L_i L_j != L_{b_i b_j} on the dense left multiplications."""
    if msg and " at basis pair " in msg:
        i, j = map(int, msg.split("(")[1].rstrip(")").split(","))
        lm = alg.left_mult_basis()
        assert i in alg.generators()
        assert lm[i] @ lm[j] != alg.left_mult(alg.table[i][j])


@functools.cache
def associative_bases(field):
    spec = "Q" if field.p is None else f"Fp {field.p}"
    return ([catalog_document(name, spec).algebra for name in catalog_names()]
            + [auslander_algebra(field, 3), truncated_polynomials(field, 4)])


@st.composite
def tables(draw):
    """Tables of associative algebras with a few entries changed, and random
    tables on which b_0 is the unit."""
    field = draw(st.sampled_from([Q, F5]))
    scalars = st.integers(-2, 2).map(field.of)
    if draw(st.booleans()):
        base = draw(st.sampled_from(associative_bases(field)))
        dim, unit = base.dim, base.unit
        table = [[list(v) for v in row] for row in base.table]
        for _ in range(draw(st.integers(1, 3))):
            i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
            table[i][j][k] = draw(scalars)
    else:
        dim = draw(st.integers(1, 4))
        unit = [field.of(int(t == 0)) for t in range(dim)]
        table = [[[draw(scalars) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for t in range(dim):
            table[0][t] = table[t][0] = [field.of(int(s == t)) for s in range(dim)]
    return field, dim, table, unit


@settings(max_examples=150, deadline=None)
@given(tables())
def test_associativity_check_matches_dense_products(case):
    # the same verdict as the all-pairs dense check; the load check takes
    # the first factor among the generators, so it may name another pair,
    # but that pair is non-associative
    field, dim, table, unit = case
    got = check_error(lambda: AlgebraPresentation(field, dim, table, unit))
    alg = AlgebraPresentation(field, dim, table, unit, check=False)
    want = check_error(lambda: dense_check_axioms(alg))
    assert (got and got.split(" at ")[0]) == (want and want.split(" at ")[0])
    assert_names_nonassociative_pair(alg, got)
    event(got.split(" at ")[0] if got else "associative")


# -- associativity, module axioms, intertwining and anti-involutions on the
#    generators, against the all-pairs loops


def assert_same_verdict(got, want):
    """The same error text up to the witness indices at its end, or both None."""
    strip = (lambda msg: msg and msg.rstrip("0123456789(),"))
    assert strip(got) == strip(want), (got, want)


def witness(msg):
    """The indices an error message ends with, as ints."""
    return tuple(map(int, msg.rsplit(" ", 1)[1].strip("()").split(",")))


def bump(mat, r, c):
    """mat with 1 added to its (r, c) entry."""
    rows = [list(row) for row in mat.entries]
    rows[r][c] = mat.field.add(rows[r][c], mat.field.one())
    return Matrix(mat.field, rows, cols=mat.cols)


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_associativity_check_on_generators_matches_all_pairs(field):
    # one structure constant changed, for each basis element as first factor
    outcomes = Counter()
    for base in associative_bases(field):
        d = base.dim
        for t in range(d):
            table = [[list(v) for v in row] for row in base.table]
            j, k = (5 * t + 1) % d, (3 * t + 2) % d
            table[t][j][k] = field.add(table[t][j][k], field.one())
            got = check_error(lambda: AlgebraPresentation(field, d, table, base.unit))
            alg = AlgebraPresentation(field, d, table, base.unit, check=False)
            assert_same_verdict(got, check_error(lambda: dense_check_axioms(alg)))
            assert_names_nonassociative_pair(alg, got)
            outcomes[t in alg.generators(), got.split(" at ")[0] if got else None] += 1
    key = "multiplication not associative"
    assert outcomes[True, key] and outcomes[False, key]


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_module_check_on_generators_matches_all_pairs(field):
    # one entry of one action matrix of the regular module changed, for each
    # basis element in turn
    outcomes = Counter()
    for alg in associative_bases(field):
        d, gens = alg.dim, alg.generators()
        regular = alg.regular_module()
        assert check_error(lambda: ModuleRep(alg, d, regular.action)) is None
        for t in range(d):
            action = list(regular.action)
            action[t] = bump(action[t], t % d, (3 * t + 1) % d)
            got = check_error(lambda: ModuleRep(alg, d, action))
            module = ModuleRep(alg, d, action, check=False)
            assert_same_verdict(got, check_error(lambda: module_axioms_all_pairs(module)))
            if got and "pair" in got:
                i, j = witness(got)
                assert i in gens
                assert action[i] @ action[j] != module.act(alg.table[i][j])
            outcomes[t in gens, got.split(" at ")[0] if got else None] += 1
    # a generator's fault, and a non-generator's that only a product shows
    assert outcomes[True, "module axiom fails"] and outcomes[False, "module axiom fails"]


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_intertwining_check_on_generators_matches_all_basis(field):
    # each hom basis element of the regular module, and it with one entry changed
    outcomes = Counter()
    for alg in associative_bases(field):
        m, gens = alg.regular_module(), alg.generators()
        for t, f in enumerate(hom_space(m, m)):
            for mat in (f.matrix, bump(f.matrix, t % m.dim, (2 * t + 1) % m.dim)):
                got = check_error(lambda: Morphism(m, m, mat, check=True))
                assert_same_verdict(got, check_error(
                    lambda: intertwines_all_basis(Morphism(m, m, mat))))
                if got:
                    (i,) = witness(got)
                    assert i in gens
                    assert mat @ m.action[i] != m.action[i] @ mat
                outcomes[mat is f.matrix, got is None] += 1
    assert outcomes[True, False] == 0 and outcomes[True, True]
    assert outcomes[False, False] and outcomes[False, True]


def auslander_tau(field, n):
    """The anti-involution b(j, k, s) -> b(k, j, s + j - k) of
    `auslander_algebra(field, n)`, on its basis (listed as there): it reverses
    composition, b(k, l, t) b(j, k, s) = b(j, l, s + t)."""
    basis = [(k, k, 0) for k in range(1, n + 1)]
    basis += [(j, k, s) for j in range(1, n + 1) for k in range(1, n + 1)
              for s in range(max(0, k - j), k) if j != k or s]
    index = {b: i for i, b in enumerate(basis)}
    image = [index[(k, j, s + j - k)] for j, k, s in basis]
    return Matrix(field, [[field.of(int(image[c] == r)) for c in range(len(basis))]
                          for r in range(len(basis))])


def perturbed_taus(alg, tau):
    """tau, the identity, and tau conjugated by a sign change of one basis
    element or a swap of two neighbours, each fixing the unit: all of them
    square to the identity and fix the unit."""
    F, n = alg.field, alg.dim
    yield tau
    yield Matrix.identity(F, n)
    for i in range(n):
        if not alg.unit[i]:
            d = Matrix(F, [[F.of(-1 if r == c == i else int(r == c)) for c in range(n)]
                           for r in range(n)])
            yield d @ tau @ d
    for i in range(n - 1):
        if alg.unit[i] == alg.unit[i + 1]:
            perm = [i + 1 if t == i else i if t == i + 1 else t for t in range(n)]
            p = Matrix(F, [[F.of(int(perm[c] == r)) for c in range(n)] for r in range(n)])
            yield p @ tau @ p


@pytest.mark.parametrize("field", [Q, F5], ids=repr)
def test_anti_involution_check_on_generators_matches_all_pairs(field):
    spec = "Q" if field.p is None else f"Fp {field.p}"
    cases = [(doc.algebra, doc.anti_involution)
             for doc in (catalog_document(name, spec) for name in catalog_names())
             if doc.anti_involution is not None]
    cases.append((auslander_algebra(field, 3), auslander_tau(field, 3)))
    outcomes = Counter()
    for alg, tau in cases:
        for mat in perturbed_taus(alg, tau):
            got = check_error(lambda: AntiInvolution(alg, mat))
            want = check_error(lambda: anti_involution_all_pairs(alg, mat))
            assert_same_verdict(got, want)
            if got:
                i, j = witness(got)
                assert i in alg.generators()
                lhs = tuple(r[0] for r in (mat @ Matrix.column(field, alg.table[i][j])).entries)
                tau_of = [tuple(row[t] for row in mat.entries) for t in range(alg.dim)]
                assert lhs != alg.multiply(tau_of[j], tau_of[i])
            outcomes[mat is tau, got is None] += 1
    assert outcomes[True, True] == len(cases)
    assert outcomes[False, False] and outcomes[False, True]
