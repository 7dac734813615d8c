"""Submodules, quotients, products and A's ideal test against the routes they
replaced (`oracles`), entry for entry, and spies on what each one forms.

`submodule_rep` checks invariance for the generators' actions alone and
reads every other action at the subspace's pivot rows; `quotient_rep` forms
one product per action and reads it at the free columns; `multiply` reads
the presentation's sparse table; `_ideal_defect` takes its right factor
from the generators and tests the left side on the left-ideal generators it
picks; `linear_combination` returns a basis vector's matrix itself.  All of
them must give the old outputs on the same inputs.
"""

import pytest

from tiltcell import algebra as algebra_module
from tiltcell import highest_weight as hw_module
from tiltcell import structure as structure_module
from tiltcell.algebra import (
    AlgebraPresentation,
    _ideal_defect,
    algebra_radical,
    module_radical,
    module_socle,
    quotient_rep,
    submodule_generated,
    submodule_rep,
)
from tiltcell.docio import catalog_document, catalog_names
from tiltcell.errors import InconsistentSystem
from tiltcell.highest_weight import Registry, verify_standard_category
from tiltcell.linalg import Field, Matrix, Subspace
from tiltcell.tilting import TiltingRegistry

from oracles import (
    ideal_defect_all_basis,
    multiply_dense,
    quotient_rep_two_products,
    span_sum,
    submodule_rep_all_actions,
)
from test_schur import schur_algebra
from test_stress import auslander_algebra, chain_poset

F10007 = Field(10007)

ALGEBRAS = (
    [pytest.param(lambda name=name: catalog_document(name).algebra, id=name)
     for name in catalog_names()]
    + [pytest.param(lambda n=n, p=p: auslander_algebra(Field(p), n), id=f"auslander{n}-{p or 'Q'}")
       for n in (2, 3, 4) for p in (None, 2, 5, 10007)]
    + [pytest.param(lambda r=r, p=p: schur_algebra(Field(p), r)[0], id=f"schur{r}-{p or 'Q'}")
       for r in (3, 4) for p in (None, 3)])


def printed(matrices):
    return [str(m) for m in matrices]


def assert_same_sub(got, want):
    (sub, incl), (ref, ref_incl) = got, want
    assert sub.dim == ref.dim and sub.action == ref.action
    assert printed(sub.action) == printed(ref.action)
    assert incl.matrix == ref_incl.matrix


def assert_same_quotient(got, want):
    (quot, proj, section), (ref, ref_proj, ref_section) = got, want
    assert quot.dim == ref.dim and quot.action == ref.action
    assert printed(quot.action) == printed(ref.action)
    assert proj.matrix == ref_proj.matrix and section == ref_section


def invariant_subspaces(algebra):
    """(module, invariant subspace) pairs on A's and A^op's regular modules:
    the one-generator submodules, the radical, the socle, 0 and everything."""
    F, n = algebra.field, algebra.dim
    pairs = []
    for m in (algebra.regular_module(), algebra.opposite().regular_module()):
        spaces = [submodule_generated(m, [algebra.basis_vector(i)]) for i in range(n)]
        spaces += [module_radical(m), module_socle(m), Subspace.zero(F, n), Subspace.full(F, n)]
        pairs.extend((m, s) for s in spaces)
    return pairs


@pytest.mark.parametrize("make_algebra", ALGEBRAS)
def test_submodules_and_quotients_match_the_all_action_routes(make_algebra):
    algebra = make_algebra()
    pairs = invariant_subspaces(algebra)
    for m, space in pairs:
        assert_same_sub(submodule_rep(m, space), submodule_rep_all_actions(m, space))
        assert_same_quotient(quotient_rep(m, space), quotient_rep_two_products(m, space))
    assert algebra.dim == 1 or any(0 < space.dim < m.dim for m, space in pairs)


@pytest.mark.parametrize("make_algebra", ALGEBRAS)
def test_a_subspace_moved_by_a_generator_is_refused(make_algebra):
    # span(b_i) in the regular module: where the all-action route finds it
    # not invariant, some generator moves it, and the shortcut refuses it too
    algebra = make_algebra()
    m = algebra.regular_module()
    refused = 0
    for i in range(algebra.dim):
        space = Subspace.from_rows(algebra.field, algebra.dim, [algebra.basis_vector(i)])
        try:
            want = submodule_rep_all_actions(m, space)
        except InconsistentSystem:
            refused += 1
            with pytest.raises(InconsistentSystem):
                submodule_rep(m, space)
        else:
            assert_same_sub(submodule_rep(m, space), want)
    # in a semisimple algebra the spans of these bases are all invariant
    assert refused or algebra_radical(algebra).dim == 0


@pytest.mark.parametrize("make_algebra", ALGEBRAS)
def test_multiply_matches_the_dense_product(make_algebra):
    algebra = make_algebra()
    F, n = algebra.field, algebra.dim
    vectors = [algebra.basis_vector(i) for i in range(n)]
    # (i+1)/(i+2) where i+2 is invertible in F, else 0
    vectors += [algebra.unit, tuple(F.of(3 * i - 2) for i in range(n)),
                tuple(F.parse(f"{i + 1}/{i + 2}") if F.of(i + 2) else F.zero() for i in range(n))]
    for a in vectors:
        for b in vectors:
            got, want = algebra.multiply(a, b), multiply_dense(algebra, a, b)
            assert got == want and [str(x) for x in got] == [str(x) for x in want]


def fails_on_side(algebra, space, left):
    """Whether some b_i . v (left) or v . b_i lies outside the space."""
    return any(not space.contains_vector(multiply_dense(algebra, *((e, v) if left else (v, e))))
               for e in map(algebra.basis_vector, range(algebra.dim))
               for v in space.basis.entries)


@pytest.mark.parametrize("make_algebra", ALGEBRAS)
def test_ideal_defect_matches_the_all_basis_test(make_algebra):
    # the radical and perturbed candidates: left ideals A.b_i and right
    # ideals b_i.A, where the verdict is decided by the other side, the
    # radical with b_i added or with its i-th row dropped, 0 and A
    algebra = make_algebra()
    F, n = algebra.field, algebra.dim
    rad = algebra_radical(algebra)
    left_mod, right_mod = algebra.regular_module(), algebra.opposite().regular_module()
    one_sided = [submodule_generated(mod, [algebra.basis_vector(i)])
                 for mod in (left_mod, right_mod) for i in range(n)]
    perturbed = [rad, Subspace.zero(F, n), Subspace.full(F, n)]
    for i in range(n):
        perturbed += [span_sum(rad, Subspace.from_rows(F, n, [algebra.basis_vector(i)])),
                      Subspace.from_rows(F, n, [r for k, r in enumerate(rad.basis.entries)
                                                if k != i])]
    verdicts = []
    for space in one_sided + perturbed:
        got, want = _ideal_defect(algebra, space), ideal_defect_all_basis(algebra, space)
        verdicts.append(want)
        if got != want:
            # only where both sides fail may the tests name different sides:
            # each names the side of its first failing product, and that
            # depends on the order the factors are taken in
            assert space in perturbed
            assert {got, want} == {"not a left ideal", "not a right ideal"}
            assert fails_on_side(algebra, space, True) and fails_on_side(algebra, space, False)
    assert None in verdicts and "not nilpotent" in verdicts
    commutative = all(algebra.table[i][j] == algebra.table[j][i]
                      for i in range(n) for j in range(n))
    assert commutative or {"not a left ideal", "not a right ideal"} <= set(verdicts[:2 * n])


@pytest.mark.parametrize("make_algebra", ALGEBRAS)
def test_ideal_defect_refuses_non_nilpotent_ideals_and_non_ideals(make_algebra):
    # nilpotency multiplies by the candidate's left-ideal generators alone,
    # and A.{generators} = candidate is the left-ideal test: the two-sided
    # ideals rad + A.b_i.A, not nilpotent once b_i is outside rad, and the
    # right ideals b_i.A, some no left ideal, keep the all-basis verdicts
    algebra = make_algebra()
    n = algebra.dim
    rad = algebra_radical(algebra)
    left_mod, right_mod = algebra.regular_module(), algebra.opposite().regular_module()
    ideals = [submodule_generated(left_mod, submodule_generated(
        right_mod, [*rad.basis.entries, algebra.basis_vector(i)]).basis.entries)
        for i in range(n)]
    verdicts = [_ideal_defect(algebra, space) for space in ideals]
    assert verdicts == [ideal_defect_all_basis(algebra, space) for space in ideals]
    assert verdicts == [None if rad.contains_vector(algebra.basis_vector(i)) else "not nilpotent"
                        for i in range(n)]
    right_ideals = [submodule_generated(right_mod, [algebra.basis_vector(i)]) for i in range(n)]
    verdicts = [_ideal_defect(algebra, space) for space in right_ideals]
    assert verdicts == [ideal_defect_all_basis(algebra, space) for space in right_ideals]
    assert "not a right ideal" not in verdicts
    commutative = all(algebra.table[i][j] == algebra.table[j][i]
                      for i in range(n) for j in range(n))
    assert commutative or "not a left ideal" in verdicts


def catalog_pipeline(name):
    doc = catalog_document(name)
    return doc.algebra, doc.poset


PIPELINES = (
    [pytest.param(lambda name=name: catalog_pipeline(name), id=name)
     for name in ("a2path", "auslander-dualnumbers", "ut3")]
    + [pytest.param(lambda p=p: (auslander_algebra(Field(p), 3), chain_poset(3)),
                    id=f"auslander3-{p or 'Q'}") for p in (None, 5)])


@pytest.mark.parametrize("make_pipeline", PIPELINES)
def test_every_pipeline_submodule_and_quotient_matches(make_pipeline, monkeypatch):
    # a fresh presentation, so that nothing is memoized: every submodule and
    # quotient the Registry and the tilting modules build is checked
    cached, poset = make_pipeline()
    algebra = AlgebraPresentation(cached.field, cached.dim, cached.table, cached.unit)
    calls = []

    def checked(route, reference, check):
        def spy(m, space):
            got = route(m, space)
            check(got, reference(m, space))
            calls.append(route.__name__)
            return got
        return spy

    sub = checked(submodule_rep, submodule_rep_all_actions, assert_same_sub)
    quot = checked(quotient_rep, quotient_rep_two_products, assert_same_quotient)
    for module in (algebra_module, hw_module):
        monkeypatch.setattr(module, "submodule_rep", sub)
        monkeypatch.setattr(module, "quotient_rep", quot)
    reg = Registry(algebra, poset)
    assert verify_standard_category(reg).ok
    TiltingRegistry(reg)
    assert {"submodule_rep", "quotient_rep"} <= set(calls)


# -- spies -------------------------------------------------------------------


def fresh(algebra):
    return AlgebraPresentation(algebra.field, algebra.dim, algebra.table, algebra.unit,
                               check=False)


def test_loading_a_document_lists_the_sparse_table_once_per_presentation(monkeypatch):
    built = []
    real = structure_module.sparse_table
    for module in (algebra_module, structure_module):
        monkeypatch.setattr(module, "sparse_table", lambda a: built.append(a) or real(a))
    doc = catalog_document("ut3")
    assert built == [doc.algebra]
    # the load check, the generating set and every product read that one list
    A = doc.algebra
    A.generators()
    A.multiply(A.unit, A.unit)
    TiltingRegistry(Registry(A, doc.poset))
    assert built[0] is A and len(built) == len({id(a) for a in built})


def test_a_basis_vector_acts_by_its_stored_matrix(monkeypatch):
    algebra = fresh(auslander_algebra(F10007, 3))
    m = algebra.regular_module()
    unit_rows = [r for r in algebra_radical(algebra).basis.entries
                 if sorted(r) == [0] * (len(r) - 1) + [1]]
    assert unit_rows
    formed, read = [], []
    of, sparse_rows = Matrix._of, Matrix.sparse_rows
    monkeypatch.setattr(Matrix, "_of", classmethod(
        lambda cls, *args: formed.append(args) or of(*args)))
    monkeypatch.setattr(Matrix, "sparse_rows", lambda self: read.append(self) or sparse_rows(self))
    for i in range(algebra.dim):
        assert m.act(algebra.basis_vector(i)) is m.action[i]
    for r in unit_rows:
        assert m.act(r) is m.action[r.index(1)]
    assert algebra.left_mult(algebra.basis_vector(2)) is algebra.left_mult_basis()[2]
    assert formed == [] and read == []
    # a coefficient other than 1 is summed as before
    twice = m.act(tuple(2 * x for x in algebra.basis_vector(5)))
    assert twice is not m.action[5] and twice == m.action[5].scale(2) and formed


def test_submodule_rep_reads_coordinates_for_generator_actions_only(monkeypatch):
    algebra = fresh(auslander_algebra(F10007, 3))
    m = algebra.regular_module()
    space = module_radical(m)
    gens = algebra.generators()
    assert 0 < len(gens) < algebra.dim and 0 < space.dim < m.dim
    seen = []
    coordinates = Subspace.coordinates
    monkeypatch.setattr(Subspace, "coordinates",
                        lambda self, mat: seen.append(mat) or coordinates(self, mat))
    sub, incl = submodule_rep(m, space)
    assert seen == [m.action[g] @ incl.matrix for g in gens]
    assert_same_sub((sub, incl), submodule_rep_all_actions(m, space))
