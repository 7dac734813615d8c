import pytest
from conftest import GOOD_CATALOG

from tiltcell import algebra as algebra_module
from tiltcell.algebra import EndAlgebra, Morphism, algebra_radical, direct_sum, hom_space
from tiltcell.cells import (
    CellData,
    cell_module,
    classify_simples,
    end_presentation,
    gram_matrix,
    is_semisimple_endalgebra,
)
from tiltcell.cli import Pipeline, build_report
from tiltcell.docio import catalog_document
from tiltcell.duality import AntiInvolution, build_cellular_basis
from tiltcell.errors import LabelNotInSupport, TheoremViolation
from tiltcell.highest_weight import Registry, verify_standard_category
from tiltcell.linalg import Field, Matrix, coordinates
from tiltcell.standard_basis import build_standard_basis
from tiltcell.tilting import TiltingRegistry, tilting_support

from oracles import cell_simple_module
from test_algebra import cell_modules
from test_schur import schur_algebra, schur_pipeline
from test_stress import F10007, Q, auslander_algebra, chain_poset

F2 = Field(2)


def datum_for(reg, tilt, labels=None, seed=0):
    labels = labels if labels is not None else list(reg.poset.labels)
    total, _, _ = direct_sum([tilt.module(lab) for lab in labels])
    return total, build_standard_basis(tilt, total, seed=seed)


def test_trivial_gram_is_one(pipelines):
    doc, reg, tilt = pipelines["trivial"]
    _, datum = datum_for(reg, tilt)
    beta = gram_matrix(datum, "1")
    assert beta == Matrix.identity(doc.field, 1)


def test_semisimple2_grams_nonzero(pipelines):
    _, reg, tilt = pipelines["semisimple2"]
    _, datum = datum_for(reg, tilt)
    for lab in ("1", "2"):
        beta = gram_matrix(datum, lab)
        assert beta.rows == beta.cols == 1 and not beta.is_zero()


def test_a2_gram_shapes(pipelines):
    _, reg, tilt = pipelines["a2path"]
    _, datum = datum_for(reg, tilt)
    beta_low = gram_matrix(datum, "2")
    assert (beta_low.rows, beta_low.cols) == (1, 2) and beta_low.rank() == 1
    beta_high = gram_matrix(datum, "1")
    assert (beta_high.rows, beta_high.cols) == (1, 1) and not beta_high.is_zero()


def test_gram_label_not_in_support(pipelines):
    _, reg, tilt = pipelines["a2path"]
    TT, _, _ = direct_sum([tilt.module("1")] * 2)
    datum = build_standard_basis(tilt, TT, seed=0)
    with pytest.raises(LabelNotInSupport):
        gram_matrix(datum, "2")


def test_cell_module_dims_and_identity_action(pipelines):
    _, reg, tilt = pipelines["a2path"]
    T, datum = datum_for(reg, tilt)
    cm_low = cell_module(datum, "2")
    assert cm_low.dim == 2
    cm_high = cell_module(datum, "1")
    assert cm_high.dim == 1
    # the identity of End(T) acts as the identity matrix
    E = end_presentation(datum)
    F = E.field
    ident = cm_low.act(E.unit)
    assert ident == Matrix.identity(F, cm_low.dim)


def test_cell_module_action_respects_composition(pipelines):
    # module axioms were checked on construction; spot-check one product
    _, reg, tilt = pipelines["auslander-dualnumbers"]
    T, datum = datum_for(reg, tilt)
    cm = cell_module(datum, "2")
    E = end_presentation(datum)
    F = E.field
    a = E.basis_vector(0)
    b = E.basis_vector(1)
    assert cm.act(a) @ cm.act(b) == cm.act(E.multiply(a, b))


def test_co_cell_module_dims(pipelines):
    _, reg, tilt = pipelines["a2path"]
    T, datum = datum_for(reg, tilt)
    co_cells = dict(zip(datum.order, cell_modules(datum)[1]))
    assert co_cells["2"].dim == 1
    assert co_cells["1"].dim == 1


def test_classification_matches_multiplicities(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        T, datum = datum_for(reg, tilt)
        cd = CellData(datum)
        support = tilting_support(tilt, T)
        dims = classify_simples(cd, support)
        for lab, mult in support.items():
            assert dims[lab] == mult, (name, lab)


def test_classification_doubled(pipelines):
    _, reg, tilt = pipelines["a2path"]
    TT, _, _ = direct_sum([tilt.module("1")] * 2)
    datum = build_standard_basis(tilt, TT, seed=0)
    cd = CellData(datum)
    dims = classify_simples(cd, tilting_support(tilt, TT))
    assert dims == {"1": 2}
    head = cell_simple_module(datum, "1")
    assert head.dim == 2


def test_classification_cross_check_failure_detected(pipelines):
    _, reg, tilt = pipelines["a2path"]
    T, datum = datum_for(reg, tilt)
    cd = CellData(datum)
    with pytest.raises(TheoremViolation):
        classify_simples(cd, {"1": 2, "2": 1})


def test_simple_dim_squares_bound(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        T, datum = datum_for(reg, tilt)
        cd = CellData(datum)
        dims = classify_simples(cd, tilting_support(tilt, T))
        total = sum(d * d for d in dims.values())
        semis = is_semisimple_endalgebra(cd)
        assert total <= datum.dim()
        assert (total == datum.dim()) == semis, name
        # the reference: Graham-Lehrer's count against End(T)'s own radical
        rad = algebra_radical(end_presentation(datum))
        assert datum.dim() - rad.dim == total, name
        assert semis == (rad.dim == 0), name


def test_semisimplicity_values(pipelines):
    expected = {"trivial": True, "semisimple2": True, "a2path": False,
                "auslander-dualnumbers": False, "ut3": False}
    for name, (_, reg, tilt) in pipelines.items():
        T, datum = datum_for(reg, tilt)
        assert is_semisimple_endalgebra(CellData(datum)) == expected[name], name


def test_semisimple_single_tilting(pipelines):
    _, reg, tilt = pipelines["a2path"]
    T, datum = datum_for(reg, tilt, labels=["2"])
    assert is_semisimple_endalgebra(CellData(datum))


def test_end_radical_dimension_a2(pipelines):
    # dim End = 3 with two 1-dim simples leaves a 1-dim radical
    _, reg, tilt = pipelines["a2path"]
    T, datum = datum_for(reg, tilt)
    pres = end_presentation(datum)
    assert algebra_radical(pres).dim == 1


def test_end_presentation_is_end_algebra(pipelines):
    _, reg, tilt = pipelines["ut3"]
    T, datum = datum_for(reg, tilt)
    pres = end_presentation(datum)
    assert pres.dim == len(hom_space(T, T))
    # associativity and unit hold exactly
    pres2 = type(pres)(pres.field, pres.dim, pres.table, pres.unit, check=True)


def test_nonzero_support_equals_support(pipelines):
    # on verified input the pairing is nonzero exactly on the summand labels
    for name, (_, reg, tilt) in pipelines.items():
        T, datum = datum_for(reg, tilt)
        cd = CellData(datum)
        assert set(cd.nonzero_support()) == set(tilting_support(tilt, T))


@pytest.mark.parametrize("name", GOOD_CATALOG)
def test_cells_invariants_agree_over_q_and_good_primes(name):
    # a differential check: the dimension invariants of the cells report do
    # not depend on the characteristic for these algebras
    seen = []
    for spec in ("Q", "Fp 5", "Fp 7", "Fp 10007"):
        report, code = build_report(Pipeline(catalog_document(name, spec)), "cells")
        seen.append((code, report["fibers"], report["semisimple"]["dim_end"],
                     {lam: g["rank"] for lam, g in report["gram"].items()},
                     report["simple_dims"]))
    assert seen[0][0] == 0
    assert seen[1:] == seen[:1] * 3


# -- the Gram form read off Hom(Delta, Nabla) = K c against the local-ring route ---


def reference_scalar_part(tilt, label):
    """End(T(label)) = K id + radical, read from End's certified radical;
    the map from an endomorphism matrix to its scalar part."""
    n = tilt.module(label).dim
    E = EndAlgebra(tilt.module(label))
    rad = algebra_radical(E.presentation)
    rows = [Matrix.identity(E.field, n).flat()]
    rows.extend(E.from_coords(r).matrix.flat() for r in rad.basis.entries)
    assert len(rows) == E.dim, f"End(T({label!r})) is not local"
    coords = coordinates(E.field, rows, n * n)
    return lambda mat: coords(mat.flat())[0]


def reference_gram(datum, label):
    """Entry (j, k): the scalar part of Fhat_j . Ghat_k in End(T(label))."""
    scalar = reference_scalar_part(datum.tilt, label)
    return Matrix(datum.reg.algebra.field,
                  [[scalar((fh @ gh).matrix) for gh in datum.Ghat[label]]
                   for fh in datum.Fhat[label]], cols=len(datum.G[label]))


def catalog_case(name, spec):
    doc = catalog_document(name, spec)
    reg = Registry(doc.algebra, doc.poset)
    verify_standard_category(reg).raise_if_failed()
    # the cellular basis symmetrizes fixed points, which needs characteristic != 2
    tau = (None if doc.anti_involution is None or doc.field.characteristic == 2
           else AntiInvolution(doc.algebra, doc.anti_involution))
    return reg, TiltingRegistry(reg), tau


def auslander_case(field, n):
    reg = Registry(auslander_algebra(field, n), chain_poset(n))
    return reg, TiltingRegistry(reg), None


def schur_case(r):
    _, _, tau, _ = schur_algebra(Q, r)
    reg, tilt, _ = schur_pipeline(Q, r)
    return reg, tilt, tau


GRAM_SWEEP = (
    [pytest.param(lambda name=name, spec=spec: catalog_case(name, spec), id=f"{name}-{spec}")
     for name in GOOD_CATALOG for spec in ("Q", "Fp 3", "Fp 2")]
    + [pytest.param(lambda field=field, n=n: auslander_case(field, n),
                    id=f"auslander{n}-{field.p or 'Q'}")
       for field, n in [(Q, 3), (F2, 3), (F10007, 3), (F10007, 4)]]
    + [pytest.param(lambda r=r: schur_case(r), id=f"schur2-{r}") for r in (3, 4)])


@pytest.mark.parametrize("make_case", GRAM_SWEEP)
def test_gram_matches_scalar_part_reference(make_case):
    reg, tilt, tau = make_case()
    total, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    datums = [build_standard_basis(tilt, total, seed=seed) for seed in range(3)]
    if tau is not None:
        datums += [build_cellular_basis(tilt, total, tau, seed=seed)[0] for seed in range(3)]
    for datum in datums:
        for lam in datum.order:
            assert gram_matrix(datum, lam) == reference_gram(datum, lam)


def test_gram_checks_the_composite_against_c(pipelines, monkeypatch):
    # c = pi . i is [1 0] at the top label of 1 -> 2; against [1 1] the
    # composite F_0 . G_0 = beta(0, 0) c, beta(0, 0) != 0, is no multiple
    doc, reg, tilt = pipelines["a2path"]
    _, datum = datum_for(reg, tilt)
    triple = tilt.triple("1")
    assert triple.c.matrix.entries == ((1, 0),) and not gram_matrix(datum, "1").is_zero()
    monkeypatch.setattr(triple, "c", Morphism(triple.c.source, triple.c.target,
                                              Matrix(doc.field, [[1, 1]])))
    with pytest.raises(TheoremViolation, match="F_0 . G_0 at '1' is not a multiple of pi . i"):
        gram_matrix(datum, "1")


def test_inflated_gram_ranks_make_the_verdicts_disagree(pipelines, monkeypatch):
    # T(2) is simple with End = K; a rank inflated to 2 counts 4 != dim End = 1
    # against T's zero module radical
    _, reg, tilt = pipelines["a2path"]
    _, datum = datum_for(reg, tilt, labels=["2"])
    cd = CellData(datum)
    assert is_semisimple_endalgebra(cd)
    monkeypatch.setitem(cd.gram_rank, "2", 2)
    with pytest.raises(TheoremViolation, match="verdicts disagree: .* = False, module .* = True"):
        is_semisimple_endalgebra(cd)


def test_no_radical_of_end_t_is_taken(pipelines, monkeypatch):
    # only A and A^op, which share A's radical, are decomposed for a radical
    seen = []
    for fname in ("algebra_radical", "_regular_summands"):
        fn = getattr(algebra_module, fname)
        monkeypatch.setattr(algebra_module, fname,
                            lambda alg, fn=fn: seen.append(alg.name) or fn(alg))
    for _, reg, tilt in pipelines.values():
        _, datum = datum_for(reg, tilt)
        is_semisimple_endalgebra(CellData(datum))
    assert "End(T)" not in seen
    for name in GOOD_CATALOG:
        doc = catalog_document(name)
        seen.clear()
        commands = ["cells"] + (["cellular"] if doc.anti_involution is not None else [])
        for command in commands:
            assert build_report(Pipeline(doc), command)[1] == 0, (name, command)
        assert seen and set(seen) <= {doc.algebra.name, doc.algebra.name + "^op"}, (name, seen)
