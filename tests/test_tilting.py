import pytest

from tiltcell import tilting
from tiltcell.algebra import Morphism, direct_sum, hom_space
from tiltcell.docio import catalog_document
from tiltcell.duality import (
    AntiInvolution,
    build_cellular_basis,
    check_standard_duality,
    fixed_point_data,
    fixed_point_for_tilting,
)
from tiltcell.errors import ConstructionDiverged, NothingToDo, UnidentifiedSummand
from tiltcell.highest_weight import (
    Registry,
    WeightPoset,
    ext1_dim,
    filtration_multiplicity,
)
from tiltcell.linalg import vstack
from tiltcell.tilting import (
    TiltingRegistry,
    indecomposable_tilting,
    tilting_summands,
    tilting_support,
    universal_extension,
)

from oracles import (
    delta_filtration,
    is_isomorphic,
    is_tilting,
    ks_tilting_support,
    nabla_filtration,
)
from test_schur import F3, Q, schur_algebra, schur_pipeline


EXPECTED_DIMS = {
    "trivial": {"1": 1},
    "semisimple2": {"1": 1, "2": 1},
    "a2path": {"1": 2, "2": 1},
    "auslander-dualnumbers": {"1": 3, "2": 1},
    "ut3": {"1": 1, "2": 2, "3": 3},
}


def test_tilting_dimensions(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        assert {lab: tilt.module(lab).dim for lab in reg.poset.labels} == EXPECTED_DIMS[name]


def test_triple_properties(pipelines):
    for name, (doc, reg, tilt) in pipelines.items():
        F = doc.field
        for lab in reg.poset.labels:
            tr = tilt.triple(lab)
            assert tr.i.is_injective()
            assert tr.pi.is_surjective()
            assert not tr.c.is_zero()
            first = next(x for row in tr.c.matrix.entries for x in row if x != F.zero())
            assert first == F.one()
            # highest weight: factors bounded by the label, top multiplicity 1
            assert reg.mult(tr.module, lab) == 1
            for mu in reg.factor_labels(tr.module):
                assert reg.poset.leq(mu, lab)


def test_hom_spaces_one_dimensional(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        for lab in reg.poset.labels:
            assert len(hom_space(reg.standard(lab), tilt.module(lab))) == 1
            assert len(hom_space(tilt.module(lab), reg.costandard(lab))) == 1


def test_hom_direction_properties(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        for lam in reg.poset.labels:
            for mu in reg.poset.labels:
                if hom_space(reg.standard(lam), tilt.module(mu)):
                    assert reg.poset.leq(lam, mu), (name, lam, mu)
                if hom_space(tilt.module(mu), reg.costandard(lam)):
                    assert reg.poset.leq(lam, mu), (name, lam, mu)


def test_standard_multiplicities_in_tilting(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        for lam in reg.poset.labels:
            t = tilt.module(lam)
            assert filtration_multiplicity(reg, t, lam, "standard") == 1
            for mu in reg.poset.labels:
                if filtration_multiplicity(reg, t, mu, "standard"):
                    assert reg.poset.leq(mu, lam)


def test_tiltings_are_bifiltered(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        for lab in reg.poset.labels:
            t = tilt.module(lab)
            delta_filtration(reg, t)
            nabla_filtration(reg, t)
            ok, report = is_tilting(reg, t)
            assert ok, (name, lab, report)


def test_is_tilting_rejects_nontilting():
    doc = catalog_document("ut3")
    reg = Registry(doc.algebra, doc.poset)
    ok, report = is_tilting(reg, reg.simple("2"))
    assert not ok
    assert any(left or right for left, right in report.values())


def test_sum_of_tiltings_is_tilting(pipelines):
    doc, reg, tilt = pipelines["a2path"]
    both, _, _ = direct_sum([tilt.module("1"), tilt.module("2"), tilt.module("1")])
    ok, _ = is_tilting(reg, both)
    assert ok


def test_universal_extension_nothing_to_do(pipelines):
    _, reg, tilt = pipelines["a2path"]
    with pytest.raises(NothingToDo):
        universal_extension(reg, tilt.module("1"), "2")


def test_universal_extension_builds_the_2dim_indecomposable():
    # with the opposite order the standard modules are simple and the
    # extension of the lower one over the higher is the projective
    doc = catalog_document("a2path")
    poset = WeightPoset(["1", "2"], [("1", "2")])
    reg = Registry(doc.algebra, poset)
    x = reg.standard("2")
    assert x.dim == 1
    assert ext1_dim(reg, reg.standard("1"), x) == 1
    bigger, incl = universal_extension(reg, x, "1")
    assert bigger.dim == 2
    assert incl.is_injective()
    assert ext1_dim(reg, reg.standard("1"), bigger) == 0
    w = is_isomorphic(bigger, reg.projective("1"))
    assert w is not None


def test_universal_extension_post_condition_replayed(pipelines):
    # every invocation kills the extension group it was asked to kill
    doc = catalog_document("auslander-dualnumbers")
    poset = WeightPoset(["1", "2"], [("2", "1")])
    reg = Registry(doc.algebra, poset)
    x = reg.standard("1")
    d = ext1_dim(reg, reg.standard("2"), x)
    assert d == 1
    bigger, _ = universal_extension(reg, x, "2")
    assert ext1_dim(reg, reg.standard("2"), bigger) == 0
    assert bigger.dim == x.dim + d * reg.standard("2").dim


def test_dimension_bound_triggers():
    doc = catalog_document("auslander-dualnumbers")
    reg = Registry(doc.algebra, doc.poset)
    with pytest.raises(ConstructionDiverged):
        indecomposable_tilting(reg, "1", dim_bound=2)


def test_rebuild_with_other_rng_isomorphic(pipelines):
    _, reg, tilt = pipelines["auslander-dualnumbers"]
    rebuilt = indecomposable_tilting(reg, "1")
    w = is_isomorphic(rebuilt.module, tilt.module("1"))
    assert w is not None
    # the construction draws no randomness: the rebuild is the same module
    assert rebuilt.module.dim == tilt.module("1").dim
    assert ([a.entries for a in rebuilt.module.action]
            == [a.entries for a in tilt.module("1").action])


def test_tilting_support(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        labels = list(reg.poset.labels)
        char, _, _ = direct_sum([tilt.module(lab) for lab in labels])
        assert tilting_support(tilt, char) == {lab: 1 for lab in labels}
        doubled, _, _ = direct_sum([tilt.module(labels[0])] * 2)
        assert tilting_support(tilt, doubled) == {labels[0]: 2}


def test_tilting_support_rejects_foreign_summand(pipelines):
    _, reg, tilt = pipelines["ut3"]
    # P(2) is not tilting for ut3's order (Delta(2) has a standard filtration
    # but the simple head side fails); feeding a non-tilting summand in
    with pytest.raises(UnidentifiedSummand):
        tilting_support(tilt, reg.simple("2"))


def test_universal_extension_multiple_classes_at_once():
    # two independent extension classes glued in one step
    doc = catalog_document("a2path")
    poset = WeightPoset(["1", "2"], [("1", "2")])
    reg = Registry(doc.algebra, poset)
    x, _, _ = direct_sum([reg.standard("2"), reg.standard("2")])
    assert ext1_dim(reg, reg.standard("1"), x) == 2
    bigger, incl = universal_extension(reg, x, "1")
    assert bigger.dim == x.dim + 2 * reg.standard("1").dim
    assert incl.is_injective()
    assert ext1_dim(reg, reg.standard("1"), bigger) == 0
    # the result is standard-filtered with the expected factor multiset
    w = delta_filtration(reg, bigger)
    assert sorted(w.factor_labels) == ["1", "1", "2", "2"]


# -- a tilting module split into its T(label) -----------------------------------


def sums_of_tiltings(tilt, labels):
    """Permuted, repeated and nested direct sums of the T(label)."""
    mods = [tilt.module(lab) for lab in labels]
    twice = direct_sum(mods[:1] * 2)[0]
    return {"permuted": direct_sum(mods[::-1])[0],
            "repeated": direct_sum(mods + mods[:1])[0],
            "nested": direct_sum([twice, direct_sum(mods[::-1])[0], mods[-1]])[0]}


def tilting_cases(pipelines):
    for name, (_, reg, tilt) in pipelines.items():
        for kind, t in sums_of_tiltings(tilt, reg.poset.labels).items():
            yield f"{name}-{kind}", tilt, t
    for r, field in [(3, Q), (3, F3), (4, Q), (4, F3)]:
        yield f"S(2,{r})-{field!r}", schur_pipeline(field, r)[1], schur_algebra(field, r)[1]


def test_summands_match_the_krull_schmidt_support(pipelines):
    # the parts of a sum, or a Krull-Schmidt split of V^{⊗r}, give the
    # support a split of the whole module gives; each q is an epimorphism
    # onto its T(label) and the q's stacked are invertible
    for case, tilt, t in tilting_cases(pipelines):
        summands = tilting_summands(tilt, t)
        assert tilting_support(tilt, t) == ks_tilting_support(tilt, t), case
        for lab, q in summands:
            Morphism(t, tilt.module(lab), q.matrix, check=True)
            assert q.target is tilt.module(lab) and q.is_surjective(), case
        assert vstack([q.matrix for _, q in summands]).is_invertible(), case


def test_summands_of_a_sum_make_no_krull_schmidt_split(pipelines, monkeypatch):
    # a sum is read off its parts and a T(label) is itself, q = 1; fresh
    # registries, so that no split an earlier test made is remembered
    tilts = {name: TiltingRegistry(reg) for name, (_, reg, _) in pipelines.items()}
    calls = []
    monkeypatch.setattr(tilting, "krull_schmidt", lambda m: calls.append(m) or [])
    for name, tilt in tilts.items():
        labels = tilt.base.poset.labels
        for kind, t in sums_of_tiltings(tilt, labels).items():
            assert tilting_support(tilt, t) == ks_tilting_support(pipelines[name][2], t)
        for lab in labels:
            [(got, q)] = tilting_summands(tilt, tilt.module(lab))
            assert got == lab and q.matrix == Morphism.identity(tilt.module(lab)).matrix
    assert calls == []


def fixed_point_form(tilt, tau, t):
    duality = fixed_point_data(check_standard_duality(tilt, tau))
    return fixed_point_for_tilting(duality, t)


def test_fixed_point_form_on_a_permuted_sum(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = AntiInvolution(doc.algebra, doc.anti_involution)
    t = sums_of_tiltings(tilt, reg.poset.labels)["permuted"]
    psi = fixed_point_form(tilt, tau, t)
    assert psi.matrix == psi.matrix.transpose() and psi.matrix.is_invertible()
    assert all(build_cellular_basis(tilt, t, tau)[3].values())


@pytest.mark.parametrize("r, field", [(3, Q), (3, F3)], ids=["r3-Q", "r3-F3"])
def test_fixed_point_form_on_the_tensor_power(r, field):
    _, tensor, tau, _ = schur_algebra(field, r)
    tilt = schur_pipeline(field, r)[1]
    psi = fixed_point_form(tilt, tau, tensor)
    assert psi.matrix == psi.matrix.transpose() and psi.matrix.is_invertible()
    assert all(build_cellular_basis(tilt, tensor, tau)[3].values())
