import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcell import algebra as algebra_module
from tiltcell import highest_weight
from tiltcell.algebra import (
    AlgebraPresentation,
    ModuleRep,
    direct_sum,
    hom_space,
    module_radical,
    quotient_rep,
    submodule_generated,
    submodule_rep,
)
from tiltcell.docio import catalog_document, catalog_names
from tiltcell.errors import AxiomViolation, InputError, TheoremViolation
from tiltcell.highest_weight import (
    Registry,
    WeightPoset,
    ext1_dim,
    ext1_with_classes,
    ext2_dim,
    filtration_multiplicity,
    projective_cover,
    syzygy,
    verify_standard_category,
)
from tiltcell.linalg import Subspace
from tiltcell.tilting import TiltingRegistry

from conftest import GOOD_CATALOG
from oracles import (
    NoFiltration,
    costandard_incl,
    cover_route_ext_dims,
    delta_filtration,
    ext1_witness_factor,
    image,
    injective,
    is_isomorphic,
    maximal_among,
    nabla_filtration,
    opposite_projective,
    projective_cover_greedy,
    solved_homs,
    span_sum,
    subquotient,
)
from test_schur import F2, F3, schur_algebra
from test_standard_basis import assert_same_entries, auslander3_pipeline
from test_stress import F10007, Q, auslander_algebra, chain_poset


def build(name):
    doc = catalog_document(name)
    return doc, Registry(doc.algebra, doc.poset)


def a2_with_order(covers):
    doc = catalog_document("a2path")
    poset = WeightPoset(["1", "2"], covers)
    return Registry(doc.algebra, poset)


# -- poset ----------------------------------------------------------------------

def test_poset_validation():
    with pytest.raises(InputError):
        WeightPoset(["a", "a"], [])
    with pytest.raises(InputError):
        WeightPoset(["a", "b"], [("a", "c")])
    with pytest.raises(InputError):
        WeightPoset(["a", "b"], [("a", "b"), ("b", "a")])
    p = WeightPoset(["c", "a", "b"], [("a", "b")])
    assert p.lt("a", "b") and not p.lt("b", "a") and not p.lt("a", "c")
    assert p.linear_extension == ("a", "b", "c")


def test_poset_transitive_closure_and_maximal():
    p = WeightPoset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    assert p.lt("1", "3")
    assert maximal_among(p, ["1", "2", "3"]) == "3"
    q = WeightPoset(["x", "y"], [])
    # incomparable: tie broken by linear extension position
    assert maximal_among(q, ["x", "y"]) == "y"


def reference_below(labels, covers):
    """Strictly-below sets by depth-first search down the cover relations."""
    down = {x: [a for a, b in covers if b == x] for x in labels}

    def below(x, seen):
        for a in down[x]:
            if a not in seen:
                seen.add(a)
                below(a, seen)
        return seen

    return {x: below(x, set()) for x in labels}


random_dags = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.permutations([str(k) for k in range(n)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)))


@settings(max_examples=80, deadline=None)
@given(random_dags)
def test_poset_closure_matches_reference(dag):
    # edges run forward along a random permutation, so the covers are acyclic
    labels, pairs = dag
    covers = [(labels[a], labels[b]) for a, b in pairs if a < b]
    p = WeightPoset(labels, covers)
    below = reference_below(labels, covers)
    for a in labels:
        for b in labels:
            assert p.lt(a, b) == (a in below[b])
    pos = {x: i for i, x in enumerate(p.linear_extension)}
    assert all(pos[a] < pos[b] for a, b in covers)
    if covers:
        # closing any cover path back on itself is a cycle
        a, b = covers[0]
        with pytest.raises(InputError, match="cycle"):
            WeightPoset(labels, covers + [(b, a)])


# -- registry construction --------------------------------------------------------

def test_registry_label_count_mismatch():
    doc = catalog_document("a2path")
    with pytest.raises(InputError):
        Registry(doc.algebra, WeightPoset(["only"], []))


def test_standard_costandard_dims_catalog():
    expected = {
        "trivial": {"1": (1, 1)},
        "semisimple2": {"1": (1, 1), "2": (1, 1)},
        "a2path": {"1": (2, 1), "2": (1, 1)},
        "auslander-dualnumbers": {"1": (2, 2), "2": (1, 1)},
        "ut3": {"1": (1, 1), "2": (2, 1), "3": (3, 1)},
    }
    for name, dims in expected.items():
        _, reg = build(name)
        got = {lab: (reg.standard(lab).dim, reg.costandard(lab).dim)
               for lab in reg.poset.labels}
        assert got == dims, name


def test_semisimple_standard_equals_simple():
    _, reg = build("semisimple2")
    for lab in reg.poset.labels:
        assert reg.standard(lab).dim == reg.simple(lab).dim == 1
        assert reg.costandard(lab).dim == 1


def test_a2_poset_is_input_both_orders_pass():
    # the quasi-hereditary structure depends on the chosen order; both work
    reg_a = a2_with_order([("2", "1")])
    assert verify_standard_category(reg_a).ok
    assert reg_a.standard("1").dim == 2  # the full projective
    reg_b = a2_with_order([("1", "2")])
    assert verify_standard_category(reg_b).ok
    assert reg_b.standard("1").dim == 1
    assert reg_b.costandard("2").dim == 2  # the full injective


def test_costandard_mirrors_opposite_standard():
    reg = a2_with_order([("2", "1")])
    # costandard dims = standard dims of the opposite algebra (dualized)
    assert [reg.costandard(l).dim for l in ("1", "2")] == [1, 1]
    for lab in ("1", "2"):
        nab = reg.costandard(lab)
        incl = costandard_incl(reg, lab)
        assert incl.is_injective()
        from tiltcell.algebra import module_socle

        assert module_socle(nab).dim == reg.simple(lab).dim


def reference_standardize(reg, algebra, proj_of, label):
    """The hom route `Registry._standardize` took before it read the trace
    off the idempotents: the images of every map P(mu) -> rad P, mu not
    below label, from one hom solve per mu."""
    P = proj_of[label]
    rad_mod, rad_incl = submodule_rep(P, module_radical(P))
    gens = []
    for mu in reg.poset.not_below(label):
        for f in hom_space(proj_of[mu], rad_mod):
            gens.extend((rad_incl @ f).matrix.transpose().entries)
    U = submodule_generated(P, gens) if gens else Subspace.zero(algebra.field, P.dim)
    quot, proj_morph, _ = quotient_rep(P, U)
    return quot, proj_morph


def standardize_cases():
    for field in (None, "Fp 3"):
        for name in GOOD_CATALOG:
            doc = catalog_document(name, field)
            yield f"{name}-{field or 'Q'}", doc.algebra, doc.poset
    for field in (Q, F2, F10007):
        yield f"auslander3-{field!r}", auslander_algebra(field, 3), chain_poset(3)
    yield "auslander4-F10007", auslander_algebra(F10007, 4), chain_poset(4)
    for field in (Q, F3):
        algebra, _, _, poset = schur_algebra(field, 3)
        yield f"S(2,3)-{field!r}", algebra, poset


@pytest.mark.parametrize("case", list(standardize_cases()), ids=lambda c: c[0])
def test_standard_modules_match_hom_route_reference(case):
    _, algebra, poset = case
    reg = Registry(algebra, poset)
    proj_of = {lab: reg.data[lab].projective for lab in poset.labels}
    proj_op = {lab: opposite_projective(reg, lab) for lab in poset.labels}
    for lab in poset.labels:
        d = reg.data[lab]
        delta, proj = reference_standardize(reg, algebra, proj_of, lab)
        assert_same_entries(d.standard_proj.matrix, proj.matrix)
        for got, want in zip(d.standard.action, delta.action):
            assert_same_entries(got, want)
        delta_op, proj_op_morph = reference_standardize(reg, reg.opposite, proj_op, lab)
        assert_same_entries(costandard_incl(reg, lab).matrix, proj_op_morph.matrix.transpose())
        for got, want in zip(d.costandard.action, delta_op.action):
            assert_same_entries(got, want.transpose())


def test_registry_solves_no_hom_system_for_standard_modules(monkeypatch):
    """A Registry solves no hom system: the standard modules are cut out by
    the idempotents, the projective summands are split and grouped through
    A's own product, and each simple L has End(L) = K because the split
    certified End(P)/rad End(P) = K for its projective cover P."""
    calls = []
    hom = algebra_module.hom_space
    monkeypatch.setattr(algebra_module, "hom_space", lambda m, n: calls.append((m, n)) or hom(m, n))
    monkeypatch.setattr(highest_weight, "hom_space", algebra_module.hom_space)
    for _, algebra, poset in standardize_cases():
        Registry(algebra, poset)
        assert calls == []


def test_verify_passes_on_good_catalog(pipelines):
    for name, (_, reg, _) in pipelines.items():
        rep = verify_standard_category(reg)
        assert rep.ok, (name, rep.first_violation)


def test_verify_fails_on_dualnumbers():
    _, reg = build("dualnumbers")
    rep = verify_standard_category(reg)
    assert not rep.ok
    name, lam, mu, _ = rep.first_violation
    assert lam == "1" and mu == "1"
    with pytest.raises(AxiomViolation):
        rep.raise_if_failed()
    # extension witness: the unique simple extends itself
    assert ext1_witness_factor(reg, reg.standard("1"), reg.costandard("1")) == "1"


def test_hom_delta_nabla_diagonal(pipelines):
    for name, (_, reg, _) in pipelines.items():
        for lam in reg.poset.labels:
            for mu in reg.poset.labels:
                d = len(hom_space(reg.standard(lam), reg.costandard(mu)))
                assert d == (1 if lam == mu else 0), (name, lam, mu)


# -- ext groups -------------------------------------------------------------------

def test_ext1_projective_vanishes():
    _, reg = build("a2path")
    for lab in reg.poset.labels:
        P = reg.projective(lab)
        for mu in reg.poset.labels:
            assert ext1_dim(reg, P, reg.simple(mu)) == 0


def test_ext1_arrow_direction():
    _, reg = build("a2path")
    # one extension of L(1) by L(2) (the projective), none the other way
    assert ext1_dim(reg, reg.simple("1"), reg.simple("2")) == 1
    assert ext1_dim(reg, reg.simple("2"), reg.simple("1")) == 0


def test_ext1_middle_term_exactness():
    _, reg = build("a2path")
    d, cocycles, build_middle = ext1_with_classes(reg, reg.simple("1"), reg.simple("2"))
    assert d == 1
    middle, incl, proj, msum = build_middle(cocycles)
    assert middle.dim == 2
    assert incl.is_injective() and proj.is_surjective()
    assert (proj @ incl).is_zero()
    assert image(incl) == proj.kernel()
    # the middle term of the nonsplit extension is the projective cover
    w = is_isomorphic(middle, reg.projective("1"))
    assert w is not None


def test_ext2_vanishes_on_hereditary():
    _, reg = build("a2path")
    for lam in reg.poset.labels:
        for mu in reg.poset.labels:
            assert ext2_dim(reg, reg.simple(lam), reg.simple(mu)) == 0


def test_ext2_nonzero_dual_numbers():
    _, reg = build("dualnumbers")
    L = reg.simple("1")
    assert ext1_dim(reg, L, L) == 1
    assert ext2_dim(reg, L, L) == 1  # periodic resolution


def test_ext1_witness_none_when_vanishing():
    _, reg = build("a2path")
    assert ext1_witness_factor(reg, reg.projective("1"), reg.simple("2")) is None


def test_ext1_witness_replay():
    _, reg = build("ut3")
    # L(2) has an extension against Nabla(1) = L(1)
    w = ext1_witness_factor(reg, reg.simple("2"), reg.costandard("1"))
    assert w is not None
    assert ext1_dim(reg, reg.simple(w), reg.costandard("1")) > 0


def reference_cocycles(reg, m, n):
    """The cocycles ext1_with_classes chose before one elimination: greedily,
    each hom that enlarges the span of the coboundaries and of the homs
    chosen so far."""
    F = reg.algebra.field
    omega, incl_omega, P0, _ = syzygy(reg, m)
    homs_omega = hom_space(omega, n)
    if not homs_omega:
        return []
    width = n.dim * omega.dim
    span = Subspace.from_rows(F, width, [(h @ incl_omega).matrix.flat()
                                         for h in hom_space(P0, n)])
    chosen = []
    for h in homs_omega:
        cand = span_sum(span, Subspace.from_rows(F, width, [h.matrix.flat()]))
        if cand.dim > span.dim:
            span = cand
            chosen.append(h)
    return chosen


@pytest.mark.parametrize("field", [None, Q, F10007], ids=["catalog", "auslander3-Q", "auslander3-F10007"])
def test_ext1_cocycles_match_greedy_reference(pipelines, field):
    if field is None:
        regs = [reg for _, reg, _ in pipelines.values()]
    else:
        regs = [auslander3_pipeline(field)[0]]
    nonzero = 0
    for reg in regs:
        mods = [mod for lab in reg.poset.labels
                for mod in (reg.standard(lab), reg.costandard(lab), reg.simple(lab))]
        for m in mods:
            for n in mods:
                d, chosen, _ = ext1_with_classes(reg, m, n)
                want = reference_cocycles(reg, m, n)
                assert d == len(chosen)
                assert [h.matrix for h in chosen] == [h.matrix for h in want]
                nonzero += d > 0
    assert nonzero > 0


def test_ext1_memo_returns_the_callers_modules(monkeypatch):
    # a second call on modules of equal content solves nothing, and its
    # cocycles and middle term are built on the second caller's modules
    _, reg = build("a2path")
    m, n = reg.simple("1"), reg.simple("2")
    d, cocycles, build_middle = ext1_with_classes(reg, m, n)
    assert ext1_with_classes(reg, n, m) == (0, [], None)
    m2, n2 = (ModuleRep(x.algebra, x.dim, x.action, check=False) for x in (m, n))
    calls = []
    solve = highest_weight.hom_space
    monkeypatch.setattr(highest_weight, "hom_space", lambda a, b: calls.append(1) or solve(a, b))
    d2, cocycles2, build_middle2 = ext1_with_classes(reg, m2, n2)
    assert calls == [] and d2 == d == 1
    assert [c.matrix for c in cocycles2] == [c.matrix for c in cocycles]
    assert all(c.target is n2 for c in cocycles2) and all(c.target is n for c in cocycles)
    _, incl, proj, msum = build_middle2(cocycles2)
    assert incl.source is n2 and proj.target is msum
    assert [a.entries for a in msum.action] == [a.entries for a in m2.action]
    _, incl, _, _ = build_middle(cocycles)
    assert incl.source is n
    # Hom(Omega(m), n) = 0 is remembered too
    assert ext1_with_classes(reg, n2, m2) == (0, [], None) and calls == []


# -- filtrations ------------------------------------------------------------------

def test_delta_filtration_standard_module_trivial_chain():
    _, reg = build("a2path")
    w = delta_filtration(reg, reg.standard("1"))
    assert w.factor_labels == ["1"]
    assert [s.dim for s in w.chain] == [0, 2]


def test_delta_filtration_projectives(pipelines):
    for name, (_, reg, _) in pipelines.items():
        for lab in reg.poset.labels:
            P = reg.projective(lab)
            w = delta_filtration(reg, P)
            for mu in reg.poset.labels:
                assert w.factor_labels.count(mu) == filtration_multiplicity(
                    reg, P, mu, "standard"), (name, lab, mu)
            # chain is strictly ascending and factor isos are invertible
            dims = [s.dim for s in w.chain]
            assert dims == sorted(set(dims))
            assert all(iso.is_invertible() for iso in w.factor_isos)


def test_delta_filtration_rejects_bad_module():
    _, reg = build("ut3")
    with pytest.raises(NoFiltration) as exc:
        delta_filtration(reg, reg.simple("2"))
    assert exc.value.label == "1"


def test_nabla_filtration_injectives():
    _, reg = build("auslander-dualnumbers")
    # dual of each opposite projective is injective, hence costandard-filtered
    for lab in reg.poset.labels:
        inj = injective(reg, lab)
        w = nabla_filtration(reg, inj)
        for mu in reg.poset.labels:
            assert w.factor_labels.count(mu) == filtration_multiplicity(
                reg, inj, mu, "costandard")


def test_filtration_closed_under_sums():
    _, reg = build("auslander-dualnumbers")
    big, _, _ = direct_sum([reg.projective("1"), reg.projective("2")])
    w = delta_filtration(reg, big)
    assert sorted(w.factor_labels) == ["1", "1", "2"]


def test_multiplicity_costandard_diagonal(pipelines):
    for name, (_, reg, _) in pipelines.items():
        for lam in reg.poset.labels:
            for mu in reg.poset.labels:
                got = filtration_multiplicity(reg, reg.costandard(lam), mu, "costandard")
                assert got == (1 if lam == mu else 0), (name, lam, mu)


def test_multiplicity_additive_over_sums():
    _, reg = build("ut3")
    a = reg.projective("3")
    b = reg.projective("2")
    both, _, _ = direct_sum([a, b])
    for mu in reg.poset.labels:
        assert (filtration_multiplicity(reg, both, mu, "standard")
                == filtration_multiplicity(reg, a, mu, "standard")
                + filtration_multiplicity(reg, b, mu, "standard"))


def test_subquotient_identifies_factors():
    _, reg = build("auslander-dualnumbers")
    P = reg.projective("2")
    w = delta_filtration(reg, P)
    for i, lab in enumerate(w.factor_labels):
        factor = subquotient(P, w.chain[i + 1], w.chain[i])
        assert factor.dim == reg.standard(lab).dim


def test_dimension_bookkeeping_all_registry_modules(pipelines):
    # multiplicities weighted by simple dimensions always add up
    for name, (_, reg, tilt) in pipelines.items():
        mods = []
        for lab in reg.poset.labels:
            d = reg.data[lab]
            mods.extend([d.simple, d.projective, d.standard, d.costandard,
                         tilt.module(lab)])
        for m in mods:
            total = sum(reg.mult(m, lab) * reg.simple(lab).dim
                        for lab in reg.poset.labels)
            assert total == m.dim


def test_head_has_zero_radical(pipelines):
    from tiltcell.algebra import module_head, module_radical

    for name, (_, reg, _) in pipelines.items():
        for lab in reg.poset.labels:
            head, _ = module_head(reg.projective(lab))
            assert module_radical(head).dim == 0


def test_injective_accessor_and_socle(pipelines):
    from tiltcell.algebra import module_socle

    for name, (_, reg, _) in pipelines.items():
        for lab in reg.poset.labels:
            inj = injective(reg, lab)
            assert inj.action == costandard_incl(reg, lab).target.action
            # socle of the injective envelope is the simple itself
            assert module_socle(inj).dim == reg.simple(lab).dim


def test_syzygy_is_computed_once_per_module_content(monkeypatch):
    # on the injectives: the Registry hands syzygy the covers of the
    # standard and simple modules, and here Nabla(2) = L(2)
    _, reg = build("auslander-dualnumbers")
    calls = []
    cover = highest_weight.projective_cover
    monkeypatch.setattr(highest_weight, "projective_cover",
                        lambda r, m: calls.append(m) or cover(r, m))
    for lab in reg.poset.labels:
        m = injective(reg, lab)
        twin = ModuleRep(m.algebra, m.dim, list(m.action), check=False)
        calls.clear()
        first, second = syzygy(reg, m), syzygy(reg, twin)
        assert calls == [m]
        # the same omega, inclusion and cover for both; each epi onto its caller
        assert first[:3] == second[:3]
        assert first[3].target is m and second[3].target is twin
        assert first[3].matrix == second[3].matrix
        P0, pi, _ = cover(reg, twin)
        omega, incl = submodule_rep(P0, pi.kernel())
        assert (first[0].action, first[1].matrix, first[2].action, first[3].matrix) == (
            omega.action, incl.matrix, P0.action, pi.matrix)


# -- Hom out of projectives and the Registry's covers ------------------------------


def fresh(algebra):
    """The same table on a presentation with empty memos, so every hom space
    out of a projective is found by the route under test."""
    return AlgebraPresentation(algebra.field, algebra.dim, algebra.table, algebra.unit,
                               name=algebra.name, check=False)


REGISTRY_CASES = (
    [pytest.param(lambda name=name: build(name)[1], id=name) for name in GOOD_CATALOG]
    + [pytest.param(lambda field=field, n=n: Registry(fresh(auslander_algebra(field, n)),
                                                      chain_poset(n)),
                    id=f"auslander{n}-{field!r}")
       for field in (Q, F2, F3, F10007) for n in (2, 3, 4)]
    + [pytest.param(lambda field=field, r=r: Registry(fresh(schur_algebra(field, r)[0]),
                                                      schur_algebra(field, r)[3]),
                    id=f"S(2,{r})-{field!r}")
       for r in (3, 4) for field in (Q, F3)])


@pytest.mark.parametrize("make_registry", REGISTRY_CASES)
def test_projective_homs_match_solved_reference(make_registry):
    # Hom(P(label), N) read off e.N equals the solved basis entry for entry,
    # for N over the simple, standard, costandard and tilting modules and
    # their syzygies
    reg = make_registry()
    tilt = TiltingRegistry(reg)
    targets = [mod for lab in reg.poset.labels for mod in (
        reg.simple(lab), reg.standard(lab), reg.costandard(lab), tilt.module(lab))]
    targets += [syzygy(reg, mod)[0] for mod in targets]
    nonzero = 0
    for lab in reg.poset.labels:
        P = reg.projective(lab)
        assert any(reg.algebra._projectives[P.action] is incl.matrix
                   for cls in algebra_module._regular_summands(reg.algebra)
                   for _, _, incl, *_ in cls)
        for n in targets:
            got = [f.matrix for f in hom_space(P, n)]
            want = solved_homs(P, n)
            assert got == want
            assert [str(g) for g in got] == [str(g) for g in want]
            nonzero += bool(got)
    assert nonzero > 0


@pytest.mark.parametrize("make_registry", REGISTRY_CASES)
def test_registry_covers_match_projective_cover(make_registry):
    # Hom(P(label), M) is one-dimensional for M = Delta(label) and L(label)
    # (the trace Delta divides by holds e_label.rad P), so the syzygy read off
    # the Registry is projective_cover's entry for entry
    reg = make_registry()
    for lab in reg.poset.labels:
        P = reg.projective(lab)
        for m in (reg.standard(lab), reg.simple(lab)):
            assert len(hom_space(P, m)) == 1
            omega, incl, P0, pi = syzygy(reg, m)
            assert P0 is P
            cover_P0, cover_pi, labels = projective_cover(reg, m)
            cover_omega, cover_incl = submodule_rep(cover_P0, cover_pi.kernel())
            assert labels == [lab]
            assert (omega.action, incl.matrix, P0.action, pi.matrix) == (
                cover_omega.action, cover_incl.matrix, cover_P0.action, cover_pi.matrix)


@pytest.mark.parametrize("name", ["dualnumbers", "auslander-dualnumbers", "ut3"])
def test_ext_dims_match_cover_route(name):
    # dualnumbers is not quasi-hereditary: its one simple extends itself in
    # degrees 1 and 2, and Delta(1) = Nabla(1) = L(1)
    _, reg = build(name)
    mods = [mod for lab in reg.poset.labels for mod in (
        reg.simple(lab), reg.standard(lab), reg.costandard(lab), reg.projective(lab))]
    nonzero = 0
    for m in mods:
        for n in mods:
            got = (ext1_dim(reg, m, n), ext2_dim(reg, m, n))
            assert got == cover_route_ext_dims(reg, m, n)
            nonzero += any(got)
    assert nonzero > 0
    if name == "dualnumbers":
        L = reg.simple("1")
        assert cover_route_ext_dims(reg, L, L) == (1, 1)


def test_projective_cover_refuses_an_uncovered_head(monkeypatch):
    # a hom space one map short leaves pi short of onto
    _, reg = build("a2path")
    L = reg.simple("1")
    m, _, _ = direct_sum([L, L])
    homs = highest_weight.hom_space
    monkeypatch.setattr(highest_weight, "hom_space",
                        lambda src, dst: homs(src, dst)[:-1] if dst is m else homs(src, dst))
    with pytest.raises(TheoremViolation, match=r"dimension 2 covers 1 of its "
                       r"2-dimensional head \(labels used: \['1'\]\)"):
        projective_cover(reg, m)


COVER_CASES = (
    [pytest.param(lambda name=name: build(name)[1], id=name) for name in catalog_names()]
    + [pytest.param(lambda field=field, n=n: Registry(auslander_algebra(field, n), chain_poset(n)),
                    id=f"auslander{n}-{field!r}")
       for field in (Q, F2) for n in (2, 3, 4)]
    + [pytest.param(lambda: Registry(*schur_algebra(Q, 3)[::3]), id="S(2,3)-Q")])


@pytest.mark.parametrize("make_registry", COVER_CASES)
def test_projective_cover_matches_greedy_reference(make_registry):
    # one elimination of all the head images chooses the maps the per-label
    # greedy sums chose, on the simples, standards, costandards and their
    # syzygies
    reg = make_registry()
    mods = [mod for lab in reg.poset.labels for mod in (
        reg.simple(lab), reg.standard(lab), reg.costandard(lab))]
    mods += [syzygy(reg, mod)[0] for mod in mods]
    for m in mods:
        P0, pi, labels = projective_cover(reg, m)
        ref_P0, ref_pi, ref_labels = projective_cover_greedy(reg, m)
        assert (P0.action, pi.matrix, labels) == (ref_P0.action, ref_pi.matrix, ref_labels)
        assert str(pi.matrix) == str(ref_pi.matrix)


def test_registry_cover_outside_the_radical_is_refused(monkeypatch):
    _, reg = build("a2path")
    delta = reg.standard("1")
    label, cover, _ = reg._covers[delta.action]
    full = Subspace.full(reg.algebra.field, reg.projective(label).dim)
    monkeypatch.setitem(reg._covers, delta.action, (label, cover, full))
    with pytest.raises(TheoremViolation, match="cover at '1' is not in rad P"):
        syzygy(reg, delta)
