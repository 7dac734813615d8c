"""End(T) off its summands: Hom into and out of a direct sum read block by
block, the coordinates of a product of two End(M) basis elements read at
the coordinate map's pivots, and an eigenvalue read off the trace.  Each
reading is checked against the route it replaced: the solved hom basis
(`_hom_basis`), the product formed whole and the characteristic-polynomial
eigenvalue (`oracles.full_product_coords`,
`oracles.charpoly_idempotent_from_element`)."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tiltcell import algebra as algebra_module
from tiltcell import linalg, poly
from tiltcell.algebra import (
    AlgebraPresentation,
    EndAlgebra,
    ModuleRep,
    _hom_basis,
    _idempotent_from_element,
    direct_sum,
    hom_space,
)
from tiltcell.cells import CellData
from tiltcell.docio import catalog_document
from tiltcell.highest_weight import Registry
from tiltcell.linalg import Field, Matrix, block_diag
from tiltcell.standard_basis import build_standard_basis, finalize_datum
from tiltcell.tilting import TiltingRegistry, tilting_support

from conftest import GOOD_CATALOG
from oracles import charpoly_idempotent_from_element, full_product_coords
from test_algebra import bare_endomorphism
from test_schur import schur_algebra
from test_stress import auslander_algebra, chain_poset

Q, F2, F3, F5, F10007 = Field(), Field(2), Field(3), Field(5), Field(10007)


def fresh(algebra):
    """A copy of a presentation with empty memos, so that nothing an earlier
    test computed on the cached one is reused."""
    return AlgebraPresentation(algebra.field, algebra.dim, algebra.table, algebra.unit,
                               name=algebra.name, check=False)


def build(kind, field, size):
    """(Registry, TiltingRegistry, T) from scratch: T = the sum of the
    indecomposable tilting modules (catalog, Auslander algebra of K[x]/x^n)
    or V^{⊗r} (S(2, r))."""
    if kind == "catalog":
        doc = catalog_document(size, None if field == Q else f"Fp {field.p}")
        reg = Registry(doc.algebra, doc.poset)
    elif kind == "auslander":
        reg = Registry(fresh(auslander_algebra(field, size)), chain_poset(size))
    else:
        algebra, tensor, _, poset = schur_algebra(field, size)
        reg = Registry(fresh(algebra), poset)
        tilt = TiltingRegistry(reg)
        return reg, tilt, ModuleRep(reg.algebra, tensor.dim, tensor.action, check=False)
    tilt = TiltingRegistry(reg)
    return reg, tilt, direct_sum([tilt.module(lab) for lab in reg.poset.labels])[0]


CASES = ([pytest.param("catalog", Q, name, id=f"{name}-Q") for name in GOOD_CATALOG]
         + [pytest.param("auslander", field, n, id=f"auslander{n}-{field!r}")
            for field in (Q, F2, F10007) for n in range(2, 6)]
         + [pytest.param("schur", field, r, id=f"schur{r}-{field!r}")
            for field in (Q, F3) for r in range(2, 6)])


def outcome(pair):
    """(idempotent's matrix or None, eigenvalue or None)."""
    e, chi = pair
    return None if e is None else e.matrix, chi


def perturbed(datum):
    """The datums of `test_standard_basis.perturbed_datums` on one datum's
    cells: the (0, 0) cell of a label gains that of another, re-certified."""
    for low in datum.order:
        for high in datum.order:
            if low != high:
                other = build_standard_basis(datum.tilt, datum.module, seed=0)
                other.cells[low][0][0] = other.cells[low][0][0] + other.cells[high][0][0]
                yield finalize_datum(other)


@pytest.mark.parametrize("kind, field, size", CASES)
def test_products_and_eigenvalues_match_the_routes_they_replace(kind, field, size, monkeypatch):
    # every EndAlgebra the pipeline builds (the datums' End(T) and every
    # Krull-Schmidt local certificate) reads each product of two basis
    # elements as the product formed whole does, and every endomorphism the
    # idempotent sweep tries gives what the characteristic polynomial gives
    ends, sweeps = [], []
    init, split = EndAlgebra.__init__, _idempotent_from_element

    def recorded(E, module, basis=None):
        init(E, module, basis)
        ends.append(E)

    def compared(E, phi):
        got = split(E, phi)
        assert outcome(got) == outcome(charpoly_idempotent_from_element(E, phi))
        sweeps.append(got[1])
        return got

    monkeypatch.setattr(EndAlgebra, "__init__", recorded)
    monkeypatch.setattr(algebra_module, "_idempotent_from_element", compared)
    reg, tilt, T = build(kind, field, size)
    datums = [build_standard_basis(tilt, T, seed=seed) for seed in (0, 3)]
    # the seeded datum is not walked: over Q the walk's closure swells at
    # seeded lifts
    CellData(datums[0])
    tilting_support(tilt, T)
    if kind == "catalog":
        datums += list(perturbed(datums[0]))
    assert all(d.end in ends for d in datums)
    for E in ends:
        for a in range(E.dim):
            for b in range(E.dim):
                assert E.product(a, b) == full_product_coords(E, a, b), (kind, size, a, b)
    assert sweeps or kind == "catalog"


def test_the_trace_reads_eigenvalues_on_the_pipeline(monkeypatch):
    # the trace step answers on the pipeline's local certificates, and
    # then the characteristic polynomial is not taken
    read, charpolys = [], []
    sole, charpoly = linalg.sole_eigenvalue, poly.charpoly
    monkeypatch.setattr(algebra_module, "sole_eigenvalue",
                        lambda m: read.append(sole(m)) or read[-1])
    monkeypatch.setattr(poly, "charpoly", lambda m: charpolys.append(m) or charpoly(m))
    _, tilt, T = build("auslander", F10007, 3)
    tilting_support(tilt, T)
    hits = [r for r in read if r is not None]
    assert hits and len(charpolys) == len(read) - len(hits)


# -- the trace step on conjugated matrices --------------------------------------

FIELDS = [F2, F3, F5, F10007, Q]


@st.composite
def conjugated_eigenvalue_blocks(draw):
    """(P J P^-1, the eigenvalues of J) for J = r.1 + N, or diag(r.1 + N,
    s.1 + M) with r != s, N and M strictly upper triangular, P = L U with
    unit triangular L and U.  n is at most 6, so p | n occurs over F_2, F_3
    and F_5."""
    F = draw(st.sampled_from(FIELDS))
    scalars = st.integers(-3, 3).map(F.of)
    sizes = [draw(st.integers(1, 6))]
    if sizes[0] < 6 and draw(st.booleans()):
        sizes.append(draw(st.integers(1, 6 - sizes[0])))
    evs = draw(st.lists(scalars, min_size=len(sizes), max_size=len(sizes), unique=True))
    blocks = []
    for ev, size in zip(evs, sizes):
        upper = draw(st.lists(scalars, min_size=size * size, max_size=size * size))
        blocks.append(Matrix(F, [[ev if r == c else upper[r * size + c] if c > r else F.zero()
                                  for c in range(size)] for r in range(size)]))
    J = block_diag(blocks)
    n = J.rows
    entries = st.sampled_from([0, 0, 1, -1, 2]).map(F.of)
    low = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    up = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    L = Matrix(F, [[F.one() if r == c else low[r * n + c] if c < r else F.zero()
                    for c in range(n)] for r in range(n)])
    U = Matrix(F, [[F.one() if r == c else up[r * n + c] if c > r else F.zero()
                    for c in range(n)] for r in range(n)])
    P = L @ U
    return P @ J @ P.inverse(), evs


@settings(max_examples=200, deadline=None)
@given(conjugated_eigenvalue_blocks())
def test_trace_step_matches_the_charpoly_route(case):
    # the same idempotent or eigenvalue; the trace reads r exactly when phi
    # has the one eigenvalue r and char K does not divide n
    mat, evs = case
    F, n = mat.field, mat.rows
    divides = F.p is not None and n % F.p == 0
    event(f"{F!r}, {len(evs)} eigenvalue(s), char divides n: {divides}")
    E, phi = bare_endomorphism(mat)
    assert outcome(_idempotent_from_element(E, phi)) == outcome(
        charpoly_idempotent_from_element(E, phi))
    want = evs[0] if len(evs) == 1 and not divides else None
    assert linalg.sole_eigenvalue(mat) == want


def test_trace_step_enumerates_no_divisors():
    # r = 2.3.5...29: the rational root search would enumerate the divisors
    # of r^3; the trace reads r with no characteristic polynomial taken
    r = 6469693230
    mat = Matrix(Q, [[r, 5, -7], [0, r, 11], [0, 0, r]])
    E, phi = bare_endomorphism(mat)

    def refused(*args):
        raise AssertionError("the characteristic polynomial route was taken")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "charpoly", refused)
        mp.setattr(poly, "linear_roots", refused)
        e, chi = _idempotent_from_element(E, phi)
    assert e is None and chi == r and type(chi) is int


# -- Hom into and out of a direct sum, block by block ---------------------------

SUM_CASES = [pytest.param(name, field, id=f"{name}-{field!r}")
             for name in ("a2path", "auslander-dualnumbers", "ut3") for field in (Q, F2, F10007)]


@pytest.mark.parametrize("name, field", SUM_CASES)
def test_blockwise_hom_matches_the_solver(name, field):
    # T, T(l)^2 + T(m) (a tilting request with multiplicity) and P(l) + T(m)
    # (a projective block), on either side or both, and against the
    # indecomposables: the basis read block by block is the solved one,
    # entry for entry and as printed
    reg, tilt, T = build("catalog", field, name)
    labels = reg.poset.labels
    lam, mu = labels[0], labels[-1]
    doubled = direct_sum([tilt.module(lam)] * 2 + [tilt.module(mu)])[0]
    with_projective = direct_sum([reg.projective(lam), tilt.module(mu)])[0]
    sums = [T, doubled, with_projective]
    assert all(s.action.parts for s in sums)
    others = [tilt.module(lam), reg.standard(mu), reg.costandard(lam)]
    compared = 0
    for m in sums + others:
        for n in sums + others:
            if m in others and n in others:
                continue
            got = [f.matrix for f in hom_space(m, n)]
            want = list(_hom_basis(m, n))
            assert got == want and [str(g) for g in got] == [str(g) for g in want], (m, n)
            compared += bool(got)
    assert compared > 10


@pytest.mark.parametrize("kind, field, size", [("catalog", Q, "ut3"), ("auslander", F10007, 3),
                                               ("auslander", Q, 4)])
def test_basis_and_support_solve_no_hom_system_on_the_sum(kind, field, size, monkeypatch):
    # End(T), the lift spaces and Hom(Delta, T), Hom(T, Nabla) are read off
    # T's summands, and T's support off its parts: no system is solved with
    # T's content on either side
    solved = []
    hom_basis = algebra_module._hom_basis
    monkeypatch.setattr(algebra_module, "_hom_basis",
                        lambda m, n: solved.append((m.action, n.action)) or hom_basis(m, n))
    reg, tilt, T = build(kind, field, size)
    solved.clear()
    datum = build_standard_basis(tilt, T, seed=0)
    assert tilting_support(tilt, T) == dict.fromkeys(reg.poset.labels, 1)
    assert datum.dim() == len(hom_space(T, T))
    assert not [pair for pair in solved if T.action in pair]
    # the spy sees a solve: a conjugate of the largest summand has content
    # of its own, so Hom out of it is solved, on a pair without T's content
    big = max((tilt.module(lab) for lab in reg.poset.labels), key=lambda m: m.dim)
    g = Matrix(field, [[field.one() if c >= r else field.zero() for c in range(big.dim)]
                       for r in range(big.dim)])
    twin = ModuleRep(reg.algebra, big.dim, [g @ a @ g.inverse() for a in big.action])
    ends = len(hom_space(big, big))
    solved.clear()
    assert len(hom_space(twin, big)) == ends
    assert solved == [(twin.action, big.action)] and T.action not in solved[0]


def test_a_sum_of_one_module_is_not_recorded():
    # its content is the module's own, which would send hom_space into itself
    reg, tilt, _ = build("catalog", Q, "a2path")
    zero = ModuleRep(reg.algebra, 0, [Matrix.zeros(Q, 0, 0)] * reg.algebra.dim, check=False)
    for mods in ([tilt.module("1")], [tilt.module("1"), zero]):
        total = direct_sum(mods)[0]
        assert not total.action.parts
        assert len(hom_space(total, total)) == len(_hom_basis(total, total))


# -- what stands in for the membership check a pivot reading skips -------------

@pytest.mark.parametrize("kind, field, size", CASES)
def test_every_cell_intertwines_the_generators(kind, field, size):
    # a product of two cells lies in End(T) because each cell is an
    # intertwiner; the cells of the certified datums are checked here, not
    # at run time
    _, tilt, T = build(kind, field, size)
    for seed in (0, 3):
        for cell in build_standard_basis(tilt, T, seed=seed).end.basis:
            cell.check_intertwines()
