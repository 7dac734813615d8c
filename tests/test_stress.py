"""End-to-end run on a 14-dimensional algebra built programmatically: the
endomorphism algebra of the direct sum of all indecomposables over K[x]/(x^3).
Exercises multiplicity-laden fibers, second syzygies, and the full pipeline
beyond the hand-sized catalog."""

import functools
import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from tiltcell import algebra as algebra_module
from tiltcell import highest_weight
from tiltcell.algebra import (
    AlgebraPresentation,
    EndAlgebra,
    ModuleRep,
    direct_sum,
    hom_space,
)
from tiltcell.cells import CellData, classify_simples, is_semisimple_endalgebra
from tiltcell.docio import parse_document
from tiltcell.highest_weight import Registry, WeightPoset, verify_standard_category
from tiltcell.linalg import Field, Matrix
from tiltcell.standard_basis import (
    build_standard_basis,
    change_of_basis_unitriangular,
    finalize_datum,
    verify_standard_axioms,
)
from tiltcell.tilting import TiltingRegistry, tilting_support

Q = Field()
F10007 = Field(10007)


@functools.cache
def auslander_x3(field):
    base = AlgebraPresentation.from_struct_consts(
        field, 3,
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
         (1, 1, 2, 1)],
        [1, 0, 0], name="K[x]/x3")

    def nil_module(d):
        rows = [[field.one() if c == r - 1 else field.zero() for c in range(d)]
                for r in range(d)]
        x = Matrix(field, rows)
        return ModuleRep(base, d, [Matrix.identity(field, d), x, x @ x])

    total, _, _ = direct_sum([nil_module(1), nil_module(2), nil_module(3)])
    pres = EndAlgebra(total).presentation
    # re-validate the generated structure constants from scratch
    return AlgebraPresentation(field, pres.dim, pres.table, pres.unit,
                               name="auslander-x3", check=True)


@functools.cache
def auslander_algebra(field, n):
    """The Auslander algebra of K[x]/x^n in closed form, with no hom solve:
    End(M_1 + ... + M_n), M_k = K[x]/x^k, on the maps b(j, k, s): M_j -> M_k
    sending 1 to x^s, max(0, k - j) <= s < k, the identities b(k, k, 0) first.
    The product is composition, b(k, l, t) b(j, k, s) = b(j, l, s + t), zero
    when s + t >= l.  Label "k" names the simple at M_k."""
    basis = [(k, k, 0) for k in range(1, n + 1)]
    basis += [(j, k, s) for j in range(1, n + 1) for k in range(1, n + 1)
              for s in range(max(0, k - j), k) if j != k or s]
    index = {b: i for i, b in enumerate(basis)}
    ents = [(a, b, index[(j, l, s + t)], 1)
            for a, (k2, l, t) in enumerate(basis) for b, (j, k, s) in enumerate(basis)
            if k2 == k and s + t < l]
    unit = [int(j == k and s == 0) for j, k, s in basis]
    return AlgebraPresentation.from_struct_consts(field, len(basis), ents, unit,
                                                  name=f"auslander-x{n}")


def chain_poset(n):
    """The order n < n-1 < ... < 1, under which the Auslander algebra is
    quasi-hereditary."""
    return WeightPoset([str(k) for k in range(1, n + 1)],
                       [(str(k + 1), str(k)) for k in range(1, n)])


@pytest.fixture(scope="module")
def nilpotent_endomorphism_algebra():
    return auslander_x3(Q)


# the same invariants over Q and over a large prime: a differential check
@pytest.mark.parametrize("field", [Q, F10007], ids=repr)
def test_stress_pipeline(field):
    A = auslander_x3(field)
    assert A.dim == 14
    reg = Registry(A, WeightPoset(["1", "2", "3"], [("3", "2"), ("2", "1")]))
    assert verify_standard_category(reg).ok
    assert [reg.projective(l).dim for l in ("1", "2", "3")] == [3, 5, 6]
    assert [reg.standard(l).dim for l in ("1", "2", "3")] == [3, 2, 1]

    tilt = TiltingRegistry(reg)
    assert {l: tilt.module(l).dim for l in ("1", "2", "3")} == {"1": 6, "2": 3, "3": 1}
    T, _, _ = direct_sum([tilt.module(l) for l in ("1", "2", "3")])
    assert len(hom_space(T, T)) == 14

    datum = build_standard_basis(tilt, T, seed=0)
    assert datum.fiber_sizes() == {"3": (3, 3), "2": (2, 2), "1": (1, 1)}
    assert verify_standard_axioms(datum, trials=6)["ok"]
    assert change_of_basis_unitriangular(datum, build_standard_basis(tilt, T, seed=2))

    cd = CellData(datum)
    support = tilting_support(tilt, T)
    assert classify_simples(cd, support) == {"1": 1, "2": 1, "3": 1}
    assert not is_semisimple_endalgebra(cd)


def test_stress_reversed_order_fails_at_second_extensions(nilpotent_endomorphism_algebra):
    # the reversed order is not quasi-hereditary, and at the pair (1, 1) only
    # the second syzygy sees it: the first extension group vanishes while the
    # second does not, so the depth-two check is not redundant
    from tiltcell.highest_weight import ext1_dim, ext2_dim

    A = nilpotent_endomorphism_algebra
    reg = Registry(A, WeightPoset(["1", "2", "3"], [("1", "2"), ("2", "3")]))
    rep = verify_standard_category(reg)
    assert not rep.ok
    assert rep.first_violation[0] == "ext2_standard_costandard"
    assert ext1_dim(reg, reg.standard("1"), reg.costandard("1")) == 0
    assert ext2_dim(reg, reg.standard("1"), reg.costandard("1")) == 1


# the replay in cell coordinates against the matrix-residual reference, on the
# certified datum and on a re-certified perturbation of it
@pytest.mark.parametrize("field", [Q, F10007], ids=repr)
def test_stress_replay_matches_matrix_residual_reference(field):
    from test_standard_basis import assert_replay_matches_reference

    reg = Registry(auslander_x3(field),
                   WeightPoset(["1", "2", "3"], [("3", "2"), ("2", "1")]))
    tilt = TiltingRegistry(reg)
    T, _, _ = direct_sum([tilt.module(l) for l in ("1", "2", "3")])
    datum = build_standard_basis(tilt, T, seed=0)
    assert assert_replay_matches_reference(datum, 6, 3) == (
        {"probes": 20, "congruences_checked": 560, "ok": True}, {"probes": 17, "ok": True})
    low, high = datum.order[0], datum.order[-1]
    datum.cells[low][0][0] = datum.cells[low][0][0] + datum.cells[high][0][0]
    finalize_datum(datum)
    assert assert_replay_matches_reference(datum, 6, 3) == (
        ("violation", "3", (0, 0), "fibered_left_multiplication"),
        ("violation", "3", (0, 0), "opposite_right_multiplication"))


# the bilinearity the reference replay (`oracles.table_replay`) rests on:
# seeded random probes read from the product table against their formed
# products, on both sides of every cell
@pytest.mark.parametrize("field", [Q, F10007], ids=repr)
def test_stress_table_matches_products_of_random_probes(field):
    from test_standard_basis import assert_table_matches_products

    reg = Registry(auslander_x3(field),
                   WeightPoset(["1", "2", "3"], [("3", "2"), ("2", "1")]))
    tilt = TiltingRegistry(reg)
    T, _, _ = direct_sum([tilt.module(l) for l in ("1", "2", "3")])
    assert_table_matches_products(build_standard_basis(tilt, T, seed=0), random.Random(7), 3)


def check_auslander_closed_forms(n):
    """The closed forms of the Auslander algebra of K[x]/x^n over F_10007."""
    from test_standard_basis import walk_record

    ks = range(1, n + 1)
    labels = [str(k) for k in ks]
    one_each = dict.fromkeys(labels, 1)
    A = auslander_algebra(F10007, n)
    reg = Registry(A, chain_poset(n))
    assert [reg.projective(l).dim for l in labels] == [
        sum(min(j, k) for j in ks) for k in ks]
    assert [reg.standard(l).dim for l in labels] == list(reversed(ks))
    assert verify_standard_category(reg).ok

    tilt = TiltingRegistry(reg)
    # T(k) has dimension m(m + 1)/2 for m = n + 1 - k
    assert [tilt.module(l).dim for l in labels] == [m * (m + 1) // 2 for m in reversed(ks)]
    T, _, _ = direct_sum([tilt.module(l) for l in labels])
    datum = build_standard_basis(tilt, T, seed=0)
    assert datum.fiber_sizes() == {str(k): (k, k) for k in ks}
    assert datum.dim() == A.dim == n * (n + 1) * (2 * n + 1) // 6
    probes, products = walk_record(datum, lambda: verify_standard_axioms(datum, trials=6))
    assert datum._certified
    # the walk probes a generating set of 3(n - 1) cells, as small as the
    # pruned one, and reads each probe's row and column of products once,
    # forming none of them
    p = 3 * (n - 1)
    assert len(probes) == len(set(probes)) == p
    assert len(products) == len(set(products)) == p * (2 * datum.dim() - p)
    assert len(datum.end.presentation.generators()) == p

    cd = CellData(datum)
    assert cd.gram_rank == one_each
    assert classify_simples(cd, tilting_support(tilt, T)) == one_each
    assert not is_semisimple_endalgebra(cd)
    return reg


# n = 3: dim 14
def test_auslander3_closed_forms():
    reg = check_auslander_closed_forms(3)
    assert reg.algebra.dim == 14


# n = 4: dim 30
def test_auslander4_closed_forms():
    reg = check_auslander_closed_forms(4)
    assert [reg.projective(l).dim for l in "1234"] == [4, 7, 9, 10]
    assert reg.algebra.dim == 30


# n = 5: dim 55
def test_auslander5_closed_forms():
    reg = check_auslander_closed_forms(5)
    assert [reg.projective(l).dim for l in "12345"] == [5, 9, 12, 14, 15]
    assert reg.algebra.dim == 55


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_auslander_document(n, field_spec):
    """The benchmark's generated input document (`bench/gen.py`), parsed."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return parse_document(gen.auslander_document(n, field_spec))


def cell_digest(datum) -> str:
    """SHA-256 of every basis cell matrix, in index order (as `bench/worker.py`)."""
    h = hashlib.sha256()
    for lam, i, j in datum.index():
        rows = datum.cell(lam, i, j).matrix.entries
        h.update(json.dumps([lam, i, j, [[str(x) for x in r] for r in rows]]).encode())
    return h.hexdigest()


def auslander3_pipeline(field_spec, seed):
    """The benchmark's dim-14 Auslander pipeline on its generated document,
    with the same seed-independent checks; returns the seeded basis datum."""
    doc = bench_auslander_document(3, field_spec)
    labels = ("1", "2", "3")
    one_each = dict.fromkeys(labels, 1)
    reg = Registry(doc.algebra, doc.poset)
    assert [reg.projective(l).dim for l in labels] == [3, 5, 6]
    assert verify_standard_category(reg).ok
    tilt = TiltingRegistry(reg)
    T, _, _ = direct_sum([tilt.module(l) for l in labels])
    datum = build_standard_basis(tilt, T, seed=seed)
    assert datum.dim() == 14
    assert verify_standard_axioms(datum, trials=6)["ok"]
    assert change_of_basis_unitriangular(datum, build_standard_basis(tilt, T, seed=seed + 1))
    cd = CellData(datum)
    assert cd.gram_rank == one_each
    support = tilting_support(tilt, T)
    assert classify_simples(cd, support) == one_each
    assert not is_semisimple_endalgebra(cd)
    return datum


# the basis cells of the benchmark's Auslander workloads against the digests
# recorded for them, which this test reads and never writes
@pytest.mark.parametrize("workload, field_spec",
                         [("auslander3-Q", "Q"), ("auslander3-F10007", "Fp 10007")])
def test_auslander3_basis_matches_recorded_digest(workload, field_spec):
    recorded = json.loads((BENCH / "digests.json").read_text())[workload]["0"]["basis"]
    assert cell_digest(auslander3_pipeline(field_spec, 0)) == recorded


def test_ext_layer_reads_projective_homs_and_covers_off_the_registry(monkeypatch):
    # on the dim-14 pipeline no hom system is solved out of a registered
    # projective, and no standard or simple module reaches projective_cover
    solved_from, covered = [], []
    hom_basis, cover = algebra_module._hom_basis, highest_weight.projective_cover
    monkeypatch.setattr(algebra_module, "_hom_basis",
                        lambda m, n: solved_from.append(m.action) or hom_basis(m, n))
    monkeypatch.setattr(highest_weight, "projective_cover",
                        lambda reg, m: covered.append(m.action) or cover(reg, m))
    reg = auslander3_pipeline("Fp 10007", 0).tilt.base
    projectives = {reg.projective(lab).action for lab in reg.poset.labels}
    seeded = {mod.action for lab in reg.poset.labels
              for mod in (reg.standard(lab), reg.simple(lab))}
    assert solved_from and covered
    assert projectives.isdisjoint(solved_from)
    assert seeded.isdisjoint(covered)
