"""Acceptance suite.

One test per acceptance criterion; every check is exact (no tolerances
beyond equality) and each test prints a single PASS line on success so the
suite doubles as a checklist when run with -s.
"""

import json

import pytest

from tiltcell.algebra import direct_sum, hom_space
from tiltcell.cells import CellData, classify_simples, is_semisimple_endalgebra
from tiltcell.cli import Pipeline, build_report
from tiltcell.docio import catalog_document
from tiltcell.duality import AntiInvolution, build_cellular_basis
from tiltcell.linalg import Matrix
from tiltcell.standard_basis import (
    build_standard_basis,
    change_of_basis_unitriangular,
    verify_standard_axioms,
)
from tiltcell.tilting import tilting_support

from oracles import ext1_witness_factor, hom_filtration_from_datum, hom_filtration_oracle
from test_cli import run_cli

GOOD = ["trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3"]


def _tilting_cases(reg, tilt):
    """Per catalog algebra: each T(label), the characteristic module, and a
    doubled indecomposable."""
    labels = list(reg.poset.labels)
    cases = [(f"T({lab})", [tilt.module(lab)]) for lab in labels]
    cases.append(("characteristic", [tilt.module(lab) for lab in labels]))
    cases.append((f"T({labels[0]})+T({labels[0]})", [tilt.module(labels[0])] * 2))
    out = []
    for name, mods in cases:
        total, _, _ = direct_sum(mods)
        out.append((name, total))
    return out


@pytest.fixture(scope="module")
def catalog_data(pipelines):
    data = {}
    for name in GOOD:
        doc, reg, tilt = pipelines[name]
        total, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
        datum = build_standard_basis(tilt, total, seed=0)
        data[name] = (doc, reg, tilt, total, datum)
    return data


def test_acceptance_1_axiom_suite(pipelines):
    for name in GOOD:
        doc, _, _ = pipelines[name]
        report, code = build_report(Pipeline(doc), "verify")
        assert code == 0 and report["ok"], (name, report["failures"])
        assert report["checks"]["failed"] == 0
    doc = catalog_document("dualnumbers")
    pipe = Pipeline(doc)
    report, code = build_report(pipe, "verify")
    assert code == 1 and not report["ok"]
    failing = {f["check"] for f in report["failures"]}
    assert "ext1_standard_costandard" in failing
    reg = pipe.registry
    witness = ext1_witness_factor(reg, reg.standard("1"), reg.costandard("1"))
    assert witness == "1"
    print("\nACCEPTANCE 1 (axiom suite on catalog + dual-numbers failure): PASS")


def test_acceptance_2_basis_theorem(pipelines):
    for name in GOOD:
        doc, reg, tilt = pipelines[name]
        for case, total in _tilting_cases(reg, tilt):
            datum = build_standard_basis(tilt, total, seed=0)
            end_dim = len(hom_space(total, total))
            fiber_total = sum(i * j for (i, j) in datum.fiber_sizes().values())
            assert fiber_total == end_dim == datum.dim(), (name, case)
            flat = Matrix(doc.field, [datum.cell(l, i, j).matrix.flat()
                                      for (l, i, j) in datum.index()])
            assert flat.rank() == datum.dim(), (name, case)
    _, reg, tilt = pipelines["a2path"]
    total, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    datum = build_standard_basis(tilt, total, seed=0)
    counts = sorted(i * j for (i, j) in datum.fiber_sizes().values())
    assert datum.dim() == 3 and counts == [1, 2]
    print("ACCEPTANCE 2 (basis theorem, fiber counts = dim End): PASS")


def test_acceptance_3_lift_independence(catalog_data):
    seeds = range(5)
    for name, (doc, reg, tilt, total, base) in catalog_data.items():
        data = {s: (base if s == 0 else build_standard_basis(tilt, total, seed=s))
                for s in seeds}
        for s in seeds:
            assert verify_standard_axioms(data[s], trials=5)["ok"], (name, s)
        for s in seeds:
            for t in seeds:
                if s < t:
                    assert change_of_basis_unitriangular(data[s], data[t]), (name, s, t)
    print("ACCEPTANCE 3 (5 seeds per case, unitriangular change of basis): PASS")


def test_acceptance_4_fibered_multiplication(catalog_data):
    for name, (doc, reg, tilt, total, datum) in catalog_data.items():
        out = verify_standard_axioms(datum, trials=100)
        assert out["ok"] and out["probes"] >= 100, name
    print("ACCEPTANCE 4 (>=100 random endomorphisms, residuals in lower fibers): PASS")


def test_acceptance_5_cell_module_theorems(catalog_data, pipelines):
    semisimple_seen = nonsemisimple_seen = False
    for name, (doc, reg, tilt, total, datum) in catalog_data.items():
        cd = CellData(datum)
        support = tilting_support(tilt, total)
        dims = classify_simples(cd, support)   # raises on any rank mismatch
        for lam in datum.order:
            assert cd.gram_rank[lam] == support.get(lam, 0), (name, lam)
        verdict = is_semisimple_endalgebra(cd)  # raises if the two ways disagree
        semisimple_seen |= verdict
        nonsemisimple_seen |= not verdict
    # doubled indecomposable: rank still equals the multiplicity
    _, reg, tilt = pipelines["a2path"]
    doubled, _, _ = direct_sum([tilt.module("1")] * 2)
    datum2 = build_standard_basis(tilt, doubled, seed=0)
    cd2 = CellData(datum2)
    classify_simples(cd2, tilting_support(tilt, doubled))
    assert cd2.gram_rank["1"] == 2
    assert semisimple_seen and nonsemisimple_seen
    print("ACCEPTANCE 5 (pairing ranks = multiplicities, semisimplicity agreement): PASS")


def test_acceptance_6_cellularity(pipelines):
    doc, reg, tilt = pipelines["auslander-dualnumbers"]
    tau = AntiInvolution(doc.algebra, doc.anti_involution)
    total, _, _ = direct_sum([tilt.module(lab) for lab in reg.poset.labels])
    datum, duality, alpha, cert = build_cellular_basis(tilt, total, tau, seed=0)
    assert sorted(duality.exchange) == sorted(reg.poset.labels)
    assert sorted(duality.phi) == sorted(reg.poset.labels)
    assert cert["alpha_involutive"] and cert["fibers_square"]
    for (lam, i, j) in datum.index():
        assert alpha(datum.cell(lam, i, j).matrix) == datum.cell(lam, j, i).matrix
    cd = CellData(datum)
    for lam in datum.order:
        assert cd.gram[lam] == cd.gram[lam].transpose()
    print("ACCEPTANCE 6 (duality exchange, fixed points, cellular involution): PASS")


def test_acceptance_7_oracle_equivalence(pipelines):
    compared = 0
    for name in GOOD:
        doc, reg, tilt = pipelines[name]
        for case, total in _tilting_cases(reg, tilt):
            homs = hom_space(total, total)
            if len(homs) > 6:
                continue
            datum = build_standard_basis(tilt, total, seed=0)
            for lab in reg.poset.labels:
                oracle = hom_filtration_oracle(reg, total, total, lab, homs)
                fibered = hom_filtration_from_datum(datum, lab, homs)
                assert oracle == fibered, (name, case, lab)
                compared += 1
    assert compared >= 30
    print(f"ACCEPTANCE 7 (filtration oracle = fiber spans, {compared} spaces): PASS")


def test_acceptance_8_determinism():
    def run():
        code, out, _ = run_cli("basis", "--catalog", "a2path",
                               "--seed", "5", "--trials", "10", "--format", "json")
        assert code == 0
        return out

    first, second = run(), run()
    assert first == second
    json.loads(first)
    print("ACCEPTANCE 8 (byte-identical reports for identical input+seed): PASS")
