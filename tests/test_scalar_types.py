"""Every matrix holds scalars of exactly the field's types: over Q an int
for an integral value or a Fraction, over F_p an int residue in [0, p).

Every Matrix construction (`Matrix.__init__` and `Matrix._of`) is checked
while the whole catalog and the dim-14 Auslander pipeline run, so a float
or an unreduced residue reaching a matrix anywhere fails here.  Over F_p,
`Subspace.from_rows` makes no reducing pass of its own, so every row that
reaches it is checked to hold residues in [0, p) already, while the dim-14
and the dim-30 Auslander pipelines run."""

from fractions import Fraction

import pytest

from tiltcell import cli
from tiltcell.algebra import direct_sum
from tiltcell.docio import catalog_names
from tiltcell.highest_weight import Registry, verify_standard_category
from tiltcell.linalg import Matrix, Subspace
from tiltcell.standard_basis import build_standard_basis, verify_standard_axioms
from tiltcell.tilting import TiltingRegistry

from test_cli import report_bytes
from test_stress import auslander3_pipeline, bench_auslander_document


def wrong_scalars(m: Matrix) -> list:
    p = m.field.p
    if p is None:
        return [x for r in m.entries for x in r if type(x) not in (int, Fraction)]
    return [x for r in m.entries for x in r if type(x) is not int or not 0 <= x < p]


@pytest.fixture
def checked_matrices(monkeypatch):
    """(number of matrices built, the wrong scalars they held) so far."""
    built, wrong = [0], []
    init, of = Matrix.__init__, Matrix._of.__func__

    def check(m):
        built[0] += 1
        wrong.extend((m.field, x) for x in wrong_scalars(m))

    def checked_init(self, field, entries, cols=None):
        init(self, field, entries, cols)
        check(self)

    def checked_of(cls, field, rows, cols):
        m = of(cls, field, rows, cols)
        check(m)
        return m

    monkeypatch.setattr(Matrix, "__init__", checked_init)
    monkeypatch.setattr(Matrix, "_of", classmethod(checked_of))
    return built, wrong


@pytest.mark.parametrize("field_args", [[], ["--field", "Fp 3"]], ids=["Q", "F3"])
def test_catalog_matrices_hold_field_scalars(field_args, checked_matrices, monkeypatch):
    built, wrong = checked_matrices
    for name in catalog_names():
        for command in cli.COMMANDS:
            report_bytes([command, "--catalog", name, "--format", "json", *field_args],
                         monkeypatch)
    assert built[0] > 1000
    assert wrong == []


def test_auslander3_matrices_hold_field_scalars(checked_matrices):
    built, wrong = checked_matrices
    auslander3_pipeline("Q", 0)
    assert built[0] > 1000
    assert wrong == []


@pytest.fixture
def checked_from_rows(monkeypatch):
    """(number of from_rows calls, the scalars outside [0, p) passed) so far."""
    calls, wrong = [0], []
    from_rows = Subspace.from_rows.__func__

    def checked(cls, field, ambient, rows):
        calls[0] += 1
        wrong.extend((field, x) for r in rows for x in r
                     if type(x) is not int or not 0 <= x < field.p)
        return from_rows(cls, field, ambient, rows)

    monkeypatch.setattr(Subspace, "from_rows", classmethod(checked))
    return calls, wrong


@pytest.mark.parametrize("p", [2, 3, 5, 10007])
def test_catalog_from_rows_gets_reduced_residues(p, checked_from_rows, monkeypatch):
    calls, wrong = checked_from_rows
    for name in catalog_names():
        for command in cli.COMMANDS:
            report_bytes([command, "--catalog", name, "--format", "json", "--field", f"Fp {p}"],
                         monkeypatch)
    assert calls[0] > 100
    assert wrong == []


def auslander4_pipeline(field_spec):
    """Registry, verification, tilting modules, basis and axiom replay for
    the Auslander algebra of K[x]/x^4 (dim 30), on a freshly parsed
    document, so no memo of an earlier test is read."""
    doc = bench_auslander_document(4, field_spec)
    reg = Registry(doc.algebra, doc.poset)
    assert verify_standard_category(reg).ok
    tilt = TiltingRegistry(reg)
    T, _, _ = direct_sum([tilt.module(lab) for lab in doc.poset.labels])
    assert verify_standard_axioms(build_standard_basis(tilt, T, seed=0), trials=6)["ok"]


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_auslander3_from_rows_gets_reduced_residues(p, checked_from_rows):
    # the dim-14 pipeline and the dim-30 one: Hom out of a projective reads
    # off e.N and forms no subspace, so dim 14 alone no longer passes 100
    calls, wrong = checked_from_rows
    auslander3_pipeline(f"Fp {p}", 0)
    auslander4_pipeline(f"Fp {p}")
    assert calls[0] > 100
    assert wrong == []
