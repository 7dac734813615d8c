"""Checks of the benchmark's own parts: the input generator and the tracer.

    python3 -m pytest -q bench/selftest.py

Run from the root of a checkout.  Tracer checks run in child processes,
because installing the tracer rebinds names in the imported package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from gen import auslander_document  # noqa: E402
from tiltcell.docio import parse_document  # noqa: E402
from tiltcell.highest_weight import Registry  # noqa: E402


def test_auslander3_loads_with_expected_dimensions():
    assert parse_document(auslander_document(3)).algebra.dim == 14
    doc = parse_document(auslander_document(3, "Fp 10007"))
    reg = Registry(doc.algebra, doc.poset)
    assert [reg.projective(l).dim for l in ("1", "2", "3")] == [3, 5, 6]
    assert [reg.standard(l).dim for l in ("1", "2", "3")] == [3, 2, 1]


def test_auslander4_builds():
    # associativity and the unit are re-checked on load
    assert parse_document(auslander_document(4)).algebra.dim == 30


def _child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]),
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, check=True)
    return proc.stdout.decode()


def test_tracer_rebinds_every_imported_name():
    out = _child(
        "import tracer, tiltcell.cli, tiltcell.standard_basis as sb\n"
        "t = tracer.Tracer(); t.install()\n"
        "print(t.absent, hasattr(sb.hom_space, '__traced__'),"
        " hasattr(tiltcell.cli.build_standard_basis, '__traced__'),"
        " hasattr(tiltcell.hom_space, '__traced__'))\n")
    assert out.split() == ["[]", "True", "True", "True"]


def test_tracer_rejects_a_stray_original():
    out = _child(
        "import tracer, tiltcell.algebra as alg, tiltcell.cells as cells\n"
        "t = tracer.Tracer(); t.install()\n"
        "cells.stray = alg.hom_space.__traced__\n"
        "try:\n    t.check()\nexcept tracer.UnwrappedReference as e:\n    print(e)\n")
    assert "tiltcell.cells.stray" in out


@pytest.mark.parametrize("argv", [["cells", "--catalog", "ut3", "--seed", "1"],
                                  ["cellular", "--catalog", "auslander-dualnumbers"]])
def test_traced_counts_repeat(argv, tmp_path):
    def traced():
        job = {"mode": "cli", "argv": argv + ["--format", "json"],
               "t_spawn": time.monotonic(), "trace_file": str(tmp_path / "spans.json")}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                              env=env, capture_output=True, timeout=120, check=True)
        res = json.loads(proc.stdout.decode().splitlines()[-1])
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert len(spans["spans"]) == res["trace"]["spans"] > 0
        return res["ops"][0]["digest"], {k: res["trace"][k]
                                         for k in ("calls", "counters", "distinct")}

    first, second = traced(), traced()
    assert first == second
    assert first[1]["calls"]["algebra.hom_space"] > 0
