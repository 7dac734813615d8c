"""One benchmark process: set up, run the timed operations, report.

`run.py` starts this script in a fresh interpreter for every CLI
invocation of the catalog workload and for every pass of an Auslander
workload, with the checkout's `src` on PYTHONPATH and one JSON job as the
only argument.  It prints one JSON line: the set-up seconds (interpreter
start, measured from the parent's clock reading taken just before the
spawn, plus `import tiltcell` and loading the input document), each
operation's wall seconds and outcome, the yardstick seconds measured
around each operation (`yardstick.py`), and the peak resident set.  With
tracing on it also reports the tracer's summary and saves the spans.

Modes:
  cli       one `tiltcell` command line through `tiltcell.cli.main`;
            the report bytes are hashed, not kept
  pipeline  the dim-14 Auslander pipeline through the public API, with
            the seed-independent invariants checked after every stage
  setup     set-up only (the warm-up that byte-compiles tiltcell)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import yardstick


def main():
    job = json.loads(sys.argv[1])
    if "cpu" in job:
        os.sched_setaffinity(0, {job["cpu"]})
    tracer = None
    if job.get("trace_file"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import tiltcell  # noqa: F401  (the import is part of set-up)
    from tiltcell import docio

    setup = time.monotonic() - job["t_spawn"]
    setup_yard = yardstick.measure()
    loaded = []
    parse_document = docio.parse_document

    def timed_parse(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return parse_document(*args, **kwargs)
        finally:
            loaded.append(time.perf_counter() - t0)

    docio.parse_document = timed_parse
    ops = []
    mode = job["mode"]
    if mode == "setup":
        if "doc" in job:
            docio.load_document(job["doc"])
        else:
            docio.catalog_document(job["catalog"])
    elif mode == "cli":
        ops.append(run_cli(job["argv"], tracer))
        ops[0]["yard"] = (setup_yard + yardstick.measure()) / 2
    elif mode == "pipeline":
        ops.extend(run_pipeline(job["doc"], job["seed"], tracer, setup_yard))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    docio.parse_document = parse_document
    # document loading inside a timed operation moves from its wall to set-up
    if mode == "cli":
        ops[0]["wall"] -= sum(loaded)
    # set-up is scaled by the yardstick around the first operation, if it ran
    first_yard = ops[0]["yard"] if ops else None
    out = {"setup": setup + sum(loaded), "setup_yard": first_yard or setup_yard, "ops": ops,
           "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(job["trace_file"])
    sys.stdout.write(json.dumps(out) + "\n")


def _traced(tracer, label):
    return nullcontext() if tracer is None else tracer.operation(label)


def run_cli(argv, tracer):
    """One CLI invocation with stdout captured; reports exit code and the
    SHA-256 of the report bytes."""
    from tiltcell import cli

    buf = io.BytesIO()
    capture = io.TextIOWrapper(buf, encoding="utf-8")
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = capture, io.StringIO()
    t0 = time.perf_counter()
    try:
        with _traced(tracer, " ".join(argv)):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - t0
        capture.flush()
        sys.stdout, sys.stderr = real_out, real_err
    report = capture.detach().getvalue()
    return {"name": " ".join(argv), "wall": wall, "code": code,
            "digest": hashlib.sha256(report).hexdigest()}


def run_pipeline(doc_path, seed, tracer, yard):
    """The stages of the dim-14 Auslander pipeline, one operation each.

    Every stage checks invariants that do not depend on the seed or the
    field (for the Auslander algebra of K[x]/x^3 with the chain order
    3 < 2 < 1).  After a failed stage the later ones are reported failed
    without running.  A stage that failed or did not run has wall None.
    `yard` is the yardstick time measured just before the first stage;
    the yardstick runs again after every stage.
    """
    from tiltcell.algebra import direct_sum
    from tiltcell.cells import CellData, classify_simples, is_semisimple_endalgebra
    from tiltcell.docio import load_document
    from tiltcell.highest_weight import Registry, verify_standard_category
    from tiltcell.standard_basis import (
        build_standard_basis,
        change_of_basis_unitriangular,
        verify_standard_axioms,
    )
    from tiltcell.tilting import TiltingRegistry, tilting_support

    doc = load_document(doc_path)
    labels = ("1", "2", "3")
    one_each = {"1": 1, "2": 1, "3": 1}
    st = {}

    def registry():
        st["reg"] = reg = Registry(doc.algebra, doc.poset)
        return ([reg.projective(l).dim for l in labels] == [3, 5, 6]
                and [reg.standard(l).dim for l in labels] == [3, 2, 1]), None

    def verify():
        return verify_standard_category(st["reg"]).ok, None

    def tilting():
        st["tilt"] = tilt = TiltingRegistry(st["reg"])
        st["T"], _, _ = direct_sum([tilt.module(l) for l in labels])
        return [tilt.module(l).dim for l in labels] == [6, 3, 1], None

    def basis():
        st["datum"] = datum = build_standard_basis(st["tilt"], st["T"], seed=seed)
        ok = (datum.fiber_sizes() == {"3": (3, 3), "2": (2, 2), "1": (1, 1)}
              and datum.dim() == 14)
        return ok, cell_digest(datum)

    def axioms():
        return verify_standard_axioms(st["datum"], trials=6)["ok"], None

    def second_seed():
        other = build_standard_basis(st["tilt"], st["T"], seed=seed + 1)
        return change_of_basis_unitriangular(st["datum"], other), None

    def cells():
        st["cd"] = CellData(st["datum"])
        return st["cd"].gram_rank == one_each, None

    def support():
        st["support"] = tilting_support(st["tilt"], st["T"])
        return st["support"] == one_each, None

    def classify():
        return classify_simples(st["cd"], st["support"]) == one_each, None

    def semisimplicity():
        return not is_semisimple_endalgebra(st["cd"]), None

    stages = [registry, verify, tilting, basis, axioms, second_seed, cells,
              support, classify, semisimplicity]
    ops = []
    failed = False
    for stage in stages:
        op = {"name": stage.__name__, "wall": None, "yard": None, "ok": False}
        ops.append(op)
        if failed:
            op["error"] = "skipped after an earlier failure"
            continue
        t0 = time.perf_counter()
        try:
            with _traced(tracer, stage.__name__):
                ok, digest = stage()
        except Exception as exc:  # a failed operation, reported, not fatal
            ok, digest = False, None
            op["error"] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        after = yardstick.measure()
        op["ok"] = bool(ok)
        if ok:
            op["wall"], op["yard"] = wall, (yard + after) / 2
        if digest is not None:
            op["digest"] = digest
        failed = not ok
        yard = after
    return ops


def cell_digest(datum) -> str:
    """SHA-256 of every basis cell matrix, in index order."""
    h = hashlib.sha256()
    for lam, i, j in datum.index():
        rows = datum.cell(lam, i, j).matrix.entries
        h.update(json.dumps([lam, i, j, [[str(x) for x in r] for r in rows]]).encode())
    return h.hexdigest()


if __name__ == "__main__":
    main()
