"""Command-line driver.

Subcommands mirror the pipeline stages: `verify` certifies the
highest-weight axioms, `tilting` builds the indecomposable tilting modules,
`basis` constructs and certifies the fibered basis of End(T), `cells`
computes Gram matrices and the simple modules of End(T), and `cellular`
runs the duality pipeline to a cellular basis.  Exit codes: 0 all
certificates pass, 1 an axiom or theorem check failed, 2 input error.

`parse_args` reads a canonical command line (the command once, each flag
at most once as `--flag value`, one source) directly and hands every other
line to argparse, so a run of the usual form never imports argparse.  The
flags, which all subcommands share, are declared once in `OPTIONS`.

`build_report` frames every report: the meta, the verification section
and its gate, the verdict in `ok` with the exit code, and the capture of a
pipeline failure into a meta-only error report.  Each `cmd_*` only adds its
own sections to the report and returns its verdict.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .algebra import direct_sum
from .cells import CellData, classify_simples, is_semisimple_endalgebra
from .docio import InputDocument, catalog_document, catalog_names, load_document
from .duality import AntiInvolution, build_cellular_basis
from .errors import InputError, TiltcellError
from .highest_weight import Registry, filtration_multiplicity, verify_standard_category
from .report import matrix_entries, render_text, to_json_bytes, vector_entries
from .standard_basis import (
    build_standard_basis,
    change_of_basis_unitriangular,
    verify_standard_axioms,
)
from .tilting import TiltingRegistry, tilting_support


class Pipeline:
    """Lazy pipeline over one validated input document."""

    def __init__(self, doc: InputDocument):
        self.doc = doc
        self._registry = None
        self._verification = None
        self._tiltings = None

    @property
    def registry(self) -> Registry:
        if self._registry is None:
            self._registry = Registry(self.doc.algebra, self.doc.poset)
        return self._registry

    def verification(self):
        if self._verification is None:
            self._verification = verify_standard_category(self.registry)
        return self._verification

    def tiltings(self) -> TiltingRegistry:
        if self._tiltings is None:
            self.verification().raise_if_failed()
            self._tiltings = TiltingRegistry(
                self.registry, dim_bound=self.doc.options["dim_bound"])
        return self._tiltings


def _meta(doc: InputDocument, command: str) -> dict:
    return {
        "command": command,
        "input": {
            "name": doc.name or "(unnamed)",
            "field": repr(doc.field),
            "dim": doc.algebra.dim,
            "labels": list(doc.poset.labels),
            "linear_extension": list(doc.poset.linear_extension),
            "seed": doc.options["seed"],
            "trials": doc.options["trials"],
            "dim_bound": doc.options["dim_bound"],
        },
    }


def _verification_section(pipe: Pipeline) -> dict:
    rep = pipe.verification()
    by_name: dict = {}
    failures = []
    for (name, label, other, ok, detail) in rep.checks:
        slot = by_name.setdefault(name, {"pass": 0, "fail": 0})
        slot["pass" if ok else "fail"] += 1
        if not ok:
            failures.append({"check": name, "label": label, "other": other,
                             "detail": detail})
    reg = pipe.registry
    simples = {}
    for lab in pipe.doc.poset.labels:
        d = reg.data[lab]
        simples[lab] = {
            "dim_simple": d.simple.dim,
            "dim_projective": d.projective.dim,
            "dim_standard": d.standard.dim,
            "dim_costandard": d.costandard.dim,
            "idempotent": vector_entries(d.idempotent),
        }
    return {
        "simples": simples,
        "checks": {"total": len(rep.checks),
                   "failed": sum(1 for c in rep.checks if not c[3]),
                   "by_name": by_name},
        "failures": failures,
        "ok": rep.ok,
    }


def cmd_verify(_pipe: Pipeline, _report: dict) -> bool:
    return True


def _requested_tilting(pipe: Pipeline, report: dict):
    """The requested tilting module as an explicit direct sum, its pieces and
    dimension added to the report; returns (module, pieces)."""
    doc = pipe.doc
    pieces = ([(lab, 1) for lab in doc.poset.labels]
              if doc.tilting_request == "characteristic" else doc.tilting_request)
    tilt = pipe.tiltings()
    total, _, _ = direct_sum([tilt.module(lab) for lab, mult in pieces for _ in range(mult)])
    report["requested_tilting"] = {"pieces": [[lab, m] for lab, m in pieces],
                                   "dim": total.dim}
    return total, pieces


def _cell_simples(pipe: Pipeline, datum, total):
    """(cell data, tilting support, simple dims) of a datum of End(total)."""
    cd = CellData(datum)
    support = tilting_support(pipe.tiltings(), total)
    return cd, support, classify_simples(cd, support)


def cmd_tilting(pipe: Pipeline, report: dict) -> bool:
    reg = pipe.registry
    tilt = pipe.tiltings()
    tiltings = {}
    for lab in pipe.doc.poset.labels:
        tr = tilt.triple(lab)
        mults = {kind: {mu: filtration_multiplicity(reg, tr.module, mu, kind)
                        for mu in pipe.doc.poset.labels}
                 for kind in ("standard", "costandard")}
        tiltings[lab] = {
            "dim": tr.module.dim,
            "standard_factors": {mu: k for mu, k in mults["standard"].items() if k},
            "costandard_factors": {mu: k for mu, k in mults["costandard"].items() if k},
            "composite_normalized": True,
        }
    report["tiltings"] = tiltings
    total, pieces = _requested_tilting(pipe, report)
    support, request = tilting_support(tilt, total), {}
    for lab, m in pieces:
        request[lab] = request.get(lab, 0) + m
    ok = support == request
    report["requested_tilting"].update(support=support, support_matches_request=ok)
    return ok


def _basis_section(datum, axioms) -> dict:
    fibers, cells = {}, {}
    for lam in datum.order:
        n_i, n_j = len(datum.G[lam]), len(datum.F[lam])
        fibers[lam] = {"rows": n_i, "cols": n_j, "count": n_i * n_j}
        cells[lam] = [[matrix_entries(datum.cell(lam, i, j).matrix) for j in range(n_j)]
                      for i in range(n_i)]
    return {
        "dim_end": datum.dim(),
        "support": list(datum.order),
        "fibers": fibers,
        "fiber_count_equals_dim_end": sum(f["count"] for f in fibers.values()) == datum.dim(),
        "cells": cells,
        "axioms": axioms,
    }


def cmd_basis(pipe: Pipeline, report: dict) -> bool:
    seed = pipe.doc.options["seed"]
    trials = pipe.doc.options["trials"]
    tilt = pipe.tiltings()
    total, _ = _requested_tilting(pipe, report)
    datum = build_standard_basis(tilt, total, seed=seed)
    axioms = verify_standard_axioms(datum, trials=trials)
    report["basis"] = _basis_section(datum, axioms)
    other = build_standard_basis(tilt, total, seed=seed + 1)
    verify_standard_axioms(other)
    report["seed_study"] = {
        "seeds": [seed, seed + 1],
        "unitriangular": change_of_basis_unitriangular(datum, other),
    }
    return (report["basis"]["fiber_count_equals_dim_end"]
            and report["seed_study"]["unitriangular"])


def cmd_cells(pipe: Pipeline, report: dict) -> bool:
    total, _ = _requested_tilting(pipe, report)
    datum = build_standard_basis(pipe.tiltings(), total, seed=pipe.doc.options["seed"])
    cd, support, simple_dims = _cell_simples(pipe, datum, total)
    gram = {lam: {"matrix": matrix_entries(cd.gram[lam]),
                  "rank": cd.gram_rank[lam],
                  "tilting_multiplicity": support.get(lam, 0),
                  "rank_matches_multiplicity": cd.gram_rank[lam] == support.get(lam, 0)}
            for lam in datum.order}
    report["fibers"] = {lam: {"rows": i, "cols": j}
                        for lam, (i, j) in datum.fiber_sizes().items()}
    report["gram"] = gram
    report["simple_dims"] = simple_dims
    report["semisimple"] = {
        "value": is_semisimple_endalgebra(cd),
        "verdicts_agree": True,
        "sum_of_squares": sum(d * d for d in simple_dims.values()),
        "dim_end": datum.dim(),
    }
    return all(g["rank_matches_multiplicity"] for g in gram.values())


def cmd_cellular(pipe: Pipeline, report: dict) -> bool:
    tilt = pipe.tiltings()
    tau = AntiInvolution(pipe.doc.algebra, pipe.doc.anti_involution)
    total, _ = _requested_tilting(pipe, report)
    datum, duality, alpha, cert = build_cellular_basis(
        tilt, total, tau, seed=pipe.doc.options["seed"])
    axioms = verify_standard_axioms(datum, trials=pipe.doc.options["trials"])
    cd, _, simple_dims = _cell_simples(pipe, datum, total)
    report["basis"] = _basis_section(datum, axioms)
    report["duality"] = {
        "exchange_ok": sorted(duality.exchange),
        "tilting_self_dual_ok": sorted(duality.tilting_self_dual),
        "fixed_points_ok": sorted(duality.phi),
    }
    report["cellularity"] = {
        "fibers_square": cert["fibers_square"],
        "involution_squares_to_identity": cert["alpha_involutive"],
        "obstruction_is_identity": cert["a_element_is_identity"],
        "involution_transposes_fibers": True,
        "gram_symmetric": all(cd.gram[lam] == cd.gram[lam].transpose()
                              for lam in datum.order),
        "simple_dims": simple_dims,
    }
    return (report["cellularity"]["gram_symmetric"]
            and cert["fibers_square"] and cert["alpha_involutive"])


COMMANDS = {
    "verify": cmd_verify,
    "tilting": cmd_tilting,
    "basis": cmd_basis,
    "cells": cmd_cells,
    "cellular": cmd_cellular,
}


def build_report(pipe: Pipeline, command: str) -> tuple[dict, int]:
    """The report of one subcommand and its exit code.

    Every report opens with the meta and the verification section; the
    subcommand's own sections follow only when verification passes, and
    `ok` is the verdict of both.  A pipeline failure (a TiltcellError other
    than InputError) yields the meta-only error report with exit 1; an
    InputError propagates, for exit 2.
    """
    report = _meta(pipe.doc, command)
    if command == "cellular" and pipe.doc.anti_involution is None:
        raise InputError("cellular command needs an anti_involution in the input")
    try:
        report.update(_verification_section(pipe))
        ok = report["ok"] and COMMANDS[command](pipe, report)
    except InputError:
        raise
    except TiltcellError as exc:
        report = _meta(pipe.doc, command)
        report["ok"] = False
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return report, 1
    report["ok"] = bool(ok)
    return report, 0 if ok else 1


# The flags every subcommand shares, each declared once: (flag, type,
# choices, default, help).  The first two are the sources, of which exactly
# one is required.
OPTIONS = (
    ("--input", str, None, None, "path to a JSON input document"),
    ("--catalog", str, tuple(catalog_names()), None, "built-in algebra by name"),
    ("--field", str, None, None, 'override the base field: "Q" or "Fp <p>"'),
    ("--seed", int, None, None, "PRNG seed for lift choices"),
    ("--trials", int, None, None, "random endomorphisms per axiom verification"),
    ("--dim-bound", int, None, None, "abort tilting construction above this dimension"),
    ("--format", str, ("text", "json"), "text", None),
)
SOURCES = (OPTIONS[0][0], OPTIONS[1][0])
DESCRIPTION = ("standard and cellular bases of endomorphism algebras of tilting "
               "modules, with exact arithmetic")


def _canonical(args):
    """The values of a canonical command line, or None.

    Canonical is the command once and each flag of OPTIONS at most once as
    `--flag value`, the value not starting with `-`, converting by the
    flag's type and passing its choices, with exactly one source.  argparse
    reads such a line the same way.
    """
    flags = {flag: (flag[2:].replace("-", "_"), kind, choices)
             for flag, kind, choices, _, _ in OPTIONS}
    values = {"command": None} | {flags[flag][0]: default for flag, _, _, default, _ in OPTIONS}
    seen, words = set(), iter(args)
    for arg in words:
        if arg in COMMANDS and values["command"] is None:
            values["command"] = arg
            continue
        raw = next(words, "-")
        if arg not in flags or arg in seen or raw.startswith("-"):
            return None
        dest, kind, choices = flags[arg]
        try:
            values[dest] = kind(raw)
        except ValueError:
            return None
        if choices is not None and values[dest] not in choices:
            return None
        seen.add(arg)
    if values["command"] is None or len(seen & set(SOURCES)) != 1:
        return None
    return values


def _parser():
    """The argparse parser of every command line that is not canonical."""
    import argparse  # only a non-canonical line pays for its start-up

    parser = argparse.ArgumentParser(prog="tiltcell", description=DESCRIPTION)
    parser.add_argument("command", choices=COMMANDS)
    sources = parser.add_mutually_exclusive_group(required=True)
    for flag, kind, choices, default, text in OPTIONS:
        (sources if flag in SOURCES else parser).add_argument(
            flag, type=kind, choices=choices, default=default, help=text)
    return parser


def parse_args(argv=None):
    """The subcommand and the flags of one command line.

    A canonical line (`_canonical`) is read directly; every other one goes
    to argparse, which writes the help, the usage and each usage error.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    values = _canonical(args)
    if values is not None:
        return SimpleNamespace(**values)
    parser = _parser()
    parsed = parser.parse_args(args)
    for flag, *_ in OPTIONS:
        # argparse reads `--flag=--` as the value []
        if getattr(parsed, flag[2:].replace("-", "_")) == []:
            parser.error(f"argument {flag}: expected one argument")
    return parsed


def run(args) -> int:
    doc = (load_document(args.input, args.field) if args.input is not None
           else catalog_document(args.catalog, args.field))
    for key, val in (("seed", args.seed), ("trials", args.trials),
                     ("dim_bound", args.dim_bound)):
        if val is not None:
            if val < 0:
                raise InputError(f"--{key.replace('_', '-')} must be nonnegative")
            doc.options[key] = val
    report, code = build_report(Pipeline(doc), args.command)
    out = to_json_bytes(report) if args.format == "json" else render_text(report).encode()
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
