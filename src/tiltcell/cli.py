"""Command-line driver.

Subcommands mirror the pipeline stages: `verify` certifies the
highest-weight axioms, `tilting` builds the indecomposable tilting modules,
`basis` constructs and certifies the fibered basis of End(T), `cells`
computes Gram matrices and the simple modules of End(T), and `cellular`
runs the duality pipeline to a cellular basis.  Exit codes: 0 all
certificates pass, 1 an axiom or theorem check failed, 2 input error.

`parse_args` is the package's own parser, one for every subcommand, and
reads a command line as the argparse parser it replaced did.  The flags,
which all subcommands share, are declared once in `OPTIONS`, which drives
the parsing and the help.  The subcommand is the one positional argument,
so the flags may also come before it; a unique prefix abbreviates a flag
and `--flag=value` works.  `-h` prints argparse's help text at 80 columns,
and a usage error prints the usage and `tiltcell: error: ...` to stderr and
exits 2.  Not importing argparse spares every run its start-up: gettext
catalog lookups (which import locale) and cold regex compiles.

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
WIDTH = 78  # argparse's text width at 80 columns


def _braced(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _headers() -> dict:
    """flag -> its header in the usage and the help, as `--seed SEED`."""
    return {flag: f"{flag} {_braced(choices) if choices else flag[2:].upper().replace('-', '_')}"
            for flag, _, choices, _, _ in OPTIONS}


def _usage() -> str:
    """argparse's usage, the flags wrapped at WIDTH under the first one and
    the command on a line of its own."""
    heads = _headers()
    words = ["tiltcell", "[-h]", "(" + " | ".join(heads[flag] for flag in SOURCES) + ")"]
    words += [f"[{head}]" for flag, head in heads.items() if flag not in SOURCES]
    indent = " " * len("usage: tiltcell ")

    def wrap(words, length):
        lines, line = [], []
        for word in words:
            if length + 1 + len(word) > WIDTH and line:
                lines.append(indent + " ".join(line))
                line, length = [], len(indent) - 1
            line.append(word)
            length += len(word) + 1
        return lines + [indent + " ".join(line)]

    lines = wrap(words, len("usage:")) + wrap([_braced(COMMANDS)], len(indent) - 1)
    return "usage: " + "\n".join(lines)[len(indent):] + "\n"


def _help() -> str:
    """argparse's help text at 80 columns."""
    import textwrap  # only -h wraps text

    options = [("-h, --help", "show this help message and exit")]
    options += [(head, text) for head, (*_, text) in zip(_headers().values(), OPTIONS)]
    commands = _braced(COMMANDS)
    position = min(max(len(head) for head, _ in options + [(commands, None)]) + 4, 24)

    def item(head, text):
        if not text:
            return f"  {head}\n"
        first = (f"  {head:<{position - 4}}  " if len(head) <= position - 4
                 else f"  {head}\n" + " " * position)
        return first + ("\n" + " " * position).join(textwrap.wrap(text, WIDTH - position)) + "\n"

    return (_usage() + "\n" + textwrap.fill(DESCRIPTION, WIDTH) + "\n\npositional arguments:\n"
            + item(commands, None) + "\noptions:\n" + "".join(item(*o) for o in options))


class _UsageError(Exception):
    pass


def _negative_number(arg: str) -> bool:
    """Whether `-1`, `-.5` or `-1.5`: a value, not an option, to argparse."""
    head, dot, tail = arg[1:].partition(".")
    return tail.isdecimal() and (not head or head.isdecimal()) if dot else head.isdecimal()


def _option(arg: str, flags):
    """How argparse reads one argument before `--`: None for a value, else
    (flag, option string, explicit value or None), with flag None for an
    unknown option.  A unique prefix of a long flag stands for it, and an
    ambiguous one is an error."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in flags or arg == "-h":
        return "--help" if arg == "-h" else arg, arg, None
    name, eq, value = arg.partition("=")
    if eq and (name in flags or name == "-h"):
        return "--help" if name == "-h" else name, name, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], matches[0], value if eq else None
    elif arg[1] == "h":
        return "--help", "-h", arg[2:]
    if _negative_number(arg) or " " in arg:
        return None
    return None, arg, None


def _help_value_error(option: str, value: str) -> str | None:
    """The error of a value given to -h or --help, or None where argparse
    reads it as more -h (`-hh`)."""
    while option == "-h" and value[:1] == "h":
        value = value[1:]
        if not value:
            return None
    return f"argument -h/--help: ignored explicit argument {value!r}"


def parse_args(argv=None) -> SimpleNamespace:
    """The subcommand and the flags of one command line, read as argparse
    read them.

    The subcommand is the one positional argument and may come anywhere
    among the flags; `--flag value` and `--flag=value` both work, a unique
    prefix abbreviates a flag, `--` ends the flags and a repeated flag keeps
    its last value.  -h prints the help and exits 0; a usage error prints
    the usage and the error to stderr and exits 2.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    table = {flag: (flag[2:].replace("-", "_"), kind, choices, default)
             for flag, kind, choices, default, _ in OPTIONS}
    values = {"command": None} | {dest: default for dest, _, _, default in table.values()}
    seen, extras = set(), []

    def take(flag, raw):
        dest, kind, choices, _ = table[flag]
        try:
            value = kind(raw)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {kind.__name__} value: {raw!r}") from None
        if choices is not None and value not in choices:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        seen.add(flag)
        if flag in SOURCES and set(SOURCES) <= seen:
            other, = set(SOURCES) - {flag}
            raise _UsageError(f"argument {flag}: not allowed with argument {other}")
        values[dest] = value

    def take_command(raw):
        if raw not in COMMANDS:
            raise _UsageError(f"argument command: invalid choice: {raw!r} "
                              f"(choose from {', '.join(map(repr, COMMANDS))})")
        values["command"] = raw

    try:
        # each argument is an option (a tuple from _option), a value "A" or
        # the "-" of `--`, after which every argument is a value
        kinds = []
        for at, arg in enumerate(args):
            if arg == "--":
                kinds += ["-"] + ["A"] * (len(args) - at - 1)
                break
            kinds.append(_option(arg, ("--help", *table)) or "A")
        i = 0
        for at in [at for at, kind in enumerate(kinds) if isinstance(kind, tuple)]:
            if i < at:  # values before this option: the first may be the command
                if values["command"] is None:
                    take_command(args[i])
                    i += 1
                extras += args[i:at]
            flag, option, explicit = kinds[at]
            i = at + 1
            if flag is None:
                extras.append(args[at])
            elif flag == "--help":
                if explicit is not None and (error := _help_value_error(option, explicit)):
                    raise _UsageError(error)
                sys.stdout.write(_help())
                sys.exit(0)
            elif explicit is not None:
                take(flag, explicit)
            elif kinds[i:i + 1] == ["A"]:
                take(flag, args[i])
                i += 1
            else:
                raise _UsageError(f"argument {flag}: expected one argument")
        if values["command"] is None:
            # after the last option the command takes the next value, with
            # a `--` just before or just after it
            rest = "".join(kinds[i:])
            before = rest.startswith("-A")
            if rest[before:before + 1] == "A":
                take_command(args[i + before])
                i += before + 1 + (rest[before + 1:before + 2] == "-")
        extras += args[i:]
        if values["command"] is None:
            raise _UsageError("the following arguments are required: command")
        if not seen & set(SOURCES):
            raise _UsageError(f"one of the arguments {' '.join(SOURCES)} is required")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError as exc:
        sys.stderr.write(f"{_usage()}tiltcell: error: {exc}\n")
        sys.exit(2)
    return SimpleNamespace(**values)


def run(args) -> int:
    doc = (load_document(args.input, args.field) if args.input
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
