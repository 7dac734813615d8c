import argparse
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tiltcell import cli, tilting
from tiltcell.cli import build_parser
from tiltcell.docio import catalog_document, catalog_names, parse_document
from tiltcell.errors import InputError


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "tiltcell.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_good_catalog_exit_zero():
    code, out, _ = run_cli("verify", "--catalog", "a2path", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checks"]["failed"] == 0


def test_verify_dualnumbers_exit_one():
    code, out, _ = run_cli("verify", "--catalog", "dualnumbers", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    failing = {f["check"] for f in report["failures"]}
    assert "ext1_standard_costandard" in failing


def test_unknown_catalog_exit_two():
    code, _, err = run_cli("verify", "--catalog", "nonsense")
    assert code == 2


def test_bad_input_file_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "Q", "algebra": {"dim": 1,
                                "struct_consts": [[0, 0, 0, 1]], "unit": [1]},
                                "poset": {"labels": ["1"], "covers": []},
                                "surprise": True}))
    code, _, err = run_cli("verify", "--input", str(path))
    assert code == 2
    assert b"unknown keys" in err


def test_input_file_roundtrip(tmp_path):
    from tiltcell.docio import _CATALOG

    path = tmp_path / "a2.json"
    path.write_text(json.dumps(_CATALOG["a2path"]))
    code, out, _ = run_cli("verify", "--input", str(path), "--format", "json")
    assert code == 0


def test_field_override_prime():
    code, out, _ = run_cli("verify", "--catalog", "a2path", "--field", "Fp 5",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["input"]["field"] == "F5"


def test_cellular_requires_anti_involution():
    code, _, err = run_cli("cellular", "--catalog", "a2path")
    assert code == 2
    assert b"anti_involution" in err


def test_cellular_auslander_passes():
    code, out, _ = run_cli("cellular", "--catalog", "auslander-dualnumbers",
                           "--trials", "10", "--format", "json")
    assert code == 0
    report = json.loads(out)
    cc = report["cellularity"]
    assert cc["involution_squares_to_identity"] and cc["gram_symmetric"]
    assert cc["fibers_square"] and cc["involution_transposes_fibers"]


def test_seed_flag_lands_in_report():
    code, out, _ = run_cli("basis", "--catalog", "semisimple2", "--seed", "9",
                           "--trials", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["input"]["seed"] == 9
    assert report["seed_study"]["seeds"] == [9, 10]


def test_reports_byte_identical():
    runs = [run_cli("basis", "--catalog", "a2path", "--seed", "3",
                    "--trials", "8", "--format", "json") for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


def test_text_format_renders():
    code, out, _ = run_cli("cells", "--catalog", "semisimple2", "--trials", "5")
    assert code == 0
    assert b"semisimple" in out


def test_parser_rejects_missing_source():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["verify"])


def reference_parser():
    """The parser `build_parser` made before it declared each option once:
    one subparser per command, each with its own copy of every flag."""
    parser = argparse.ArgumentParser(prog="tiltcell")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in cli.COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input")
        src.add_argument("--catalog", choices=catalog_names())
        p.add_argument("--field", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--dim-bound", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


FLAGS = [[], ["--field", "Fp 5"], ["--field", "Q"], ["--seed", "3"], ["--seed", "-1"],
         ["--trials", "0"], ["--dim-bound", "12"], ["--format", "json"], ["--format", "text"],
         ["--field", "Fp 7", "--seed", "4", "--trials", "9", "--dim-bound", "30",
          "--format", "json"]]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_parser_matches_five_subparser_reference(command):
    new, ref = build_parser(), reference_parser()
    for source in (["--input", "doc.json"], ["--catalog", "ut3"]):
        for flags in FLAGS:
            for argv in ([command, *source, *flags], [command, *flags, *source]):
                assert vars(new.parse_args(argv)) == vars(ref.parse_args(argv)), argv


def exit_code(parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0),
    (["basis", "-h"], 0),
    (["verify"], 2),                                                  # no source
    (["verify", "--input", "doc.json", "--catalog", "ut3"], 2),       # two sources
    (["frobnicate", "--catalog", "ut3"], 2),                          # unknown command
    (["ver", "--catalog", "ut3"], 2),                                 # no abbreviations
    (["cells", "--catalog", "ut3", "--format", "xml"], 2),
    (["cells", "--catalog", "nonsense"], 2),
    (["cells", "--catalog", "ut3", "--seed", "three"], 2),
    (["cells", "--catalog", "ut3", "extra"], 2),
    ([], 2),
])
def test_parser_exit_codes_match_reference(argv, code, capsys):
    assert exit_code(build_parser(), argv) == exit_code(reference_parser(), argv) == code


def test_parser_declares_each_option_once():
    def option_strings(parser):
        for action in parser._actions:
            yield from action.option_strings
            if isinstance(action, argparse._SubParsersAction):
                for p in action.choices.values():
                    yield from option_strings(p)

    parser = build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    strings = list(option_strings(parser))
    assert len(strings) == len(set(strings))
    assert {"--input", "--catalog", "--field", "--seed", "--trials", "--dim-bound",
            "--format"} <= set(strings)
    # flags may now come before the command as well
    assert vars(parser.parse_args(["--seed", "2", "cells", "--catalog", "ut3"])) == vars(
        parser.parse_args(["cells", "--catalog", "ut3", "--seed", "2"]))


def test_parse_document_rejections():
    with pytest.raises(InputError):
        parse_document({"field": "R", "algebra": {}, "poset": {}})
    with pytest.raises(InputError):
        parse_document({"field": "Q",
                        "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1.5]],
                                    "unit": [1]},
                        "poset": {"labels": ["1"], "covers": []}})
    with pytest.raises(InputError):
        parse_document({"field": "Q",
                        "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1]],
                                    "unit": [1]},
                        "poset": {"labels": ["1"], "covers": []},
                        "tilting": [["nope", 1]]})


@pytest.mark.parametrize("where, value", [
    (("algebra", "dim"), True),
    (("algebra", "struct_consts"), [[False, False, False, 1]]),
    (("options", "seed"), True),
    (("options", "trials"), True),
    (("options", "dim_bound"), True),
    (("tilting",), [["1", True]]),
], ids=["dim", "struct-const-indices", "seed", "trials", "dim-bound", "multiplicity"])
def test_parse_document_rejects_booleans_for_integers(where, value):
    # JSON true and false are Python's 1 and 0, and must not pass for integers
    doc = {"field": "Q", "options": {},
           "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1]], "unit": [1]},
           "poset": {"labels": ["1"], "covers": []}}
    parse_document(doc)
    *path, key = where
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    with pytest.raises(InputError, match="integer"):
        parse_document(doc)


def test_tilting_request_list(tmp_path):
    from tiltcell.docio import _CATALOG

    doc = dict(_CATALOG["a2path"])
    doc["tilting"] = [["1", 2], ["2", 1]]
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("cells", "--input", str(path), "--trials", "5",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["requested_tilting"]["pieces"] == [["1", 2], ["2", 1]]
    assert report["simple_dims"] == {"1": 2, "2": 1}


def test_semisimplicity_cross_check_boundary(tmp_path):
    # T(max)^2 alone: End is a matrix ring (semisimple) while T is not
    # semisimple; the two verdicts genuinely disagree without matching
    # standard/costandard multiplicities, and the pipeline must say so
    from tiltcell.docio import _CATALOG

    doc = dict(_CATALOG["a2path"])
    doc["tilting"] = [["1", 2]]
    path = tmp_path / "matrixring.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("cells", "--input", str(path), "--trials", "5",
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "TheoremViolation"
    assert "disagree" in report["error"]["message"]


def test_cellular_char2_rejected():
    code, _, err = run_cli("cellular", "--catalog", "auslander-dualnumbers",
                           "--field", "Fp 2", "--trials", "2")
    assert code == 2
    assert b"characteristic" in err


def test_prime_field_pipeline_end_to_end():
    code, out, _ = run_cli("cellular", "--catalog", "auslander-dualnumbers",
                           "--field", "Fp 5", "--trials", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["cellularity"]["gram_symmetric"]


def test_negative_seed_rejected():
    code, _, err = run_cli("verify", "--catalog", "trivial", "--seed", "-3")
    assert code == 2
    assert b"nonnegative" in err


def test_huge_prime_field_runs_quickly():
    code, out, _ = run_cli("verify", "--catalog", "a2path", "--field",
                           "Fp 1000000000000000003", "--format", "json")
    assert code == 0
    assert json.loads(out)["input"]["field"] == "F1000000000000000003"


def test_huge_composite_field_rejected():
    code, _, err = run_cli("verify", "--catalog", "a2path", "--field", "Fp 1000000000000000001")
    assert code == 2
    assert b"not prime" in err


def test_characteristic_beyond_primality_bound_rejected():
    code, _, err = run_cli("verify", "--catalog", "a2path", "--field", f"Fp {10 ** 29}")
    assert code == 2
    assert str(10 ** 29).encode() in err


def test_is_prime_matches_trial_division():
    from tiltcell.linalg import _is_prime

    def by_trial(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if by_trial(n)]


DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def report_bytes(argv, monkeypatch):
    """The report bytes one in-process CLI run writes."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    cli.main(argv)
    out.flush()
    return out.buffer.getvalue()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_catalog_reports_match_recorded_digests(seed, monkeypatch):
    # every catalog x subcommand JSON report against the benchmark's recorded
    # digests, which this test reads and never writes
    recorded = json.loads(DIGESTS.read_text())["catalog"][str(seed)]
    seen = {}
    for name in catalog_names():
        for command in cli.COMMANDS:
            argv = [command, "--catalog", name, "--format", "json", "--seed", str(seed)]
            seen[" ".join(argv)] = hashlib.sha256(report_bytes(argv, monkeypatch)).hexdigest()
    assert seen == recorded


def test_basis_report_depends_on_trials_only_through_the_probe_counts(monkeypatch):
    reports = {}
    for trials in (0, None, 250):
        argv = ["basis", "--catalog", "ut3", "--format", "json"]
        report = json.loads(report_bytes(
            argv + ([] if trials is None else ["--trials", str(trials)]), monkeypatch))
        axioms = report["basis"]["axioms"]
        reports[trials] = (report["input"].pop("trials"), axioms.pop("probes"),
                           axioms.pop("congruences_checked"), report)
    # ut3's cell basis has 6 elements, each probe checks both laws at all 6
    assert [r[:3] for r in reports.values()] == [(0, 6, 72), (100, 106, 1272), (250, 256, 3072)]
    assert reports[0][3] == reports[None][3] == reports[250][3]
    assert reports[0][3]["ok"]


def test_cellular_decomposes_the_requested_tilting_once(monkeypatch):
    # fixed_point_for_tilting and the simple dimensions both need the
    # tilting support of the requested module; it is decomposed once
    pipe = cli.Pipeline(catalog_document("auslander-dualnumbers"))
    pipe.tiltings()
    calls = []
    decompose = tilting.krull_schmidt
    monkeypatch.setattr(tilting, "krull_schmidt", lambda m: calls.append(m) or decompose(m))
    report, code = cli.build_report(pipe, "cellular")
    assert code == 0 and report["ok"]
    assert len(calls) == 1
