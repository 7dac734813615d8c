import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_parser
from tiltcell import cli, tilting
from tiltcell.docio import catalog_document, catalog_names, parse_document
from tiltcell.errors import InputError


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    """Run `python -m tiltcell.cli` in a child process that imports the
    package from this checkout's src, installed or not."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tiltcell.cli", *args],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})
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


@pytest.mark.parametrize("content", [
    b'{"field": "Q", "name": "\xff"}',
    b'{"field": "Q", "algebra": {"dim": ' + b"1" * 5000 + b"}}",
    b"[" * 200000 + b"]" * 200000,
], ids=["not-utf8", "long-int", "deep-array"])
def test_unreadable_document_exit_two(content, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert cli.main(["verify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot read input document") and "Traceback" not in err


def test_empty_input_path_names_the_unreadable_path():
    # an empty --input is a path to read, not an absent source
    code, out, err = run_cli("cells", "--input", "")
    assert code == 2
    assert b"cannot read input document" in err
    assert out == b""


@pytest.mark.parametrize("poset, tilting, message", [
    ({"labels": [True]}, None, "must be a string"),
    ({"labels": [1]}, None, "must be a string"),
    ({"labels": ["1", "2"], "covers": [["1", 2]]}, None, "must be a string"),
    ({"labels": ["1", "True"], "covers": [[True, "1"]]}, None, "must be a string"),
    ({"labels": ["1"]}, [[1, 1]], "must be a string"),
    ({"labels": ["1", "2"], "covers": [["1"]]}, None, "pairs"),
], ids=["label-true", "label-int", "cover-int", "cover-true", "tilting-int", "cover-shape"])
def test_non_string_labels_exit_two(poset, tilting, message, tmp_path, capsys):
    # JSON true and 1 are not the labels "True" and "1"
    doc = {"field": "Q", "poset": poset,
           "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1]], "unit": [1]}}
    if tilting is not None:
        doc["tilting"] = tilting
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("where", [(), ("algebra",)], ids=["name", "algebra-name"])
@pytest.mark.parametrize("value", [5, ["x"], {"a": 1}], ids=["int", "list", "object"])
def test_non_string_name_exit_two(value, where, command, fmt, tmp_path, capsys):
    doc = {"field": "Q", "poset": {"labels": ["1"]},
           "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1]], "unit": [1]},
           "anti_involution": [[1]]}
    target = doc
    for step in where:
        target = target[step]
    target["name"] = value
    path = tmp_path / "name.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--input", str(path), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert f"name {value!r} must be a string" in err and "Traceback" not in err


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


@pytest.mark.parametrize("spec", ["Fp \u00b2", "Fp \u0663"], ids=["superscript-2", "arabic-indic-3"])
def test_field_spec_with_non_ascii_digits_rejected(spec):
    # str.isdigit accepts both; the first then crashed int(), the second read as F_3
    code, out, err = run_cli("verify", "--catalog", "trivial", "--field", spec)
    assert (code, out) == (2, b"")
    assert err.startswith(b"input error: field spec") and b"Traceback" not in err


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
    with pytest.raises(SystemExit):
        cli.parse_args(["verify"])


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


def outcome(parse, argv):
    """(exit code or None, parsed values or None, stdout, stderr) of one
    parse, at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        try:
            values, code = vars(parse(argv)), None
        except SystemExit as exc:
            values, code = None, exc.code
    return code, values, out.getvalue(), err.getvalue()


FLAGS = [[], ["--field", "Fp 5"], ["--field", "Q"], ["--seed", "3"], ["--seed", "-1"],
         ["--trials", "0"], ["--dim-bound", "12"], ["--format", "json"], ["--format", "text"],
         ["--field", "Fp 7", "--seed", "4", "--trials", "9", "--dim-bound", "30",
          "--format", "json"],
         ["--seed=3"], ["--fi=Fp 5", "--dim", "12"], ["--se", "1", "--seed", "2"]]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_parser_matches_five_subparser_reference(command):
    one, five = build_parser(), reference_parser()
    for source in (["--input", "doc.json"], ["--catalog", "ut3"]):
        for flags in FLAGS:
            for argv in ([command, *source, *flags], [command, *flags, *source]):
                parsed = vars(cli.parse_args(argv))
                assert parsed == vars(one.parse_args(argv)) == vars(five.parse_args(argv)), argv


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
    (["cells", "--catalog", "ut3", "--f", "json"], 2),                # ambiguous prefix
    (["cells", "--catalog", "ut3", "--seed"], 2),                     # no value
    (["cells", "--catalog", "ut3", "--seed", "-x"], 2),
    (["cells", "--catalog", "ut3", "-x"], 2),                         # unknown flag
    (["cells", "--catalog", "ut3", "--help=x"], 2),
    (["cells", "--input", "doc.json", "--catalog", "nonsense"], 2),
    (["cells", "--catalog", "ut3", "--", "extra"], 2),
    (["cells", "--catalog", "ut3", "--"], 2),
    (["--", "cells", "--catalog", "ut3"], 2),
    (["cells", "--he"], 0),
])
def test_parser_exit_codes_match_reference(argv, code):
    # the usage, the help and every error byte for byte as argparse wrote them
    got = outcome(cli.parse_args, argv)
    assert got == outcome(build_parser().parse_args, argv)
    assert got[0] == exit_code(reference_parser(), argv) == code
    assert (got[2] if code == 0 else got[3]).startswith("usage: tiltcell [-h]")


# Command lines drawn from a fixed vocabulary: the commands, the flags and
# their prefixes, with a value as the next word or after `=`, catalog names
# and ints, `--`, -h and two words argparse rejects.  A value after `=` is
# never `--`: argparse reads `--seed=--` as the value [], which
# `cli.parse_args` rejects after argparse and the reference does not
# (`test_flag_equals_double_dash_exits_two`).
VALUES_OF = {"--input": ["doc.json"], "--catalog": [*catalog_names(), "nonsense"],
             "--field": ["Q", "Fp 5"], "--seed": ["0", "3", "-1", "three"],
             "--trials": ["0", "12", "-3"], "--dim-bound": ["12"],
             "--format": ["text", "json", "xml"]}
PREFIXES = [flag[:k] for flag in ("--help", *VALUES_OF) for k in range(3, len(flag) + 1)]
ANY_VALUE = [*cli.COMMANDS, *(v for values in VALUES_OF.values() for v in values)]
NOISE = st.one_of(
    st.sampled_from([*ANY_VALUE, *PREFIXES, "--", "-h", "-x", "extra"]),
    st.builds("{}={}".format, st.sampled_from(PREFIXES), st.sampled_from(ANY_VALUE)))


@st.composite
def flag_words(draw, flags=tuple(VALUES_OF)):
    flag = draw(st.sampled_from(flags))
    name = flag[:draw(st.integers(3, len(flag)))]
    value = draw(st.sampled_from(VALUES_OF[flag]))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def command_lines(draw):
    """A command, a source and more flags in any order, with a few words
    from the whole vocabulary inserted anywhere."""
    parts = [[draw(st.sampled_from(list(cli.COMMANDS)))], draw(flag_words(cli.SOURCES)),
             *draw(st.lists(flag_words(), max_size=3))]
    argv = [word for part in draw(st.permutations(parts)) for word in part]
    for at, word in draw(st.lists(st.tuples(st.integers(0, 12), NOISE), max_size=2)):
        argv.insert(at % (len(argv) + 1), word)
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parser_matches_argparse_on_drawn_command_lines(argv):
    assert outcome(cli.parse_args, argv) == outcome(build_parser().parse_args, argv)


@st.composite
def canonical_lines(draw):
    """A command and a source, then other flags at most once each, in any
    order, each as `--flag value` with a valid value."""
    values = {"--input": st.just("doc.json"), "--catalog": st.sampled_from(catalog_names()),
              "--field": st.sampled_from(["Q", "Fp 2", "Fp 5", "Fp 10007"]),
              "--format": st.sampled_from(["text", "json"])}
    source = draw(st.sampled_from(cli.SOURCES))
    others = draw(st.lists(st.sampled_from([flag for flag, *_ in cli.OPTIONS[2:]]),
                           unique=True))
    parts = [[draw(st.sampled_from(list(cli.COMMANDS)))]]
    for flag in (source, *others):
        parts.append([flag, draw(values.get(flag, st.integers(0, 10**6).map(str)))])
    return [word for part in draw(st.permutations(parts)) for word in part]


@settings(max_examples=200, deadline=None)
@given(canonical_lines())
def test_canonical_lines_are_read_as_argparse_reads_them(argv):
    values = cli._canonical(argv)
    assert values is not None
    assert values == vars(build_parser().parse_args(argv))
    assert vars(cli.parse_args(argv)) == values


@pytest.mark.parametrize("flag", [flag for flag, *_ in cli.OPTIONS])
def test_flag_equals_double_dash_exits_two(flag):
    # argparse reads `--flag=--` as the value [], which no flag can take
    code, out, err = run_cli("cells", "--catalog", "ut3", f"{flag}=--")
    assert code == 2 and out == b""
    assert err.startswith(b"usage: tiltcell") and b"Traceback" not in err


def test_parser_declares_each_option_once():
    flags = [flag for flag, *_ in cli.OPTIONS]
    assert flags == ["--input", "--catalog", "--field", "--seed", "--trials", "--dim-bound",
                     "--format"]
    assert cli.SOURCES == ("--input", "--catalog")
    assert dict((flag, choices) for flag, _, choices, _, _ in cli.OPTIONS)["--catalog"] == tuple(
        catalog_names())
    code, _, out, _ = outcome(cli.parse_args, ["-h"])
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  -")]
    assert code == 0 and listed == ["-h,", *flags]
    # flags may come before the command as well
    assert vars(cli.parse_args(["--seed", "2", "cells", "--catalog", "ut3"])) == vars(
        cli.parse_args(["cells", "--catalog", "ut3", "--seed", "2"]))


def test_cli_run_imports_no_argparse():
    # argparse's parser looks up gettext catalogs, which imports locale
    script = ("import io, sys\n"
              "from tiltcell import cli\n"
              "sys.stdout = io.TextIOWrapper(io.BytesIO())\n"
              "code = cli.main(['verify', '--catalog', 'trivial', '--format', 'json'])\n"
              "loaded = sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
              "sys.stderr.write(repr((code, loaded)))\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stderr.decode() == "(0, [])"


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


@pytest.mark.parametrize("value", [5, None, 1.5, True], ids=["int", "null", "float", "bool"])
def test_parse_document_rejects_struct_consts_not_a_list(value):
    doc = {"field": "Q", "algebra": {"dim": 1, "struct_consts": value, "unit": [1]},
           "poset": {"labels": ["1"], "covers": []}}
    with pytest.raises(InputError, match="struct_consts must be a list"):
        parse_document(doc)


def test_parse_document_rejects_an_empty_tilting_list():
    doc = {"field": "Q", "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, 1]], "unit": [1]},
           "poset": {"labels": ["1"], "covers": []}, "tilting": []}
    with pytest.raises(InputError, match="nonempty list"):
        parse_document(doc)


@pytest.mark.parametrize("command, where, value", [
    ("verify", ("algebra", "struct_consts"), 5),
    ("cellular", ("tilting",), []),
], ids=["struct-consts-int", "tilting-empty"])
def test_malformed_document_exits_two_with_empty_stdout(command, where, value, tmp_path):
    from tiltcell.docio import _CATALOG

    doc = json.loads(json.dumps(_CATALOG["auslander-dualnumbers"]))
    *steps, key = where
    target = doc
    for step in steps:
        target = target[step]
    target[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(command, "--input", str(path), "--format", "json")
    assert code == 2 and out == b""
    assert err.startswith(b"input error: ") and b"Traceback" not in err


@pytest.mark.parametrize("field, value", [("Fp 5", "1/5"), ("Fp 3", "2/6"), ("Fp 7", "0/14")])
def test_parse_document_rejects_a_denominator_divisible_by_p(field, value):
    # over F_p, b = 0 has no inverse; `Field.inv(0)` would read it as 0
    doc = {"field": field, "algebra": {"dim": 1, "struct_consts": [[0, 0, 0, value]],
                                       "unit": [1]},
           "poset": {"labels": ["1"], "covers": []}}
    with pytest.raises(InputError, match="denominator"):
        parse_document(doc)
    with pytest.raises(InputError, match="denominator"):
        parse_document({**doc, "field": "Q"}, field)


def test_fraction_over_q_overridden_by_its_denominators_prime_exits_two(tmp_path):
    from tiltcell.docio import _CATALOG

    doc = json.loads(json.dumps(_CATALOG["auslander-dualnumbers"]))
    doc["algebra"]["struct_consts"][0][3] = "3/3"
    path = tmp_path / "thirds.json"
    path.write_text(json.dumps(doc))
    assert parse_document(doc).algebra.dim == 5  # 3/3 is 1 over Q
    code, out, err = run_cli("verify", "--input", str(path), "--field", "Fp 3")
    assert code == 2 and out == b""
    assert err.startswith(b"input error: ") and b"denominator" in err


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


def test_tilting_request_repeating_a_label(tmp_path, capsys):
    # [["1", 1], ["1", 2]] asks for T(1)^3, which is what the support finds
    from tiltcell.docio import _CATALOG

    doc = dict(_CATALOG["a2path"], tilting=[["1", 1], ["1", 2]])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["tilting", "--input", str(path), "--format", "json"]) == 0
    requested = json.loads(capsys.readouterr().out)["requested_tilting"]
    assert requested["pieces"] == [["1", 1], ["1", 2]]
    assert requested["support"] == {"1": 3} and requested["support_matches_request"]


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


@pytest.mark.parametrize("command", ["tilting", "cells", "cellular"])
def test_permuted_request_passes(command, tmp_path, capsys):
    # a request out of label order, with a repeated piece, is split along
    # its own pieces, and every check that reads its summands passes
    from tiltcell.docio import _CATALOG

    path = tmp_path / "permuted.json"
    path.write_text(json.dumps({**_CATALOG["auslander-dualnumbers"],
                                "tilting": [["2", 1], ["1", 2]]}))
    assert cli.main([command, "--input", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    if command == "tilting":
        assert report["requested_tilting"]["support"] == {"2": 1, "1": 2}
        assert report["requested_tilting"]["support_matches_request"] is True
    if command == "cellular":
        assert all(v is True for k, v in report["cellularity"].items() if k != "simple_dims")


def test_cellular_splits_the_requested_tilting_without_krull_schmidt(monkeypatch):
    # fixed_point_for_tilting and the simple dimensions both need the
    # summands of the requested module, a direct sum of the T(label): they
    # are read off its parts, and no Krull-Schmidt split is made
    pipe = cli.Pipeline(catalog_document("auslander-dualnumbers"))
    pipe.tiltings()
    calls = []
    decompose = tilting.krull_schmidt
    monkeypatch.setattr(tilting, "krull_schmidt", lambda m: calls.append(m) or decompose(m))
    report, code = cli.build_report(pipe, "cellular")
    assert code == 0 and report["ok"]
    assert calls == []
