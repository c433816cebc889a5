import argparse
import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from decimal import Decimal
from math import comb
from pathlib import Path

import pytest

import rmlab
from rmlab import _bitenum, cli
from rmlab.bfcore import TruthTable
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.harness import Method, Mode, Scope, Verdict, balanced_count_of_coset, census_balanced
from rmlab.rmcodes import RMParams

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself requires tomli below 3.11
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
WEIGHTDIST_ARGS = ["weightdist", "-k", "1", "-m", "3", "--format", "csv"]
WEIGHTDIST_CSV = "weight,count\n0,1\n4,14\n8,1\n"

# Loads a console_scripts entry point the way a generated wrapper does and
# runs it as `rmlab ARGS...`; argv is [entry point value, ARGS...].
RUN_ENTRY_POINT = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "script = EntryPoint(name='rmlab', value=sys.argv[1],"
    " group='console_scripts').load()\n"
    "sys.argv = ['rmlab', *sys.argv[2:]]\n"
    "sys.exit(script())\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands(parser):
    """name -> subparser of a built parser; empty for a leaf command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def subparser(parser, *path):
    for name in path:
        parser = subcommands(parser)[name]
    return parser


def leaf_paths(parser, path=()):
    children = subcommands(parser)
    if not children:
        yield path
    for name, child in children.items():
        yield from leaf_paths(child, (*path, name))


# a command line for every command path that sets each of its options
COMMAND_LINES = {
    ("kraw",): ["--n", "8", "--central", "--all", "--format", "csv", "--output", "o"],
    ("weightdist",): ["-k", "1", "-m", "3", "--method", "macwilliams", "--cap", "9", "--format", "table"],
    ("cosetdist",): ["-k", "1", "-m", "3", "--rep", "03", "--method", "brute", "--cap", "9", "--output", "o"],
    ("wht",): ["-m", "2", "--anf", "Y1Y2", "--format", "csv"],
    ("verify", "theorem5"): ["-k", "2", "-m", "4", "--method", "transform", "--cap", "9",
                             "--checkpoint", "c", "--workers", "2", "--coset-cap", "7", "--output", "o"],
    ("verify", "conjecture"): ["-k", "1", "-m", "3", "--cap", "9", "--checkpoint", "c",
                               "--workers", "2", "--coset-cap", "7", "--output", "o"],
    ("verify", "rm1"): ["-m", "5", "--sampled", "--samples", "10", "--seed", "3",
                        "--workers", "2", "--coset-cap", "7", "--output", "o"],
    ("verify", "oddweight"): ["-m", "3", "--cap", "9", "--workers", "2", "--coset-cap", "7", "--output", "o"],
    ("verify", "equidist"): ["-m", "3", "--cap", "9", "--workers", "2", "--coset-cap", "7", "--output", "o"],
    ("census",): ["-k", "1", "-m", "3", "--scope", "next", "--workers", "2", "--checkpoint", "c",
                  "--cap", "9", "--coset-cap", "7", "--format", "json", "--output", "o"],
}


def test_command_lines_cover_every_command_path():
    assert set(leaf_paths(cli._build_parser([]))) == set(COMMAND_LINES)


@pytest.mark.parametrize("path", COMMAND_LINES, ids=" ".join)
def test_parser_for_one_command_equals_the_full_parser(path):
    argv = [*path, *COMMAND_LINES[path]]
    lazy, full = cli._build_parser(argv), cli._build_parser([])
    assert list(leaf_paths(lazy)) == [path]
    assert subparser(lazy, *path).format_help() == subparser(full, *path).format_help()
    assert lazy.parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nosuch"], ["verify"], ["verify", "--help"], ["verify", "nosuch"],
    ["weightdist", "-k", "1", "-m", "3", "extra"],  # unrecognized: the top-level usage
    ["verify", "rm1", "-m", "3", "--cap", "0"],
])
def test_help_and_usage_errors_are_the_full_parsers(capsys, monkeypatch, argv):
    def outcome():
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        return exc.value.code, *capsys.readouterr()

    lazy = outcome()
    assert lazy[0] == (0 if "--help" in argv else 2) and lazy[1] + lazy[2]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
    assert outcome() == lazy


@pytest.mark.parametrize("argv, parsers", [
    (["weightdist", "-k", "1", "-m", "3"], 2),
    (["verify", "theorem5", "-k", "1", "-m", "3"], 3),
    (["--help"], 12),
])
def test_only_the_named_subparsers_are_built(capsys, monkeypatch, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert len(built) == parsers


def test_kraw_single_values(capsys):
    assert run(capsys, "kraw", "--n", "8", "--central", "--i", "2") == (0, "-10\n", "")
    assert run(capsys, "kraw", "--n", "8", "--central", "--i", "1") == (0, "0\n", "")
    assert run(capsys, "kraw", "--n", "4", "--j", "1", "--i", "2") == (0, "0\n", "")


def test_kraw_column_formats(capsys):
    assert run(capsys, "kraw", "--n", "4", "--j", "1", "--all") == (0, "4 2 0 -2 -4\n", "")
    code, out, _ = run(capsys, "kraw", "--n", "4", "--j", "1", "--all", "--format", "json")
    assert code == 0 and json.loads(out) == [4, 2, 0, -2, -4]
    code, out, _ = run(capsys, "kraw", "--n", "4", "--j", "1", "--all", "--format", "csv")
    assert code == 0
    assert out == "i,value\n0,4\n1,2\n2,0\n3,-2\n4,-4\n"
    code, out, _ = run(capsys, "kraw", "--n", "8", "--central", "--all")
    assert code == 0 and out == "70 0 -10 0 6 0 -10 0 70\n"


def test_kraw_prints_values_past_the_digit_limit(capsys):
    # C(16384, 8192) has 4930 decimal digits, past Python's default 4300
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "kraw", "--n", "16384", "--central", "--i", "0")
    assert code == 0 and err == ""
    assert len(out.strip()) == 4930
    assert Decimal(out) == comb(16384, 8192)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_kraw_flag_validation(capsys):
    for argv in (
        ["kraw", "--n", "8", "--central", "--j", "2", "--i", "0"],
        ["kraw", "--n", "8", "--i", "0"],
        ["kraw", "--n", "8", "--j", "1"],
        ["kraw", "--n", "8", "--j", "1", "--i", "0", "--all"],
        ["kraw", "--n", "7", "--central", "--i", "0"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "invalid parameters" in err


def test_weightdist_json(capsys):
    code, out, _ = run(capsys, "weightdist", "-k", "1", "-m", "3")
    assert code == 0
    assert json.loads(out) == {
        "n": 8,
        "counts": ["1", "0", "0", "0", "14", "0", "0", "0", "1"],
    }


def test_weightdist_other_formats(capsys):
    code, out, _ = run(capsys, "weightdist", "-k", "1", "-m", "3", "--format", "csv")
    assert code == 0 and out == "weight,count\n0,1\n4,14\n8,1\n"
    code, out, _ = run(capsys, "weightdist", "-k", "1", "-m", "3", "--format", "table")
    lines = out.splitlines()
    assert lines[0].split() == ["weight", "count"]
    assert [ln.split() for ln in lines[1:]] == [["0", "1"], ["4", "14"], ["8", "1"]]


def test_weightdist_methods_agree(capsys):
    _, brute, _ = run(capsys, "weightdist", "-k", "2", "-m", "5", "--method", "brute")
    _, mw, _ = run(capsys, "weightdist", "-k", "2", "-m", "5", "--method", "macwilliams")
    assert brute == mw
    counts = json.loads(brute)["counts"]
    assert counts[16] == "36518" and counts[0] == "1"


def test_weightdist_validation(capsys):
    code, _, err = run(capsys, "weightdist", "-k", "4", "-m", "3")
    assert code == 2 and "invalid parameters" in err


def test_weightdist_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "weightdist", "-k", "2", "-m", "5", "--cap", "4")
    assert code == 3 and "cap exceeded" in err
    code, _, _ = run(capsys, "weightdist", "-k", "2", "-m", "5", "--cap", "16")
    assert code == 0
    # only --cap sets the cap: the environment plays no part
    code, plain, _ = run(capsys, "weightdist", "-k", "2", "-m", "5")
    assert code == 0
    for value in ("4", "junk"):
        monkeypatch.setenv("RMLAB_CAP_DIM", value)
        assert run(capsys, "weightdist", "-k", "2", "-m", "5") == (0, plain, "")


def test_cosetdist(capsys):
    code, out, _ = run(capsys, "cosetdist", "-k", "1", "-m", "3", "--rep", "03",
                       "--format", "csv")
    assert code == 0 and out == "weight,count\n2,4\n4,8\n6,4\n"
    _, brute, _ = run(capsys, "cosetdist", "-k", "1", "-m", "3", "--rep", "03",
                      "--method", "brute", "--format", "csv")
    assert brute == out
    code, out, _ = run(capsys, "cosetdist", "-k", "2", "-m", "4", "--rep", "0003")
    assert code == 0 and json.loads(out)["counts"][8] == "800"


def test_cosetdist_rejects_rep_in_code(capsys):
    code, _, err = run(capsys, "cosetdist", "-k", "1", "-m", "3", "--rep", "33")
    assert code == 2
    assert "lies in RM(1,3)" in err
    code, _, err = run(capsys, "cosetdist", "-k", "1", "-m", "3", "--rep", "zz")
    assert code == 2
    code, _, err = run(capsys, "cosetdist", "-k", "1", "-m", "3", "--rep", "0033")
    assert code == 2
    code, out, err = run(capsys, "cosetdist", "-k", "1", "-m", "4", "--rep", "0x12")
    assert code == 2 and out == "" and "invalid hex string" in err


def test_wht(capsys):
    code, out, _ = run(capsys, "wht", "-m", "2", "--anf", "Y1Y2", "--format", "table")
    assert code == 0 and out == "2 2 2 -2\n"
    code, out, _ = run(capsys, "wht", "-m", "2", "--anf", "Y1Y2")
    assert code == 0 and json.loads(out) == [2, 2, 2, -2]
    code, out, _ = run(capsys, "wht", "-m", "3", "--hex", "03", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "omega,value"
    code, _, err = run(capsys, "wht", "-m", "2", "--anf", "Y3")
    assert code == 2 and "invalid parameters" in err


def test_verify_theorem_pass(capsys):
    code, out, _ = run(capsys, "verify", "theorem5", "-k", "1", "-m", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["code_count"] == "14" and obj["max_other"] == "8"
    assert obj["mode"] == "EXHAUSTIVE" and obj["witness_hex"] is None
    code, out, _ = run(capsys, "verify", "theorem5", "-k", "2", "-m", "4",
                       "--method", "transform")
    assert code == 0 and json.loads(out)["method"] == "transform"


def test_verify_other_claims(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "-k", "1", "-m", "3")
    assert code == 0 and json.loads(out)["mode"] == "EMPIRICAL"
    code, out, _ = run(capsys, "verify", "rm1", "-m", "3")
    assert code == 0 and json.loads(out)["mode"] == "EXHAUSTIVE"
    code, out, _ = run(capsys, "verify", "rm1", "-m", "5", "--sampled",
                       "--samples", "200", "--seed", "7")
    obj = json.loads(out)
    assert code == 0 and obj["mode"] == "SAMPLED"
    assert obj["params"]["samples"] == 200 and obj["params"]["seed"] == 7
    code, out, _ = run(capsys, "verify", "oddweight", "-m", "3")
    assert code == 0 and json.loads(out)["max_other"] == "0"
    code, out, _ = run(capsys, "verify", "equidist", "-m", "4")
    assert code == 0 and json.loads(out)["code_count"] == "870"


def test_verify_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "theorem5", "-k", "1", "-m", "4")
    assert code == 2 and "invalid parameters" in err
    code, _, err = run(capsys, "verify", "theorem5", "-k", "2", "-m", "5", "--cap", "4")
    assert code == 3 and "cap exceeded" in err
    # oddweight has no range of its own: the dual table needs 2^(14+13) bins, past the default cap of 2^26
    code, out, err = run(capsys, "verify", "oddweight", "-m", "13")
    assert code == 3 and out == "" and "enumeration cap 26" in err
    fake = Verdict(
        claim="theorem5", params={"k": 1, "m": 3}, mode=Mode.EXHAUSTIVE,
        method=Method.BRUTE, passed=False, code_count=14, max_other=14,
        witness=TruthTable(3, 3), elapsed_ms=1,
    )
    monkeypatch.setattr(cli, "verify_theorem_basic", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "theorem5", "-k", "1", "-m", "3")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["witness_hex"] == "03"


@pytest.mark.parametrize("error,code", [
    (ParameterError, 2), (CapExceededError, 3), (ExactnessError, 4),
])
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("made to fail")

    monkeypatch.setattr(cli, "census_balanced", fail)
    got, out, err = run(capsys, "census", "-k", "1", "-m", "3")
    assert got == code and out == ""
    assert err.count("\n") == 1 and err.endswith(": made to fail\n")


def write_edited_log(path, scope, counts):
    """A census log of RM(1,3) whose only chunk line holds counts under a
    recomputed CRC, so that every check of the log itself passes."""
    body = " ".join(map(str, counts))
    cosets = {"FULL_SPACE": 15, "WITHIN_NEXT_ORDER": 7}[scope]
    path.write_text(f"census 1 1 3 {scope} {cosets}\n0 {zlib.crc32(body.encode()):08x} {body}\n")


def test_exactness_error_exits_4_without_traceback(capsys, tmp_path):
    path = tmp_path / "f.log"
    # RM(1,3)'s full-space counts with one 8 zeroed
    write_edited_log(path, "FULL_SPACE", [14, 0, 0, 0, 0, 8, 8, 0, 0, 8, 8, 0, 8, 0, 0, 8])
    code, out, err = run(capsys, "census", "-k", "1", "-m", "3", "--checkpoint", str(path))
    assert code == 4 and out == ""
    assert err == ("rmlab: exactness check failed: balanced counts of RM(1,3) and its cosets "
                   "sum to 62, not C(8,4) = 70\n")


def test_edited_next_order_log_is_refused(capsys, tmp_path):
    path = tmp_path / "n.log"
    write_edited_log(path, "WITHIN_NEXT_ORDER", [14, 8, 8, 16, 8, 8, 8, 8])
    code, out, err = run(capsys, "verify", "conjecture", "-k", "1", "-m", "3",
                         "--checkpoint", str(path))
    assert code == 4 and out == ""
    assert err == ("rmlab: exactness check failed: balanced counts of RM(1,3) and its cosets "
                   "sum to 78, not the balanced count of RM(2,3) = 70\n")


def test_census_csv_golden(capsys):
    code, out, _ = run(capsys, "census", "-k", "1", "-m", "3", "--scope", "next")
    assert code == 0
    assert out == (
        "rep_hex,balanced_count\n"
        "03,8\n05,8\n06,8\n11,8\n12,8\n14,8\n17,8\n"
    )


def test_census_json_and_table(capsys):
    code, out, _ = run(capsys, "census", "-k", "1", "-m", "3", "--scope", "next",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 1 and obj["m"] == 3 and obj["scope"] == "WITHIN_NEXT_ORDER"
    assert obj["code_balanced_count"] == "14"
    assert obj["entries"][0] == ["03", "8"] and len(obj["entries"]) == 7
    code, out, _ = run(capsys, "census", "-k", "1", "-m", "3", "--scope", "next",
                       "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["rep_hex", "balanced_count"]


@pytest.mark.parametrize("k, m, scope", [
    (1, 1, "full"),  # no nontrivial coset: the header alone
    (0, 1, "full"), (0, 1, "next"),  # one hex digit, padded
    (1, 4, "full"), (1, 4, "next"),
    (0, 7, "next"),  # two-word reps; no full-space census at m = 7 is countable
    (2, 5, "next"),  # 1,023 reps of 8 digits, counts of three widths
])
def test_census_json_and_table_are_the_whole_census(capsys, monkeypatch, k, m, scope):
    # every format against a tuple-of-pairs oracle; text chunks of one
    # row, of several rows and a remainder (4 words), and of all rows
    census = census_balanced(RMParams(k, m), Scope(scope))
    counts = [balanced_count_of_coset(census.code, census.rep_table(i)) for i in range(1, len(census.classes))]
    assert counts == census.id_counts()[1:]
    rows = tuple((census.rep_table(i).to_hex(), str(c)) for i, c in enumerate(counts, start=1))
    obj = {"k": k, "m": m, "scope": census.scope.name,
           "code_balanced_count": str(census.code_balanced_count),
           "entries": [list(row) for row in rows]}
    expected = {
        "csv": "rep_hex,balanced_count\n" + "".join(f"{h},{c}\n" for h, c in rows),
        "json": json.dumps(obj) + "\n",
        "table": cli._two_column(("rep_hex", "balanced_count"), list(rows)),
    }
    argv = ["census", "-k", str(k), "-m", str(m), "--scope", scope, "--format"]
    for pass_words in (1, 4, _bitenum._PASS_WORDS):
        monkeypatch.setattr(_bitenum, "_PASS_WORDS", pass_words)
        for fmt, text in expected.items():
            assert run(capsys, *argv, fmt) == (0, text, ""), (fmt, pass_words)


@pytest.mark.parametrize("argv", [
    ("verify", "theorem5", "-k", "1", "-m", "3", "--output", "{tmp}/nodir/x.json"),
    ("verify", "theorem5", "-k", "1", "-m", "3", "--checkpoint", "{tmp}"),
    ("weightdist", "-k", "1", "-m", "3", "--output", "/dev/full"),
    ("census", "-k", "0", "-m", "3", "--checkpoint", "{tmp}/nodir/log"),
])
def test_unwritable_paths_exit_2(capsys, tmp_path, argv):
    # exit 1 means a claim failed, so an I/O error must not end in a traceback
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("rmlab: invalid parameters: cannot ") and f" {argv[-1]}: " in err


def test_failing_census_writes_no_output_file(capsys, tmp_path):
    log, out_path = tmp_path / "f.log", tmp_path / "out.csv"
    write_edited_log(log, "FULL_SPACE", [14, 0, 0, 0, 0, 8, 8, 0, 0, 8, 8, 0, 8, 0, 0, 8])
    code, out, err = run(capsys, "census", "-k", "1", "-m", "3", "--checkpoint", str(log),
                         "--output", str(out_path))
    assert code == 4 and out == "" and "sum to 62" in err
    assert not out_path.exists()


def test_census_caps(capsys):
    code, _, err = run(capsys, "census", "-k", "1", "-m", "5")
    assert code == 3 and "cap exceeded" in err
    code, _, err = run(capsys, "census", "-k", "1", "-m", "3", "--coset-cap", "4")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["census", "-k", "1", "-m", "3", "--coset-cap", "-1"],
    ["verify", "theorem5", "-k", "2", "-m", "4", "--method", "transform", "--coset-cap", "-5"],
])
def test_negative_coset_cap_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "coset cap override must be a nonnegative int" in err


@pytest.mark.parametrize("mode", [("--sampled",), ()])  # m = 5 samples by default
def test_sampled_rm1_refuses_a_coset_cap(capsys, mode):
    for cap in ("-1", "0", "1000"):
        code, out, err = run(capsys, "verify", "rm1", "-m", "5", *mode, "--samples", "10",
                             "--coset-cap", cap)
        assert code == 2 and out == "" and "coset cap applies to the exhaustive check" in err


def test_exhaustive_rm1_still_reads_the_coset_cap(capsys):
    _, plain, _ = run(capsys, "verify", "rm1", "-m", "3", "--exhaustive")
    code, out, _ = run(capsys, "verify", "rm1", "-m", "3", "--exhaustive", "--coset-cap", "16")
    elapsed = re.compile(r'"elapsed_ms": \d+')
    assert code == 0 and elapsed.sub("", out) == elapsed.sub("", plain)
    code, _, err = run(capsys, "verify", "rm1", "-m", "3", "--exhaustive", "--coset-cap", "15")
    assert code == 3 and "exceed the coset cap 15" in err
    code, _, err = run(capsys, "verify", "rm1", "-m", "3", "--exhaustive", "--coset-cap", "-1")
    assert code == 2 and "coset cap override must be a nonnegative int" in err


def test_workers_must_be_positive(capsys):
    for workers in ("0", "-1"):
        code, out, err = run(capsys, "census", "-k", "1", "-m", "3", "--workers", workers)
        assert code == 2 and out == "" and "worker count" in err
        code, out, err = run(capsys, "verify", "conjecture", "-k", "1", "-m", "3",
                             "--workers", workers)
        assert code == 2 and out == "" and "worker count" in err
        code, out, err = run(capsys, "verify", "oddweight", "-m", "3", "--workers", workers)
        assert code == 2 and out == "" and "worker count" in err
        code, out, err = run(capsys, "verify", "theorem5", "-k", "2", "-m", "4",
                             "--method", "transform", "--workers", workers)
        assert code == 2 and out == "" and "worker count" in err


def test_census_checkpoint(capsys, tmp_path):
    path = str(tmp_path / "cp.json")
    code, first, _ = run(capsys, "census", "-k", "1", "-m", "3", "--checkpoint", path)
    assert code == 0
    code, second, _ = run(capsys, "census", "-k", "1", "-m", "3", "--checkpoint", path)
    assert code == 0 and second == first


def test_edited_checkpoint_count_is_refused(capsys, tmp_path):
    path = tmp_path / "ck.json"
    argv = ("verify", "theorem5", "-k", "1", "-m", "3", "--checkpoint", str(path))
    code, first, _ = run(capsys, *argv)
    assert code == 0 and json.loads(first)["pass"] is True
    header, chunk = path.read_text().splitlines(keepends=True)
    start, crc, code_count, *counts = chunk.split()
    path.write_text(header + " ".join([start, crc, code_count, "14", *counts[1:]]) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"checkpoint {path}, line 2: CRC-32 mismatch" in err


def test_pre_log_json_checkpoint_is_refused(capsys, tmp_path):
    path = tmp_path / "ck.json"
    old = {"kind": "census", "k": 1, "m": 3, "scope": "FULL_SPACE", "total": 15, "counts": [0, 0]}
    path.write_text(json.dumps(old))
    code, out, err = run(capsys, "census", "-k", "1", "-m", "3", "--checkpoint", str(path))
    assert code == 2 and out == "" and f"checkpoint {path}, line 1: not the census log header" in err
    assert json.loads(path.read_text()) == old


@pytest.mark.parametrize("argv", [
    ("verify", "rm1", "-m", "3", "--checkpoint", "P"),
    ("verify", "oddweight", "-m", "3", "--checkpoint", "P"),
    ("verify", "equidist", "-m", "3", "--checkpoint", "P"),
    ("verify", "rm1", "-m", "3", "--cap", "0"),
])
def test_claims_refuse_options_they_do_not_use(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "P").exists()


def test_transform_theorem_refuses_checkpoint(capsys, tmp_path):
    path = tmp_path / "P"
    code, out, err = run(capsys, "verify", "theorem5", "-k", "2", "-m", "4",
                         "--method", "transform", "--checkpoint", str(path))
    assert code == 2 and out == "" and "checkpoint" in err
    assert not path.exists()
    # --workers stays on every claim
    for argv in (("oddweight", "-m", "3"), ("equidist", "-m", "3"), ("rm1", "-m", "3"),
                 ("theorem5", "-k", "2", "-m", "4", "--method", "transform")):
        code, _, _ = run(capsys, "verify", *argv, "--workers", "1")
        assert code == 0


def test_output_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, out, _ = run(capsys, "weightdist", "-k", "2", "-m", "4",
                           "--output", str(target))
        assert code == 0 and out == ""
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["counts"][8] == "870"


def run_child(argv, tmp_path):
    """Run argv in a fresh process that imports the rmlab under test.

    The package's parent directory goes first on PYTHONPATH, so neither the
    working directory nor any other installed rmlab can supply the import.
    """
    env = dict(os.environ)
    src = str(Path(rmlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)


def test_installed_entry_point(tmp_path):
    proc = run_child(
        [sys.executable, "-m", "rmlab.cli", "kraw", "--n", "8", "--central", "--i", "2"],
        tmp_path,
    )
    assert proc.returncode == 0 and proc.stdout == "-10\n", proc.stderr
    # The console script declared in pyproject.toml resolves and runs the CLI
    # from sys.argv, without needing the package installed.
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rmlab"]
    proc = run_child([sys.executable, "-c", RUN_ENTRY_POINT, target, *WEIGHTDIST_ARGS],
                     tmp_path)
    assert proc.returncode == 0 and proc.stdout == WEIGHTDIST_CSV, proc.stderr


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_full_verification_rejects_nonpositive_workers(tmp_path, workers):
    # exit 2 is a usage error; exit 1 would claim that a claim failed
    script = str(SCRIPTS / "run_full_verification.py")
    proc = run_child([sys.executable, script, "--workers", workers], tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--workers must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(shutil.which("rmlab") is None, reason="rmlab console script not installed")
def test_console_script_on_path(tmp_path):
    proc = run_child(["rmlab", *WEIGHTDIST_ARGS], tmp_path)
    assert proc.returncode == 0 and proc.stdout == WEIGHTDIST_CSV, proc.stderr
