import json
import os
import shutil
import subprocess
import sys
import zlib
from decimal import Decimal
from math import comb
from pathlib import Path

import pytest

import rmlab
from rmlab import cli
from rmlab.bfcore import TruthTable
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.harness import Method, Mode, Verdict

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself requires tomli below 3.11
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
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
    monkeypatch.setenv("RMLAB_CAP_DIM", "4")
    code, _, err = run(capsys, "weightdist", "-k", "2", "-m", "5")
    assert code == 3 and "cap exceeded" in err
    # --cap overrides the environment variable
    code, _, _ = run(capsys, "weightdist", "-k", "2", "-m", "5", "--cap", "16")
    assert code == 0
    monkeypatch.setenv("RMLAB_CAP_DIM", "junk")
    code, _, err = run(capsys, "weightdist", "-k", "2", "-m", "5")
    assert code == 2 and "invalid parameters" in err


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


def test_census_caps(capsys):
    code, _, err = run(capsys, "census", "-k", "1", "-m", "5")
    assert code == 3 and "cap exceeded" in err
    code, _, err = run(capsys, "census", "-k", "1", "-m", "3", "--coset-cap", "4")
    assert code == 3


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


@pytest.mark.skipif(shutil.which("rmlab") is None, reason="rmlab console script not installed")
def test_console_script_on_path(tmp_path):
    proc = run_child(["rmlab", *WEIGHTDIST_ARGS], tmp_path)
    assert proc.returncode == 0 and proc.stdout == WEIGHTDIST_CSV, proc.stderr
