import io
import json
import random
import re
import zlib
from collections import Counter
from math import comb

import pytest

from rmlab import harness
from rmlab.bfcore import AnfMonomialSet, TruthTable, tt_from_anf
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.harness import (
    Method,
    Mode,
    Scope,
    Verdict,
    balanced_count_of_coset,
    census_balanced,
    coset_representatives,
    coset_weight_distribution,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from rmlab.rmcodes import RMParams, rm_iterate, rm_membership
from rmlab.spectral import rm1_coset_balanced_count


def test_representative_counts():
    assert sum(1 for _ in coset_representatives(RMParams(1, 3), Scope.FULL_SPACE)) == 15
    assert sum(1 for _ in coset_representatives(RMParams(1, 4), Scope.WITHIN_NEXT_ORDER)) == 63
    assert sum(1 for _ in coset_representatives(RMParams(2, 5), Scope.FULL_SPACE)) == 65535


def test_representatives_are_distinct_cosets():
    code = RMParams(1, 3)
    reps = list(coset_representatives(code, Scope.FULL_SPACE))
    for r in reps:
        assert not rm_membership(r, code)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not rm_membership(a ^ b, code)


def test_full_scope_reps_tile_the_space():
    code = RMParams(1, 3)
    words = {w.bits for w in rm_iterate(code)}
    for rep in coset_representatives(code, Scope.FULL_SPACE):
        words.update(w.bits ^ rep.bits for w in rm_iterate(code))
    assert len(words) == 1 << code.n


def test_within_scope_reps_tile_the_next_order():
    code = RMParams(1, 3)
    reps = list(coset_representatives(code, Scope.WITHIN_NEXT_ORDER))
    bigger = RMParams(2, 3)
    for r in reps:
        assert rm_membership(r, bigger)
    words = {w.bits for w in rm_iterate(code)}
    for rep in reps:
        words.update(w.bits ^ rep.bits for w in rm_iterate(code))
    assert words == {w.bits for w in rm_iterate(bigger)}


def test_coset_cap():
    gen = coset_representatives(RMParams(1, 5), Scope.FULL_SPACE)
    with pytest.raises(CapExceededError):
        next(gen)
    gen = coset_representatives(RMParams(1, 5), Scope.FULL_SPACE, coset_cap=1 << 26)
    assert next(gen).m == 5


def test_balanced_count_of_coset():
    code = RMParams(1, 3)
    assert balanced_count_of_coset(code, TruthTable(3, 0)) == 14
    rep = tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))
    assert balanced_count_of_coset(code, rep) == 8
    code = RMParams(2, 4)
    rep = tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3"))
    assert balanced_count_of_coset(code, rep) == 800
    with pytest.raises(ParameterError):
        balanced_count_of_coset(RMParams(1, 3), TruthTable(4, 0))
    with pytest.raises(CapExceededError):
        balanced_count_of_coset(RMParams(2, 5), TruthTable(5, 1), cap=4)


def test_spectral_count_matches_enumeration():
    code = RMParams(1, 3)
    for bits in range(256):
        f = TruthTable(3, bits)
        if rm_membership(f, code):
            continue
        assert rm1_coset_balanced_count(f) == balanced_count_of_coset(code, f)
    rng = random.Random(5)
    for m in (4, 5, 6):
        code = RMParams(1, m)
        n = 1 << m
        done = 0
        while done < 50:
            f = TruthTable(m, rng.getrandbits(n))
            if rm_membership(f, code):
                continue
            assert rm1_coset_balanced_count(f) == balanced_count_of_coset(code, f)
            done += 1


def test_census_within_golden():
    census = census_balanced(RMParams(1, 3), Scope.WITHIN_NEXT_ORDER)
    assert census.code_balanced_count == 14
    assert [c for _, c in census.entries] == [8] * 7
    assert census.max_entry() == (1, 8)
    buf = io.StringIO()
    census.to_csv(buf)
    assert buf.getvalue() == (
        "rep_hex,balanced_count\n"
        "03,8\n05,8\n06,8\n11,8\n12,8\n14,8\n17,8\n"
    )


def test_census_full_scope():
    census = census_balanced(RMParams(1, 3), Scope.FULL_SPACE)
    assert census.code_balanced_count == 14
    counts = Counter(c for _, c in census.entries)
    assert counts == {0: 8, 8: 7}
    rep_id, best = census.max_entry()
    assert (rep_id, best) == (3, 8)
    rep = census.rep_table(rep_id)
    assert balanced_count_of_coset(census.code, rep) == 8
    with pytest.raises(ParameterError):
        census.rep_table(16)
    with pytest.raises(ParameterError):
        census.rep_table(0)


def test_census_brute_agrees_with_transform_distribution():
    code = RMParams(2, 4)
    census = census_balanced(code, Scope.WITHIN_NEXT_ORDER)
    for rep_id, count in census.entries:
        rep = census.rep_table(rep_id)
        d = coset_weight_distribution(code, rep, method=Method.TRANSFORM)
        assert d[code.n // 2] == count


def test_census_workers_match_serial():
    code = RMParams(1, 4)
    serial = census_balanced(code, Scope.FULL_SPACE)
    parallel = census_balanced(code, Scope.FULL_SPACE, workers=2)
    assert serial == parallel


def test_census_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ParameterError, match="worker count"):
            census_balanced(RMParams(1, 3), Scope.FULL_SPACE, workers=workers)


def chunk_line(start, body):
    """A census log chunk line whose CRC-32 matches its counts text."""
    return f"{start} {zlib.crc32(body.encode()):08x} {body}\n"


# balanced counts of RM(1,3) (rep id 0) and its 15 cosets in the full space
RM13_FULL = [14, 0, 0, 8, 0, 8, 8, 0, 0, 8, 8, 0, 8, 0, 0, 8]
LOG_HEADER = "census 1 1 3 FULL_SPACE 15\n"


def test_census_checkpoint_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_CHECKPOINT_CHUNK", 3)
    code = RMParams(1, 3)
    path = tmp_path / "census.log"
    fresh = census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))
    log = path.read_text()
    lines = log.splitlines(keepends=True)
    assert lines[0] == LOG_HEADER
    assert len(lines) == 1 + 6  # 16 rep ids in chunks of 3
    chunks = [line.rstrip("\n").split(" ", 2) for line in lines[1:]]
    assert lines[1:] == [chunk_line(start, body) for start, _, body in chunks]
    assert [int(c) for _, _, body in chunks for c in body.split()] == RM13_FULL

    # cut the log after its first chunk, as an interrupted run leaves it
    path.write_text("".join(lines[:2]))
    resumed = census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))
    assert resumed == fresh
    assert path.read_text() == log


def test_complete_log_runs_no_chunk(tmp_path, monkeypatch):
    code = RMParams(1, 3)
    path = str(tmp_path / "census.log")
    fresh = census_balanced(code, Scope.FULL_SPACE, checkpoint=path)

    def no_chunk(*args):
        raise AssertionError(f"a complete log reran chunk {args}")

    monkeypatch.setattr(harness, "_count_chunk", no_chunk)
    for workers in (1, 2):
        assert census_balanced(code, Scope.FULL_SPACE, workers, checkpoint=path) == fresh


def test_torn_last_line_is_recomputed(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_CHECKPOINT_CHUNK", 3)
    code = RMParams(1, 3)
    path = tmp_path / "census.log"
    fresh = census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))
    log = path.read_text()
    path.write_text(log[: log.rindex("\n", 0, -1) + 6])
    assert census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path)) == fresh
    assert path.read_text() == log


def test_resume_with_workers_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_CHECKPOINT_CHUNK", 3)
    code = RMParams(1, 3)
    path = tmp_path / "census.log"
    serial = census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))
    log = path.read_text()
    path.write_text("".join(log.splitlines(keepends=True)[:2]))
    assert census_balanced(code, Scope.FULL_SPACE, workers=2, checkpoint=str(path)) == serial
    assert path.read_text() == log


BAD_LOGS = {
    "crc": (LOG_HEADER + chunk_line(0, "14 0 0").replace(" 0 0\n", " 0 8\n"), "line 2: CRC"),
    "gap": (LOG_HEADER + chunk_line(0, "14 0 0") + chunk_line(4, "0 8"), "line 3: chunk starts"),
    "non-numeric": (LOG_HEADER + chunk_line(0, "14 x 0"), "line 2: not a chunk line"),
    "above-2^K": (LOG_HEADER + chunk_line(0, "14 17 0"), "line 2: counts beyond"),
    "too-many": (LOG_HEADER + chunk_line(0, " ".join(["0"] * 17)), "line 2: counts beyond"),
    "json": (
        json.dumps({"kind": "census", "k": 1, "m": 3, "scope": "FULL_SPACE",
                    "total": 15, "counts": RM13_FULL[1:4]}),
        "line 1: not the census log header",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_LOGS))
def test_bad_log_is_refused(tmp_path, case):
    text, why = BAD_LOGS[case]
    path = tmp_path / "census.log"
    path.write_text(text)
    with pytest.raises(ParameterError, match=re.escape(f"{path}, {why}")):
        census_balanced(RMParams(1, 3), Scope.FULL_SPACE, checkpoint=str(path))
    assert path.read_text() == text


def test_full_scope_census_sums_to_the_balanced_words(tmp_path):
    code = RMParams(1, 3)
    assert sum(RM13_FULL) == comb(8, 4)
    census = census_balanced(code, Scope.FULL_SPACE)
    assert census.code_balanced_count + sum(c for _, c in census.entries) == comb(8, 4)
    # an edited count under a recomputed CRC passes every log check
    edited = RM13_FULL[:3] + [0] + RM13_FULL[4:]
    path = tmp_path / "census.log"
    path.write_text(LOG_HEADER + chunk_line(0, " ".join(map(str, edited))))
    with pytest.raises(ExactnessError, match=r"sum to 62, not C\(8,4\) = 70"):
        census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))


def test_next_order_census_sums_to_the_next_code_balanced_words(tmp_path):
    code = RMParams(1, 3)
    census = census_balanced(code, Scope.WITHIN_NEXT_ORDER)
    assert census.code_balanced_count + sum(c for _, c in census.entries) == comb(8, 4)
    # the cosets of RM(1,3) in RM(2,3) tile it; one count raised to 16
    path = tmp_path / "census.log"
    path.write_text("census 1 1 3 WITHIN_NEXT_ORDER 7\n" + chunk_line(0, "14 8 8 16 8 8 8 8"))
    with pytest.raises(ExactnessError, match=r"sum to 78, not the balanced count of RM\(2,3\) = 70"):
        census_balanced(code, Scope.WITHIN_NEXT_ORDER, checkpoint=str(path))


def brute_census_pairs():
    """(k, m, scope) for m <= 5 whose brute census runs within the default
    caps and walks at most 2^26 words (under a second each), and whose
    dual is within the enumeration cap."""
    for m in range(1, 6):
        for k in range(m + 1):
            for scope in Scope:
                code = RMParams(k, m)
                if scope is Scope.WITHIN_NEXT_ORDER and k == m:
                    continue
                r = len(harness._rep_basis(code, scope))
                if r <= 20 and r + code.dimension <= 26 and code.n - code.dimension <= 26:
                    yield k, m, scope


@pytest.mark.parametrize("k,m,scope", list(brute_census_pairs()))
def test_dual_census_equals_brute_census(k, m, scope):
    code = RMParams(k, m)
    assert harness._dual_census(code, scope) == census_balanced(code, scope)


def test_dual_census_asserts_its_integer_bounds():
    # 126 syndrome bits: more than the 64-bit key column holds
    with pytest.raises(ExactnessError, match="126-bit syndromes"):
        harness._dual_census(RMParams(3, 9), Scope.WITHIN_NEXT_ORDER, cap=1000, coset_cap=1 << 200)
    # 64 syndrome bits fit, but transform entries of a 64-dimensional dual may not fit int64
    with pytest.raises(ExactnessError, match="64-dimensional dual"):
        harness._dual_census(RMParams(3, 7), Scope.FULL_SPACE, cap=1000, coset_cap=1 << 64)
    # under the default caps the dual walk and the histogram are capped first
    with pytest.raises(CapExceededError):
        harness._dual_census(RMParams(3, 7), Scope.FULL_SPACE, coset_cap=1 << 64)
    with pytest.raises(CapExceededError, match=r"2\^9 syndromes x 257 weights"):
        harness._dual_census(RMParams(6, 8), Scope.FULL_SPACE, cap=16)


def test_dual_census_checks_every_division(monkeypatch):
    # a central column off by one at weight 0 adds 1 to every sum, which
    # floor division would hide
    column = harness.kraw_column
    monkeypatch.setattr(harness, "kraw_column", lambda j, n: [column(j, n)[0] + 1] + column(j, n)[1:])
    with pytest.raises(ExactnessError, match=r"not 2\^\(n-K\) times a count"):
        harness._dual_census(RMParams(2, 4), Scope.FULL_SPACE)


def test_census_checkpoint_mismatch(tmp_path):
    code = RMParams(1, 3)
    path = str(tmp_path / "census.json")
    census_balanced(code, Scope.FULL_SPACE, checkpoint=path)
    with pytest.raises(ParameterError):
        census_balanced(RMParams(2, 3), Scope.FULL_SPACE, checkpoint=path)
    with pytest.raises(ParameterError):
        census_balanced(code, Scope.WITHIN_NEXT_ORDER, checkpoint=path)
    # 64 ids with counts up to 32: only the header tells this log apart
    with pytest.raises(ParameterError, match="line 1: not the census log header"):
        census_balanced(RMParams(1, 4), Scope.WITHIN_NEXT_ORDER, checkpoint=path)


def test_verify_theorem_basic_brute():
    v = verify_theorem_basic(1, 3)
    assert v.passed and (v.code_count, v.max_other) == (14, 8)
    assert v.mode is Mode.EXHAUSTIVE and v.method is Method.BRUTE
    assert v.witness is None and v.elapsed_ms >= 0
    v = verify_theorem_basic(2, 4)
    assert v.passed and (v.code_count, v.max_other) == (870, 800)
    v = verify_theorem_basic(3, 4)
    assert v.passed and (v.code_count, v.max_other) == (12870, 0)


def test_verify_theorem_basic_transform():
    v = verify_theorem_basic(2, 4, method=Method.TRANSFORM)
    assert v.passed and (v.code_count, v.max_other) == (870, 800)
    assert v.method is Method.TRANSFORM
    v = verify_theorem_basic(2, 5, method=Method.TRANSFORM)
    assert v.passed and (v.code_count, v.max_other) == (36518, 18848)
    v = verify_theorem_basic(3, 5, method=Method.TRANSFORM)
    assert v.passed and (v.code_count, v.max_other) == (18796230, 18783360)
    v = verify_theorem_basic(4, 5, method=Method.TRANSFORM)
    assert v.passed and (v.code_count, v.max_other) == (601080390, 0)


def test_verify_theorem_hypothesis_rejections():
    for k, m in [(1, 4), (0, 3), (3, 3), (2, 6)]:
        with pytest.raises(ParameterError):
            verify_theorem_basic(k, m)


def test_verify_theorem_method_rejection():
    with pytest.raises(ParameterError):
        verify_theorem_basic(1, 3, method=Method.SPECTRAL)


def test_verify_conjecture():
    v = verify_quotient_conjecture(1, 3)
    assert v.passed and (v.code_count, v.max_other) == (14, 8)
    assert v.mode is Mode.EMPIRICAL and v.method is Method.BRUTE
    v = verify_quotient_conjecture(2, 4)
    assert v.passed and (v.code_count, v.max_other) == (870, 800)
    # the conjecture has no degree floor, unlike the theorem
    v = verify_quotient_conjecture(1, 4)
    assert v.passed and v.code_count == 30
    for k, m in [(0, 3), (3, 3), (4, 4)]:
        with pytest.raises(ParameterError):
            verify_quotient_conjecture(k, m)


def test_verify_rm1_exhaustive():
    v = verify_rm1_proposition(3)
    assert v.passed and (v.code_count, v.max_other) == (14, 8)
    assert v.mode is Mode.EXHAUSTIVE and v.method is Method.SPECTRAL
    v = verify_rm1_proposition(4)
    assert v.passed and (v.code_count, v.max_other) == (30, 24)
    with pytest.raises(ParameterError):
        verify_rm1_proposition(5, exhaustive=True)


def test_verify_rm1_sampled():
    v = verify_rm1_proposition(5)
    assert v.mode is Mode.SAMPLED
    assert v.passed and (v.code_count, v.max_other) == (62, 44)
    assert v.params == {"m": 5, "samples": 10_000, "seed": 0}
    again = verify_rm1_proposition(5)
    assert again.max_other == v.max_other
    other_seed = verify_rm1_proposition(5, seed=1)
    assert other_seed.passed
    v = verify_rm1_proposition(8, exhaustive=False, samples=500)
    assert v.passed and v.code_count == 510
    with pytest.raises(ParameterError):
        verify_rm1_proposition(17, exhaustive=False)
    with pytest.raises(ParameterError):
        verify_rm1_proposition(5, samples=0)


def test_verify_oddweight():
    v = verify_oddweight_cosets(3)
    assert v.passed and (v.code_count, v.max_other) == (14, 0)
    v = verify_oddweight_cosets(4)
    assert v.passed and (v.code_count, v.max_other) == (870, 0)
    v = verify_oddweight_cosets(2)
    assert v.passed and (v.code_count, v.max_other) == (0, 0)
    with pytest.raises(ParameterError):
        verify_oddweight_cosets(6)


def test_verify_equidistribution():
    v = verify_hamming_coset_equidistribution(3)
    assert v.passed and (v.code_count, v.max_other) == (14, 8)
    v = verify_hamming_coset_equidistribution(4)
    assert v.passed and (v.code_count, v.max_other) == (870, 800)
    with pytest.raises(ParameterError):
        verify_hamming_coset_equidistribution(2)
    with pytest.raises(ParameterError):
        verify_hamming_coset_equidistribution(6)


def test_coset_weight_distribution_methods_agree():
    code = RMParams(1, 3)
    rep = tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))
    brute = coset_weight_distribution(code, rep, method=Method.BRUTE)
    trans = coset_weight_distribution(code, rep, method=Method.TRANSFORM)
    assert brute == trans
    assert dict(brute.pairs) == {2: 4, 4: 8, 6: 4}
    with pytest.raises(ParameterError):
        coset_weight_distribution(code, TruthTable.from_hex(3, "33"))
    with pytest.raises(ParameterError):
        coset_weight_distribution(code, rep, method=Method.SPECTRAL)


def test_verdict_shape():
    v = verify_theorem_basic(1, 3)
    obj = v.to_json_obj()
    assert set(obj) == {
        "claim", "params", "mode", "pass", "code_count",
        "max_other", "witness_hex", "elapsed_ms", "method",
    }
    assert obj["claim"] == "theorem5"
    assert obj["pass"] is True
    assert obj["code_count"] == "14"
    assert obj["max_other"] == "8"
    assert obj["witness_hex"] is None
    assert isinstance(obj["elapsed_ms"], int)
    json.dumps(obj)  # round-trips as JSON


def test_failing_verdict_requires_witness():
    with pytest.raises(ParameterError):
        Verdict(
            claim="theorem5", params={}, mode=Mode.EXHAUSTIVE, method=Method.BRUTE,
            passed=False, code_count=1, max_other=1, witness=None, elapsed_ms=0,
        )
    w = TruthTable(3, 3)
    v = Verdict(
        claim="theorem5", params={}, mode=Mode.EXHAUSTIVE, method=Method.BRUTE,
        passed=False, code_count=1, max_other=1, witness=w, elapsed_ms=0,
    )
    assert v.to_json_obj()["witness_hex"] == "03"
    assert v.to_json_obj()["pass"] is False
