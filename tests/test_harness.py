import dataclasses
import itertools
import json
import random
import re
import sys
import tracemalloc
import zlib
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coset_oracle import balanced_count_of_coset, coset_distribution, coset_representatives, eliminated_pivots, iter_span
from rmlab import harness, rmcodes, spectral, transforms
from rmlab._bitenum import SpanCounter
from rmlab.bfcore import AnfMonomialSet, TruthTable, monomial_tt, tt_from_anf
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.harness import (
    Method,
    Mode,
    Scope,
    Verdict,
    census_balanced,
    coset_weight_distribution,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from rmlab.rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    monomial_basis,
    rm_membership,
    unlimited_int_digits,
)


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


def codewords(p: RMParams) -> set[int]:
    """Every word of p, by the reference Gray walk over its monomial basis."""
    return set(iter_span([t.bits for t in monomial_basis(p)]))


def test_full_scope_reps_tile_the_space():
    code = RMParams(1, 3)
    words = codewords(code)
    for rep in coset_representatives(code, Scope.FULL_SPACE):
        words.update(w ^ rep.bits for w in codewords(code))
    assert len(words) == 1 << code.n


def test_within_scope_reps_tile_the_next_order():
    code = RMParams(1, 3)
    reps = list(coset_representatives(code, Scope.WITHIN_NEXT_ORDER))
    bigger = RMParams(2, 3)
    for r in reps:
        assert rm_membership(r, bigger)
    words = codewords(code)
    for rep in reps:
        words.update(w ^ rep.bits for w in codewords(code))
    assert words == codewords(bigger)


def test_rep_basis_equals_the_pivot_and_combination_construction():
    # oracle: unit tables off the pivots of Gaussian elimination, and the
    # degree-(k+1) monomials in combination order
    for m in range(1, 9):
        for k in range(-1, m + 1):
            code = RMParams(k, m)
            n = code.n
            pivots = set(eliminated_pivots(code))
            full = [1 << (n - 1 - pos) for pos in range(n) if pos not in pivots]
            assert harness._rep_basis(code, Scope.FULL_SPACE) == full, (k, m)
            if k == m:
                with pytest.raises(ParameterError):
                    harness._rep_basis(code, Scope.WITHIN_NEXT_ORDER)
                continue
            combos = itertools.combinations(range(1, m + 1), k + 1)
            within = [monomial_tt(m, combo).bits for combo in combos]
            assert harness._rep_basis(code, Scope.WITHIN_NEXT_ORDER) == within, (k, m)


def test_coset_cap():
    gen = coset_representatives(RMParams(1, 5), Scope.FULL_SPACE)
    with pytest.raises(CapExceededError):
        next(gen)
    gen = coset_representatives(RMParams(1, 5), Scope.FULL_SPACE, coset_cap=1 << 26)
    assert next(gen).m == 5
    with pytest.raises(ParameterError, match="coset cap override must be a nonnegative int"):
        next(coset_representatives(RMParams(1, 3), Scope.FULL_SPACE, coset_cap=-1))


@pytest.mark.parametrize(
    "k,m,scope,builds",
    [
        (16, 18, Scope.WITHIN_NEXT_ORDER, 0),  # 2^18 cosets exceed the coset cap
        (14, 16, Scope.WITHIN_NEXT_ORDER, 16),  # the dimension cap refuses RM(14,16)
        (1, 15, Scope.FULL_SPACE, 0),  # 2^32752 cosets exceed the coset cap
    ],
)
def test_census_refuses_before_building_more_than_its_rep_basis(monkeypatch, k, m, scope, builds):
    # every rep table has 2^m bits, so a refusal may build at most the
    # C(m, k+1) degree-(k+1) monomials, and no table before the coset cap
    built = []
    real = rmcodes.monomial_tt

    def counted(m, combo):
        built.append(combo)
        assert len(built) <= builds, f"built more than {builds} tables"
        return real(m, combo)

    def no_full_basis(m, k):
        raise AssertionError("built the full-space rep basis")

    monkeypatch.setattr(rmcodes, "monomial_tt", counted)
    monkeypatch.setattr(harness, "_high_degree_mask", no_full_basis)
    with pytest.raises(CapExceededError):
        census_balanced(RMParams(k, m), scope)
    assert len(built) == builds


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
        assert spectral._rm1_counts([f.bits], 3)[0][0] == balanced_count_of_coset(code, f)
    rng = random.Random(5)
    for m in (4, 5, 6):
        code = RMParams(1, m)
        n = 1 << m
        done = 0
        while done < 50:
            f = TruthTable(m, rng.getrandbits(n))
            if rm_membership(f, code):
                continue
            assert spectral._rm1_counts([f.bits], m)[0][0] == balanced_count_of_coset(code, f)
            done += 1


def max_entry(census):
    """(first nontrivial id attaining the largest count, that count), read
    from the census's classes and counts."""
    others = [census.counts[c] for c in census.classes[1:].tolist()]
    assert census.max_other == max(others)
    return others.index(census.max_other) + 1, census.max_other


def test_census_within_golden():
    census = census_balanced(RMParams(1, 3), Scope.WITHIN_NEXT_ORDER)
    assert census.code_balanced_count == 14
    assert [census.counts[c] for c in census.classes[1:]] == [8] * 7
    assert max_entry(census) == (1, 8)
    csv = "".join(census.text_chunks("", [f",{c}\n" for c in census.counts]))
    assert "rep_hex,balanced_count\n" + csv == (
        "rep_hex,balanced_count\n"
        "03,8\n05,8\n06,8\n11,8\n12,8\n14,8\n17,8\n"
    )


def test_census_full_scope():
    census = census_balanced(RMParams(1, 3), Scope.FULL_SPACE)
    assert census.code_balanced_count == 14
    counts = Counter(census.counts[c] for c in census.classes[1:])
    assert counts == {0: 8, 8: 7}
    rep_id, best = max_entry(census)
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
    for rep_id, count in enumerate(census.id_counts()[1:], start=1):
        rep = census.rep_table(rep_id)
        d = coset_weight_distribution(code, rep, method=Method.TRANSFORM)
        assert d[code.n // 2] == count


@pytest.mark.parametrize("logged", [False, True])
@pytest.mark.parametrize("chunk", [None, 7])
def test_census_workers_match_serial(tmp_path, monkeypatch, chunk, logged):
    # RM(1,4)'s 2,048 ids are one chunk by default; in chunks of 7 the
    # pool counts 293 chunks, which are merged (and logged) in id order
    if chunk:
        monkeypatch.setattr(harness, "_CHECKPOINT_CHUNK", chunk)
    code = RMParams(1, 4)
    logs = [tmp_path / f"census-{workers}.log" for workers in (1, 2)]
    serial = census_balanced(code, Scope.FULL_SPACE, checkpoint=str(logs[0]) if logged else None)
    parallel = census_balanced(code, Scope.FULL_SPACE, workers=2, checkpoint=str(logs[1]) if logged else None)
    assert serial == parallel
    assert not logged or logs[0].read_text() == logs[1].read_text()


def test_one_worker_census_builds_one_counter(monkeypatch):
    # RM(2,5)'s full space is 16 chunks of ids, all counted by one counter
    built = []

    def spy(*args):
        built.append(args)
        return rmcodes.code_counter(*args)

    monkeypatch.setattr(harness, "code_counter", spy)
    census = census_balanced(RMParams(2, 5), Scope.FULL_SPACE)
    assert len(census.classes) == 16 * harness._CHECKPOINT_CHUNK
    assert built == [(RMParams(2, 5),)]


def test_census_workers_must_be_positive():
    for workers in (0, -1):
        with pytest.raises(ParameterError, match="worker count"):
            census_balanced(RMParams(1, 3), Scope.FULL_SPACE, workers=workers)


def test_default_caps_fold_every_census_span_above_one_pass():
    # a census chunk XORs its offsets against the code's block in passes
    # of _PASS_WORDS words; a block above half a pass holds one offset a
    # pass, copied whole at every Gray step.  Under the default caps only
    # RM(3,5)'s 2^25-word span is that large, and its chunks of 64 and 32
    # offsets take the kernel fold instead
    big = []
    for m in range(1, 12):
        for k, scope in itertools.product(range(-1, m + 1), Scope):
            code = RMParams(k, m)
            if scope is Scope.WITHIN_NEXT_ORDER and k == m:
                continue
            try:
                ids = 1 << len(harness._capped_rep_basis(code, scope, None))
                rmcodes.require_cap(code.dimension, None, "census")
            except CapExceededError:
                continue
            counter = rmcodes.code_counter(code)
            if counter._nwords << len(counter._basis) > harness._bitenum._PASS_WORDS // 2:
                big.append((k, m, scope))
                chunks = {min(ids, harness._CHECKPOINT_CHUNK), ids % harness._CHECKPOINT_CHUNK} - {0}
                assert all(counter._folds(offsets) for offsets in chunks), (k, m, scope)
    assert big == [(3, 5, Scope.FULL_SPACE), (3, 5, Scope.WITHIN_NEXT_ORDER)]


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

    def no_count(self, offsets):
        raise AssertionError(f"a complete log recounted {len(offsets)} reps")

    monkeypatch.setattr(SpanCounter, "balanced_counts", no_count)
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
    assert sum(census.id_counts()) == comb(8, 4) and census.id_counts() == RM13_FULL
    # an edited count under a recomputed CRC passes every log check
    edited = RM13_FULL[:3] + [0] + RM13_FULL[4:]
    path = tmp_path / "census.log"
    path.write_text(LOG_HEADER + chunk_line(0, " ".join(map(str, edited))))
    with pytest.raises(ExactnessError, match=r"sum to 62, not C\(8,4\) = 70"):
        census_balanced(code, Scope.FULL_SPACE, checkpoint=str(path))


def test_next_order_census_sums_to_the_next_code_balanced_words(tmp_path):
    code = RMParams(1, 3)
    census = census_balanced(code, Scope.WITHIN_NEXT_ORDER)
    assert census.code_balanced_count + sum(census.id_counts()[1:]) == comb(8, 4)
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
    census, distributions = harness._dual_census(code, scope)
    assert census == census_balanced(code, scope)
    # the distribution of each class has the class's balanced count
    assert [d[code.n // 2] for d in distributions] == list(census.counts)


@pytest.mark.parametrize("k,m,scope", list(brute_census_pairs()))
def test_dual_table_equals_brute_distributions(k, m, scope):
    code = RMParams(k, m)
    ids, distribution = harness._dual_table(code, harness._rep_basis(code, scope))
    counter = SpanCounter([t.bits for t in monomial_basis(code)], code.n)
    reps = [0] + [rep.bits for rep in coset_representatives(code, scope)]
    assert len(ids) == len(reps)
    for g, rep in enumerate(reps):
        brute = WeightDistribution.from_dense(counter.weight_histogram(rep).tolist())
        assert distribution(ids[g]) == brute, (g, hex(rep))


def test_dual_census_asserts_its_integer_bounds(monkeypatch):
    # every bound is checked before the dual walk starts
    monkeypatch.setattr(harness._bitenum, "SpanCounter", None)
    # 126 syndrome bits: more than the key column of 512-bit tables, one 64-bit word, holds
    with pytest.raises(ExactnessError, match="126-bit syndromes"):
        harness._dual_census(RMParams(3, 9), Scope.WITHIN_NEXT_ORDER, cap=1000, coset_cap=1 << 200)
    # 64 syndrome bits fit, but transform sums of a 64-dimensional dual may pass float64's 2^53
    with pytest.raises(ExactnessError, match="64-dimensional dual"):
        harness._dual_census(RMParams(3, 7), Scope.FULL_SPACE, cap=1000, coset_cap=1 << 64)
    # a 57-dimensional dual fits int64, but its 2^57-word walk could not
    # finish and its transform sums may pass float64's exact 2^53
    with pytest.raises(ExactnessError, match="57-dimensional dual"):
        harness._dual_census(RMParams(1, 6), Scope.FULL_SPACE, cap=1000, coset_cap=1 << 57)
    # under the default caps the dual walk and the histogram are capped first
    with pytest.raises(CapExceededError):
        harness._dual_census(RMParams(3, 7), Scope.FULL_SPACE, coset_cap=1 << 64)
    with pytest.raises(CapExceededError, match=r"2\^9 syndromes x 257 weights"):
        harness._dual_census(RMParams(6, 8), Scope.FULL_SPACE, cap=16)


def test_dual_table_takes_its_float_type_from_the_dual_dimension(monkeypatch):
    # no dual that a test can walk has a weight class past float32's 2^24,
    # so lower float32's bound to 2^10 instead: under the 11-dimensional
    # dual RM(2,4) of RM(1,4), above its 6 syndrome bits
    dtypes = []
    kernel = harness._wht_rows
    monkeypatch.setattr(harness, "_wht_rows", lambda x: dtypes.append(x.dtype.type) or kernel(x))
    code = RMParams(1, 4)
    basis = harness._rep_basis(code, Scope.WITHIN_NEXT_ORDER)
    ids, distribution = harness._dual_table(code, basis)
    monkeypatch.setattr(spectral, "_FLOAT32_BITS", 10)
    wide_ids, wide_distribution = harness._dual_table(code, basis)
    assert dtypes == [np.float32, np.float64]
    assert np.array_equal(wide_ids, ids)
    assert [wide_distribution(i) for i in set(ids)] == [distribution(i) for i in set(ids)]


def test_dual_census_checks_every_division(monkeypatch):
    # a Krawtchouk row off by one at x = 0 adds F_g(0) = 1 to every sum,
    # which floor division would hide
    row = transforms.kraw_row
    monkeypatch.setattr(transforms, "kraw_row", lambda x, n: tuple(v + (x == 0) for v in row(x, n)))
    with pytest.raises(ExactnessError, match="not divisible"):
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


def test_theorem5_transform_counts_past_int64():
    # the dual census keeps its counts as Python ints: both exceed 2^63
    v = verify_theorem_basic(6, 8, method=Method.TRANSFORM)
    assert v.passed and v.witness is None
    assert v.code_count == 22533823529098462258163079522899558179092788838542277982316450977506091590
    assert v.max_other == 22533823529098462258163079522899558155141642796614195116180863201125539840
    assert v.max_other > 1 << 63


def test_brute_census_refuses_counts_past_int64(monkeypatch):
    # RM(5,6) has dimension 63, so a count may not fit int64; refused
    # before any counter is built, even with the enumeration cap raised
    monkeypatch.setattr(harness, "code_counter", None)
    with pytest.raises(ExactnessError, match=r"RM\(5,6\) may pass 2\^62"):
        census_balanced(RMParams(5, 6), Scope.FULL_SPACE, cap=63)
    with pytest.raises(ExactnessError, match="2\\^62"):
        verify_theorem_basic(5, 6, cap=63)


def test_strict_max_witness_is_the_first_id_reaching_the_code_count():
    # forced classes: ids 5 and 9 tie at the code's count 14, id 11 beats it
    code = RMParams(1, 3)
    classes = np.array([2, 0, 1, 0, 1, 2, 0, 0, 1, 2, 0, 3, 0, 1, 0, 1])
    census = harness.CosetCensus(code, Scope.FULL_SPACE, classes, (0, 8, 14, 20))
    v = harness._strict_max("theorem5", {}, Mode.EXHAUSTIVE, Method.BRUTE, census, 0.0)
    assert not v.passed and (v.code_count, v.max_other) == (14, 20)
    assert v.witness == census.rep_table(5)
    # relabelled classes give the same census and the same verdict
    relabelled = harness.CosetCensus(code, Scope.FULL_SPACE, 3 - classes, (20, 14, 8, 0))
    assert relabelled == census
    again = harness._strict_max("theorem5", {}, Mode.EXHAUSTIVE, Method.BRUTE, relabelled, 0.0)
    assert (again.max_other, again.witness) == (20, census.rep_table(5))
    # with id 11 back at 8, ids 5 and 9 tie at the largest count, which
    # equals the code's: the claim fails and the witness is still id 5
    tied = classes.copy()
    tied[11] = 1
    v = harness._strict_max("theorem5", {}, Mode.EXHAUSTIVE, Method.BRUTE,
                            harness.CosetCensus(code, Scope.FULL_SPACE, tied, (0, 8, 14, 20)), 0.0)
    assert not v.passed and (v.code_count, v.max_other, v.witness) == (14, 14, census.rep_table(5))
    # a census whose largest other count is below the code's passes
    tied[[5, 9]] = 1
    v = harness._strict_max("theorem5", {}, Mode.EXHAUSTIVE, Method.BRUTE,
                            harness.CosetCensus(code, Scope.FULL_SPACE, tied, (0, 8, 14, 20)), 0.0)
    assert v.passed and (v.max_other, v.witness) == (8, None)


def test_census_witness_is_the_first_flagged_id_of_the_scan():
    code = RMParams(1, 3)
    classes = np.array([2, 0, 1, 0, 1, 2, 0, 0, 1, 2, 0, 3, 0, 1, 0, 1])
    census = harness.CosetCensus(code, Scope.FULL_SPACE, classes, (0, 8, 14, 20))
    odd = np.arange(1, 16, 2)
    # class 1 is at ids 2, 4, 8, 13 and 15: the first of all ids >= 1, and the first odd one
    assert census.witness([False, True, False, False]) == census.rep_table(2)
    assert census.witness([False, True, False, False], odd) == census.rep_table(13)
    # with two classes flagged the earlier id wins
    assert census.witness([False, False, True, True]) == census.rep_table(5)
    assert census.witness(np.array([0, 0, 1, 1]) == 1, odd) == census.rep_table(5)
    # no flagged class among the scanned ids: none at all, none among ids 1, 3 and 11,
    # and id 0 (the code) is never scanned, though its class 2 is flagged
    assert census.witness([False] * 4) is None
    assert census.witness([False, True, False, False], np.array([1, 3, 11])) is None
    only_code = np.where(classes == 2, 0, classes)
    only_code[0] = 2
    again = harness.CosetCensus(code, Scope.FULL_SPACE, only_code, (0, 8, 14, 20))
    assert again.witness([False, False, True, False]) is None
    assert again.witness([False, False, True, False], odd) is None


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


def test_exhaustive_rm1_is_the_k1_strict_maximum_census():
    rm1 = verify_rm1_proposition(3, exhaustive=True)
    for method in (Method.BRUTE, Method.TRANSFORM):
        theorem = verify_theorem_basic(1, 3, method=method)
        assert (rm1.code_count, rm1.max_other) == (theorem.code_count, theorem.max_other) == (14, 8)
        assert rm1.passed and theorem.passed and rm1.witness is theorem.witness is None


def shifted_rm1_counts(monkeypatch, shifts):
    """Patch the spectral counts of exhaustive rm1: id g gains shifts[g]."""
    real = harness._rm1_counts

    def shifted(tables, m):
        counts, affine = real(tables, m)
        for g, d in shifts.items():
            counts[g] += d
        return counts, affine

    monkeypatch.setattr(harness, "_rm1_counts", shifted)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exhaustive_rm1_census_equals_the_brute_census(monkeypatch, m):
    # the brute census is the oracle of the spectral one at every m
    censuses = []
    real = harness._strict_max

    def spy(*args):
        censuses.append(args[4])
        return real(*args)

    monkeypatch.setattr(harness, "_strict_max", spy)
    verify_rm1_proposition(m, exhaustive=True)
    assert censuses == [census_balanced(RMParams(1, m), Scope.FULL_SPACE)]


def test_exhaustive_rm1_checks_its_census_sum(monkeypatch):
    # the run has no brute cross-check: only the C(16,8) sum catches this
    shifted_rm1_counts(monkeypatch, {1000: 2})
    with pytest.raises(ExactnessError, match=r"sum to 12872, not C\(16,8\) = 12870"):
        verify_rm1_proposition(4, exhaustive=True)


@pytest.mark.parametrize(
    "m, samples, code_count, max_other",
    # seed 0, as the rejection loop of Moebius membership tests gave them;
    # at m = 2 half the draws are affine and are drawn again
    [(2, 1000, 6, 0), (3, 1000, 14, 8), (12, 2000, 8190, 270), (13, 300, 16382, 350), (16, 40, 131070, 874)],
)
def test_verify_rm1_sampled_verdicts_are_pinned(m, samples, code_count, max_other):
    v = verify_rm1_proposition(m, exhaustive=False, samples=samples, seed=0)
    assert v.passed and v.witness is None
    assert (v.code_count, v.max_other) == (code_count, max_other)


def test_sampled_verdict_equals_the_rejection_loop():
    # the first N non-affine draws of the seeded stream, with N one short
    # of each new maximum, so a single draw too many changes max_other
    for m in (3, 4, 5):
        rng = random.Random(9)
        counts = []
        while len(counts) < 3000:
            f = TruthTable(m, rng.getrandbits(1 << m))
            if not rm_membership(f, RMParams(1, m)):
                counts.append(int(spectral._rm1_counts([f.bits], m)[0][0]))
        running = [max(counts[: i + 1]) for i in range(len(counts))]
        records = [i for i in range(1, len(counts)) if running[i] > running[i - 1]]
        assert records
        for samples in records + [len(counts)]:
            v = verify_rm1_proposition(m, exhaustive=False, samples=samples, seed=9)
            assert v.max_other == running[samples - 1]


@pytest.mark.parametrize("m, exhaustive", [(4, True), (5, False), (11, False), (12, False)])
def test_rm1_checks_parseval_on_every_spectrum(monkeypatch, m, exhaustive):
    # Parseval's sum runs in float32 up to m = 11 and in float64 from 12;
    # from m = 7 the transform's first factor is H_64
    a = min(m, 6)
    real = spectral._hadamard
    bad = real(a, np.float32).copy()
    bad[3, 5] = -bad[3, 5]
    monkeypatch.setattr(spectral, "_hadamard", lambda b, dtype: bad if (b, dtype) == (a, np.float32) else real(b, dtype))
    with pytest.raises(ExactnessError, match="Parseval"):
        verify_rm1_proposition(m, exhaustive=exhaustive, samples=100)


def test_sampled_rm1_names_the_first_table_at_the_bound(monkeypatch):
    # the claim holds, so the counts are forced: rows 3 and 5 of each batch
    # (256 tables at m = 10) reach 2^(m+1)-2, and the verdict names the
    # first of them drawn
    real = harness._rm1_counts

    def forced(tables, m, scratch):
        counts, affine = real(tables, m, scratch)
        counts[[3, 5]] = (1 << (m + 1)) - 2
        return counts, affine

    monkeypatch.setattr(harness, "_rm1_counts", forced)
    v = verify_rm1_proposition(10, exhaustive=False, samples=2100, seed=4)
    rng = random.Random(4)
    draws = [rng.getrandbits(1024) for _ in range(2100)]
    assert not v.passed and v.max_other == 2046
    assert v.witness == TruthTable(10, draws[3])


@pytest.mark.parametrize("m, samples", [(2, 200_000), (3, 100_000), (10, 2100), (16, 40)])
def test_sampled_verdict_is_the_same_at_every_pool_width(monkeypatch, m, samples):
    # a 2^18-entry batch is 2^16 tables at m = 2 and 4 at m = 16, so every
    # case has more batches than threads; at m = 2 half the draws are
    # affine, so the loop refills its window many times.  From m = 10 the
    # sample count stops one short of a new maximum, so one table drawn
    # past the prefix would change max_other.  3 threads are more than
    # most test machines have cores, and a short switch interval
    # interleaves them at many more points.
    want = None
    if m >= 10:
        rng, counts = random.Random(3), []
        while len(counts) < samples:
            count, affine = spectral._rm1_counts([rng.getrandbits(1 << m)], m)
            if not affine[0]:
                counts.append(int(count[0]))
        samples = max(i for i in range(1, samples) if counts[i] > max(counts[:i]))
        want = max(counts[:samples])
    verdicts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cores", lambda: width)
            v = verify_rm1_proposition(m, exhaustive=False, samples=samples, seed=3)
            verdicts.append(dataclasses.replace(v, elapsed_ms=0))
    finally:
        sys.setswitchinterval(interval)
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert want in (None, verdicts[0].max_other)


def test_sampled_rm1_keeps_only_a_window_of_tables(monkeypatch):
    # 5000 tables of 8 KB at m = 16 are 40 MB drawn up front; two batches
    # in flight hold 8 tables and two 2 MB float pairs
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    tracemalloc.start()
    try:
        v = verify_rm1_proposition(16, exhaustive=False, samples=5000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak < 10 << 20, peak


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
    v = verify_oddweight_cosets(5)
    assert v.passed and (v.code_count, v.max_other) == (18796230, 0)
    v = verify_oddweight_cosets(2)
    assert v.passed and (v.code_count, v.max_other) == (0, 0)
    # no range of its own past m >= 2: the coset and enumeration caps bound it
    v = verify_oddweight_cosets(6)
    assert v.passed and (v.code_count, v.max_other) == (28634752793916486, 0)
    with pytest.raises(ParameterError):
        verify_oddweight_cosets(1)
    with pytest.raises(CapExceededError, match="enumeration cap"):
        verify_oddweight_cosets(13)


def test_verify_equidistribution():
    v = verify_hamming_coset_equidistribution(3)
    assert v.passed and (v.code_count, v.max_other) == (14, 8)
    v = verify_hamming_coset_equidistribution(4)
    assert v.passed and (v.code_count, v.max_other) == (870, 800)
    v = verify_hamming_coset_equidistribution(5)
    assert v.passed and (v.code_count, v.max_other) == (18796230, 18783360)
    v = verify_hamming_coset_equidistribution(6)
    assert v.passed and (v.code_count, v.max_other) == (28634752793916486, 28634752192836096)
    assert (v.code_count, v.max_other) == transforms.hamming_closed_forms(6)
    with pytest.raises(ParameterError):
        verify_hamming_coset_equidistribution(2)
    with pytest.raises(CapExceededError, match="enumeration cap"):
        verify_hamming_coset_equidistribution(14)


@pytest.mark.parametrize("weight,max_other", [(8, 5), (2, 0)])
def test_oddweight_reports_the_first_coset_with_an_even_weight(patch_one_coset, weight, max_other):
    code = RMParams(2, 4)
    reps = list(coset_representatives(code, Scope.FULL_SPACE))
    odd = [g for g, rep in enumerate(reps, start=1) if rep.bits.bit_count() % 2]
    target = odd[2]
    patch_one_coset(target, weight, 5)
    if max_other:
        # balanced words forged into an odd coset break the census sum before any witness is sought
        with pytest.raises(ExactnessError, match=rf"sum to {12870 + max_other}, not C\(16,8\) = 12870"):
            verify_oddweight_cosets(4)
        return
    v = verify_oddweight_cosets(4)
    assert not v.passed
    assert v.witness == reps[target - 1]
    assert (v.code_count, v.max_other) == (870, max_other)


def test_equidist_reports_the_first_coset_that_differs(patch_one_coset):
    code = RMParams(2, 4)
    reps = list(coset_representatives(code, Scope.WITHIN_NEXT_ORDER))
    target = 6
    patch_one_coset(target, 0, 1)
    v = verify_hamming_coset_equidistribution(4)
    assert not v.passed
    assert v.witness == reps[target - 1]
    assert (v.code_count, v.max_other) == (870, 800)


# (k, m) with m <= 6 whose coset has reps and whose dual walk has at most 2^22 words
SMALL_DUAL_PAIRS = [
    (k, m) for m in range(1, 7) for k in range(m) if dual_params(RMParams(k, m)).dimension <= 22
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_DUAL_PAIRS).flatmap(
    lambda km: st.tuples(st.just(km), st.integers(0, (1 << (1 << km[1])) - 1))))
def test_random_rep_has_one_distribution_from_three_sources(case):
    (k, m), bits = case
    code, rep = RMParams(k, m), TruthTable(m, bits)
    assume(not rm_membership(rep, code))
    expected = coset_distribution(code, rep)
    assert coset_weight_distribution(code, rep, method=Method.TRANSFORM) == expected
    if code.dimension <= 20:
        assert coset_weight_distribution(code, rep, method=Method.BRUTE) == expected


@pytest.mark.parametrize("k,m", SMALL_DUAL_PAIRS)
def test_transform_distribution_equals_the_oracle_at_every_small_pair(k, m):
    code, rng, checked = RMParams(k, m), random.Random(100 * k + m), 0
    while checked < 3:
        rep = TruthTable(m, rng.getrandbits(code.n))
        if rm_membership(rep, code):
            continue
        expected = coset_distribution(code, rep)
        assert coset_weight_distribution(code, rep, method=Method.TRANSFORM) == expected
        if code.dimension <= 20:
            assert coset_weight_distribution(code, rep, method=Method.BRUTE) == expected
        checked += 1


def test_coset_weight_distribution_methods_agree():
    code = RMParams(1, 3)
    rep = tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))
    brute = coset_weight_distribution(code, rep, method=Method.BRUTE)
    trans = coset_weight_distribution(code, rep, method=Method.TRANSFORM)
    assert brute == trans
    assert dict(brute.pairs) == {2: 4, 4: 8, 6: 4}
    for method in (Method.BRUTE, Method.TRANSFORM):
        with pytest.raises(ParameterError, match=r"^representative 33 lies in RM\(1,3\); coset is trivial$"):
            coset_weight_distribution(code, TruthTable.from_hex(3, "33"), method)  # Y2 is in RM(1,3)
        with pytest.raises(ParameterError, match="^rep has m=4, code has m=3$"):
            coset_weight_distribution(code, TruthTable.from_hex(4, "0033"), method)
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit")
def test_verdict_json_past_the_int_digit_limit():
    # code_count is C(16384, 8192), 4,930 digits, past the default limit
    # of 4300; the caller's limit holds again afterwards
    v = verify_theorem_basic(13, 14, method=Method.TRANSFORM)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = json.dumps(v.to_json_obj())
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    with unlimited_int_digits():
        assert json.loads(text)["code_count"] == str(comb(16384, 8192))


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
