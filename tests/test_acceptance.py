"""Acceptance gate: ten numbered criteria, one test (and one pytest -v
line) each.  All equalities are exact integer equalities; the timed
criteria assert their wall-clock bounds."""

import random
import time

import numpy as np

from coset_oracle import balanced_count_of_coset, bit, coset_representatives, orthogonal_profile
from rmlab.bfcore import TruthTable, tt_from_anf, AnfMonomialSet
from rmlab.harness import (
    Method,
    Mode,
    Scope,
    coset_weight_distribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from rmlab.krawtchouk import central_column
from rmlab.rmcodes import (
    RMParams,
    dual_params,
    mceliece_check,
    rm_membership,
    rm_weight_distribution,
)
from rmlab.spectral import _rm1_counts, wht, wht_many
from rmlab.transforms import hamming_closed_forms, macwilliams


def test_criterion_01_central_krawtchouk_sign_pattern():
    """K(i,n) is 0 for odd i, < 0 for i = 2 mod 4, > 0 for i = 0 mod 4,
    for every even n <= 512; under one minute."""
    t0 = time.monotonic()
    for n in range(2, 513, 2):
        col = central_column(n)
        assert len(col) == n + 1
        for i, v in enumerate(col):
            if i % 2 == 1:
                assert v == 0, (n, i)
            elif i % 4 == 2:
                assert v < 0, (n, i)
            else:
                assert v > 0, (n, i)
    assert time.monotonic() - t0 < 60


def test_criterion_02_macwilliams_round_trip():
    """For 0 <= k <= m <= 5 the dual-side transform reproduces the brute
    enumeration exactly and is an involution; under five minutes."""
    t0 = time.monotonic()
    for m in range(1, 6):
        for k in range(m + 1):
            code = RMParams(k, m)
            dual = dual_params(code)
            A = rm_weight_distribution(code, cap=32)
            B = rm_weight_distribution(dual, cap=32)
            assert macwilliams(B, code.dimension, code.n) == A
            assert macwilliams(A, dual.dimension, dual.n) == B
    assert time.monotonic() - t0 < 300


def test_criterion_03_closed_forms():
    """The closed forms for the balanced counts of RM(m-2,m) and of its
    nontrivial cosets inside RM(m-1,m) match brute force at m = 3, 4 and
    the transform values at m = 5."""
    assert hamming_closed_forms(3) == (14, 8)
    assert hamming_closed_forms(4) == (870, 800)
    for m in (3, 4):
        code = RMParams(m - 2, m)
        n = code.n
        in_code, per_coset = hamming_closed_forms(m)
        assert rm_weight_distribution(code).count(n // 2) == in_code
        for rep in coset_representatives(code, Scope.WITHIN_NEXT_ORDER):
            assert balanced_count_of_coset(code, rep) == per_coset

    code = RMParams(3, 5)
    n = code.n
    B = rm_weight_distribution(dual_params(code))
    in_code = macwilliams(B, code.dimension, n)[n // 2]
    rep = tt_from_anf(AnfMonomialSet(5, frozenset([frozenset([1, 2, 3, 4])])))
    per_coset = coset_weight_distribution(code, rep)[n // 2]
    assert hamming_closed_forms(5) == (in_code, per_coset) == (18796230, 18783360)


def test_criterion_04_strict_maximum_exhaustive():
    """The code's balanced count strictly exceeds every nontrivial
    coset's, over all cosets in the full space, for six parameter pairs;
    the (2,5) run stays under fifteen minutes."""
    expected = {
        (1, 3): (14, 8),
        (2, 4): (870, 800),
        (3, 4): (12870, 0),
        (2, 5): (36518, 18848),
        (3, 5): (18796230, 18783360),
        (4, 5): (601080390, 0),
    }
    for (k, m), method in [
        ((1, 3), Method.BRUTE),
        ((2, 4), Method.BRUTE),
        ((3, 4), Method.BRUTE),
        ((3, 5), Method.TRANSFORM),
        ((4, 5), Method.TRANSFORM),
    ]:
        v = verify_theorem_basic(k, m, method=method)
        assert v.passed, (k, m)
        assert (v.code_count, v.max_other) == expected[(k, m)]
        assert v.max_other < v.code_count

    t0 = time.monotonic()
    v = verify_theorem_basic(2, 5, method=Method.BRUTE)
    elapsed = time.monotonic() - t0
    assert v.passed and (v.code_count, v.max_other) == expected[(2, 5)]
    assert elapsed < 900


def test_criterion_05_balanced_gap_consistency():
    """For every coset checked by the transform in the previous
    criterion, the gap formula 2^(K-n+1) sum_i (B_i - b_i) K(i,n), with b
    the dual words orthogonal to the rep, equals the difference of the
    two central distribution entries and is strictly positive."""
    for k, m in [(3, 5), (4, 5)]:
        code = RMParams(k, m)
        K, n = code.dimension, code.n
        B = rm_weight_distribution(dual_params(code))
        a_half = macwilliams(B, K, n)[n // 2]
        col = central_column(n)
        for rep in coset_representatives(code, Scope.FULL_SPACE):
            _, b = orthogonal_profile(code, rep)
            gap, r = divmod(2 * sum((c - b[w]) * col[w] for w, c in B.pairs), 1 << (n - K))
            assert r == 0
            assert gap == a_half - coset_weight_distribution(code, rep)[n // 2]
            assert gap > 0


def test_criterion_06_first_order_proposition():
    """No nontrivial coset of RM(1,m) reaches 2^(m+1)-2 balanced words:
    exhaustively for m = 3, 4; on 10^4 seeded samples for m = 5..10; and
    the spectral count agrees with enumeration everywhere at m = 3."""
    for m in (3, 4):
        v = verify_rm1_proposition(m)
        assert v.passed and v.mode is Mode.EXHAUSTIVE
    for m in range(5, 11):
        v = verify_rm1_proposition(m, exhaustive=False, samples=10_000, seed=0)
        assert v.passed and v.mode is Mode.SAMPLED

    code = RMParams(1, 3)
    for bits in range(256):
        f = TruthTable(3, bits)
        if not rm_membership(f, code):
            assert _rm1_counts([f.bits], 3)[0][0] == balanced_count_of_coset(code, f)


def test_criterion_07_quotient_conjecture_empirical():
    """Within RM(k+1,m), the code beats every other coset of RM(k,m) at
    six parameter pairs; the reports are labeled EMPIRICAL."""
    expected = {
        (1, 3): (14, 8),
        (1, 4): (30, 24),
        (1, 5): (62, 56),
        (2, 4): (870, 800),
        (2, 5): (36518, 18528),
        (3, 5): (18796230, 18783360),
    }
    for (k, m), counts in expected.items():
        v = verify_quotient_conjecture(k, m)
        assert v.passed, (k, m)
        assert (v.code_count, v.max_other) == counts
        assert v.mode is Mode.EMPIRICAL
        assert v.to_json_obj()["mode"] == "EMPIRICAL"


def test_criterion_08_oddweight_cosets():
    """Cosets of RM(m-2,m) with odd-weight representatives contain no
    balanced words at m = 3, 4, 5."""
    expected = {3: 14, 4: 870, 5: 18796230}
    for m, code_count in expected.items():
        v = verify_oddweight_cosets(m)
        assert v.passed and v.max_other == 0
        assert v.code_count == code_count


def test_criterion_09_spectral_agreement():
    """The fast transform equals the definitional sums exhaustively at
    m = 3 and on 10^3 seeded random functions for m = 4..10, with the
    spectrum's squared sum always 2^(2m)."""
    for bits in range(256):
        f = TruthTable(3, bits)
        s = wht(f)
        for omega in range(8):
            direct = sum(
                (-1) ** (bit(f, x) ^ (bin(x & omega).count("1") & 1)) for x in range(8)
            )
            assert s.values[omega] == direct
        assert sum(v * v for v in s.values) == 1 << 6

    rng = random.Random(0)
    for m in range(4, 11):
        n = 1 << m
        tables = [rng.getrandbits(n) for _ in range(1000)]
        fast = wht_many(tables, m)
        idx = np.arange(n, dtype=np.uint32)
        hadamard = 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(idx, idx)) % 2)
        rows = np.array(
            [[(t >> (n - 1 - i)) & 1 for i in range(n)] for t in tables],
            dtype=np.float64,
        )
        oracle = ((1.0 - 2.0 * rows) @ hadamard).astype(np.int64)
        assert np.array_equal(fast, oracle)
        assert np.all((fast.astype(np.int64) ** 2).sum(axis=1) == 1 << (2 * m))


def test_criterion_10_mceliece_divisibility():
    """Every codeword weight of RM(k,m) is divisible by
    2^floor((m-1)/k), for all 1 <= k <= m <= 5."""
    for m in range(1, 6):
        for k in range(1, m + 1):
            assert mceliece_check(RMParams(k, m), cap=32), (k, m)
