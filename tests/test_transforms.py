import random
import tracemalloc
from collections import Counter

import pytest

from coset_oracle import balanced_gap, coset_distribution, dense_transform, iter_span, orthogonal_profile
from rmlab import _bitenum, krawtchouk, transforms
from rmlab.bfcore import AnfMonomialSet, TruthTable, tt_from_anf
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.harness import coset_weight_distribution
from rmlab.krawtchouk import kraw_direct
from rmlab.rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    monomial_basis,
    rm_membership,
    rm_weight_distribution,
)
from rmlab.transforms import _transform, hamming_closed_forms, macwilliams


def brute_coset_distribution(code: RMParams, rep: TruthTable) -> WeightDistribution:
    basis = [t.bits for t in monomial_basis(code)]
    hist = _bitenum.SpanCounter(basis, code.n).weight_histogram(offset=rep.bits)
    return WeightDistribution.from_dense(hist.tolist())


def random_nonmember(rng: random.Random, code: RMParams) -> TruthTable:
    while True:
        f = TruthTable(code.m, rng.getrandbits(code.n))
        if not rm_membership(f, code):
            return f


def test_macwilliams_examples():
    B = rm_weight_distribution(RMParams(1, 3))
    assert dict(macwilliams(B, 4, 8).pairs) == {0: 1, 4: 14, 8: 1}
    B = rm_weight_distribution(RMParams(1, 4))
    assert macwilliams(B, 11, 16) == rm_weight_distribution(RMParams(2, 4))


def test_macwilliams_round_trips():
    for m in range(1, 5):
        for k in range(m + 1):
            code = RMParams(k, m)
            dual = dual_params(code)
            A = rm_weight_distribution(code)
            B = rm_weight_distribution(dual)
            assert macwilliams(B, code.dimension, code.n) == A
            assert macwilliams(A, dual.dimension, dual.n) == B


def test_macwilliams_zero_code_pairing():
    # {0}^n against the full space
    for m in range(1, 4):
        n = 1 << m
        zero = WeightDistribution(n, ((0, 1),))
        full = macwilliams(zero, n, n)
        assert full == rm_weight_distribution(RMParams(m, m))
        assert macwilliams(full, 0, n) == zero


def test_macwilliams_validation():
    B = rm_weight_distribution(RMParams(1, 3))
    with pytest.raises(ParameterError):
        macwilliams(B, 5, 8)  # sum is 2^4, not 2^3
    with pytest.raises(ParameterError):
        macwilliams(B, 4, 16)
    with pytest.raises(ParameterError):
        macwilliams(B, 9, 8)


def test_macwilliams_inconsistent_input_caught():
    bad = WeightDistribution(4, ((1, 4),))
    with pytest.raises(ExactnessError):
        macwilliams(bad, 2, 4)


def test_profile_examples():
    _, b = orthogonal_profile(RMParams(1, 3), tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")))
    assert dict(b.pairs) == {0: 1, 4: 6, 8: 1}
    _, b = orthogonal_profile(RMParams(2, 4), tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")))
    assert dict(b.pairs) == {0: 1, 8: 14, 16: 1}
    # odd-weight representative: the all-ones word is not orthogonal to it
    _, b = orthogonal_profile(RMParams(2, 4), TruthTable(4, 1 << 15))
    assert dict(b.pairs) == {0: 1, 8: 15}


def test_profile_halves_the_dual():
    rng = random.Random(3)
    for k, m in [(1, 3), (2, 4), (1, 4), (2, 5), (3, 5)]:
        code = RMParams(k, m)
        dual = dual_params(code)
        for _ in range(5):
            B, b = orthogonal_profile(code, random_nonmember(rng, code))
            assert B == rm_weight_distribution(dual)
            assert b.total == 1 << (dual.dimension - 1)
            for w in b.support:
                assert b.count(w) <= B.count(w)


def test_assmus_examples():
    # MacWilliams for cosets, by the dual table and by the oracle
    code = RMParams(1, 3)
    rep = tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))
    d = coset_weight_distribution(code, rep)
    assert d == coset_distribution(code, rep)
    assert dict(d.pairs) == {2: 4, 4: 8, 6: 4}

    code = RMParams(2, 4)
    rep = tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3"))
    d = coset_weight_distribution(code, rep)
    assert d == coset_distribution(code, rep)
    assert dict(d.pairs) == {2: 8, 4: 112, 6: 504, 8: 800, 10: 504, 12: 112, 14: 8}

    # odd-weight rep: coset misses every even weight
    rep = TruthTable(4, 1 << 15)
    d = coset_weight_distribution(code, rep)
    assert d == coset_distribution(code, rep)
    assert d.total == 1 << 11
    assert all(w % 2 == 1 for w in d.support)
    assert d.count(8) == 0


def test_assmus_with_full_profile_reproduces_code():
    # b = B is the orthogonality profile of any codeword, and the "coset"
    # is then the code itself: 2b - B = B
    for k, m in [(1, 3), (2, 4), (1, 4)]:
        code = RMParams(k, m)
        B = rm_weight_distribution(dual_params(code))
        d = dense_transform(dict(B.pairs), code.dimension, code.n)
        assert d == rm_weight_distribution(code)


def test_transform_matches_brute_enumeration():
    rng = random.Random(17)
    cases = [(1, 3, 20), (2, 4, 20), (1, 4, 10), (3, 5, 3), (2, 5, 5)]
    for k, m, reps in cases:
        code = RMParams(k, m)
        A = rm_weight_distribution(code)
        for _ in range(reps):
            rep = random_nonmember(rng, code)
            d = coset_weight_distribution(code, rep)
            assert d == coset_distribution(code, rep) == brute_coset_distribution(code, rep)
            assert balanced_gap(code, rep) == A.count(code.n // 2) - d.count(code.n // 2)


def test_sparse_transforms_match_dense_oracle_at_m8():
    code = RMParams(6, 8)
    K, n = code.dimension, code.n
    B = rm_weight_distribution(dual_params(code))
    assert B.support == (0, 128, 256)
    A = macwilliams(B, K, n)
    assert A == dense_transform(dict(B.pairs), K, n)
    assert A.total == 1 << K

    rng = random.Random(8)
    for parity in (0, 1):
        rep = random_nonmember(rng, code)
        if rep.bits.bit_count() % 2 != parity:
            rep = TruthTable(8, rep.bits ^ 1)
        d = coset_weight_distribution(code, rep)
        assert d == coset_distribution(code, rep)
        assert all(w % 2 == parity for w in d.support)


def test_balanced_gap_examples():
    cases = [
        (RMParams(1, 3), tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")), 6),
        (RMParams(2, 4), tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")), 70),
        (RMParams(2, 4), TruthTable(4, 1 << 15), 870),
    ]
    for code, rep, gap in cases:
        B = rm_weight_distribution(dual_params(code))
        a_half = macwilliams(B, code.dimension, code.n)[code.n // 2]
        assert balanced_gap(code, rep) == a_half - coset_weight_distribution(code, rep)[code.n // 2] == gap


def test_balanced_gap_positive_under_theorem_hypothesis():
    rng = random.Random(23)
    for k, m in [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]:
        assert 1 <= k <= m - 1 and k >= m // 2  # strict-maximum hypothesis
        code = RMParams(k, m)
        B = rm_weight_distribution(dual_params(code))
        a_half = macwilliams(B, code.dimension, code.n)[code.n // 2]
        for _ in range(10):
            rep = random_nonmember(rng, code)
            gap = balanced_gap(code, rep)
            assert gap == a_half - coset_weight_distribution(code, rep)[code.n // 2]
            assert gap > 0


def test_hamming_closed_forms_values():
    assert hamming_closed_forms(3) == (14, 8)
    assert hamming_closed_forms(4) == (870, 800)
    assert hamming_closed_forms(5) == (18796230, 18783360)
    with pytest.raises(ParameterError):
        hamming_closed_forms(2)


def test_hamming_closed_forms_match_transform():
    for m in (3, 4, 5):
        code = RMParams(m - 2, m)
        n = code.n
        in_code, per_coset = hamming_closed_forms(m)
        assert rm_weight_distribution(code).count(n // 2) == in_code
        # one even-weight coset inside RM(m-1,m): top-degree-minus-one monomial
        rep = tt_from_anf(
            AnfMonomialSet(m, frozenset([frozenset(range(1, m))]))
        )
        assert coset_weight_distribution(code, rep).count(n // 2) == per_coset


def test_profile_cap():
    code = RMParams(1, 5)  # dual RM(3,5) has dimension 26
    with pytest.raises(CapExceededError, match=r"dual walk of RM\(1,5\) over RM\(3,5\) needs dimension 26"):
        coset_weight_distribution(code, TruthTable(5, 1), cap=4)


def unfolded_transform(coeffs: list[tuple[int, int]], K: int, n: int, what: str) -> WeightDistribution:
    """sum_x c_x P_j(x;n) for every j, each term from the defining sum,
    with _transform's checks in its order and its messages."""
    shift, pairs = n - K, []
    for j in range(n + 1):
        s = sum(c * kraw_direct(j, x, n) for x, c in coeffs)
        if s < 0:
            raise ExactnessError(f"{what}: negative entry at weight {j} (inconsistent input)")
        q, r = divmod(s, 1 << shift)
        if r:
            raise ExactnessError(f"{what}: entry at weight {j} not divisible by 2^{shift}")
        if q:
            pairs.append((j, q))
    out = WeightDistribution(n, tuple(pairs))
    if out.total != 1 << K:
        raise ExactnessError(f"{what}: output sums to {out.total}, expected 2^{K}")
    return out


def outcome(transform, coeffs, K, n):
    """The transform's distribution, or its ExactnessError's message."""
    try:
        return transform(coeffs, K, n, "t")
    except ExactnessError as e:
        return str(e)


def fold_cases(rng: random.Random, n: int):
    """(coeffs, K) pairs over sparse supports at length n: the weights of
    the span of a few random words (a dual's distribution when they are
    independent), doubled, negated and nudged, and random coefficients on
    a lone x > n/2, on x = n/2, and on pairs {x, n - x}."""
    basis = [rng.getrandbits(n) for _ in range(rng.randrange(1, min(n, 5) + 1))]
    valid = sorted(Counter(w.bit_count() for w in iter_span(basis)).items())
    K = n - len(basis)
    yield valid, K
    yield [(x, 2 * c) for x, c in valid], K
    yield [(x, -c) for x, c in valid], K
    nudged = dict(valid)
    nudged[rng.choice(list(nudged))] += rng.choice((-1, 1))
    yield sorted(nudged.items()), K
    for support in ([rng.randrange(n // 2 + 1, n + 1)], [n // 2], [x := rng.randrange(n // 2 + 1), n - x],
                    [0, n // 2, n], rng.sample(range(n + 1), min(n + 1, 4))):
        coeffs = [(x, rng.randrange(-3, 4) << rng.randrange(3)) for x in dict.fromkeys(support)]
        yield coeffs, rng.randrange(max(0, n - 3), n + 1)


def test_folded_transform_equals_unfolded_sum():
    rng = random.Random(29)
    kinds = set()
    for n in range(1, 65):
        for _ in range(3):
            for coeffs, K in fold_cases(rng, n):
                got = outcome(_transform, coeffs, K, n)
                assert got == outcome(unfolded_transform, coeffs, K, n), (coeffs, K, n)
                kinds.add(got.split(" ")[1] if isinstance(got, str) else "ok")
    assert kinds == {"ok", "negative", "entry", "output"}


def test_folded_transform_reads_only_rows_up_to_half(monkeypatch):
    asked = []
    row = transforms.kraw_row
    monkeypatch.setattr(transforms, "kraw_row", lambda x, n: asked.append((x, n)) or row(x, n))
    rng = random.Random(31)
    for n in range(1, 65):
        for coeffs, K in fold_cases(rng, n):
            outcome(_transform, coeffs, K, n)
    assert asked and all(2 * x <= n for x, n in asked)
    for m in (3, 8):
        code = RMParams(m - 2, m)
        asked.clear()
        B = rm_weight_distribution(dual_params(code))
        assert B.support == (0, code.n // 2, code.n)
        macwilliams(B, code.dimension, code.n)
        assert asked == [(0, code.n), (code.n // 2, code.n)]


def test_macwilliams_leaves_no_rows_resident():
    # RM(10,12) from RM(1,12)'s distribution builds the rows x = 0 and
    # x = 2048 of n = 4096, about 1.1 MB of big integers, and keeps
    # neither; only what krawtchouk allocated is read, since freed
    # tuples stay on CPython's free lists
    B = rm_weight_distribution(RMParams(1, 12))
    tracemalloc.start()
    try:
        macwilliams(B, RMParams(10, 12).dimension, 4096)
        rows = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, krawtchouk.__file__)])
    finally:
        tracemalloc.stop()
    assert sum(stat.size for stat in rows.statistics("filename")) < 100_000
