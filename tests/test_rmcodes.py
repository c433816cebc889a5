import itertools
import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab._bitenum import iter_span
from rmlab.bfcore import TruthTable, linear_tt, PointVector, tt_from_anf, AnfMonomialSet, degree_of
from rmlab.errors import CapExceededError, ParameterError
from rmlab.harness import Scope, _rep_basis
from rmlab.rmcodes import (
    DEFAULT_DIMENSION_CAP,
    RMParams,
    WeightDistribution,
    code_counter,
    dimension_cap,
    dual_params,
    is_doubly_even,
    mceliece_check,
    mceliece_exponent,
    monomial_basis,
    pivot_positions,
    rm_iterate,
    rm_membership,
    rm_weight_distribution,
)


def naive_distribution(k: int, m: int) -> dict[int, int]:
    """Independent oracle: evaluate each degree <= k monomial point by
    point into a bit vector, then XOR the monomials that each coefficient
    vector selects."""
    monos = [c for d in range(k + 1) for c in itertools.combinations(range(1, m + 1), d)]
    n = 1 << m
    vectors = []
    for mono in monos:
        vec = 0
        for idx in range(n):
            coords = [(idx >> (m - j)) & 1 for j in range(1, m + 1)]
            if all(coords[j - 1] for j in mono):
                vec |= 1 << idx
        vectors.append(vec)
    counts: dict[int, int] = {}
    for sel in itertools.product((0, 1), repeat=len(monos)):
        word = 0
        for on, vec in zip(sel, vectors):
            if on:
                word ^= vec
        w = bin(word).count("1")
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_dimensions():
    assert RMParams(1, 3).dimension == 4
    assert RMParams(2, 4).dimension == 11
    for m in range(1, 8):
        assert RMParams(m, m).dimension == 1 << m
    assert RMParams.zero_code(5).dimension == 0


def test_params_validation():
    with pytest.raises(ParameterError):
        RMParams(-1, 3)
    with pytest.raises(ParameterError):
        RMParams(4, 3)
    with pytest.raises(ParameterError):
        RMParams(1, 3, trivial=True)
    assert str(RMParams(2, 4)) == "RM(2,4)"
    assert str(RMParams.zero_code(3)) == "{0}^8"


def test_duality():
    assert dual_params(RMParams(1, 3)) == RMParams(1, 3)
    assert dual_params(RMParams(2, 4)) == RMParams(1, 4)
    assert dual_params(RMParams(2, 5)) == RMParams(2, 5)
    assert dual_params(RMParams(3, 3)) == RMParams.zero_code(3)
    assert dual_params(RMParams.zero_code(3)) == RMParams(3, 3)
    for m in range(1, 6):
        for k in range(m):
            p = RMParams(k, m)
            assert dual_params(dual_params(p)) == p
            assert p.dimension + dual_params(p).dimension == 1 << m


def test_monomial_basis_graded_lex():
    basis = monomial_basis(RMParams(2, 3))
    # 1; Y1, Y2, Y3; Y1Y2, Y1Y3, Y2Y3
    assert [t.to_hex() for t in basis] == ["ff", "0f", "33", "55", "03", "05", "11"]
    assert monomial_basis(RMParams.zero_code(3)) == []


def test_iterate_repetition_code():
    words = [t.bits for t in rm_iterate(RMParams(0, 2))]
    assert sorted(words) == [0b0000, 0b1111]


def test_iterate_gray_order_and_count():
    p = RMParams(1, 3)
    words = list(rm_iterate(p))
    assert len(words) == 16
    assert len({w.bits for w in words}) == 16
    basis = {t.bits for t in monomial_basis(p)}
    for a, b in zip(words, words[1:]):
        assert a.bits ^ b.bits in basis  # one basis vector per step
    weights = sorted(w.bits.bit_count() for w in words)
    assert weights == [0] + [4] * 14 + [8]


def test_distribution_against_naive_oracle():
    # every k at m = 4: RM(4,4) is all 65,536 words of length 16
    cases = [(k, m) for m in range(1, 5) for k in range(m + 1)]
    for k, m in cases:
        dist = rm_weight_distribution(RMParams(k, m))
        assert dict(dist.pairs) == naive_distribution(k, m), (k, m)


def test_distribution_known_values():
    assert rm_weight_distribution(RMParams(1, 3)).pairs == ((0, 1), (4, 14), (8, 1))
    assert rm_weight_distribution(RMParams(1, 4)).pairs == ((0, 1), (8, 30), (16, 1))
    d24 = rm_weight_distribution(RMParams(2, 4))
    assert d24[8] == 870
    d25 = rm_weight_distribution(RMParams(2, 5))
    assert d25.pairs == (
        (0, 1), (8, 620), (12, 13888), (16, 36518), (20, 13888), (24, 620), (32, 1),
    )
    assert rm_weight_distribution(RMParams.zero_code(4)).pairs == ((0, 1),)


def test_distribution_sum_and_symmetry():
    for m in range(1, 5):
        for k in range(m + 1):
            p = RMParams(k, m)
            dist = rm_weight_distribution(p)
            assert dist.total == 1 << p.dimension
            dense = dist.to_dense()
            # the all-one word is a codeword; the span walk folds it out, so
            # this holds by construction and the naive oracle test pins the counts
            assert dense == dense[::-1]


def test_dual_codes_are_orthogonal():
    for m in range(1, 5):
        for k in range(m):
            words = [t.bits for t in rm_iterate(RMParams(k, m))]
            dual_words = [t.bits for t in rm_iterate(dual_params(RMParams(k, m)))]
            for a in words:
                for b in dual_words:
                    assert (a & b).bit_count() % 2 == 0


def test_mceliece():
    assert mceliece_exponent(RMParams(1, 4)) == 3
    assert mceliece_exponent(RMParams(2, 5)) == 2
    assert mceliece_exponent(RMParams(3, 4)) == 1
    assert mceliece_exponent(RMParams(4, 4)) == 0
    with pytest.raises(ParameterError):
        mceliece_exponent(RMParams(0, 4))
    for m in range(1, 5):
        for k in range(1, m + 1):
            assert mceliece_check(RMParams(k, m))
    assert mceliece_check(RMParams(1, 5))
    assert mceliece_check(RMParams(2, 5))
    assert mceliece_check(RMParams(3, 5))


def test_is_doubly_even():
    assert is_doubly_even(rm_weight_distribution(RMParams(1, 4)))
    assert is_doubly_even(rm_weight_distribution(RMParams(1, 3)))
    assert not is_doubly_even(rm_weight_distribution(RMParams(2, 3)))


def test_membership():
    for idx in range(1 << 3):
        assert rm_membership(linear_tt(PointVector.from_index(3, idx)), RMParams(1, 3))
    y1y2 = tt_from_anf(AnfMonomialSet.from_str(2, "Y1Y2"))
    assert not rm_membership(y1y2, RMParams(1, 2))
    assert rm_membership(y1y2, RMParams(2, 2))
    assert rm_membership(TruthTable(4, 0), RMParams(0, 4))
    assert rm_membership(TruthTable(4, 0), RMParams.zero_code(4))
    assert not rm_membership(TruthTable(4, 1), RMParams.zero_code(4))
    with pytest.raises(ParameterError):
        rm_membership(TruthTable(3, 0), RMParams(1, 4))


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1), st.integers(0, 2**30))))
def test_membership_accepts_codewords(data):
    m, k, seed = data
    rng = random.Random(seed)
    basis = monomial_basis(RMParams(k, m))
    bits = 0
    for t in basis:
        if rng.getrandbits(1):
            bits ^= t.bits
    assert rm_membership(TruthTable(m, bits), RMParams(k, m))


def keyed_histogram_oracle(p: RMParams, against: list[int]) -> np.ndarray:
    """Weight histogram of p's span per syndrome, each word's syndrome
    computed one explicit parity at a time: bit i is its parity with
    against[i]."""
    hist = np.zeros((1 << len(against), p.n + 1), dtype=np.int64)
    for word in iter_span([t.bits for t in monomial_basis(p)], p.n):
        key = sum(((word & a).bit_count() & 1) << i for i, a in enumerate(against))
        hist[key, word.bit_count()] += 1
    return hist


@pytest.mark.parametrize("k,m", [(k, m) for m in range(1, 6) for k in range(m + 1)])
def test_code_counter_against_explicit_parities(k, m):
    """The keyed counter of the code and of its dual, keyed by nothing, by
    one random table, and by the rep basis of each scope (as _dual_table
    keys the dual), against the per-word oracle wherever it walks at most
    2^16 words into at most 2^16 syndromes."""
    code = RMParams(k, m)
    scopes = [Scope.FULL_SPACE] + ([Scope.WITHIN_NEXT_ORDER] if k < m else [])
    againsts = [[], [random.Random(k * 8 + m).getrandbits(code.n)]]
    againsts += [basis for basis in (_rep_basis(code, s) for s in scopes) if len(basis) <= 16]
    checked = 0
    for p in (code, dual_params(code)):
        if p.dimension > 16:
            continue
        for against in againsts:
            got = code_counter(p, against).weight_histogram()
            assert np.array_equal(got.reshape(-1, p.n + 1), keyed_histogram_oracle(p, against)), (p, against)
            checked += 1
    assert checked >= 2


def test_enumeration_cap():
    assert dimension_cap() == DEFAULT_DIMENSION_CAP
    assert dimension_cap(30) == 30
    with pytest.raises(CapExceededError) as exc:
        rm_weight_distribution(RMParams(3, 6), cap=20)
    assert "42" in str(exc.value) and "20" in str(exc.value)
    with pytest.raises(CapExceededError):
        next(rm_iterate(RMParams(4, 6)))  # dimension 57 > default 26


def test_weight_distribution_type():
    d = WeightDistribution.from_counts(8, {4: 14, 0: 1, 8: 1})
    assert d.pairs == ((0, 1), (4, 14), (8, 1))
    assert d[4] == 14 and d[3] == 0
    assert d.support == (0, 4, 8)
    assert d.to_dense() == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    with pytest.raises(ParameterError):
        d.count(9)
    with pytest.raises(ParameterError):
        WeightDistribution(4, ((5, 1),))
    with pytest.raises(ParameterError):
        WeightDistribution(4, ((1, 0),))
    with pytest.raises(ParameterError):
        WeightDistribution(4, ((2, 1), (1, 1)))


def test_weight_distribution_json():
    d = rm_weight_distribution(RMParams(1, 3))
    obj = d.to_json_obj()
    assert obj == {"n": 8, "counts": ["1", "0", "0", "0", "14", "0", "0", "0", "1"]}
    assert WeightDistribution.from_json_obj(json.loads(json.dumps(obj))) == d
    with pytest.raises(ParameterError):
        WeightDistribution.from_json_obj({"n": 8, "counts": ["1"]})
    # counts past Python's default 4300-digit int <-> str limit
    big = WeightDistribution(2, ((0, 1), (1, 7 ** 6000), (2, 3)))
    text = json.dumps(big.to_json_obj())
    assert len(json.loads(text)["counts"][1]) == 5071
    assert WeightDistribution.from_json_obj(json.loads(text)) == big


def eliminated_pivots(p: RMParams) -> tuple[int, ...]:
    """Independent oracle: the pivot columns of the reduced row-echelon
    form of the monomial generator matrix, by Gaussian elimination."""
    rows = [t.bits for t in monomial_basis(p)]
    n = p.n
    pivots = []
    for pos in range(n):
        if not rows:
            break
        colbit = 1 << (n - 1 - pos)
        hit = next((i for i, r in enumerate(rows) if r & colbit), None)
        if hit is None:
            continue
        pivot = rows.pop(hit)
        rows = [r ^ pivot if r & colbit else r for r in rows]
        pivots.append(pos)
    return tuple(pivots)


def test_pivot_positions():
    p = RMParams(1, 3)
    pivots = pivot_positions(p)
    assert len(pivots) == p.dimension
    assert len(set(pivots)) == len(pivots)
    # pivots of the full-space code are all coordinates
    assert pivot_positions(RMParams(3, 3)) == tuple(range(8))
    # the popcount <= k information set is the elimination's pivot set
    for m in range(1, 9):
        for k in range(m + 1):
            assert pivot_positions(RMParams(k, m)) == eliminated_pivots(RMParams(k, m)), (k, m)
    assert pivot_positions(RMParams.zero_code(3)) == eliminated_pivots(RMParams.zero_code(3)) == ()


def test_membership_is_degree_at_most_k():
    # uniform tables, plus codewords of each RM(d,m), so every k sees both
    # members and non-members
    rng = random.Random(13)
    for m in range(1, 11):
        n = 1 << m
        tables = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(8)]
        for d in range(m + 1):
            basis = monomial_basis(RMParams(d, m))
            for _ in range(3):
                bits = 0
                for t in basis:
                    if rng.getrandbits(1):
                        bits ^= t.bits
                tables.append(bits)
        for bits in tables:
            t = TruthTable(m, bits)
            deg = degree_of(t)
            for k in range(m + 1):
                assert rm_membership(t, RMParams(k, m)) == (deg is None or deg <= k), (m, k, bits)


def test_dimension_formula():
    for m in range(1, 10):
        for k in range(m + 1):
            assert RMParams(k, m).dimension == sum(comb(m, j) for j in range(k + 1))
