import json
import random

import pytest

from rmlab import _bitenum
from rmlab.bfcore import AnfMonomialSet, TruthTable, tt_from_anf
from rmlab.errors import CapExceededError, ExactnessError, ParameterError
from rmlab.krawtchouk import kraw_column
from rmlab.rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    monomial_basis,
    rm_membership,
    rm_weight_distribution,
)
from rmlab.transforms import (
    CosetDualProfile,
    CosetSpec,
    assmus_mattson,
    balanced_gap,
    coset_dual_profile,
    hamming_closed_forms,
    macwilliams,
)


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


def test_coset_spec_validation():
    code = RMParams(1, 3)
    with pytest.raises(ParameterError):
        CosetSpec(code, TruthTable.from_hex(3, "33"))  # Y2 is in RM(1,3)
    with pytest.raises(ParameterError):
        CosetSpec(code, TruthTable.from_hex(4, "0033"))
    spec = CosetSpec(code, TruthTable.from_hex(3, "03"))
    assert spec.to_json_obj() == {"k": 1, "m": 3, "rep_hex": "03"}
    assert CosetSpec.from_json(json.dumps(spec.to_json_obj())) == spec


def test_profile_examples():
    spec = CosetSpec(RMParams(1, 3), tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")))
    assert dict(coset_dual_profile(spec).pairs) == {0: 1, 4: 6, 8: 1}
    spec = CosetSpec(RMParams(2, 4), tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")))
    assert dict(coset_dual_profile(spec).pairs) == {0: 1, 8: 14, 16: 1}
    # odd-weight representative: only the zero word and the all-ones word
    # class; every weight-8 dual word except none... enumerate directly
    spec = CosetSpec(RMParams(2, 4), TruthTable(4, 1 << 15))
    assert dict(coset_dual_profile(spec).pairs) == {0: 1, 8: 15}


def test_profile_halves_the_dual():
    rng = random.Random(3)
    for k, m in [(1, 3), (2, 4), (1, 4), (2, 5), (3, 5)]:
        code = RMParams(k, m)
        dual = dual_params(code)
        for _ in range(5):
            spec = CosetSpec(code, random_nonmember(rng, code))
            prof = coset_dual_profile(spec)
            assert prof.total == 1 << (dual.dimension - 1)
            B = rm_weight_distribution(dual)
            for w in prof.support:
                assert prof.count(w) <= B.count(w)


def test_assmus_examples():
    code = RMParams(1, 3)
    B = rm_weight_distribution(RMParams(1, 3))
    spec = CosetSpec(code, tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")))
    d = assmus_mattson(coset_dual_profile(spec), B, 4, 8)
    assert dict(d.pairs) == {2: 4, 4: 8, 6: 4}

    code = RMParams(2, 4)
    B = rm_weight_distribution(RMParams(1, 4))
    spec = CosetSpec(code, tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")))
    d = assmus_mattson(coset_dual_profile(spec), B, 11, 16)
    assert dict(d.pairs) == {2: 8, 4: 112, 6: 504, 8: 800, 10: 504, 12: 112, 14: 8}

    # odd-weight rep: coset misses every even weight
    spec = CosetSpec(code, TruthTable(4, 1 << 15))
    d = assmus_mattson(coset_dual_profile(spec), B, 11, 16)
    assert d.total == 1 << 11
    assert all(w % 2 == 1 for w in d.support)
    assert d.count(8) == 0


def test_assmus_with_full_profile_reproduces_code():
    # b = B is the orthogonality profile of any codeword, and the "coset"
    # is then the code itself
    for k, m in [(1, 3), (2, 4), (1, 4)]:
        code = RMParams(k, m)
        B = rm_weight_distribution(dual_params(code))
        profile = CosetDualProfile(code.n, B.pairs)
        d = assmus_mattson(profile, B, code.dimension, code.n)
        assert d == rm_weight_distribution(code)


def test_assmus_validation():
    code = RMParams(1, 3)
    B = rm_weight_distribution(RMParams(1, 3))
    too_big = CosetDualProfile(8, ((0, 1), (4, 15), (8, 1)))
    with pytest.raises(ParameterError):
        assmus_mattson(too_big, B, 4, 8)
    short = CosetDualProfile(4, ((0, 1),))
    with pytest.raises(ParameterError):
        assmus_mattson(short, B, 4, 8)


def test_transform_matches_brute_enumeration():
    rng = random.Random(17)
    cases = [(1, 3, 20), (2, 4, 20), (1, 4, 10), (3, 5, 3), (2, 5, 5)]
    for k, m, reps in cases:
        code = RMParams(k, m)
        B = rm_weight_distribution(dual_params(code))
        for _ in range(reps):
            rep = random_nonmember(rng, code)
            spec = CosetSpec(code, rep)
            prof = coset_dual_profile(spec)
            d = assmus_mattson(prof, B, code.dimension, code.n)
            assert d == brute_coset_distribution(code, rep)
            gap = balanced_gap(B, prof, code.dimension, code.n)
            A = rm_weight_distribution(code)
            assert gap == A.count(code.n // 2) - d.count(code.n // 2)


def dense_transform(coeffs: dict[int, int], K: int, n: int) -> WeightDistribution:
    """2^(K-n) sum_i c_i P_j(i;n) for every j, from the full column matrix
    of kraw_column: the dense O(n^2) oracle for the row-based transforms."""
    columns = [kraw_column(j, n) for j in range(n + 1)]
    dense = []
    for col in columns:
        q, r = divmod(sum(c * col[i] for i, c in coeffs.items()), 1 << (n - K))
        assert r == 0
        dense.append(q)
    return WeightDistribution.from_dense(dense)


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
        prof = coset_dual_profile(CosetSpec(code, rep))
        d = assmus_mattson(prof, B, K, n)
        coeffs = {w: 2 * prof.count(w) - c for w, c in B.pairs}
        assert d == dense_transform({w: c for w, c in coeffs.items() if c}, K, n)
        assert all(w % 2 == parity for w in d.support)


def test_balanced_gap_examples():
    code = RMParams(1, 3)
    B = rm_weight_distribution(RMParams(1, 3))
    spec = CosetSpec(code, tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")))
    assert balanced_gap(B, coset_dual_profile(spec), 4, 8) == 6

    code = RMParams(2, 4)
    B = rm_weight_distribution(RMParams(1, 4))
    spec = CosetSpec(code, tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")))
    assert balanced_gap(B, coset_dual_profile(spec), 11, 16) == 70
    spec = CosetSpec(code, TruthTable(4, 1 << 15))
    assert balanced_gap(B, coset_dual_profile(spec), 11, 16) == 870


def test_balanced_gap_positive_under_theorem_hypothesis():
    rng = random.Random(23)
    for k, m in [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]:
        assert 1 <= k <= m - 1 and k >= m // 2  # strict-maximum hypothesis
        code = RMParams(k, m)
        B = rm_weight_distribution(dual_params(code))
        for _ in range(10):
            spec = CosetSpec(code, random_nonmember(rng, code))
            assert balanced_gap(B, coset_dual_profile(spec), code.dimension, code.n) > 0


def test_balanced_gap_validation():
    B = rm_weight_distribution(RMParams(1, 3))
    prof = CosetDualProfile(8, ((0, 1), (4, 6), (8, 1)))
    with pytest.raises(ParameterError):
        balanced_gap(B, CosetDualProfile(4, ((0, 1),)), 4, 8)
    with pytest.raises(ParameterError):
        balanced_gap(B, prof, 4, 7)


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
        B = rm_weight_distribution(dual_params(code))
        spec = CosetSpec(code, rep)
        d = assmus_mattson(coset_dual_profile(spec), B, code.dimension, n)
        assert d.count(n // 2) == per_coset


def test_profile_cap():
    code = RMParams(1, 5)  # dual RM(3,5) has dimension 26
    spec = CosetSpec(code, TruthTable(5, 1))
    with pytest.raises(CapExceededError):
        coset_dual_profile(spec, cap=4)
