import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab.bfcore import (
    AnfMonomialSet,
    PointVector,
    TruthTable,
    constant_tt,
    is_balanced,
    linear_tt,
    tt_from_anf,
)
from rmlab import spectral
from rmlab.errors import ExactnessError, ParameterError
from rmlab.rmcodes import RMParams, rm_membership
from rmlab.spectral import (
    WalshSpectrum,
    is_balanced_spectral,
    parseval_check,
    rm1_coset_balanced_count,
    wht,
    wht_many,
)


def wht_definitional(f: TruthTable) -> list[int]:
    """O(n^2) double loop straight from the defining sum."""
    n = f.n
    out = []
    for omega in range(n):
        s = 0
        for x in range(n):
            dot = bin(x & omega).count("1") & 1
            s += (-1) ** (f.bit(x) ^ dot)
        out.append(s)
    return out


def wht_matmul_oracle(tables: list[int], m: int) -> np.ndarray:
    """Definitional sums as an exact float64 sign-matrix product (all
    intermediate integers are far below 2^53)."""
    n = 1 << m
    idx = np.arange(n, dtype=np.uint32)
    hadamard = 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(idx, idx)) % 2)
    rows = np.array(
        [[(t >> (n - 1 - i)) & 1 for i in range(n)] for t in tables], dtype=np.float64
    )
    return ((1.0 - 2.0 * rows) @ hadamard).astype(np.int64)


def fwht_butterfly(rows: np.ndarray) -> np.ndarray:
    """In-place int64 radix-2 butterfly along the last axis (length a power
    of two): each row becomes its Hadamard transform in exact integers."""
    n = rows.shape[-1]
    h = 1
    while h < n:
        v = rows.reshape(-1, n // (2 * h), 2, h)
        top = v[:, :, 0, :].copy()
        v[:, :, 0, :] = top + v[:, :, 1, :]
        v[:, :, 1, :] = top - v[:, :, 1, :]
        h *= 2
    return rows


def sign_rows(tables: list[int], m: int) -> np.ndarray:
    """int64 (-1)^f rows in position order, unpacked byte by byte."""
    n = 1 << m
    width = max(n // 8, 1)
    raw = np.frombuffer(b"".join(t.to_bytes(width, "big") for t in tables), dtype=np.uint8)
    bits = np.unpackbits(raw).reshape(len(tables), 8 * width)[:, 8 * width - n :]
    return 1 - 2 * bits.astype(np.int64)


def test_spectrum_examples():
    assert wht(constant_tt(2, 0)).values == (4, 0, 0, 0)
    bent = tt_from_anf(AnfMonomialSet.from_str(2, "Y1Y2"))
    assert wht(bent).values == (2, 2, 2, -2)


def test_linear_functions_have_point_spectra():
    for m in range(1, 5):
        n = 1 << m
        for idx in range(n):
            s = wht(linear_tt(PointVector.from_index(m, idx)))
            expected = [0] * n
            expected[idx] = n
            assert list(s.values) == expected


def test_fast_equals_definitional_exhaustive_m3():
    for bits in range(256):
        f = TruthTable(3, bits)
        s = wht(f)
        assert list(s.values) == wht_definitional(f)
        assert parseval_check(s)


def test_fast_equals_definitional_random():
    rng = random.Random(7)
    for m in range(3, 9):
        n = 1 << m
        tables = [rng.getrandbits(n) for _ in range(1000)]
        fast = wht_many(tables, m)
        oracle = wht_matmul_oracle(tables, m)
        assert np.array_equal(fast, oracle)
        # squared sums are exact in int64 well beyond these sizes
        assert np.all((fast.astype(np.int64) ** 2).sum(axis=1) == 1 << (2 * m))
        spot = TruthTable(m, tables[0])
        assert list(wht(spot).values) == fast[0].tolist()


def test_dual_form_exhaustive_m_le_4():
    # W_f(omega) = 2^m - 2 wt(f + x.omega)
    for m in range(1, 4):
        n = 1 << m
        lins = [linear_tt(PointVector.from_index(m, w)) for w in range(n)]
        for bits in range(1 << n):
            f = TruthTable(m, bits)
            s = wht(f)
            for w in range(n):
                assert s.values[w] == n - 2 * (f ^ lins[w]).bits.bit_count()
    m, n = 4, 16
    lin_bits = [linear_tt(PointVector.from_index(m, w)).bits for w in range(n)]
    tables = list(range(1 << n))
    spectra = wht_many(tables, m)
    fs = np.arange(1 << n, dtype=np.uint32)
    for w, lb in enumerate(lin_bits):
        weights = np.bitwise_count(fs ^ np.uint32(lb))
        assert np.array_equal(spectra[:, w], n - 2 * weights.astype(np.int32))


def test_parseval():
    assert parseval_check(WalshSpectrum(2, (4, 0, 0, 0)))
    # arithmetically fine yet not a real spectrum: the check is necessary,
    # not sufficient
    assert parseval_check(WalshSpectrum(2, (2, 2, 2, 2)))
    assert not parseval_check(WalshSpectrum(2, (2, 2, 2, 0)))


def test_spectrum_validation():
    with pytest.raises(ParameterError):
        WalshSpectrum(2, (4, 0, 0))
    with pytest.raises(ParameterError):
        WalshSpectrum(2, (6, 0, 0, 0))
    with pytest.raises(ParameterError):
        WalshSpectrum(2, (3, 0, 0, 1))


@settings(max_examples=100)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << (1 << m)) - 1))))
def test_involution_and_balance(data):
    m, bits = data
    f = TruthTable(m, bits)
    s = wht(f)
    assert parseval_check(s)
    # transforming the spectrum again recovers n * (-1)^f
    arr = np.array(s.values, dtype=np.int64)
    h = 1
    n = 1 << m
    while h < n:
        v = arr.reshape(-1, 2, h)
        top = v[:, 0, :].copy()
        v[:, 0, :] = top + v[:, 1, :]
        v[:, 1, :] = top - v[:, 1, :]
        h *= 2
    signs = [1 - 2 * f.bit(i) for i in range(n)]
    assert (arr // n).tolist() == signs
    assert is_balanced_spectral(f) == is_balanced(f)


def test_balance_examples():
    assert is_balanced_spectral(TruthTable.from_bitstring("0110"))
    assert not is_balanced_spectral(TruthTable.from_bitstring("0100"))
    for m in range(2, 5):
        for idx in range(1, 1 << m):
            assert is_balanced_spectral(linear_tt(PointVector.from_index(m, idx)))


def test_rm1_count_on_affine_functions():
    for m in range(1, 6):
        n = 1 << m
        for idx in (0, 1, n - 1):
            f = linear_tt(PointVector.from_index(m, idx))
            assert rm1_coset_balanced_count(f) == (1 << (m + 1)) - 2
            comp = TruthTable(m, f.bits ^ ((1 << n) - 1))
            assert rm1_coset_balanced_count(comp) == (1 << (m + 1)) - 2


def test_rm1_count_examples():
    bent = tt_from_anf(AnfMonomialSet.from_str(2, "Y1Y2"))
    assert rm1_coset_balanced_count(bent) == 0
    f = tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))
    # spectrum (+-4 at the four omega with omega_3 = 0, zero elsewhere):
    # four zeros, so 8 balanced words in the coset
    assert rm1_coset_balanced_count(f) == 8


def test_rm1_count_checks_parseval(monkeypatch):
    bad = spectral._hadamard(4, np.float32).copy()
    bad[3, 5] = -bad[3, 5]
    monkeypatch.setitem(spectral._HADAMARD, (4, np.float32), bad)
    with pytest.raises(ExactnessError, match="Parseval"):
        rm1_coset_balanced_count(tt_from_anf(AnfMonomialSet.from_str(4, "Y1Y2Y3")))


def rm1_counts_oracle(tables: list[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """_rm1_counts from the int32 spectra in int64: twice the zeros, and
    |W| = 2^m somewhere; every row's squares sum to 2^(2m)."""
    spectra = wht_many(tables, m).astype(np.int64)
    n = 1 << m
    assert np.all(np.einsum("ij,ij->i", spectra, spectra) == n * n)
    return 2 * np.count_nonzero(spectra == 0, axis=1), np.abs(spectra).max(axis=1, initial=0) == n


def test_rm1_counts_equal_the_int64_oracle():
    rng = random.Random(13)
    for m in range(1, 14):
        n = 1 << m
        ones = (1 << n) - 1
        linear = [linear_tt(PointVector.from_index(m, rng.randrange(n))).bits for _ in range(4)]
        # affine rows and their near neighbours, whose spectra peak at 2^m - 2
        affine = linear + [t ^ ones for t in linear]
        near = [t ^ (1 << rng.randrange(n)) for t in affine]
        tables = affine + near + [rng.getrandbits(n) for _ in range(max(1, (1 << 16) // n))]
        rng.shuffle(tables)
        for batch in (tables, tables[:1], []):
            counts, flags = spectral._rm1_counts(batch, m)
            want_counts, want_flags = rm1_counts_oracle(batch, m)
            assert np.array_equal(counts, want_counts) and np.array_equal(flags, want_flags), m
            assert all(flag for t, flag in zip(batch, flags) if t in affine), m


@pytest.mark.parametrize("m", [11, 12])
def test_parseval_sum_sees_one_unit_past_2_2m(monkeypatch, m):
    # squares summing to 2^(2m) + 1, which float32 rounds to 2^24 at m = 12:
    # the sum runs in float32 only while 2^(2m+1) fits its exact integers
    row = np.zeros((1, 1 << m), dtype=np.float32)
    row[0, :2] = 1 << m, 1
    monkeypatch.setattr(spectral, "_spectra", lambda tables, m: row)
    with pytest.raises(ExactnessError, match="Parseval"):
        spectral._rm1_counts([0], m)


def test_rm1_count_refuses_m_past_float64_parseval():
    # 2^27 squares of up to 2^54 pass float64's 2^53: refused before any
    # table is unpacked (the 2^27 +-1 entries alone would be 512 MB)
    f = TruthTable(27, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ExactnessError, match=r"Parseval's sum at m=27 may reach 2\^55"):
            rm1_coset_balanced_count(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_proposition_bound_m3_exhaustive():
    code = RMParams(1, 3)
    for bits in range(256):
        f = TruthTable(3, bits)
        if rm_membership(f, code):
            continue
        assert rm1_coset_balanced_count(f) < 14


def test_proposition_bound_random():
    rng = random.Random(11)
    for m in range(4, 9):
        n = 1 << m
        bound = (1 << (m + 1)) - 2
        code = RMParams(1, m)
        tables = []
        while len(tables) < 2000:
            bits = rng.getrandbits(n)
            if not rm_membership(TruthTable(m, bits), code):
                tables.append(bits)
        zeros = np.count_nonzero(wht_many(tables, m) == 0, axis=1)
        assert int(zeros.max()) * 2 < bound


def test_batch_equals_int64_butterfly_every_m():
    # about 2^18 entries per m: every split of m into factors of at most
    # 2^6, including the three-factor ones from m = 13 up
    rng = random.Random(18)
    for m in range(1, 17):
        n = 1 << m
        tables = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(max(1, (1 << 18) // n))]
        fast = wht_many(tables, m)
        assert fast.dtype == np.int32
        assert np.array_equal(fast, fwht_butterfly(sign_rows(tables, m))), m


def test_float64_branch_equals_butterfly(monkeypatch):
    monkeypatch.setattr(spectral, "_FLOAT32_BITS", 3)
    monkeypatch.setattr(spectral, "_HADAMARD", {})
    rng = random.Random(64)
    for m in range(4, 13):
        n = 1 << m
        tables = [rng.getrandbits(n) for _ in range(max(1, (1 << 16) // n))]
        assert np.array_equal(wht_many(tables, m), fwht_butterfly(sign_rows(tables, m))), m
    assert {dtype for _, dtype in spectral._HADAMARD} == {np.float64}


def test_exact_float_edges():
    assert spectral._exact_float(24, "sums") is np.float32
    assert spectral._exact_float(25, "sums") is np.float64
    assert spectral._exact_float(53, "sums") is np.float64
    with pytest.raises(ExactnessError, match=r"sums may reach 2\^54"):
        spectral._exact_float(54, "sums")


def test_kernel_equals_butterfly_on_histograms():
    # int64 (weight, syndrome) counts as the dual table transforms them, at
    # every split of up to 2^18 syndromes: columns summing below 2^24 run
    # in float32, and an entry of 2^24 + 1 (which float32 rounds) in float64
    rng = np.random.default_rng(18)
    for r in range(19):
        small = rng.integers(0, (1 << 24) >> r, size=(3, 1 << r), dtype=np.int64)
        big = small.copy()
        big[:, -1] = (1 << 24) + 1
        for hist, want in ((small, np.float32), (big, np.float64)):
            dtype = spectral._exact_float(int(hist.sum(axis=1).max()).bit_length(), "test")
            assert dtype is want, r
            fast = spectral._wht_rows(hist.astype(dtype)).astype(np.int64)
            assert np.array_equal(fast, fwht_butterfly(hist.copy())), (r, want)


def test_empty_batch():
    assert wht_many([], 5).shape == (0, 32)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << (1 << m)) - 1), min_size=1, max_size=4))
    )
)
def test_one_table_equals_its_batch_row_and_the_definition(data):
    m, tables = data
    batch = wht_many(tables, m)
    for bits, row in zip(tables, batch):
        assert list(wht(TruthTable(m, bits)).values) == row.tolist()
    assert batch[0].tolist() == wht_definitional(TruthTable(m, tables[0]))


@pytest.mark.parametrize("tables, m", [([5], 1), ([300], 3), ([-1], 3), ([0, 1 << 8], 3)])
def test_wht_many_refuses_tables_that_do_not_fit(tables, m):
    with pytest.raises(ParameterError):
        wht_many(tables, m)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_wht_many_accepts_every_width_up_to_2_m_bits(m):
    full = (1 << (1 << m)) - 1
    tables = [0, 1, full, random.Random(m).getrandbits(1 << m)]
    assert wht_many(tables, m).tolist() == [wht_definitional(TruthTable(m, t)) for t in tables]
