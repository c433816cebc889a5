from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import krawtchouk
from rmlab.errors import ExactnessError, ParameterError
from rmlab.krawtchouk import (
    SignClass,
    central_K,
    central_column,
    kraw_column,
    kraw_direct,
    kraw_row,
    sign_class,
)


def test_direct_values():
    assert kraw_direct(2, 0, 4) == 6  # = C(4,2)
    assert kraw_direct(2, 2, 4) == -2  # 1 - 4 + 1
    assert kraw_direct(1, 4, 4) == -4  # 0 - 4
    assert kraw_direct(3, 2, 4) == 0  # 0 - 2 + 2: the j = 0 term's C(2, 3) is 0
    with pytest.raises(ParameterError):
        kraw_direct(5, 0, 4)
    with pytest.raises(ParameterError):
        kraw_direct(2, 5, 4)


def test_columns_against_direct_small():
    assert kraw_column(1, 4) == [4, 2, 0, -2, -4]
    assert kraw_column(2, 4) == [6, 0, -2, 0, 6]
    assert kraw_column(4, 8)[0] == 70  # P_{n/2}(0) = C(n, n/2)


def test_column_equals_direct_exhaustively():
    for n in range(0, 65):
        for j in range(n + 1):
            col = kraw_column(j, n)
            assert col == [kraw_direct(j, i, n) for i in range(n + 1)]


def test_row_equals_direct_exhaustively():
    for n in range(0, 65):
        for x in range(n + 1):
            assert list(kraw_row(x, n)) == [kraw_direct(j, x, n) for j in range(n + 1)]
    with pytest.raises(ParameterError):
        kraw_row(5, 4)
    with pytest.raises(ParameterError):
        kraw_row(0, -1)


@pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 257])
def test_row_mirror_equals_direct_past_64(n):
    # the degrees above n/2 are mirrored, not recurred
    for x in (0, 1, n // 2, n - 1, n):
        assert list(kraw_row(x, n)) == [kraw_direct(j, x, n) for j in range(n + 1)], x


def test_central_values():
    assert central_K(1, 8) == 0
    assert central_K(2, 8) == -10  # 7 K(2) = -1 * 70
    assert central_K(4, 8) == 6  # 1 - 16 + 36 - 16 + 1
    assert central_column(8) == [70, 0, -10, 0, 6, 0, -10, 0, 70]
    assert central_K(8, 16) == 70
    with pytest.raises(ParameterError):
        central_K(0, 7)
    with pytest.raises(ParameterError):
        central_column(0)


@pytest.mark.parametrize("i", [-1, 100_001])
def test_central_K_checks_i_before_it_builds_the_column(monkeypatch, i):
    def no_column(k, n):
        raise AssertionError(f"built the degree-{k} column for n={n}")

    def no_comb(a, b):
        raise AssertionError(f"computed C({a},{b})")

    monkeypatch.setattr(krawtchouk, "kraw_column", no_column)
    monkeypatch.setattr(krawtchouk, "comb", no_comb)
    with pytest.raises(ParameterError, match="argument i must be in 0..n"):
        central_K(i, 100_000)


def test_central_K_closed_form_equals_the_column():
    # the closed form against the recurrence, at every argument
    for n in [*range(2, 129, 2), 4096]:
        assert [central_K(i, n) for i in range(n + 1)] == kraw_column(n // 2, n), n


def test_central_K_refuses_an_inexact_quotient(monkeypatch):
    # C(8,2) = 28 made 29 leaves C(8,4) C(4,1) / 29 = 280 / 29 inexact
    monkeypatch.setattr(krawtchouk, "comb", lambda a, b: comb(a, b) + ((a, b) == (8, 2)))
    with pytest.raises(ExactnessError, match=r"K\(i, n\) at i=2, n=8"):
        central_K(2, 8)


def test_central_column_equals_half_degree_column():
    for n in range(2, 65, 2):
        assert central_column(n) == kraw_column(n // 2, n)


def test_sign_classes():
    assert sign_class(3, 8) is SignClass.ZERO
    assert sign_class(2, 8) is SignClass.NEGATIVE
    assert sign_class(8, 8) is SignClass.POSITIVE
    assert sign_class(0, 8) is SignClass.POSITIVE
    with pytest.raises(ParameterError):
        sign_class(0, 7)


def test_sign_pattern_holds_up_to_1024():
    for n in range(2, 1025, 2):
        col = central_column(n)
        for i, v in enumerate(col):
            cls = sign_class(i, n)
            if cls is SignClass.ZERO:
                assert v == 0, (i, n)
            elif cls is SignClass.NEGATIVE:
                assert v < 0, (i, n)
            else:
                assert v > 0, (i, n)


def test_central_symmetry_n_mod_4():
    # K(i,n) = K(n-i,n) whenever n/2 is even
    for n in range(4, 65, 4):
        col = central_column(n)
        assert col == col[::-1]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(base: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _poly_mul(out, base)
    return out


def test_generating_function_identity():
    # sum_j P_j(i;n) X^j = (1+X)^(n-i) (1-X)^i
    for n in range(0, 33):
        for i in range(n + 1):
            lhs = [kraw_direct(j, i, n) for j in range(n + 1)]
            rhs = _poly_mul(_poly_pow([1, 1], n - i), _poly_pow([1, -1], i))
            assert lhs == rhs, (i, n)


@settings(max_examples=200)
@given(
    st.integers(0, 128).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))
    )
)
def test_column_matches_direct_random(data):
    n, j, i = data
    assert kraw_column(j, n)[i] == kraw_direct(j, i, n)
    assert kraw_row(i, n)[j] == kraw_direct(j, i, n)


def test_endpoint_values():
    # P_j(n;n) = (-1)^j C(n,j); P_j(0;n) = C(n,j)
    for n in (5, 8, 13):
        for j in range(n + 1):
            assert kraw_direct(j, 0, n) == comb(n, j)
            assert kraw_direct(j, n, n) == (-1) ** j * comb(n, j)
    for n in (5, 8, 13, 256, 1024):
        assert list(kraw_row(0, n)) == [comb(n, j) for j in range(n + 1)]
        assert list(kraw_row(n, n)) == [(-1) ** j * comb(n, j) for j in range(n + 1)]
