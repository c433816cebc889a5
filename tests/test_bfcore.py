import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coset_oracle import anf_degree, anf_from_tt, bit
from rmlab.bfcore import (
    AnfMonomialSet,
    TruthTable,
    _mobius_bits,
    monomial_tt,
    tt_from_anf,
)
from rmlab.errors import ParameterError


def eval_anf_at_point(anf: AnfMonomialSet, coords: tuple[int, ...]) -> int:
    """Independent pointwise ANF evaluation (no packed tables)."""
    total = 0
    for mono in anf.monomials:
        total ^= all(coords[j - 1] for j in mono)
    return total


small_anf = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.frozensets(
            st.frozensets(st.integers(1, m), max_size=m),
            max_size=8,
        ),
    )
)


def test_truth_table_hex_round_trip():
    t = TruthTable.from_hex(3, "03")
    assert t.bits == 3
    assert t.to_hex() == "03"
    assert [bit(t, i) for i in range(8)] == [0, 0, 0, 0, 0, 0, 1, 1]
    assert TruthTable(4, 3).to_hex() == "0003"
    assert TruthTable.from_hex(4, "0003").bits == 3


def test_truth_table_hex_m1_padding():
    # m=1: the table is 2 bits, stored in the top of a single hex digit
    t = TruthTable(1, 0b10)
    assert t.to_hex() == "8"
    assert TruthTable.from_hex(1, "8") == t
    with pytest.raises(ParameterError):
        TruthTable.from_hex(1, "9")  # nonzero padding bits
    with pytest.raises(ParameterError):
        TruthTable.from_hex(3, "003")  # wrong digit count
    with pytest.raises(ParameterError):
        TruthTable.from_hex(3, "zz")


@pytest.mark.parametrize("text", ["0x12", "0X1f", "1_23", "+123"])
def test_hex_takes_only_its_digit_count_of_hex_digits(text):
    # int(text, 16) reads each of these as a table nobody typed
    with pytest.raises(ParameterError, match="invalid hex string"):
        TruthTable.from_hex(4, text)


def test_truth_table_validation():
    with pytest.raises(ParameterError):
        TruthTable(0, 0)
    with pytest.raises(ParameterError):
        TruthTable(2, 1 << 4)  # 5 bits in a length-4 table
    with pytest.raises(ParameterError):
        TruthTable(2, -1)
    with pytest.raises(ParameterError):
        bit(TruthTable(2, 0), 4)


def test_variable_patterns():
    # Y_1 is the most significant index bit
    assert monomial_tt(3, [1]).to_hex() == "0f"
    assert monomial_tt(3, [2]).to_hex() == "33"
    assert monomial_tt(3, [3]).to_hex() == "55"
    assert monomial_tt(5, [2]).bits.bit_count() == 16
    with pytest.raises(ParameterError):
        monomial_tt(3, [4])


def test_monomial_and_constant():
    assert monomial_tt(3, [1, 2]).to_hex() == "03"
    assert monomial_tt(3, []).bits == 0xFF
    assert monomial_tt(2, []).bits == 0b1111


def test_anf_text_round_trip():
    a = AnfMonomialSet.from_str(3, "Y1Y2+Y3+1")
    assert a.monomials == frozenset({frozenset({1, 2}), frozenset({3}), frozenset()})
    assert AnfMonomialSet.from_str(3, " Y3 + 1 + Y1Y2 ") == a
    assert AnfMonomialSet.from_str(4, "0").monomials == frozenset()
    # "Y\u0661Y2" has an Arabic-Indic one, which \d would read as 1
    for bad in ["", "Y1+", "Y0", "Y4", "Y1Y1", "x1", "Y1+Y1", "Y\u0661Y2"]:
        with pytest.raises(ParameterError):
            AnfMonomialSet.from_str(3, bad)


def test_duplicate_monomials_are_refused():
    for make in (lambda: AnfMonomialSet(3, [[1], [1]]),
                 lambda: AnfMonomialSet.from_str(3, "Y1+Y1"),
                 lambda: AnfMonomialSet.from_str(3, "1+1")):
        with pytest.raises(ParameterError, match="duplicate monomials"):
            make()


def test_anf_degree():
    assert anf_degree(AnfMonomialSet.from_str(3, "0")) is None
    assert anf_degree(AnfMonomialSet.from_str(3, "1")) == 0
    assert anf_degree(AnfMonomialSet.from_str(3, "Y1Y2+Y3")) == 2
    assert anf_degree(anf_from_tt(TruthTable(3, 0))) is None
    assert anf_degree(anf_from_tt(monomial_tt(3, []))) == 0
    assert anf_degree(anf_from_tt(tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2")))) == 2


@settings(max_examples=150)
@given(small_anf)
def test_tt_from_anf_matches_pointwise(data):
    m, monomials = data
    anf = AnfMonomialSet(m, monomials)
    t = tt_from_anf(anf)
    for idx in range(1 << m):
        coords = tuple((idx >> (m - j)) & 1 for j in range(1, m + 1))
        assert bit(t, idx) == eval_anf_at_point(anf, coords)


@settings(max_examples=150)
@given(small_anf)
def test_anf_round_trip(data):
    m, monomials = data
    anf = AnfMonomialSet(m, monomials)
    assert anf_from_tt(tt_from_anf(anf)) == anf


@settings(max_examples=150)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << (1 << m)) - 1))))
def test_mobius_is_an_involution(data):
    m, bits = data
    assert _mobius_bits(_mobius_bits(bits, m), m) == bits


def linear_anf(m: int, omega: int) -> AnfMonomialSet:
    """The ANF of x -> x . omega: Y_j for each bit of omega (Y_1 the MSB)."""
    return AnfMonomialSet(m, [[j] for j in range(1, m + 1) if (omega >> (m - j)) & 1])


def test_linear_tt():
    m = 4
    for idx in range(1, 1 << m):
        t = tt_from_anf(linear_anf(m, idx))
        assert t.bits.bit_count() == 1 << (m - 1)
        # pointwise: x . omega
        for x in range(1 << m):
            dot = bin(x & idx).count("1") & 1
            assert bit(t, x) == dot
    assert tt_from_anf(linear_anf(3, 0)).bits == 0


def test_xor_weight_balance():
    a = monomial_tt(3, [1])
    b = monomial_tt(3, [2])
    assert (a ^ b).bits == a.bits ^ b.bits
    assert a.bits.bit_count() == 4
    with pytest.raises(ParameterError):
        a ^ monomial_tt(2, [1])
