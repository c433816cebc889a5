import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab.bfcore import (
    AnfMonomialSet,
    PointVector,
    TruthTable,
    _mobius_bits,
    anf_from_tt,
    constant_tt,
    degree_of,
    is_balanced,
    linear_tt,
    monomial_tt,
    tt_from_anf,
    variable_tt,
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
    assert [t.bit(i) for i in range(8)] == [0, 0, 0, 0, 0, 0, 1, 1]
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
        TruthTable(2, 0).bit(4)


def test_bitstring_round_trip():
    t = TruthTable.from_bitstring("00000011")
    assert t.m == 3 and t.bits == 3
    assert t.to_bitstring() == "00000011"
    with pytest.raises(ParameterError):
        TruthTable.from_bitstring("010")
    with pytest.raises(ParameterError):
        TruthTable.from_bitstring("0a01")


def test_variable_patterns():
    assert variable_tt(3, 1).to_hex() == "0f"
    assert variable_tt(3, 2).to_hex() == "33"
    assert variable_tt(3, 3).to_hex() == "55"
    assert variable_tt(5, 2).bits.bit_count() == 16
    with pytest.raises(ParameterError):
        variable_tt(3, 4)


def test_monomial_and_constant():
    assert monomial_tt(3, [1, 2]).to_hex() == "03"
    assert monomial_tt(3, []) == constant_tt(3, 1)
    assert constant_tt(3, 0).bits == 0
    assert constant_tt(2, 1).bits == 0b1111
    with pytest.raises(ParameterError):
        constant_tt(3, 2)


def test_point_vector_encoding():
    # Y_1 is the most significant index bit
    assert PointVector.from_index(3, 4).coords == (1, 0, 0)
    assert PointVector.from_index(3, 3).coords == (0, 1, 1)
    for idx in range(8):
        assert PointVector.from_index(3, idx).to_index() == idx
    with pytest.raises(ParameterError):
        PointVector(2, (0, 1, 1))
    with pytest.raises(ParameterError):
        PointVector.from_index(2, 4)


def test_anf_text_round_trip():
    a = AnfMonomialSet.from_str(3, "Y1Y2+Y3+1")
    assert a.monomials == frozenset({frozenset({1, 2}), frozenset({3}), frozenset()})
    assert a.to_str() == "Y1Y2+Y3+1"
    assert AnfMonomialSet.from_str(3, a.to_str()) == a
    assert AnfMonomialSet.from_str(4, "0").monomials == frozenset()
    assert AnfMonomialSet.from_str(4, "0").to_str() == "0"
    # "Y\u0661Y2" has an Arabic-Indic one, which \d would read as 1
    for bad in ["", "Y1+", "Y0", "Y4", "Y1Y1", "x1", "Y1+Y1", "Y\u0661Y2"]:
        with pytest.raises(ParameterError):
            AnfMonomialSet.from_str(3, bad)


def test_duplicate_monomials_are_refused():
    for make in (lambda: AnfMonomialSet.of(3, [[1], [1]]),
                 lambda: AnfMonomialSet.from_str(3, "Y1+Y1"),
                 lambda: AnfMonomialSet.from_str(3, "1+1")):
        with pytest.raises(ParameterError, match="duplicate monomials"):
            make()


def test_anf_degree():
    assert AnfMonomialSet.from_str(3, "0").degree is None
    assert AnfMonomialSet.from_str(3, "1").degree == 0
    assert AnfMonomialSet.from_str(3, "Y1Y2+Y3").degree == 2
    assert degree_of(constant_tt(3, 0)) is None
    assert degree_of(constant_tt(3, 1)) == 0
    assert degree_of(tt_from_anf(AnfMonomialSet.from_str(3, "Y1Y2"))) == 2


@settings(max_examples=150)
@given(small_anf)
def test_tt_from_anf_matches_pointwise(data):
    m, monomials = data
    anf = AnfMonomialSet(m, monomials)
    t = tt_from_anf(anf)
    for idx in range(1 << m):
        coords = PointVector.from_index(m, idx).coords
        assert t.bit(idx) == eval_anf_at_point(anf, coords)


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


def test_linear_tt():
    m = 4
    for idx in range(1, 1 << m):
        omega = PointVector.from_index(m, idx)
        t = linear_tt(omega)
        assert t.bits.bit_count() == 1 << (m - 1)
        # pointwise: x . omega
        for x in range(1 << m):
            dot = bin(x & idx).count("1") & 1
            assert t.bit(x) == dot
    assert linear_tt(PointVector(3, (0, 0, 0))).bits == 0


def test_xor_weight_balance():
    a = variable_tt(3, 1)
    b = variable_tt(3, 2)
    assert (a ^ b).bits == a.bits ^ b.bits
    assert a.bits.bit_count() == 4 and is_balanced(a)
    assert not is_balanced(constant_tt(3, 1))
    with pytest.raises(ParameterError):
        a ^ variable_tt(2, 1)
