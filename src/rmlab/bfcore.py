"""Truth tables, algebraic normal forms and the F_2^m point conventions.

A Boolean function f in m variables is a truth table of length n = 2^m:
position i holds f(x) where x is the m-bit big-endian encoding of i
(Y_1 is the most significant bit, Y_m the least significant, so Y_m
varies fastest along the table).

Tables are packed into a single Python int with position i stored at bit
(n-1-i), i.e. the int read MSB-first is the table read left to right.
This makes the hex serialization a plain ``format(bits, '0wx')`` and lets
XOR/AND/popcount run at bigint speed regardless of m.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ParameterError

MAX_M = 28

_ANF_TERM_RE = re.compile(r"(?:Y[0-9]+)+")
_HEX_RE = re.compile(r"[0-9a-f]*")  # int(s, 16) would also take 0x, _ and +


def _check_m(m: int) -> None:
    if not isinstance(m, int) or not 1 <= m <= MAX_M:
        raise ParameterError(f"variable count m must be in 1..{MAX_M}, got {m!r}")


def hex_layout(n: int) -> tuple[int, int]:
    """(hex digits, low zero padding bits) of an n-bit table's hex string."""
    digits = max(1, n // 4)
    return digits, 4 * digits - n


@lru_cache(maxsize=None)
def _variable_pattern(m: int, j: int) -> int:
    """Packed table of the single variable Y_j, built by block doubling."""
    half = 1 << (m - j)  # run length of each constant block
    pat = (1 << half) - 1  # one 0-run then one 1-run, low bits first
    width = 2 * half
    n = 1 << m
    while width < n:
        pat |= pat << width
        width <<= 1
    return pat


@dataclass(frozen=True)
class TruthTable:
    """Packed truth table of an m-variable Boolean function."""

    m: int
    bits: int

    def __post_init__(self) -> None:
        _check_m(self.m)
        if not isinstance(self.bits, int) or self.bits < 0:
            raise ParameterError("bits must be a nonnegative int")
        if self.bits.bit_length() > self.n:
            raise ParameterError(
                f"bits has {self.bits.bit_length()} bits, table length is {self.n}"
            )

    @property
    def n(self) -> int:
        return 1 << self.m

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if not isinstance(other, TruthTable):
            return NotImplemented
        if self.m != other.m:
            raise ParameterError(f"mismatched m: {self.m} vs {other.m}")
        return TruthTable(self.m, self.bits ^ other.bits)

    def to_hex(self) -> str:
        """Hex string, most significant digit first (position 0 is the MSB
        of the first digit).  For m = 1 the low two bits of the single
        digit are zero padding."""
        w, pad = hex_layout(self.n)
        return format(self.bits << pad, f"0{w}x")

    @classmethod
    def from_hex(cls, m: int, s: str) -> "TruthTable":
        _check_m(m)
        w, pad = hex_layout(1 << m)
        s = s.strip().lower()
        if len(s) != w:
            raise ParameterError(f"expected {w} hex digits for m={m}, got {len(s)}")
        if not _HEX_RE.fullmatch(s):
            raise ParameterError(f"invalid hex string {s!r}")
        v = int(s, 16)
        if v & ((1 << pad) - 1):
            raise ParameterError("nonzero padding bits in hex string")
        return cls(m, v >> pad)

    def __repr__(self) -> str:
        return f"TruthTable(m={self.m}, hex={self.to_hex()!r})"


def monomial_tt(m: int, variables: Iterable[int]) -> TruthTable:
    """Truth table of the product of the given variables (empty = constant 1)."""
    _check_m(m)
    bits = (1 << (1 << m)) - 1
    for j in set(variables):
        if not 1 <= j <= m:
            raise ParameterError(f"variable index {j} out of range 1..{m}")
        bits &= _variable_pattern(m, j)
    return TruthTable(m, bits)


@dataclass(frozen=True)
class AnfMonomialSet:
    """Algebraic normal form as a set of monomials; each monomial is the
    set of participating variable indices (empty set = constant 1)."""

    m: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        _check_m(self.m)
        mono_list = list(self.monomials)
        normalized = frozenset(frozenset(s) for s in mono_list)
        if len(normalized) != len(mono_list):
            raise ParameterError("duplicate monomials (would cancel over F_2)")
        for s in normalized:
            for j in s:
                if not 1 <= j <= self.m:
                    raise ParameterError(f"variable index {j} out of range 1..{self.m}")
        object.__setattr__(self, "monomials", normalized)

    @classmethod
    def from_str(cls, m: int, text: str) -> "AnfMonomialSet":
        _check_m(m)
        text = text.replace(" ", "")
        if text == "0":
            return cls(m, frozenset())
        if not text:
            raise ParameterError("empty ANF string (use '0' for the zero function)")
        monomials = []
        for term in text.split("+"):
            if term == "1":
                monomials.append(frozenset())
                continue
            if not _ANF_TERM_RE.fullmatch(term):
                raise ParameterError(f"malformed ANF term {term!r}")
            indices = [int(t) for t in re.findall(r"Y([0-9]+)", term)]
            if len(set(indices)) != len(indices):
                raise ParameterError(f"repeated variable in term {term!r}")
            monomials.append(frozenset(indices))
        return cls(m, monomials)  # __post_init__ normalizes and refuses duplicates


def tt_from_anf(anf: AnfMonomialSet) -> TruthTable:
    """Evaluate an ANF at every point: bit i is the XOR over monomials of
    the AND of the selected variables at point i."""
    bits = 0
    for mono in anf.monomials:
        bits ^= monomial_tt(anf.m, mono).bits
    return TruthTable(anf.m, bits)


def _mobius_bits(bits: int, m: int) -> int:
    """XOR-accumulate each position over its bitmask-subsets (in place on
    the packed table).  Involution; maps truth table <-> ANF coefficients."""
    n = 1 << m
    ones = (1 << n) - 1
    for j in range(1, m + 1):
        comp = ones ^ _variable_pattern(m, j)  # positions with Y_j = 0
        shift = 1 << (m - j)
        bits ^= (bits & comp) >> shift
    return bits

