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

    def bit(self, i: int) -> int:
        """Value f(x) at table position i."""
        if not 0 <= i < self.n:
            raise ParameterError(f"position {i} out of range 0..{self.n - 1}")
        return (self.bits >> (self.n - 1 - i)) & 1

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

    def to_bitstring(self) -> str:
        """The table as a 0/1 string, position 0 first."""
        return format(self.bits, f"0{self.n}b")

    @classmethod
    def from_bitstring(cls, s: str) -> "TruthTable":
        n = len(s)
        if n < 2 or n & (n - 1):
            raise ParameterError("bitstring length must be a power of two >= 2")
        if set(s) - {"0", "1"}:
            raise ParameterError("bitstring may only contain 0 and 1")
        return cls(n.bit_length() - 1, int(s, 2))

    def __repr__(self) -> str:
        return f"TruthTable(m={self.m}, hex={self.to_hex()!r})"


def constant_tt(m: int, value: int) -> TruthTable:
    """The all-zero or all-one table."""
    _check_m(m)
    if value not in (0, 1):
        raise ParameterError("constant value must be 0 or 1")
    return TruthTable(m, ((1 << (1 << m)) - 1) * value)


def variable_tt(m: int, j: int) -> TruthTable:
    """Truth table of the variable Y_j (1-indexed, Y_1 most significant)."""
    return monomial_tt(m, [j])


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
class PointVector:
    """A point x (or frequency omega) in F_2^m, coordinates (x_1..x_m)."""

    m: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        if len(self.coords) != self.m or set(self.coords) - {0, 1}:
            raise ParameterError(f"need exactly {self.m} coordinates in {{0,1}}")

    @classmethod
    def from_index(cls, m: int, idx: int) -> "PointVector":
        """Decode the big-endian table index (x_1 is the MSB)."""
        _check_m(m)
        if not 0 <= idx < (1 << m):
            raise ParameterError(f"index {idx} out of range for m={m}")
        return cls(m, tuple((idx >> (m - j)) & 1 for j in range(1, m + 1)))

    def to_index(self) -> int:
        idx = 0
        for c in self.coords:
            idx = (idx << 1) | c
        return idx


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
    def of(cls, m: int, monomials: Iterable[Iterable[int]]) -> "AnfMonomialSet":
        return cls(m, list(monomials))  # __post_init__ normalizes and refuses duplicates

    @property
    def degree(self) -> int | None:
        """Max monomial size; None for the zero function (no monomials)."""
        if not self.monomials:
            return None
        return max(len(s) for s in self.monomials)

    def to_str(self) -> str:
        """`+`-separated monomials like ``Y1Y2+Y3+1``; zero function is ``0``."""
        if not self.monomials:
            return "0"
        ordered = sorted(self.monomials, key=lambda s: (-len(s), sorted(s)))
        terms = []
        for s in ordered:
            terms.append("".join(f"Y{j}" for j in sorted(s)) if s else "1")
        return "+".join(terms)

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
        return cls.of(m, monomials)


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


def anf_from_tt(t: TruthTable) -> AnfMonomialSet:
    """ANF of a truth table via the fast Moebius transform."""
    coef = _mobius_bits(t.bits, t.m)
    n = t.n
    monomials = []
    while coef:
        low = coef & -coef
        u = n - 1 - (low.bit_length() - 1)  # point index of this coefficient
        monomials.append(frozenset(j for j in range(1, t.m + 1) if (u >> (t.m - j)) & 1))
        coef ^= low
    return AnfMonomialSet(t.m, frozenset(monomials))


def degree_of(t: TruthTable) -> int | None:
    """Algebraic degree; None for the zero function."""
    return anf_from_tt(t).degree


def linear_tt(omega: PointVector) -> TruthTable:
    """Truth table of the linear functional x -> x . omega."""
    bits = 0
    for j, c in enumerate(omega.coords, start=1):
        if c:
            bits ^= _variable_pattern(omega.m, j)
    return TruthTable(omega.m, bits)


def is_balanced(a: TruthTable) -> bool:
    """True iff the table has exactly 2^(m-1) ones."""
    return a.bits.bit_count() == (a.n >> 1)
