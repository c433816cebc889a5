"""Walsh-Hadamard spectra of Boolean functions.

W_f(omega) = sum_x (-1)^(f(x) + x.omega) = 2^m - 2 wt(f + x.omega);
f is balanced iff W_f(0) = 0, and the number of balanced words in the
coset f + RM(1,m) is exactly twice the number of spectral zeros (each
zero omega contributes f + x.omega and its complement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._bitenum import _to_words
from .bfcore import TruthTable, _check_m
from .errors import ExactnessError, ParameterError


@dataclass(frozen=True)
class WalshSpectrum:
    """Spectrum values indexed by omega in the same big-endian point
    encoding as TruthTable positions."""

    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_m(self.m)
        n = 1 << self.m
        if len(self.values) != n:
            raise ParameterError(f"need {n} spectrum values, got {len(self.values)}")
        for v in self.values:
            if abs(v) > n:
                raise ParameterError(f"|W| = {abs(v)} exceeds 2^m = {n}")
            if (v - n) % 2:
                raise ParameterError(f"value {v} has wrong parity for m={self.m}")

    @property
    def n(self) -> int:
        return 1 << self.m

    def to_json_obj(self) -> list[int]:
        return list(self.values)


_FLOAT32_BITS = 24  # float32 holds every integer of magnitude <= 2^24
_HADAMARD: dict[tuple[int, type], np.ndarray] = {}


def _exact_float(log2_bound: int, what: str) -> type:
    """The narrowest float type exact for every integer of magnitude <= 2^log2_bound."""
    if log2_bound <= _FLOAT32_BITS:
        return np.float32
    if log2_bound <= 53:
        return np.float64
    raise ExactnessError(f"{what} may reach 2^{log2_bound}, past float64's exact integers")


def _hadamard(a: int, dtype: type) -> np.ndarray:
    """The Sylvester matrix H_(2^a), entry (-1)^popcount(i & j), built
    once per (a, dtype)."""
    key = (a, dtype)
    if key not in _HADAMARD:
        idx = np.arange(1 << a)
        h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(dtype)
        h.flags.writeable = False  # one array serves every caller
        _HADAMARD[key] = h
    return _HADAMARD[key]


def _wht_rows(x: np.ndarray) -> np.ndarray:
    """Rows of the Hadamard transform along the last axis (length 2^m) of
    a float array.  H_(2^m) is the Kronecker product of factors H_(2^a),
    a <= 6 and as equal as possible, each one matrix product on its digit
    of the index (most significant first).  Every partial sum is a signed
    sum of distinct entries of one row: exact in the type _exact_float
    picks for the largest absolute row sum."""
    m = x.shape[-1].bit_length() - 1
    factors = -(-m // 6)
    low = 1 << m  # the length of the digits below the current one
    for i in range(factors):
        a = m // factors + (i < m % factors)
        low >>= a
        h = _hadamard(a, x.dtype.type)
        x = x.reshape(-1, 1 << a) @ h if low == 1 else h @ x.reshape(-1, 1 << a, low)
    return x.reshape(-1, 1 << m)


def wht(f: TruthTable) -> WalshSpectrum:
    """The spectrum of one table: the one-row case of wht_many."""
    return WalshSpectrum(f.m, tuple(wht_many([f.bits], f.m)[0].tolist()))


def wht_many(tables: Sequence[int], m: int) -> np.ndarray:
    """Spectra of packed truth tables, one int32 row each: the _wht_rows of
    +-1 rows typed for their sums 2^m, unnamed so the kernel can free them."""
    _check_m(m)
    n = 1 << m
    words = _to_words(list(tables), n)
    bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)[:, -n:]
    dtype = _exact_float(m, f"the spectrum of a {m}-variable table")
    return _wht_rows(np.subtract(1, 2 * bits, dtype=dtype)).astype(np.int32)


def parseval_check(s: WalshSpectrum) -> bool:
    """True iff sum of squared spectrum values equals 2^(2m), exactly."""
    return sum(v * v for v in s.values) == 1 << (2 * s.m)


def is_balanced_spectral(f: TruthTable) -> bool:
    """Balanced iff W_f(0) = 0."""
    return wht(f).values[0] == 0


def rm1_coset_balanced_count(f: TruthTable) -> int:
    """Number of balanced words in the coset f + RM(1,m): the one-row case
    of the batched, checked count _rm1_counts."""
    return int(_rm1_counts([f.bits], f.m)[0][0])


def _rm1_counts(tables: Sequence[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced words in each table's coset of RM(1,m), twice its spectral
    zeros (wt(f + x.omega) = (n - W_f(omega))/2, and complementing flips
    the sign of W), and which tables are affine (|W| = 2^m at some omega).
    Every spectrum must have |W| <= 2^m and Parseval's sum of W^2 =
    2^(2m); int64 sums of 2^m squares of at most 2^(2m) check it exactly
    for m <= 20, and modulo 2^64 above."""
    spectra = wht_many(tables, m)
    n = 1 << m
    wide = spectra.astype(np.int64)
    # initial=0 covers the empty batch (RM(1,1) has no nontrivial coset)
    if (spectra.max(initial=0) > n or spectra.min(initial=0) < -n
            or np.any(np.einsum("ij,ij->i", wide, wide) != n * n)):
        raise ExactnessError(f"a spectrum at m={m} breaks |W| <= 2^m or Parseval")
    return 2 * np.count_nonzero(spectra == 0, axis=1), np.abs(spectra).max(axis=1) == n
