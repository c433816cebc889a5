"""Walsh-Hadamard spectra of Boolean functions.

W_f(omega) = sum_x (-1)^(f(x) + x.omega) = 2^m - 2 wt(f + x.omega);
f is balanced iff W_f(0) = 0, and the number of balanced words in the
coset f + RM(1,m) is exactly twice the number of spectral zeros (each
zero omega contributes f + x.omega and its complement).  Packed tables
reach numpy as _bitenum._to_words rows, the one home of their bit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._bitenum import _popcount_rows, _to_words
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


def _exact_float(log2_bound: int, what: str) -> type:
    """The narrowest float type exact for every integer of magnitude <= 2^log2_bound."""
    if log2_bound <= _FLOAT32_BITS:
        return np.float32
    if log2_bound <= 53:
        return np.float64
    raise ExactnessError(f"{what} may reach 2^{log2_bound}, past float64's exact integers")


@lru_cache(maxsize=None)
def _hadamard(a: int, dtype: type) -> np.ndarray:
    """The Sylvester matrix H_(2^a), entry (-1)^popcount(i & j), built
    once per (a, dtype)."""
    idx = np.arange(1 << a)
    h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(dtype)
    h.flags.writeable = False  # one array serves every caller
    return h


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


def _spectra(tables: Sequence[int], m: int) -> np.ndarray:
    """The _wht_rows of packed tables' +-1 rows, unpacked from the
    big-endian bytes of their _to_words rows (a table shorter than a word
    sits in the low bits), typed for their sums 2^m and unnamed so the
    kernel can free them."""
    _check_m(m)
    n = 1 << m
    dtype = _exact_float(m, f"the spectrum of a {m}-variable table")
    bits = np.unpackbits(_to_words(tables, n).astype(">u8").view(np.uint8), axis=1)[:, -n:]
    return _wht_rows(np.subtract(1, 2 * bits, dtype=dtype))


def wht_many(tables: Sequence[int], m: int) -> np.ndarray:
    """Spectra of packed truth tables, one int32 row each."""
    _check_m(m)
    if any(t < 0 or t >> (1 << m) for t in tables):
        raise ParameterError(f"a table is negative or wider than 2^{m} bits")
    return _spectra(tables, m).astype(np.int32)


def _rm1_counts(tables: Sequence[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced words in each table's coset of RM(1,m), twice its spectral
    zeros (wt(f + x.omega) = (n - W_f(omega))/2, and complementing flips
    the sign of W), and which tables are affine (|W| = 2^m at some omega),
    read from the float spectra in place.  Every spectrum must have
    |W| <= 2^m and Parseval's sum of W^2 = 2^(2m), summed in a type exact
    to 2^(2m+1), so m <= 26: rounding of non-negative terms starts only
    past that limit and never comes back below it, so a wrong sum either
    stays exact or ends above 2^(2m)."""
    n = 1 << m
    squares = _exact_float(2 * m + 1, f"Parseval's sum at m={m}")
    spectra = _spectra(tables, m)
    hi, lo = spectra.max(axis=1), spectra.min(axis=1)
    if (np.any(hi > n) or np.any(lo < -n)
            or np.any(np.einsum("ij,ij->i", spectra, spectra, dtype=squares) != n * n)):
        raise ExactnessError(f"a spectrum at m={m} breaks |W| <= 2^m or Parseval")
    zeros = _popcount_rows(np.packbits(spectra == 0, axis=-1)).astype(np.int64)
    return 2 * zeros, (hi == n) | (lo == -n)
