"""Walsh-Hadamard spectra of Boolean functions.

W_f(omega) = sum_x (-1)^(f(x) + x.omega) = 2^m - 2 wt(f + x.omega);
f is balanced iff W_f(0) = 0, and the number of balanced words in the
coset f + RM(1,m) is exactly twice the number of spectral zeros (each
zero omega contributes f + x.omega and its complement).  Packed tables
reach numpy as _bitenum._to_words rows, the one home of their bit order.

Every spectrum comes from one kernel, _wht_rows, whose matrix products
are cut into GEMMs of M*N*K <= 2^17, below OpenBLAS's threading size of
2^18, so each runs on the calling thread.  On two cores, OpenBLAS's own
threads made the products erratic (a 16384-row product by H_64 took a
median 0.9 ms but 8 ms at its 90th percentile, against a steady 1.4 ms
as 32-row stacks on one thread), and GEMMs of exactly 64 x 64 x 64 from
two threads ran one at a time.  With every product on its caller's
thread, sampled rm1 counts one batch per usable core; the sums are exact
however the work is split.

Every full-size buffer of a batch lives in its _scratch pair, which
sampled rm1 reuses batch after batch: _spectra gathers the +-1 rows into
pair[0] from a (256, 8) table of signs, one row per byte of the tables,
the kernel writes between the halves, and _rm1_counts writes its W == 0
flags into the half that holds no spectrum.  Fresh temporaries of that
size cost a page fault per 4 KB each in a new process.
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
_BLOCK = 32  # rows or columns per GEMM of the kernel (see the module docstring)


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


def _wht_rows(pair: np.ndarray) -> np.ndarray:
    """Rows of the Hadamard transform along the last axis (length 2^m) of
    pair[0], a C-contiguous float array like pair[1]; the kernel writes
    into both and returns the result as a view of one of them.
    H_(2^m) is the Kronecker product of factors H_(2^a), a <= 6 and as
    equal as possible, each one matrix product on its digit of the index
    (most significant first), from one buffer into the other.  Each
    product is issued as a stack of GEMMs of M*N*K <= _BLOCK * 4^6 = 2^17
    (the block rule of the module docstring): the lowest digit multiplies
    stacks of _BLOCK rows by H, a higher one multiplies H by _BLOCK-column
    strips of its (2^a, low) slices.  Every partial sum is a signed sum of
    distinct entries of one row: exact in the type _exact_float picks for
    the largest absolute row sum."""
    x, y = pair
    m = x.shape[-1].bit_length() - 1
    factors = -(-m // 6)
    low = 1 << m  # the length of the digits below the current one
    for i in range(factors):
        a = m // factors + (i < m % factors)
        low >>= a
        h = _hadamard(a, x.dtype.type)
        if low == 1:
            xs, ys = x.reshape(-1, 1 << a), y.reshape(-1, 1 << a)
            cut = len(xs) - len(xs) % _BLOCK
            np.matmul(xs[:cut].reshape(-1, _BLOCK, 1 << a), h, out=ys[:cut].reshape(-1, _BLOCK, 1 << a))
            np.matmul(xs[cut:], h, out=ys[cut:])
        else:
            strip = min(low, _BLOCK)
            np.matmul(h, _strips(x, a, low, strip), out=_strips(y, a, low, strip))
        x, y = y, x
    return x


def _strips(x: np.ndarray, a: int, low: int, strip: int) -> np.ndarray:
    """The (2^a, strip) column strips of x's (2^a, low) slices, as a view."""
    return x.reshape(-1, 1 << a, low // strip, strip).transpose(0, 2, 1, 3)


def wht(f: TruthTable) -> WalshSpectrum:
    """The spectrum of one table: the one-row case of wht_many."""
    return WalshSpectrum(f.m, tuple(wht_many([f.bits], f.m)[0].tolist()))


def _scratch(rows: int, m: int) -> np.ndarray:
    """The _wht_rows pair for up to `rows` tables, typed for their sums 2^m:
    the home of every full-size buffer of a batch (module docstring)."""
    _check_m(m)
    return np.empty((2, rows, 1 << m), _exact_float(m, f"the spectrum of a {m}-variable table"))


@lru_cache(maxsize=None)
def _signs(dtype: type) -> np.ndarray:
    """The (256, 8) table of (-1)^bit for each byte's bits, most
    significant first, built once per dtype."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    signs = 1 - 2 * bits.astype(dtype)
    signs.flags.writeable = False  # one array serves every caller
    return signs


def _spectra(tables: Sequence[int], m: int, pair: np.ndarray) -> np.ndarray:
    """The _wht_rows of packed tables' +-1 rows in pair, a _scratch of
    len(tables) rows.  The rows are gathered into pair[0] from _signs by
    the big-endian bytes of their _to_words rows of any width (a table
    below 8 bits sits in a byte's low bits), with mode="clip": the default
    "raise" writes through a temporary of the full size, and a uint8 index
    into 256 rows never clips."""
    n, rows = 1 << m, len(tables)
    words = _to_words(tables, n)
    signs = _signs(pair.dtype.type)
    if n < 8:
        pair[0] = signs[words[:, 0], 8 - n :]
    else:
        data = words.astype(words.dtype.newbyteorder(">")).view(np.uint8)
        np.take(signs, data, axis=0, out=pair[0].reshape(rows, n // 8, 8), mode="clip")
    return _wht_rows(pair)


def wht_many(tables: Sequence[int], m: int) -> np.ndarray:
    """Spectra of packed truth tables, one int32 row each."""
    _check_m(m)
    if any(t < 0 or t >> (1 << m) for t in tables):
        raise ParameterError(f"a table is negative or wider than 2^{m} bits")
    return _spectra(tables, m, _scratch(len(tables), m)).astype(np.int32)


def _rm1_counts(
    tables: Sequence[int], m: int, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced words in each table's coset of RM(1,m), twice its spectral
    zeros (wt(f + x.omega) = (n - W_f(omega))/2, and complementing flips
    the sign of W), and which tables are affine (|W| = 2^m at some omega),
    read from the float spectra in place.  Every spectrum must have
    |W| <= 2^m and Parseval's sum of W^2 = 2^(2m), summed in a type exact
    to 2^(2m+1), so m <= 26: rounding of non-negative terms starts only
    past that limit and never comes back below it, so a wrong sum either
    stays exact or ends above 2^(2m).  The W == 0 flags are written as
    bools into the half of the _scratch pair that holds no spectrum, so a
    batch allocates nothing of its full size.  The caller may pass a
    scratch of at least len(tables) rows to reuse it (each page of a
    fresh one costs a page fault), else a new one is made."""
    n = 1 << m
    squares = _exact_float(2 * m + 1, f"Parseval's sum at m={m}")
    pair = (_scratch(len(tables), m) if scratch is None else scratch)[:, : len(tables)]
    spectra = _spectra(tables, m, pair)
    hi, lo = spectra.max(axis=1), spectra.min(axis=1)
    if (np.any(hi > n) or np.any(lo < -n)
            or np.any(np.einsum("ij,ij->i", spectra, spectra, dtype=squares) != n * n)):
        raise ExactnessError(f"a spectrum at m={m} breaks |W| <= 2^m or Parseval")
    idle = pair[1] if np.may_share_memory(spectra, pair[0]) else pair[0]
    flags = idle.reshape(-1).view(np.bool_)[: spectra.size].reshape(spectra.shape)
    np.equal(spectra, 0, out=flags)
    zeros = _popcount_rows(np.packbits(flags, axis=-1)).astype(np.int64)
    return 2 * zeros, (hi == n) | (lo == -n)
