"""numpy-backed bit-parallel enumeration of XOR spans of truth tables.

Truth tables live in Python ints (see bfcore); for bulk work over a whole
linear span or coset we repack columns of tables into uint64 matrices and
let numpy popcount them.  The span of r basis tables is materialized by
doubling: rows [2^j, 2^{j+1}) are rows [0, 2^j) XOR basis j, so row g is
the combination with characteristic vector g in plain binary counting
order.  For spans too large for memory the low part is materialized once
and the high basis vectors are folded in by Gray-code stepping, one XOR
of the whole block per step.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import ParameterError

# rows materialized at once: 2^20 rows of RM(k,5)-sized tables is ~4 MB
_BLOCK_LOG2 = 20


def pack_tt(bits: int, n: int) -> np.ndarray:
    """Packed table int -> uint8 array of n//8 bytes, position 0 in the
    MSB of byte 0 (n >= 8)."""
    if n % 8:
        raise ParameterError(f"table length {n} is not a whole number of bytes")
    return np.frombuffer(bits.to_bytes(n // 8, "big"), dtype=np.uint8).copy()


def tt_to_positions(bits: int, n: int) -> np.ndarray:
    """Packed table int -> uint8 array of n single-bit values, position order."""
    if n >= 8:
        return np.unpackbits(pack_tt(bits, n), bitorder="big")
    raw = np.frombuffer(bits.to_bytes(1, "big"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="big")[8 - n :]


def _to_words(tables: Sequence[int], n: int) -> np.ndarray:
    """Stack packed tables into a (len, n/64 or 1) uint64 matrix.  Tables
    shorter than 64 bits go into the low bits of a single word."""
    if n >= 64:
        if n % 64:
            raise ParameterError(f"table length {n} is not a whole number of words")
        nbytes = n // 8
        buf = b"".join(t.to_bytes(nbytes, "big") for t in tables)
        return np.frombuffer(buf, dtype=">u8").astype(np.uint64).reshape(len(tables), n // 64)
    return np.array(tables, dtype=np.uint64).reshape(len(tables), 1)


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each row of a uint64 matrix (uint8 when each
    row is one word, int64 otherwise)."""
    counts = np.bitwise_count(words)
    if counts.shape[1] == 1:
        return counts[:, 0]  # summing over one column costs more than the popcount
    return counts.sum(axis=1, dtype=np.int64)


def _span_block(basis_words: np.ndarray, log2_rows: int) -> np.ndarray:
    """Rows 0..2^log2_rows-1 of the span of the first log2_rows basis rows."""
    nwords = basis_words.shape[1]
    out = np.zeros((1 << log2_rows, nwords), dtype=np.uint64)
    for j in range(log2_rows):
        half = 1 << j
        out[half : 2 * half] = out[:half] ^ basis_words[j]
    return out


def _gray_flip_sequence(hi: int) -> Iterator[int]:
    """Indices of the bit flipped at each step of the hi-bit Gray walk."""
    for step in range(1, 1 << hi):
        yield (step & -step).bit_length() - 1


class SpanCounter:
    """The span of any number of basis tables, for repeated weight
    queries against varying coset offsets.  Each basis table may carry a
    key of key_bits bits; a span word's key is the XOR of the keys of
    the tables it combines, kept as one extra uint64 column.

    The low _BLOCK_LOG2 basis tables are materialized once as one block.
    Each query XORs its offset into that block in place and folds the
    remaining basis tables in by Gray-code stepping, one block-wide XOR
    plus a popcount pass per step; before returning it XORs out whatever
    it applied, so the block is the same for every query.
    """

    def __init__(self, basis: Sequence[int], n: int, keys: Sequence[int] = (), key_bits: int = 0):
        self.n = n
        self._key_bits = key_bits
        words = _to_words(list(basis), n)
        self._nwords = words.shape[1]
        if key_bits:
            words = np.column_stack((words, np.array(keys, dtype=np.uint64)))
        lo = min(len(basis), _BLOCK_LOG2)
        self._block = _span_block(words, lo)
        self._high = words[lo:]

    def weight_histogram(self, offset: int = 0) -> np.ndarray:
        """Weight histogram (length n+1) of {offset XOR span(basis)}; with
        keys, one such row for each key value s (2^key_bits rows), counting
        the words offset XOR w for the span words w whose key is s."""
        block = self._block
        applied = np.zeros(block.shape[1], dtype=np.uint64)
        applied[: self._nwords] = _to_words([offset], self.n)[0]
        if offset:
            block ^= applied
        try:
            hist = self._tally(block)
            for j in _gray_flip_sequence(len(self._high)):
                block ^= self._high[j]
                applied ^= self._high[j]
                hist += self._tally(block)
        finally:
            # a full walk ends with the offset and the top high table applied
            if applied.any():
                block ^= applied
        return hist.reshape(-1, self.n + 1) if self._key_bits else hist

    def _tally(self, block: np.ndarray) -> np.ndarray:
        weights = _popcount_rows(block[:, : self._nwords])
        if self._key_bits:
            weights = block[:, -1].astype(np.intp) * (self.n + 1) + weights
        return np.bincount(weights, minlength=(self.n + 1) << self._key_bits)


def iter_span(basis: Sequence[int], n: int, offset: int = 0) -> Iterator[int]:
    """Yield every element of {offset XOR span(basis)} as a packed int,
    in Gray order (consecutive elements differ by one basis vector)."""
    cur = offset
    yield cur
    for j in _gray_flip_sequence(len(basis)):
        cur ^= basis[j]
        yield cur
