"""numpy-backed bit-parallel enumeration of XOR spans of truth tables.

Truth tables live in Python ints (see bfcore); for bulk work over a whole
linear span or coset we repack columns of tables into uint64 matrices and
let numpy popcount them.  The span of r basis tables is materialized by
doubling: rows [2^j, 2^{j+1}) are rows [0, 2^j) XOR basis j, so row g is
the combination with characteristic vector g in plain binary counting
order.  For spans too large for memory the low part is materialized once
and the high basis vectors are folded in by Gray-code stepping, one XOR
of the whole block per step.

A span is queried for its weight histogram against one offset, or for
the words of one weight against a batch of offsets: a census reads one
weight for thousands of coset representatives, so each numpy pass XORs
as many offsets against the block as fit in _PASS_WORDS words and
counts matches, with no histogram; a block that fills a pass alone takes
one offset at a time, XORed into it in place.

Every Reed-Muller code RM(k,m) with k >= 0 holds the all-ones word, and
adding it maps a coset word of weight w to one of weight n - w.  So a
counter takes that table out of its basis, walks the span of the rest
(half the words) and adds each walked word's complement back into the
tallies exactly.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .bfcore import hex_layout
from .errors import ParameterError

# table words materialized at once: 2^20 one-word rows is 8 MB
_BLOCK_LOG2 = 20
# uint64 words one pass of a batched query XORs against the block: 2 MB
# passes keep a census below the peak memory of a 2^20-word block walk
_PASS_WORDS = 1 << 18


def _to_words(tables: Sequence[int], n: int) -> np.ndarray:
    """Stack packed tables into a (len, n/64 or 1) matrix of big-endian
    uint64 words.  A table shorter than 64 bits is one word, in its low bits."""
    if n > 64 and n % 64:
        raise ParameterError(f"table length {n} is not a whole number of words")
    nwords = max(1, n // 64)
    buf = b"".join(t.to_bytes(8 * nwords, "big") for t in tables)
    return np.frombuffer(buf, dtype=">u8").astype(np.uint64).reshape(len(tables), nwords)


def hex_rows(words: np.ndarray, n: int) -> np.ndarray:
    """TruthTable.to_hex of the table in each row of a _to_words matrix,
    as a (rows, hex digits) uint8 array of ASCII digits."""
    digits, pad = hex_layout(n)
    text = (words << np.uint64(pad)).astype(">u8").tobytes().hex().encode()
    return np.frombuffer(text, dtype=np.uint8).reshape(len(words), -1)[:, -digits:]


def span_rows(basis: Sequence[int], n: int, ids: np.ndarray) -> np.ndarray:
    """The span words that ids select, one _to_words row each: bit t of an
    id selects basis table t."""
    out = np.zeros((len(ids), max(1, n // 64)), dtype=np.uint64)
    for t, row in enumerate(_to_words(list(basis), n)):
        out[(ids >> t) & 1 == 1] ^= row
    return out


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Hamming weight of each row (last axis) of an unsigned integer
    array (uint8 when each row is one word, int64 otherwise)."""
    counts = np.bitwise_count(words)
    if counts.shape[-1] == 1:
        return counts[..., 0]  # summing over one column costs more than the popcount
    return counts.sum(axis=-1, dtype=np.int64)


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

    A basis table equal to the all-ones word is taken out of the basis
    (its key kept): the walk covers the span of the other tables, and each
    word x it reaches stands for x and x XOR 1, of weight n - wt(x) and
    key key(x) XOR key(1).  The low basis tables are materialized once as
    one block of at most 2^_BLOCK_LOG2 table words (2^_BLOCK_LOG2 rows of
    one word).  A query XORs an offset into that block in place and folds
    the remaining basis tables in by Gray-code stepping, one block-wide
    XOR plus a tally per step; before returning it XORs out whatever it
    applied, so the block is the same for every query.
    """

    def __init__(self, basis: Sequence[int], n: int, keys: Sequence[int] = (), key_bits: int = 0):
        self.n = n
        self._key_bits = key_bits
        basis, keys = list(basis), list(keys)
        # the all-ones table's key, or None when the basis has no such table
        self._ones_key = None
        if (1 << n) - 1 in basis:
            i = basis.index((1 << n) - 1)
            del basis[i]
            self._ones_key = int(keys.pop(i)) if key_bits else 0
        words = _to_words(basis, n)
        self._nwords = words.shape[1]
        if key_bits:
            words = np.column_stack((words, np.array(keys, dtype=np.uint64)))
        lo = min(len(basis), max(0, _BLOCK_LOG2 - (self._nwords - 1).bit_length()))
        self._block = _span_block(words, lo)
        self._high = words[lo:]

    def weight_histogram(self, offset: int = 0) -> np.ndarray:
        """Weight histogram (length n+1) of {offset XOR span(basis)}; with
        keys, one such row for each key value s (2^key_bits rows), counting
        the words offset XOR w for the span words w whose key is s."""
        hist = self._walk(_to_words([offset], self.n)[0], self._tally).reshape(-1, self.n + 1)
        if self._ones_key is not None:
            self._add_complements(hist)
        return hist if self._key_bits else hist[0]

    def weight_counts(self, offsets: np.ndarray, weight: int) -> np.ndarray:
        """Number of words of the given weight in {offset XOR span(basis)}
        for each row offset of a _to_words matrix (keys play no part).

        A pass XORs as many offsets against the block as fit in
        _PASS_WORDS words.  A block that fills a pass alone takes one
        offset at a time, XORed into it in place: a batched pass would
        copy the whole block at every step.

        With the all-ones table folded out, the walk counts the words of
        weight `weight` or n - weight, and doubles the count when the two
        are equal."""
        if offsets.ndim != 2 or offsets.shape[1] != self._nwords:
            raise ParameterError(f"offsets of shape {offsets.shape} are not rows of {self._nwords} words")
        scale = 2 if self._ones_key is not None and 2 * weight == self.n else 1
        per_pass = _PASS_WORDS // self._block.size
        if per_pass <= 1:
            count = partial(self._count_block, weight=weight)
            return scale * np.array([self._walk(offset, count) for offset in offsets], dtype=np.int64)
        counts = np.zeros(len(offsets), dtype=np.int64)
        for a in range(0, len(offsets), per_pass):
            part = offsets[a : a + per_pass]
            counts[a : a + len(part)] = self._walk(0, partial(self._count, offsets=part, weight=weight))
        return scale * counts

    def _walk(self, offset: np.ndarray | int, tally: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sum of tally(block) over the block's Gray-fold steps through
        {offset XOR span(basis)}; the block is restored before returning."""
        block = self._block
        applied = np.zeros(block.shape[1], dtype=np.uint64)
        applied[: self._nwords] = offset
        if applied.any():
            block ^= applied
        try:
            total = tally(block)
            for j in _gray_flip_sequence(len(self._high)):
                block ^= self._high[j]
                applied ^= self._high[j]
                total += tally(block)
        finally:
            # a full walk ends with the offset and the top high table applied
            if applied.any():
                block ^= applied
        return total

    def _tally(self, block: np.ndarray) -> np.ndarray:
        weights = _popcount_rows(block[:, : self._nwords])
        if self._key_bits:
            weights = block[:, -1].astype(np.intp) * (self.n + 1) + weights
        elif weights.dtype == np.uint8 and len(weights) % 2 == 0:
            # one bin per pair of uint8 weights: half the rows to count
            pairs = np.bincount(weights.view(np.uint16), minlength=1 << 16).reshape(256, 256)
            return (pairs.sum(0) + pairs.sum(1))[: self.n + 1]
        return np.bincount(weights, minlength=(self.n + 1) << self._key_bits)

    def _add_complements(self, hist: np.ndarray) -> None:
        """hist[s, w] += hist[s ^ key(1), n - w] in place.  The rows go in
        aligned chunks of 2^low rows, a bounded number of words: chunk c
        pairs with chunk c ^ (key(1) >> low), and within a chunk, XOR with
        the low key bits reverses those bits' axes of a (2,)*low view."""
        key, n = self._ones_key, self.n
        low = min(self._key_bits, max(0, (_PASS_WORDS // (n + 1)).bit_length() - 1))
        flip = tuple(slice(None, None, -1 if key >> i & 1 else 1) for i in reversed(range(low)))
        chunks = hist.reshape(-1, *(2,) * low, n + 1)
        for c in range(len(chunks)):
            d = c ^ (key >> low)
            if c <= d:
                chunks[c] += chunks[d][flip][..., ::-1]
                chunks[d] = chunks[c][flip][..., ::-1]

    def _hits(self, words: np.ndarray, weight: int) -> np.ndarray:
        """Rows of the given weight, or with the all-ones table folded out,
        of weight n - weight."""
        weights = _popcount_rows(words)
        hits = weights == weight
        if self._ones_key is not None and 2 * weight != self.n:
            hits |= weights == self.n - weight
        return hits

    def _count_block(self, block: np.ndarray, weight: int) -> int:
        return np.count_nonzero(self._hits(block[:, : self._nwords], weight))

    def _count(self, block: np.ndarray, offsets: np.ndarray, weight: int) -> np.ndarray:
        """Rows that _hits matches in the block XORed with each offset row."""
        words = block[None, :, : self._nwords] ^ offsets[:, None, :]
        # count_nonzero along an axis costs several times more than a
        # popcount of the matches packed eight to a byte
        matches = np.packbits(self._hits(words, weight), axis=-1)
        return _popcount_rows(matches).astype(np.int64)


def iter_span(basis: Sequence[int], n: int, offset: int = 0) -> Iterator[int]:
    """Yield every element of {offset XOR span(basis)} as a packed int,
    in Gray order (consecutive elements differ by one basis vector)."""
    cur = offset
    yield cur
    for j in _gray_flip_sequence(len(basis)):
        cur ^= basis[j]
        yield cur
