"""numpy-backed bit-parallel enumeration of XOR spans of truth tables.

Truth tables live in Python ints (see bfcore); for bulk work over a whole
linear span or coset we repack them into matrices of words as wide as a
table (_word_type) and let numpy popcount them.  The span of r basis
tables is materialized by doubling: rows [2^j, 2^{j+1}) are rows [0, 2^j)
XOR basis j, so row g is the combination with characteristic vector g in
plain binary counting order.  For spans too large for memory the low part
is materialized once and the high basis vectors are folded in by
Gray-code stepping, one XOR of the whole block per step.

A span is queried for its weight histogram against one offset, or for
its balanced counts (words of weight n/2) against a batch of offsets (a
census reads them for thousands of coset representatives) in numpy
passes of about _PASS_WORDS words, with no histogram.

Two folds shrink the walk of a code.  Every RM(k,m) with k >= 0 holds
the all-ones word, which maps a coset word of weight w to one of weight
n - w: a counter walks the span of the other tables and adds each walked
word's complement back exactly.  And in the Plotkin form RM(k,m) =
{(u | u+v)}, the code words on one half of the cube are a copy K of
RM(k-1,m-1): a counter of one-word tables may walk the quotient by K
and read off one table the weights of each walked word's coset of K.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .bfcore import hex_layout
from .errors import ExactnessError, ParameterError

# table words materialized at once: 2^20 one-word rows is 1-8 MB by width
_BLOCK_LOG2 = 20
# table words one pass of a batched query XORs against the block (0.25-2
# MB by width) keep a census below the peak memory of a 2^20-word walk
_PASS_WORDS = 1 << 18
# the kernel fold's set-up (about 0.1 ms) in words of a full walk
_FOLD_SETUP = 1 << 17


def _word_type(n: int) -> np.dtype:
    """uint8, uint16 or uint32 for tables of up to 8, 16 or 32 bits, else uint64."""
    return np.dtype(f"u{max(1, min(n, 64) // 8)}")


def check_key_bits(key_bits: int, n: int, what: str = "keys") -> None:
    """Refuse keys wider than the key column, one word of n-bit tables."""
    if key_bits > 8 * _word_type(n).itemsize:
        raise ExactnessError(f"{key_bits}-bit {what} do not fit the key column of {n}-bit tables")


def _to_words(tables: Sequence[int], n: int) -> np.ndarray:
    """Stack packed tables into a (len, n/64 or 1) matrix of _word_type(n)
    words, high word first; a table below 8 bits sits in a word's low bits."""
    if n > 64 and n % 64:
        raise ParameterError(f"table length {n} is not a whole number of words")
    dt, nwords = _word_type(n), max(1, n // 64)
    size = dt.itemsize * nwords  # a dtype attribute costs more than a local
    buf = b"".join(t.to_bytes(size, "big") for t in tables)
    return np.frombuffer(buf, dtype=dt.newbyteorder(">")).astype(dt).reshape(len(tables), nwords)


def hex_rows(words: np.ndarray, n: int) -> np.ndarray:
    """TruthTable.to_hex of the table in each row of a _to_words matrix,
    as a (rows, hex digits) uint8 array of ASCII digits."""
    digits, pad = hex_layout(n)
    text = (words << pad).astype(words.dtype.newbyteorder(">")).tobytes().hex().encode()
    return np.frombuffer(text, dtype=np.uint8).reshape(len(words), -1)[:, -digits:]


def span_rows(basis: Sequence[int], n: int, ids: np.ndarray) -> np.ndarray:
    """The span words that ids select, one _to_words row each: bit t of an
    id selects basis table t."""
    out = np.zeros((len(ids), max(1, n // 64)), dtype=_word_type(n))
    for t, row in enumerate(_to_words(list(basis), n)):
        out ^= ((ids >> t) & 1).astype(out.dtype)[:, None] * row
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
    out = np.zeros((1 << log2_rows, basis_words.shape[1]), dtype=basis_words.dtype)
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
    the tables it combines, kept as one extra column of table words.

    A basis table equal to the all-ones word is taken out of the basis
    (its key kept): the walk covers the span of the other tables, and each
    word x it reaches stands for x and x XOR 1, of weight n - wt(x) and
    key key(x) XOR key(1).  The low basis tables are materialized once as
    one block of at most 2^_BLOCK_LOG2 table words (2^_BLOCK_LOG2 rows of
    one word).  A walk folds the remaining basis tables into that block
    by Gray-code stepping, one block-wide XOR plus a tally per step.  A
    histogram XORs its offset into the block and out again before it
    returns; balanced counts XOR each step's block with a batch of offsets.

    An unkeyed counter of one-word tables (2 <= n <= 32) may take the
    kernel fold instead.  Echelon rows with no bit in the high half span
    K, the span words on the low half; the walk covers the other rows
    (the quotient) as [high half, syndrome of the low half mod K] and
    reads each word's coset of K off a table D[syndrome, weight] of the
    2^(n/2) half-words.  A basis row that reduces to zero doubles D, so
    dependent bases keep their multiset counts.  Each query takes the
    fold when _folds prices it below the full walk for its offset count,
    and the block is then never built.
    """

    def __init__(self, basis: Sequence[int], n: int, keys: Sequence[int] = (), key_bits: int = 0):
        check_key_bits(key_bits, n)
        self.n = n
        self._key_bits = key_bits
        basis, keys = list(basis), list(keys)
        # the all-ones table's key, or None when the basis has no such table
        self._ones_key = None
        if (1 << n) - 1 in basis:
            i = basis.index((1 << n) - 1)
            del basis[i]
            self._ones_key = int(keys.pop(i)) if key_bits else 0
        self._basis = basis
        words = _to_words(basis, n)
        self._nwords = words.shape[1]
        if key_bits:
            words = np.column_stack((words, np.array(keys, dtype=words.dtype)))
        self._lo = min(len(basis), max(0, _BLOCK_LOG2 - (self._nwords - 1).bit_length()))
        self._words, self._high = words, words[self._lo :]

    _block = cached_property(lambda self: _span_block(self._words, self._lo))  # built by the first full walk

    @cached_property
    def _echelon(self) -> tuple[list[int], list[int]]:
        """Quotient and kernel rows of an echelon basis of the span (each
        row reduced by those above it), split on a bit in the high half."""
        rows: list[int] = []
        for row in self._basis:
            for b in rows:
                row = min(row, row ^ b)
            rows = sorted(rows + [row] * (row > 0), reverse=True)
        return [b for b in rows if b >> self.n // 2], [b for b in rows if not b >> self.n // 2]

    def _folds(self, offsets: int) -> bool:
        """Whether a query of this many offsets takes the kernel fold: when its set-up,
        D, contraction and walk (eight entries a word) cost no more than the full walk."""
        if self._key_bits or not 2 <= self.n <= 32 or offsets << len(self._basis) < _FOLD_SETUP:
            return False
        half, (quotient, kernel) = self.n // 2, self._echelon
        table = (1 << half) + (1 << half - len(kernel) + 2 * (half + 1).bit_length())
        return _FOLD_SETUP + table + (offsets << len(quotient) + 3) <= offsets << len(self._basis)

    @cached_property
    def _fold(self) -> tuple[SpanCounter, list[int], np.ndarray]:
        """The quotient walk (keyed counter of the quotient rows' high halves,
        keyed by syndrome), the syndrome of each unit half-word, and D:
        weight j in column 2^s - 1 + j, zeros around it for the shifted
        reads of _fold_counts, in the smallest dtype that holds its entries."""
        (quotient, kernel), half = self._echelon, self.n // 2
        free = [i for i in range(half) if all(b.bit_length() != i + 1 for b in kernel)]  # bits leading no row

        def syndrome(v: int) -> int:  # v mod K, read off the bits that lead no kernel row
            for b in kernel:
                v = min(v, v ^ b)
            return sum((v >> f & 1) << j for j, f in enumerate(free))

        units = [syndrome(1 << i) for i in range(half)]
        table = SpanCounter([1 << i for i in range(half)], half, units, len(free)).weight_histogram()
        # n-bit tables, so that a high half of all ones is not folded out of the
        # walk, and a key column even when K is the whole low half
        syns = [syndrome(q % (1 << half)) for q in quotient]
        walk = SpanCounter([q >> half for q in quotient], self.n, syns, max(1, len(free)))
        table = table.reshape(-1, half + 1) << len(self._basis) - len(quotient) - len(kernel)
        pad = (1 << (half + 1).bit_length()) - 1
        table = np.pad(table, ((0, 0), (pad, self.n - half)))
        return walk, units, table.astype(np.min_scalar_type(table.max()))

    def weight_histogram(self, offset: int = 0) -> np.ndarray:
        """Weight histogram (length n+1) of {offset XOR span(basis)}; with
        keys, one such row for each key value s (2^key_bits rows), counting
        the words offset XOR w for the span words w whose key is s."""
        if self._folds(1):
            hist = self._fold_histogram(offset)
        else:
            hist = self._walk(_to_words([offset], self.n)[0], self._tally).reshape(-1, self.n + 1)
        if self._ones_key is not None:
            self._add_complements(hist)
        return hist if self._key_bits else hist[0]

    def balanced_counts(self, offsets: np.ndarray) -> np.ndarray:
        """Number of words of weight n/2 (n even) in {offset XOR span(basis)}
        for each row offset of a _to_words matrix (keys play no part).

        A pass XORs as many offsets against the block as fit in
        _PASS_WORDS words, and at least one.  With the all-ones table
        folded out, each balanced word walked stands for itself and its
        complement, balanced too, so the walk's count doubles."""
        if offsets.ndim != 2 or offsets.shape[1] != self._nwords:
            raise ParameterError(f"offsets of shape {offsets.shape} are not rows of {self._nwords} words")
        scale = 2 if self._ones_key is not None else 1
        if self._folds(len(offsets)):
            return scale * self._fold_counts(offsets)
        per_pass = max(1, _PASS_WORDS // self._block.size)
        counts = np.zeros(len(offsets), dtype=np.int64)
        for a in range(0, len(offsets), per_pass):
            part = offsets[a : a + per_pass]
            counts[a : a + len(part)] = self._walk(0, partial(self._count, offsets=part))
        return scale * counts

    def _walk(self, offset: np.ndarray | int, tally: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Sum of tally(block) over the block's Gray-fold steps through
        {offset XOR span(basis)}; the block is restored before returning."""
        block = self._block
        applied = np.zeros(block.shape[1], dtype=block.dtype)
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

    def _fold_histogram(self, offset: int) -> np.ndarray:
        """The (1, n+1) histogram of the kernel fold: the quotient walk's
        (syndrome, high weight) histogram, contracted with D."""
        (walk, units, table), half = self._fold, self.n // 2
        syn = int(span_rows(units, self.n, np.array([offset % (1 << half)]))[0, 0])
        pad = table.shape[1] - self.n - 1
        pairs = walk.weight_histogram(offset >> half)[: len(table), : half + 1]
        pairs = pairs.T @ table[np.arange(len(table)) ^ syn, pad : pad + half + 1]  # [high weight, low weight]
        return np.array([[np.trace(pairs[::-1], j - half) for j in range(self.n + 1)]])

    def _fold_counts(self, offsets: np.ndarray) -> np.ndarray:
        """balanced_counts by the kernel fold: the quotient word x XOR t reads
        D[syndrome, n/2 - high weight].  A pass reads _PASS_WORDS / 8
        words at about 20 bytes each, less than a full walk's pass holds."""
        (walk, units, table), half = self._fold, self.n // 2
        s = (half + 1).bit_length()  # a flat index of 2^s weight columns: (syndrome << s) + weight
        # a contiguous copy: take() would copy a reversed view at every step
        wanted = table[:, half : half + (1 << s)][:, ::-1].copy()
        his, syns = offsets >> half, span_rows(units, self.n, offsets[:, 0] % (1 << half)) << s
        per_pass = max(1, _PASS_WORDS // 8 // len(walk._block))
        counts = np.zeros(len(offsets), dtype=np.int64)
        for a in range(0, len(offsets), per_pass):
            hi, sy = his[a : a + per_pass], syns[a : a + per_pass]
            tally = lambda b: wanted.take(b[:, 1] << s ^ sy | np.bitwise_count(b[:, 0] ^ hi)).sum(axis=1)
            counts[a : a + len(hi)] = walk._walk(0, tally)
        return counts

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

    def _count(self, block: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Balanced rows of the block XORed with each offset row."""
        words = block[None, :, : self._nwords] ^ offsets[:, None, :]
        # count_nonzero along an axis costs several times more than a
        # popcount of the matches packed eight to a byte
        matches = np.packbits(_popcount_rows(words) == self.n // 2, axis=-1)
        return _popcount_rows(matches).astype(np.int64)
