import collections
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from coset_oracle import coset_distribution, dense_transform, iter_span
from rmlab import _bitenum, harness
from rmlab.bfcore import TruthTable
from rmlab.errors import ExactnessError, ParameterError
from rmlab.harness import Scope, census_balanced
from rmlab.rmcodes import RMParams, code_counter, dual_params, monomial_basis, rm_membership, rm_weight_distribution


def keyed_oracle(basis, offset, keys):
    """{(key of w, weight of offset XOR w): count} over the span words w,
    every combination of the basis (dependent ones included)."""
    found = collections.Counter()
    for g in range(1 << len(basis)):
        word, key = offset, 0
        for i, (b, k) in enumerate(zip(basis, keys)):
            if g >> i & 1:
                word ^= b
                key ^= k
        found[key, word.bit_count()] += 1
    return found


def oracle_histogram(basis, n, offset=0, keys=None, key_bits=0):
    """Weight counts of the words offset XOR w, one row per key of the span
    word w: keyed_oracle as dense rows."""
    hist = [[0] * (n + 1) for _ in range(1 << key_bits)]
    for (key, weight), count in keyed_oracle(basis, offset, keys or [0] * len(basis)).items():
        hist[key][weight] += count
    return hist


def mask_oracle(basis, n, offset, mask):
    """Weight counts of the coset words with even intersection with mask."""
    hist = [0] * (n + 1)
    for word in iter_span(basis, offset):
        if (word & mask).bit_count() % 2 == 0:
            hist[word.bit_count()] += 1
    return hist


def parity(x):
    return x.bit_count() & 1


def check_walk(counter, offset, expected):
    block = counter._block.copy()
    assert counter.weight_histogram(offset).tolist() == expected
    assert np.array_equal(counter._block, block)


def check_queries(basis, n, queries):
    """Each (offset, mask) query: the plain histogram, and with a nonzero
    mask the 1-bit key of intersection parity with it, whose row
    parity(offset & mask) is the histogram of the words orthogonal to mask."""
    plain = _bitenum.SpanCounter(basis, n)
    for offset, mask in queries:
        check_walk(plain, offset, oracle_histogram(basis, n, offset)[0])
        if mask:
            keys = [parity(b & mask) for b in basis]
            keyed = _bitenum.SpanCounter(basis, n, keys, 1)
            expected = oracle_histogram(basis, n, offset, keys, 1)
            assert expected[parity(offset & mask)] == mask_oracle(basis, n, offset, mask)
            check_walk(keyed, offset, expected)


def random_queries(rng, n, count=4):
    queries = [(0, 0)]
    for _ in range(count):
        offset = rng.getrandbits(n) if rng.random() < 0.7 else 0
        mask = rng.getrandbits(n) if rng.random() < 0.5 else 0
        queries.append((offset, mask))
    return queries


@pytest.mark.parametrize("n", [8, 32, 64, 128, 256])
def test_empty_basis(n):
    rng = random.Random(n)
    check_queries([], n, random_queries(rng, n))
    hist = _bitenum.SpanCounter([], n).weight_histogram(offset=(1 << n) - 1)
    assert hist.tolist() == [0] * n + [1]
    keyed = _bitenum.SpanCounter([], n, [], 2).weight_histogram()
    assert keyed.tolist() == [[1] + [0] * n] + [[0] * (n + 1)] * 3


@pytest.mark.parametrize("block_log2", [0, 1, 2, 3, None])
@pytest.mark.parametrize("n", [8, 32, 64, 128])
def test_walker_matches_oracle(monkeypatch, block_log2, n):
    # small blocks force the Gray fold over the high basis tables
    if block_log2 is not None:
        monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    rng = random.Random(f"{n}:{block_log2}")
    for r in range(7):
        basis = [rng.getrandbits(n) for _ in range(r)]
        check_queries(basis, n, random_queries(rng, n))


@pytest.mark.parametrize("block_log2", [0, 2, None])
@pytest.mark.parametrize("n", [8, 64, 128])
def test_multi_bit_keys_match_oracle(monkeypatch, block_log2, n):
    if block_log2 is not None:
        monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    rng = random.Random(f"keys:{n}:{block_log2}")
    for r in range(7):
        for key_bits in (2, 3, 5, 8):
            basis = [rng.getrandbits(n) for _ in range(r)]
            keys = [rng.getrandbits(key_bits) for _ in range(r)]
            counter = _bitenum.SpanCounter(basis, n, keys, key_bits)
            for offset in (0, rng.getrandbits(n)):
                expected = oracle_histogram(basis, n, offset, keys, key_bits)
                check_walk(counter, offset, expected)
                # the batched count reads every span word, whatever its key
                counts = counter.balanced_counts(_bitenum._to_words([offset], n))
                assert counts.tolist() == [sum(row[n // 2] for row in expected)]


def keyed_walk(counter, offset):
    """{(key, weight): count} of a keyed counter's walk (no all-ones table in
    its basis), read from the block's key column at each step: no dense
    histogram of 2^key_bits rows."""
    def tally(block):
        weights = _bitenum._popcount_rows(block[:, :-1])
        return collections.Counter(zip(block[:, -1].tolist(), weights.tolist()))

    return counter._walk(_bitenum._to_words([offset], counter.n)[0], tally)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_keys_as_wide_as_the_word_match_oracle(monkeypatch, n):
    # the key column of an 8-, 16- or 32-bit table is a word of that width:
    # keys of the full width, top bit set, stay exact through the block and
    # the Gray fold, and one bit more is refused before anything is built
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", 2)
    rng = random.Random(f"wide keys:{n}")
    basis = [rng.getrandbits(n) for _ in range(5)]
    keys = [1 << (n - 1) | rng.getrandbits(n) for _ in range(5)]
    counter = _bitenum.SpanCounter(basis, n, keys, n)
    assert counter._block.dtype.itemsize * 8 == n
    for offset in (0, rng.getrandbits(n)):
        assert keyed_walk(counter, offset) == keyed_oracle(basis, offset, keys)
        if n <= 16:  # a dense histogram of 2^32 keys would not fit in memory
            for b, k in ((basis, keys), (basis + [(1 << n) - 1], keys + [1 << (n - 1)])):
                check_walk(_bitenum.SpanCounter(b, n, k, n), offset, oracle_histogram(b, n, offset, k, n))
    monkeypatch.setattr(_bitenum, "_to_words", None)
    with pytest.raises(ExactnessError, match=f"{n + 1}-bit keys"):
        _bitenum.SpanCounter(basis, n, keys, n + 1)


@pytest.mark.parametrize("m", range(7))
def test_one_word_block_is_as_wide_as_the_table(m):
    # 2^20 rows of 16-bit tables take 2 MB where 64-bit words took 8 MB
    n = 1 << m
    width = {1: 1, 2: 1, 4: 1, 8: 1, 16: 2, 32: 4, 64: 8}[n]
    rng = random.Random(f"width:{m}")
    basis = [rng.getrandbits(n) for _ in range(_bitenum._BLOCK_LOG2)]
    for counter in (_bitenum.SpanCounter(basis, n), _bitenum.SpanCounter(basis, n, [1] * len(basis), 1)):
        assert counter._block.dtype.itemsize == width


@pytest.mark.parametrize("n", [64, 128, 1024, 1 << 16])
def test_block_holds_at_most_block_log2_words(n):
    # a one-word table keeps 2^_BLOCK_LOG2 rows; a longer one keeps as many
    # rows as fit in that many words, never fewer than one
    rng = random.Random(n)
    nwords = max(1, n // 64)
    basis = [rng.getrandbits(n) for _ in range(_bitenum._BLOCK_LOG2 + 1)]
    block = _bitenum.SpanCounter(basis, n)._block
    assert block.shape[1] == nwords
    assert block.size == 1 << _bitenum._BLOCK_LOG2


@pytest.mark.parametrize("block_log2", [0, 3, 7])
def test_rm1_distribution_through_folded_multiword_blocks(monkeypatch, block_log2):
    # RM(1,m): the two constants and 2^(m+1) - 2 words of weight n/2, with
    # most of its m + 1 basis tables folded in by Gray steps
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    for m in (7, 8, 10):
        n = 1 << m
        dist = rm_weight_distribution(RMParams(1, m))
        assert dist.pairs == ((0, 1), (n // 2, (1 << (m + 1)) - 2), (n, 1)), m


def test_dependent_basis_and_offset_in_span(monkeypatch):
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", 1)
    a, b = 0x0F0F0F0F, 0x33333333
    basis = [a, b, a ^ b, 0, a]
    check_queries(basis, 32, [(0, 0), (a, 0), (a ^ b, b), (b, a ^ b)])
    keys = [1, 2, 3, 4, 1]
    counter = _bitenum.SpanCounter(basis, 32, keys, 3)
    check_walk(counter, a, oracle_histogram(basis, 32, a, keys, 3))


def count_oracle(basis, n, offset):
    """Weight counts of offset XOR span(basis), by iter_span and int.bit_count."""
    hist = [0] * (n + 1)
    for word in iter_span(basis, offset):
        hist[word.bit_count()] += 1
    return hist


@pytest.mark.parametrize("pass_words", [1, 5, 24, None])
@pytest.mark.parametrize("block_log2", [0, 2, None])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_weight_counts_match_oracle(monkeypatch, n, block_log2, pass_words):
    # balanced counts: small blocks force the Gray fold; small passes split
    # the 7 offsets into passes of several offsets and a remainder, and a
    # one-word pass drives the batched pass one offset at a time through
    # the Gray steps of a block that fills it alone
    if block_log2 is not None:
        monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    if pass_words is not None:
        monkeypatch.setattr(_bitenum, "_PASS_WORDS", pass_words)
    rng = random.Random(f"counts:{n}:{block_log2}:{pass_words}")
    for r in (0, 1, 3, 5):
        basis = [rng.getrandbits(n) for _ in range(r)]
        counter = _bitenum.SpanCounter(basis, n)
        block = counter._block.copy()
        offsets = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(5)]
        words = _bitenum._to_words(offsets, n)
        expected = [count_oracle(basis, n, offset)[n // 2] for offset in offsets]
        assert counter.balanced_counts(words).tolist() == expected
        assert np.array_equal(counter._block, block)
        assert counter.balanced_counts(words[:0]).tolist() == []
    # a row of the wrong width would broadcast into a wrong count
    for bad in (np.hstack((words, words)), words[0]):
        with pytest.raises(ParameterError, match="not rows of"):
            counter.balanced_counts(bad)


def bases_with_ones(rng, n):
    """Bases holding the all-ones table at a random position: alone, once
    beside random tables, twice (a dependent basis) and beside a longer
    random basis."""
    bases = []
    for extra, copies in ((0, 1), (3, 1), (3, 2), (5, 1)):
        basis = [rng.getrandbits(n) for _ in range(extra)]
        for _ in range(copies):
            basis.insert(rng.randrange(len(basis) + 1), (1 << n) - 1)
        bases.append(basis)
    return bases


@pytest.mark.parametrize("pass_words", [5, 24, None])
@pytest.mark.parametrize("block_log2", [0, 2, None])
@pytest.mark.parametrize("n", [2, 8, 32, 64, 128])
def test_all_ones_fold_matches_oracles(monkeypatch, n, block_log2, pass_words):
    # the walk skips the all-ones table and adds each word's complement
    # back: weight n - w, and key XORed with the all-ones table's key;
    # small passes pair the histogram rows in chunks of one row or, at
    # n = 8 and 24 words, of two rows of a 3-bit key
    if block_log2 is not None:
        monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    if pass_words is not None:
        monkeypatch.setattr(_bitenum, "_PASS_WORDS", pass_words)
    rng = random.Random(f"fold:{n}:{block_log2}:{pass_words}")
    ones = (1 << n) - 1
    for basis in bases_with_ones(rng, n):
        for key_bits in (0, 1, 3):
            keys = [rng.getrandbits(key_bits) for _ in basis]
            if key_bits:
                keys[basis.index(ones)] = rng.randrange(1, 1 << key_bits)
            counter = _bitenum.SpanCounter(basis, n, keys, key_bits)
            assert len(counter._block) * (1 << len(counter._high)) == 1 << (len(basis) - 1)
            offsets = [0, ones] + [rng.getrandbits(n) for _ in range(3)]
            for offset in offsets:
                expected = oracle_histogram(basis, n, offset, keys, key_bits)
                check_walk(counter, offset, expected if key_bits else expected[0])
            block = counter._block.copy()
            words = _bitenum._to_words(offsets, n)
            expected = [count_oracle(basis, n, offset)[n // 2] for offset in offsets]
            assert counter.balanced_counts(words).tolist() == expected
            assert np.array_equal(counter._block, block)


def test_code_walk_folds_out_the_constant():
    # RM(2,5) has 16 basis tables; without the fold its block would hold
    # all 2^16 words
    counter = _bitenum.SpanCounter([t.bits for t in monomial_basis(RMParams(2, 5))], 32)
    assert counter._block.shape == (1 << 15, 1)
    assert len(counter._high) == 0


@pytest.mark.parametrize("block_log2", [0, 1, None])
@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_pair_tally_matches_oracle(monkeypatch, n, block_log2):
    # an unkeyed walk of one-word rows tallies an even-length block as
    # uint16 pairs of weights; a one-row block (block_log2 = 0, or an
    # empty basis) takes the plain bincount
    if block_log2 is not None:
        monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
    bins = []
    bincount = np.bincount

    def spy(x, minlength=0):
        bins.append(minlength)
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    rng = random.Random(f"pairs:{n}:{block_log2}")
    for r in (0, 1, 2, 5):
        tables = [rng.getrandbits(n) for _ in range(r)]
        for basis in (tables, tables + [(1 << n) - 1]):
            counter = _bitenum.SpanCounter(basis, n)
            del bins[:]
            for offset in (0, (1 << n) - 1, rng.getrandbits(n)):
                check_walk(counter, offset, oracle_histogram(basis, n, offset)[0])
            paired = len(counter._block) % 2 == 0
            assert bins and set(bins) == {1 << 16 if paired else n + 1}
            assert paired == (block_log2 != 0 and len(counter._block) > 1)


def test_span_rows_and_hex_rows_match_the_int_tables():
    rng = random.Random("rows")
    for m in range(1, 9):
        n = 1 << m
        basis = [rng.getrandbits(n) for _ in range(5)]
        ids = np.array([0, 31, 5, 16, 7, 5])
        expected = [harness._build_rep(basis, int(g)) for g in ids]
        rows = _bitenum.span_rows(basis, n, ids)
        assert np.array_equal(rows, _bitenum._to_words(expected, n))
        hexes = [TruthTable(m, t).to_hex() for t in expected]
        digits = _bitenum.hex_rows(rows, n)
        assert digits.dtype == np.uint8 and digits.shape == (len(ids), len(hexes[0]))
        assert [row.tobytes().decode() for row in digits] == hexes


def test_span_rows_of_a_chunk_across_a_power_of_two():
    # one census chunk of 4,096 ids, 6144..10239, crossing 2^13
    rng = random.Random("chunk")
    ids = np.arange(6144, 6144 + 4096)
    for m in range(1, 9):
        n = 1 << m
        basis = [rng.getrandbits(n) for _ in range(14)]
        expected = _bitenum._to_words([harness._build_rep(basis, int(g)) for g in ids], n)
        rows = _bitenum.span_rows(basis, n, ids)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)


def test_to_words_rows_are_big_endian_words():
    rng = random.Random("words")
    for m in range(1, 13):
        n = 1 << m
        tables = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]
        words = max(1, n // 64)
        expected = [[t >> (64 * (words - 1 - w)) & ((1 << 64) - 1) for w in range(words)] for t in tables]
        rows = _bitenum._to_words(tables, n)
        width = np.uint8 if n <= 8 else np.uint16 if n == 16 else np.uint32 if n == 32 else np.uint64
        assert rows.dtype == width and rows.shape == (len(tables), words)
        assert rows.tolist() == expected
        assert _bitenum._to_words([], n).shape == (0, words)
    with pytest.raises(ParameterError, match="not a whole number of words"):
        _bitenum._to_words([0], 96)


def check_rows(census):
    # lead, hex and class text; the counts are ragged, so NUL padding is dropped
    counts = census.id_counts()
    expected = "".join(f"<{census.rep_table(i).to_hex()},{counts[i]}\n" for i in range(1, len(counts)))
    assert "".join(census.text_chunks("<", [f",{c}\n" for c in census.counts])) == expected


def test_census_rows_decode_every_entry(monkeypatch):
    pairs = [(0, 1, Scope.FULL_SPACE), (0, 1, Scope.WITHIN_NEXT_ORDER), (1, 1, Scope.FULL_SPACE)]
    pairs += [(k, 4, scope) for k in (1, 2) for scope in Scope] + [(2, 5, Scope.WITHIN_NEXT_ORDER)]
    # chunks of 1 and 3 ids start and stop chunks anywhere in the id range
    for chunk in (1, 3, 4096):
        monkeypatch.setattr(harness, "_CHECKPOINT_CHUNK", chunk)
        for k, m, scope in pairs:
            code = RMParams(k, m)
            if chunk > 1 or len(harness._rep_basis(code, scope)) <= 8:  # skip thousands of 1-id chunks
                census = census_balanced(code, scope)
                # class labels differ (distinct counts against distinct dual columns)
                assert census.id_counts() == harness._dual_census(code, scope)[0].id_counts()
                check_rows(census)
        # m = 7: two-word tables; the dual RM(6,7) is past the cap, so the
        # counts are checked against the two words rep and rep XOR 1 each coset has
        census = census_balanced(RMParams(0, 7), Scope.WITHIN_NEXT_ORDER)
        ones = (1 << 128) - 1
        for i, c in enumerate(census.id_counts()[1:], start=1):
            assert c == count_oracle([ones], 128, census.rep_table(i).bits)[64]
        check_rows(census)


def force_fold(monkeypatch):
    """Every unkeyed counter of one-word tables takes the kernel fold,
    whatever its cost."""
    monkeypatch.setattr(_bitenum.SpanCounter, "_folds", lambda self, offsets: not self._key_bits and 2 <= self.n <= 32)


def check_fold(counter, n, offsets, expected):
    """Histograms and balanced counts at each offset against the expected
    histograms, the queries leaving the full block unbuilt."""
    for offset, e in zip(offsets, expected):
        assert counter.weight_histogram(offset).tolist() == e, offset
    words = _bitenum._to_words(offsets, n)
    assert counter.balanced_counts(words).tolist() == [e[n // 2] for e in expected]
    assert "_block" not in vars(counter)


def fold_bases(rng, n):
    """Bases that the kernel fold splits unevenly: rows on the low half
    (kernel rows) and rows with a bit in the high half (quotient rows),
    with a zero row, a repeated kernel row, a repeated quotient row, no
    quotient, no kernel, or the all-ones table beside a kernel."""
    half = n // 2

    def low():
        return rng.randrange(1, 1 << half)

    def high(i=None):  # distinct leading bits i keep such rows independent on the high half
        lead = half + (rng.randrange(half) if i is None else i)
        return 1 << lead | rng.getrandbits(lead)

    q, k = high(), low()
    return {
        "zero row": [q, 0, k, high()],
        "repeated kernel row": [k, q, k],
        "repeated quotient row": [q, k, q, low()],
        "low half only": [low() for _ in range(3)],
        "no kernel": [high(i) for i in range(min(3, half))],
        "all ones beside a kernel": [k, (1 << n) - 1, q, low()],
    }


@pytest.mark.parametrize("pass_words", [8, 48, None])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_kernel_fold_matches_oracles(monkeypatch, n, pass_words):
    # a block of two rows takes the quotient walk through Gray steps (at
    # n = 32 the 2^16 half-words behind D would take 2^15 of them, so the
    # block keeps 2^12 rows there); 8 and 48 pass words put one offset or
    # three in a pass, so five offsets split into passes and a remainder
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", 1 if n <= 16 else 12)
    if pass_words is not None:
        monkeypatch.setattr(_bitenum, "_PASS_WORDS", pass_words)
    force_fold(monkeypatch)
    rng = random.Random(f"kernel fold:{n}:{pass_words}")
    for name, basis in fold_bases(rng, n).items():
        counter = _bitenum.SpanCounter(basis, n)
        quotient, kernel = counter._echelon
        assert (name != "low half only" or not quotient) and (name != "no kernel" or not kernel), name
        offsets = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]
        check_fold(counter, n, offsets, [count_oracle(basis, n, offset) for offset in offsets])


def rm35_oracle(offset):
    """RM(3,5)'s words offset XOR c, from the dual RM(1,5)'s 64 words by
    MacWilliams: the code itself, or a coset by its orthogonal subcode."""
    code = RMParams(3, 5)
    if rm_membership(TruthTable(5, offset), code):
        dual = [t.bits for t in monomial_basis(dual_params(code))]
        return dense_transform(dict(enumerate(count_oracle(dual, 32, 0))), code.dimension, 32).to_dense()
    return coset_distribution(code, TruthTable(5, offset)).to_dense()


@pytest.mark.parametrize("m", range(1, 6))
def test_kernel_fold_on_every_code_matches_oracles(monkeypatch, m):
    # every RM(k,m) with m <= 5, the zero code RM(-1,m) included, the fold
    # taken whatever it costs; the python walks reach dimension 16,
    # MacWilliams RM(3,5), and the even-weight code RM(4,5) and the whole
    # space RM(5,5) have closed forms
    rng = random.Random(f"codes:{m}")
    n = 1 << m
    offsets = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]
    expected = {}
    for k in range(-1, m + 1):
        basis = [t.bits for t in monomial_basis(RMParams(k, m))]
        if len(basis) <= 16:
            expected[k] = [count_oracle(basis, n, offset) for offset in offsets]
        elif k == 3:
            expected[k] = [rm35_oracle(offset) for offset in offsets]
        else:
            odd = [offset.bit_count() % 2 if k == 4 else None for offset in offsets]
            expected[k] = [[comb(n, w) * (p is None or w % 2 == p) for w in range(n + 1)] for p in odd]
    force_fold(monkeypatch)
    for k in range(-1, m + 1):
        counter = code_counter(RMParams(k, m))
        check_fold(counter, n, offsets, expected[k])


def test_rm35_takes_the_kernel_fold_through_gray_steps(monkeypatch):
    # under the cost rule: 2^14 quotient words against the 32 cosets of
    # RM(2,4), never the 2^25-word walk; a block of 2^12 rows and passes
    # of two offsets take the quotient through Gray steps and split passes
    offsets = [0, 0xFFFFFFFF, 0x0001, 0x12345678, 0x0F00F00D]
    expected = [rm35_oracle(offset) for offset in offsets]
    for block_log2, pass_words in ((None, None), (12, 1 << 16)):
        if block_log2 is not None:
            monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", block_log2)
            monkeypatch.setattr(_bitenum, "_PASS_WORDS", pass_words)
        counter = code_counter(RMParams(3, 5))
        check_fold(counter, 32, offsets, expected)
        walk, units, table = counter._fold
        assert walk._block.shape == (1 << min(14, block_log2 or 20), 2) and len(walk._high) == 14 - (block_log2 or 14)
        assert len(table) == 32


def test_fold_rule_weighs_offsets_and_dimensions():
    # RM(3,5) folds for one offset; RM(2,5) for a census batch but not for
    # one histogram (its table of 2,048 cosets costs more than 2^15 words);
    # RM(1,5) never (K is 1-dimensional: 2^15 cosets against a 2^5-word
    # walk); keyed counters and two-word tables keep the full walk
    assert code_counter(RMParams(3, 5))._folds(1)
    assert code_counter(RMParams(2, 5))._folds(1024) and not code_counter(RMParams(2, 5))._folds(1)
    assert not code_counter(RMParams(1, 5))._folds(1 << 16)
    assert not any(code_counter(RMParams(k, m))._folds(32) for m in range(1, 5) for k in range(m - 1))
    assert not code_counter(RMParams(3, 5), [1])._folds(1 << 16)
    assert not code_counter(RMParams(2, 6))._folds(1 << 16)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rm35_distribution_peaks_under_two_megabytes():
    # the full walk's block alone was 2^20 uint32 rows, 4 MB
    code = RMParams(3, 5)
    rm_weight_distribution(code)
    assert traced_peak(lambda: rm_weight_distribution(code)) < 2 << 20


def test_folded_census_pass_holds_no_more_than_a_full_pass(monkeypatch):
    # one census chunk of RM(2,5): 4,096 offsets against 2^10 quotient words
    # in passes of _PASS_WORDS / 8 words, or against the 2^15-word block
    # in passes of _PASS_WORDS words
    rng = random.Random("pass bytes")
    offsets = _bitenum._to_words([rng.getrandbits(32) for _ in range(4096)], 32)
    folded, full = code_counter(RMParams(2, 5)), code_counter(RMParams(2, 5))
    assert folded._fold and full._block.size  # built before tracing
    fold_peak = traced_peak(lambda: folded.balanced_counts(offsets))
    monkeypatch.setattr(_bitenum.SpanCounter, "_folds", lambda self, offsets: False)
    full_peak = traced_peak(lambda: full.balanced_counts(offsets))
    assert fold_peak <= full_peak
