import random

import numpy as np
import pytest

from rmlab import _bitenum, harness
from rmlab.bfcore import TruthTable
from rmlab.errors import ParameterError
from rmlab.harness import Scope, census_balanced
from rmlab.rmcodes import RMParams, monomial_basis, rm_weight_distribution


def oracle_histogram(basis, n, offset=0, keys=None, key_bits=0):
    """Weight counts of the words offset XOR w, one row per key of the span
    word w, over every combination of the basis (dependent ones included)."""
    keys = keys or [0] * len(basis)
    hist = [[0] * (n + 1) for _ in range(1 << key_bits)]
    for g in range(1 << len(basis)):
        word, key = offset, 0
        for i, (b, k) in enumerate(zip(basis, keys)):
            if g >> i & 1:
                word ^= b
                key ^= k
        hist[key][word.bit_count()] += 1
    return hist


def mask_oracle(basis, n, offset, mask):
    """Weight counts of the coset words with even intersection with mask."""
    hist = [0] * (n + 1)
    for word in _bitenum.iter_span(basis, n, offset):
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
                counts = counter.weight_counts(_bitenum._to_words([offset], n), n // 2)
                assert counts.tolist() == [sum(row[n // 2] for row in expected)]


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
    for word in _bitenum.iter_span(basis, n, offset):
        hist[word.bit_count()] += 1
    return hist


@pytest.mark.parametrize("pass_words", [1, 5, 24, None])
@pytest.mark.parametrize("block_log2", [0, 2, None])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_weight_counts_match_oracle(monkeypatch, n, block_log2, pass_words):
    # small blocks force the Gray fold; small passes split the 7 offsets
    # into passes of several offsets and a remainder, or, where the block
    # fills a pass alone, take them one at a time into the block in place
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
        expected = [count_oracle(basis, n, offset) for offset in offsets]
        for w in range(n + 1):
            assert counter.weight_counts(words, w).tolist() == [e[w] for e in expected]
            assert np.array_equal(counter._block, block)
        assert counter.weight_counts(words[:0], n // 2).tolist() == []
    # a row of the wrong width would broadcast into a wrong count
    for bad in (np.hstack((words, words)), words[0]):
        with pytest.raises(ParameterError, match="not rows of"):
            counter.weight_counts(bad, n // 2)


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
            expected = [count_oracle(basis, n, offset) for offset in offsets]
            for w in range(n + 1):
                assert counter.weight_counts(words, w).tolist() == [e[w] for e in expected], w
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


def test_to_words_rows_are_big_endian_words():
    rng = random.Random("words")
    for m in range(1, 13):
        n = 1 << m
        tables = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]
        words = max(1, n // 64)
        expected = [[t >> (64 * (words - 1 - w)) & ((1 << 64) - 1) for w in range(words)] for t in tables]
        rows = _bitenum._to_words(tables, n)
        assert rows.dtype == np.uint64 and rows.shape == (len(tables), words)
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
                assert census.id_counts() == harness._dual_census(code, scope).id_counts()
                check_rows(census)
        # m = 7: two-word tables; the dual RM(6,7) is past the cap, so the
        # counts are checked against the two words rep and rep XOR 1 each coset has
        census = census_balanced(RMParams(0, 7), Scope.WITHIN_NEXT_ORDER)
        ones = (1 << 128) - 1
        for i, c in enumerate(census.id_counts()[1:], start=1):
            assert c == count_oracle([ones], 128, census.rep_table(i).bits)[64]
        check_rows(census)
