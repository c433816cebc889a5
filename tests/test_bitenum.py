import random

import numpy as np
import pytest

from rmlab import _bitenum
from rmlab.harness import Scope, census_balanced
from rmlab.rmcodes import RMParams


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
                check_walk(counter, offset, oracle_histogram(basis, n, offset, keys, key_bits))


def test_dependent_basis_and_offset_in_span(monkeypatch):
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", 1)
    a, b = 0x0F0F0F0F, 0x33333333
    basis = [a, b, a ^ b, 0, a]
    check_queries(basis, 32, [(0, 0), (a, 0), (a ^ b, b), (b, a ^ b)])
    keys = [1, 2, 3, 4, 1]
    counter = _bitenum.SpanCounter(basis, 32, keys, 3)
    check_walk(counter, a, oracle_histogram(basis, 32, a, keys, 3))


def test_census_rows_decode_every_entry():
    for scope in Scope:
        census = census_balanced(RMParams(1, 4), scope)
        expected = [(census.rep_table(i).to_hex(), c) for i, c in census.entries]
        assert list(census.rows()) == expected
