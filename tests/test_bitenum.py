import random

import numpy as np
import pytest

from rmlab import _bitenum
from rmlab.harness import Scope, census_balanced
from rmlab.rmcodes import RMParams


def oracle_histogram(basis, n, offset=0, mask=0):
    hist = [0] * (n + 1)
    for word in _bitenum.iter_span(basis, n, offset):
        if (word & mask).bit_count() % 2 == 0:
            hist[word.bit_count()] += 1
    return hist


def check_queries(basis, n, queries):
    counter = _bitenum.SpanCounter(basis, n)
    block = counter._block.copy()
    for offset, mask in queries:
        got = counter.weight_histogram(offset, mask)
        assert got.tolist() == oracle_histogram(basis, n, offset, mask), (basis, n, offset, mask)
        assert np.array_equal(counter._block, block)


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


def test_dependent_basis_and_offset_in_span(monkeypatch):
    monkeypatch.setattr(_bitenum, "_BLOCK_LOG2", 1)
    a, b = 0x0F0F0F0F, 0x33333333
    basis = [a, b, a ^ b, 0, a]
    check_queries(basis, 32, [(0, 0), (a, 0), (a ^ b, b), (b, a ^ b)])


def test_census_rows_decode_every_entry():
    for scope in Scope:
        census = census_balanced(RMParams(1, 4), scope)
        expected = [(census.rep_table(i).to_hex(), c) for i, c in census.entries]
        assert list(census.rows()) == expected
