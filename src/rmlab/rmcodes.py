"""Reed-Muller code parameters, enumeration, weight distributions, duality,
membership and McEliece divisibility.

RM(k,m) is the code of truth tables of m-variable Boolean functions of
algebraic degree <= k: length n = 2^m, dimension K = sum_{j<=k} C(m,j),
dual code RM(m-k-1, m).  The positions u with popcount(u) <= k are an
information set; one mask of the other positions both tests membership
(no ANF coefficient there) and indexes the cosets (pivot_positions).
Exhaustive enumeration is gated by a dimension cap (default 26,
overridable per call) so nothing silently tries to walk 2^200 codewords.
"""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from . import _bitenum
from .bfcore import MAX_M, TruthTable, _check_m, _mobius_bits, monomial_tt
from .errors import CapExceededError, ParameterError

DEFAULT_DIMENSION_CAP = 26


def dimension_cap(override: int | None = None) -> int:
    """Effective enumeration cap: the explicit override, else the default."""
    if override is None:
        return DEFAULT_DIMENSION_CAP
    if not isinstance(override, int) or override < 0:
        raise ParameterError(f"cap override must be a nonnegative int, got {override!r}")
    return override


@dataclass(frozen=True)
class RMParams:
    """Parameters of RM(k,m), or the zero code {0} of length 2^m when
    trivial is set (the dual of RM(m,m); k is then None)."""

    k: int | None
    m: int
    trivial: bool = False

    def __post_init__(self) -> None:
        _check_m(self.m)
        if self.trivial:
            if self.k is not None:
                raise ParameterError("trivial code carries no order; use k=None")
        else:
            if not isinstance(self.k, int) or not 0 <= self.k <= self.m:
                raise ParameterError(f"order k must satisfy 0 <= k <= m, got k={self.k!r}, m={self.m}")

    @classmethod
    def zero_code(cls, m: int) -> "RMParams":
        return cls(None, m, trivial=True)

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def dimension(self) -> int:
        if self.trivial:
            return 0
        return sum(comb(self.m, j) for j in range(self.k + 1))

    def __str__(self) -> str:
        return f"{{0}}^{self.n}" if self.trivial else f"RM({self.k},{self.m})"


def dual_params(p: RMParams) -> RMParams:
    """The orthogonal code: RM(m-k-1, m) for k <= m-1; the zero code for
    k = m; RM(m,m) for the zero code."""
    if p.trivial:
        return RMParams(p.m, p.m)
    if p.k == p.m:
        return RMParams.zero_code(p.m)
    return RMParams(p.m - p.k - 1, p.m)


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift Python's limit on the digits of int <-> decimal str conversion
    (4300 by default since 3.10.7/3.11; older interpreters have none) for
    the body, and restore it after.  Exact counts can be far longer."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@dataclass(frozen=True)
class WeightDistribution:
    """Sparse weight distribution: pairs (weight, count), sorted by
    weight, zero counts omitted, counts exact arbitrary-precision ints."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError(f"length must be >= 0, got {self.n}")
        prev = -1
        for w, c in self.pairs:
            if not 0 <= w <= self.n:
                raise ParameterError(f"weight {w} out of range 0..{self.n}")
            if w <= prev:
                raise ParameterError("weights must be strictly increasing")
            if c <= 0:
                raise ParameterError(f"count at weight {w} must be positive, got {c}")
            prev = w

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> "WeightDistribution":
        items = counts.items() if isinstance(counts, Mapping) else counts
        acc: dict[int, int] = {}
        for w, c in items:
            acc[w] = acc.get(w, 0) + c
        return cls(n, tuple(sorted((w, c) for w, c in acc.items() if c)))

    @classmethod
    def from_dense(cls, counts: Iterable[int]) -> "WeightDistribution":
        dense = [int(c) for c in counts]
        if not dense:
            raise ParameterError("dense counts must have length n+1 >= 1")
        return cls(len(dense) - 1, tuple((w, c) for w, c in enumerate(dense) if c))

    @cached_property
    def _lookup(self) -> dict[int, int]:
        return dict(self.pairs)

    def count(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise ParameterError(f"weight {i} out of range 0..{self.n}")
        return self._lookup.get(i, 0)

    def __getitem__(self, i: int) -> int:
        return self.count(i)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.pairs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.pairs)

    def to_dense(self) -> list[int]:
        dense = [0] * (self.n + 1)
        for w, c in self.pairs:
            dense[w] = c
        return dense

    def to_json_obj(self) -> dict:
        with unlimited_int_digits():
            return {"n": self.n, "counts": [str(c) for c in self.to_dense()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WeightDistribution":
        n = obj["n"]
        with unlimited_int_digits():
            counts = [int(s) for s in obj["counts"]]
        if len(counts) != n + 1:
            raise ParameterError(f"counts length {len(counts)} != n+1 = {n + 1}")
        return cls.from_dense(counts)


def monomial_basis(p: RMParams, lowest: int = 0) -> list[TruthTable]:
    """Generator rows of RM(k,m): all monomials of degree <= k in
    graded-lexicographic order (by degree, then variable indices), or
    only those of degree lowest..k."""
    if p.trivial:
        return []
    return [
        monomial_tt(p.m, combo)
        for d in range(lowest, p.k + 1)
        for combo in itertools.combinations(range(1, p.m + 1), d)
    ]


def require_cap(dim: int, cap: int | None, what: str) -> None:
    """Raise CapExceededError if enumerating a span of dimension dim
    exceeds the effective enumeration cap."""
    limit = dimension_cap(cap)
    if dim > limit:
        raise CapExceededError(
            f"{what} needs dimension {dim} > enumeration cap {limit} "
            "(raise the cap explicitly)"
        )


def rm_iterate(p: RMParams, cap: int | None = None) -> Iterator[TruthTable]:
    """All 2^K codewords, Gray-ordered: successive words differ by one
    basis monomial (one XOR per step)."""
    require_cap(p.dimension, cap, f"enumerating {p}")
    basis = [t.bits for t in monomial_basis(p)]
    for bits in _bitenum.iter_span(basis, p.n):
        yield TruthTable(p.m, bits)


def code_counter(p: RMParams, against: Sequence[int] = ()) -> _bitenum.SpanCounter:
    """The span of p's monomial basis, for weight queries.  With tables
    `against`, each generator is keyed by its syndrome: bit i is its
    parity with against[i].  The caller checks the enumeration cap."""
    basis = [t.bits for t in monomial_basis(p)]
    keys = [sum(((b & a).bit_count() & 1) << i for i, a in enumerate(against)) for b in basis]
    return _bitenum.SpanCounter(basis, p.n, keys, len(against))


def rm_weight_distribution(p: RMParams, cap: int | None = None) -> WeightDistribution:
    """Exact weight distribution by bit-parallel exhaustive enumeration."""
    require_cap(p.dimension, cap, f"weight distribution of {p}")
    return WeightDistribution.from_dense(code_counter(p).weight_histogram().tolist())


def mceliece_exponent(p: RMParams) -> int:
    """floor((m-1)/k), the divisibility exponent; needs k >= 1."""
    if p.trivial or p.k == 0:
        raise ParameterError("McEliece exponent needs order k >= 1")
    return (p.m - 1) // p.k


def mceliece_check(p: RMParams, cap: int | None = None) -> bool:
    """True iff every codeword weight is divisible by 2^mceliece_exponent.
    Exponent 0 is vacuous and returns True without enumerating."""
    e = mceliece_exponent(p)
    if e == 0:
        return True
    dist = rm_weight_distribution(p, cap)
    modulus = 1 << e
    return all(w % modulus == 0 for w in dist.support)


def is_doubly_even(d: WeightDistribution) -> bool:
    """True iff every weight with a nonzero count is divisible by 4."""
    return all(w % 4 == 0 for w in d.support)


@lru_cache(maxsize=None)
def _high_degree_mask(m: int, k: int) -> int:
    """Packed mask of the table positions u with popcount(u) > k, split on
    Y_1: the half of the table with Y_1 = 0 is mask(m-1, k), the half with
    Y_1 = 1 is mask(m-1, k-1).  An ANF coefficient there means degree > k;
    the other positions are an information set of RM(k,m)."""
    # level j keeps mask(j, k-m+j+i) for i = 0..m-j, the orders the levels
    # above still read; the one-position table's mask is 1 iff the order < 0
    masks = [int(k - m + i < 0) for i in range(m + 1)]
    for j in range(m):
        masks = [hi << (1 << j) | lo for lo, hi in zip(masks, masks[1:])]
    return masks[0]


def rm_membership(t: TruthTable, p: RMParams) -> bool:
    """True iff t's ANF has degree <= k (the zero function belongs to
    every code, including the trivial one)."""
    if t.m != p.m:
        raise ParameterError(f"table has m={t.m}, code has m={p.m}")
    if p.trivial:
        return t.bits == 0
    if p.k >= p.m:
        return True
    coef = _mobius_bits(t.bits, t.m)
    return coef & _high_degree_mask(p.m, p.k) == 0


def pivot_positions(p: RMParams) -> tuple[int, ...]:
    """The positions u with popcount(u) <= k, ascending (none for the zero
    code): an information set, on which the monomial generator matrix is
    unitriangular.  The other positions index the cosets of the code in
    the full space."""
    mask = format(_high_degree_mask(p.m, -1 if p.trivial else p.k), f"0{p.n}b")
    return tuple(pos for pos, bit in enumerate(mask) if bit == "0")
