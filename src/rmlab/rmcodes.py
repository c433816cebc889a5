"""Reed-Muller code parameters, enumeration, weight distributions, duality,
membership and McEliece divisibility.

RM(k,m) is the code of truth tables of m-variable Boolean functions of
algebraic degree <= k: length n = 2^m, dimension K = sum_{j<=k} C(m,j),
dual code RM(m-k-1, m).  The positions u with popcount(u) <= k are an
information set; one mask of the other positions (_high_degree_mask)
both tests membership (no ANF coefficient there) and, through its set
bits, indexes the cosets.
Exhaustive enumeration is gated by a dimension cap (default 26,
overridable per call) so nothing silently tries to walk 2^200 codewords;
_cap_limit checks its override and the harness's coset-cap override alike.
"""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from . import _bitenum
from .bfcore import MAX_M, TruthTable, _check_m, _mobius_bits, monomial_tt
from .errors import CapExceededError, ParameterError

DEFAULT_DIMENSION_CAP = 26


def _cap_limit(override: int | None, default: int, what: str) -> int:
    """The effective limit of a cap: the override, which must be a
    nonnegative int, else the default."""
    if override is None:
        return default
    if not isinstance(override, int) or override < 0:
        raise ParameterError(f"{what} override must be a nonnegative int, got {override!r}")
    return override


@dataclass(frozen=True)
class RMParams:
    """Parameters of RM(k,m), -1 <= k <= m; RM(-1,m) is the zero code {0}
    of length 2^m, so that the dual of every RM(k,m) is RM(m-k-1,m)."""

    k: int
    m: int

    def __post_init__(self) -> None:
        _check_m(self.m)
        if not isinstance(self.k, int) or not -1 <= self.k <= self.m:
            raise ParameterError(f"order k must satisfy -1 <= k <= m, got k={self.k!r}, m={self.m}")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def dimension(self) -> int:
        return sum(comb(self.m, j) for j in range(self.k + 1))

    def __str__(self) -> str:
        return f"{{0}}^{self.n}" if self.k < 0 else f"RM({self.k},{self.m})"


def dual_params(p: RMParams) -> RMParams:
    """The orthogonal code RM(m-k-1, m): the zero code for k = m, RM(m,m)
    for the zero code."""
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


def monomial_basis(p: RMParams, lowest: int = 0) -> list[TruthTable]:
    """Generator rows of RM(k,m): all monomials of degree <= k in
    graded-lexicographic order (by degree, then variable indices), or
    only those of degree lowest..k."""
    return [
        monomial_tt(p.m, combo)
        for d in range(lowest, p.k + 1)
        for combo in itertools.combinations(range(1, p.m + 1), d)
    ]


def require_cap(dim: int, cap: int | None, what: str) -> None:
    """Raise CapExceededError if enumerating a span of dimension dim
    exceeds the effective enumeration cap."""
    limit = _cap_limit(cap, DEFAULT_DIMENSION_CAP, "cap")
    if dim > limit:
        raise CapExceededError(
            f"{what} needs dimension {dim} > enumeration cap {limit} "
            "(raise the cap explicitly)"
        )


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
    if p.k < 1:
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
    every code, the zero code included)."""
    if t.m != p.m:
        raise ParameterError(f"table has m={t.m}, code has m={p.m}")
    return _mobius_bits(t.bits, t.m) & _high_degree_mask(p.m, p.k) == 0
