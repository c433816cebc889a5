"""MacWilliams and Assmus-Mattson weight-distribution transforms, the
balanced-count gap formula, and the closed forms for cosets of
RM(m-2,m) inside RM(m-1,m).

With B the weight distribution of the dual of a K-dimensional code A of
length n, and b_i the number of dual words of weight i orthogonal to a
coset representative a (a not in A):

    A_j = 2^(K-n) sum_i B_i P_j(i;n)            (code)
    d_j = 2^(K-n) sum_i (2 b_i - B_i) P_j(i;n)  (coset A + a)

Both are evaluated purely in exact integers over the sparse supports,
from one Krawtchouk row (P_j(i;n) for j = 0..n, by the recurrence in the
degree) per support weight i, so a transform costs O(n |support|);
every division by 2^(n-K) is checked exact and any remainder (or a
negative entry) is reported as an inconsistency, never rounded.  The
profile is the 1-bit-key case of harness's dual census, which keys each
dual word by its syndrome against a whole rep basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from . import _bitenum
from .bfcore import TruthTable
from .errors import ExactnessError, ParameterError
from .krawtchouk import central_column, kraw_row
from .rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    monomial_basis,
    require_cap,
    rm_membership,
)


@dataclass(frozen=True)
class CosetSpec:
    """A coset code + rep with rep validated to lie outside the code."""

    code: RMParams
    rep: TruthTable

    def __post_init__(self) -> None:
        if self.rep.m != self.code.m:
            raise ParameterError(f"rep has m={self.rep.m}, code has m={self.code.m}")
        if rm_membership(self.rep, self.code):
            raise ParameterError(
                f"representative {self.rep.to_hex()} lies in {self.code}; coset is trivial"
            )

    def to_json_obj(self) -> dict:
        return {"k": self.code.k, "m": self.code.m, "rep_hex": self.rep.to_hex()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CosetSpec":
        code = RMParams(obj["k"], obj["m"])
        return cls(code, TruthTable.from_hex(code.m, obj["rep_hex"]))

    @classmethod
    def from_json(cls, text: str) -> "CosetSpec":
        return cls.from_json_obj(json.loads(text))


class CosetDualProfile(WeightDistribution):
    """b_i: dual codewords of weight i that are orthogonal to the coset
    representative.  Same sparse layout as a weight distribution."""


def _check_dual(B: WeightDistribution, K: int, n: int) -> None:
    """B must be the distribution of a length-n code of dimension n - K."""
    if B.n != n:
        raise ParameterError(f"dual distribution has length {B.n}, expected {n}")
    if not 0 <= K <= n:
        raise ParameterError(f"dimension K must be in 0..n, got K={K}, n={n}")
    if B.total != 1 << (n - K):
        raise ParameterError(f"dual distribution sums to {B.total}, expected 2^{n - K}")


def _transform(coeffs: list[tuple[int, int]], K: int, n: int, what: str) -> WeightDistribution:
    """sum_i c_i P_j(i;n) scaled by 2^(K-n), for j = 0..n, from one
    Krawtchouk row per support weight i; checked exact and nonnegative
    entry-wise, and checked to total 2^K.  K is validated by the caller."""
    shift = n - K
    cs = [c for _, c in coeffs]
    rows = [kraw_row(i, n) for i, _ in coeffs]
    pairs = []
    for j, column in enumerate(zip(*rows)):
        s = sum(c * v for c, v in zip(cs, column))
        if s < 0:
            raise ExactnessError(f"{what}: negative entry at weight {j} (inconsistent input)")
        q, r = divmod(s, 1 << shift)
        if r:
            raise ExactnessError(f"{what}: entry at weight {j} not divisible by 2^{shift}")
        if q:
            pairs.append((j, q))
    out = WeightDistribution(n, tuple(pairs))
    if out.total != 1 << K:
        raise ExactnessError(f"{what}: output sums to {out.total}, expected 2^{K}")
    return out


def macwilliams(B: WeightDistribution, K: int, n: int) -> WeightDistribution:
    """Distribution of the K-dimensional code whose dual has distribution B."""
    _check_dual(B, K, n)
    return _transform(list(B.pairs), K, n, "macwilliams")


def coset_dual_profile(spec: CosetSpec, cap: int | None = None) -> CosetDualProfile:
    """Enumerate the dual code and count, by weight, the words orthogonal
    to the representative."""
    dual = dual_params(spec.code)
    require_cap(dual.dimension, cap, f"orthogonality profile over the dual {dual}")
    basis = [t.bits for t in monomial_basis(dual)]
    keys = [(b & spec.rep.bits).bit_count() & 1 for b in basis]
    hist = _bitenum.SpanCounter(basis, spec.code.n, keys, 1).weight_histogram()
    profile = CosetDualProfile.from_dense(hist[0].tolist())
    expected = 1 << (dual.dimension - 1)
    if profile.total != expected:
        raise ExactnessError(
            f"profile of {spec.to_json_obj()} sums to {profile.total}, expected {expected}"
        )
    return profile


def assmus_mattson(
    profile: CosetDualProfile, B: WeightDistribution, K: int, n: int
) -> WeightDistribution:
    """Distribution of the coset A + a from the orthogonality profile b
    of a against the dual and the dual's distribution B."""
    if profile.n != n:
        raise ParameterError("profile/distribution length mismatch")
    _check_dual(B, K, n)
    for w in set(profile.support) | set(B.support):
        if not 0 <= profile.count(w) <= B.count(w):
            raise ParameterError(f"b[{w}] = {profile.count(w)} exceeds B[{w}] = {B.count(w)}")
    coeffs: dict[int, int] = {w: -c for w, c in B.pairs}
    for w, c in profile.pairs:
        coeffs[w] = coeffs.get(w, 0) + 2 * c
    return _transform([(w, c) for w, c in coeffs.items() if c], K, n, "assmus_mattson")


def balanced_gap(
    B: WeightDistribution, profile: CosetDualProfile, K: int, n: int
) -> int:
    """Code-minus-coset difference of balanced-word counts,
    2^(K-n+1) sum_i (B_i - b_i) K(i,n), computed exactly.  Equals
    macwilliams(...)[n/2] - assmus_mattson(...)[n/2]."""
    if n <= 0 or n % 2:
        raise ParameterError(f"balanced gap needs even n >= 2, got {n}")
    if B.n != n or profile.n != n:
        raise ParameterError("profile/distribution length mismatch")
    col = central_column(n)
    s = sum((B.count(w) - profile.count(w)) * col[w] for w in set(B.support) | set(profile.support))
    q, r = divmod(2 * s, 1 << (n - K))
    if r:
        raise ExactnessError(f"balanced gap {2 * s} not divisible by 2^{n - K}")
    return q


def hamming_closed_forms(m: int) -> tuple[int, int]:
    """(balanced words in RM(m-2,m), balanced words in each nontrivial
    coset of it inside RM(m-1,m)):

        B = (1/n) [ C(n,n/2) + (n-1) C(n/2,n/4) ]
        d = (1/n) [ C(n,n/2) -         C(n/2,n/4) ]
    """
    if m < 3:
        raise ParameterError(f"closed forms need m >= 3, got {m}")
    n = 1 << m
    center = comb(n, n // 2)
    quarter = comb(n // 2, n // 4)
    b_num = center + (n - 1) * quarter
    d_num = center - quarter
    b_q, b_r = divmod(b_num, n)
    d_q, d_r = divmod(d_num, n)
    if b_r or d_r:
        raise ExactnessError(f"closed forms not integral at m={m}")
    return b_q, d_q
