"""The MacWilliams transform and the closed forms for cosets of
RM(m-2,m) inside RM(m-1,m).

With B the weight distribution of the dual of a K-dimensional code A of
length n, and b_i the number of dual words of weight i orthogonal to a
coset representative a (a not in A):

    A_j = 2^(K-n) sum_i B_i P_j(i;n)            (code)
    d_j = 2^(K-n) sum_i (2 b_i - B_i) P_j(i;n)  (coset A + a)

Both are evaluated by _transform purely in exact integers over the
sparse supports, from one Krawtchouk row (P_j(i;n) for j = 0..n, by
kraw_row) per pair of support weights {i, n-i}, since P_j(n-i;n) =
(-1)^j P_j(i;n): O(n |support|), about half the big-integer work of
one row per weight.  Every division by 2^(n-K) is checked exact and
any remainder (or a negative entry) is reported as an inconsistency,
never rounded.  macwilliams is the code's transform; the coset's is
harness._dual_table's, whose Hadamard transform over syndromes gives
each rep's 2 b_i - B_i at once.
"""

from __future__ import annotations

import operator
from math import comb

from .errors import ExactnessError, ParameterError
from .krawtchouk import kraw_row
from .rmcodes import WeightDistribution


def _transform(coeffs: list[tuple[int, int]], K: int, n: int, what: str) -> WeightDistribution:
    """sum_i c_i P_j(i;n) scaled by 2^(K-n), for j = 0..n, from one
    Krawtchouk row per support pair {i, n-i}: P_j(n-i;n) = (-1)^j P_j(i;n)
    merges the pair's coefficients into c_i + c_{n-i} for even j and
    c_i - c_{n-i} for odd j.  Checked exact and nonnegative entry-wise,
    and checked to total 2^K.  K is validated by the caller."""
    shift = n - K
    even: dict[int, int] = {}
    odd: dict[int, int] = {}
    for i, c in coeffs:
        x = min(i, n - i)
        even[x] = even.get(x, 0) + c
        odd[x] = odd.get(x, 0) + (c if i == x else -c)
    rows = [kraw_row(x, n) for x in even]
    parity = [list(even.values()), list(odd.values())]
    pairs = []
    for j, column in enumerate(zip(*rows)):
        s = sum(map(operator.mul, parity[j & 1], column))
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
    """Distribution of the K-dimensional code whose dual has distribution B,
    a distribution of length n summing to 2^(n-K)."""
    if B.n != n:
        raise ParameterError(f"dual distribution has length {B.n}, expected {n}")
    if not 0 <= K <= n:
        raise ParameterError(f"dimension K must be in 0..n, got K={K}, n={n}")
    if B.total != 1 << (n - K):
        raise ParameterError(f"dual distribution sums to {B.total}, expected 2^{n - K}")
    return _transform(list(B.pairs), K, n, "macwilliams")


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
