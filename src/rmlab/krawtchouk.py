"""Exact binary Krawtchouk polynomial values and their sign structure.

P_k(x; n) = sum_j (-1)^j C(x, j) C(n-x, k-j), evaluated at integer
arguments 0 <= x <= n, always in exact integer arithmetic: a column
(fixed k, every x) by the recurrence in x, a row (fixed x, every k) by
the recurrence in k.  The central value K(i, n) = P_{n/2}(i; n) (n even),
the column of degree n/2, drives the balanced-weight entry of every coset
weight distribution, and its sign depends only on i mod 4: zero for odd
i, negative for i = 2 (mod 4), positive for i = 0 (mod 4).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import comb

from .errors import ExactnessError, ParameterError


def binom(a: int, b: int) -> int:
    """C(a, b) with the coding-theory convention C(a, b) = 0 for b < 0 or
    b > a; a must be a nonnegative int."""
    if a < 0:
        raise ParameterError(f"binom needs a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _check_kraw_args(k: int, x: int, n: int) -> None:
    if n < 0:
        raise ParameterError(f"length n must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ParameterError(f"degree k must be in 0..n, got k={k}, n={n}")
    if not 0 <= x <= n:
        raise ParameterError(f"argument x must be in 0..n, got x={x}, n={n}")


def kraw_direct(k: int, x: int, n: int) -> int:
    """P_k(x; n) straight from the defining alternating sum."""
    _check_kraw_args(k, x, n)
    return sum(
        (-1) ** j * comb(x, j) * binom(n - x, k - j) for j in range(min(k, x) + 1)
    )


def kraw_column(k: int, n: int) -> list[int]:
    """[P_k(i; n) for i in 0..n] via the three-term recurrence in the
    argument i:  (n - i) P_k(i+1) = (n - 2k) P_k(i) - i P_k(i-1).

    Every division is checked exact; a remainder means the recurrence was
    misapplied and we refuse to return a wrong integer.
    """
    _check_kraw_args(k, 0, n)
    col = [0] * (n + 1)
    col[0] = comb(n, k)
    if n == 0:
        return col
    col[1] = kraw_direct(k, 1, n)
    for i in range(1, n):
        num = (n - 2 * k) * col[i] - i * col[i - 1]
        q, r = divmod(num, n - i)
        if r:
            raise ExactnessError(
                f"inexact recurrence step at k={k}, i={i}, n={n}: {num} / {n - i}"
            )
        col[i + 1] = q
    return col


# Cached rows, keyed by (x, n).  2048 holds a full support (n + 1 rows)
# for every n <= 1024, so one transform never evicts its own rows and a
# run of transforms over one support reuses them all.
@lru_cache(maxsize=2048)
def kraw_row(x: int, n: int) -> tuple[int, ...]:
    """(P_j(x; n) for j in 0..n) via the three-term recurrence in the
    degree j:  (j + 1) P_{j+1}(x) = (n - 2x) P_j(x) - (n - j + 1) P_{j-1}(x),
    from P_0 = 1 and P_1 = n - 2x.

    Every division is checked exact, as in kraw_column.
    """
    _check_kraw_args(0, x, n)
    row = [1] * (n + 1)
    if n == 0:
        return tuple(row)
    row[1] = n - 2 * x
    for j in range(1, n):
        num = (n - 2 * x) * row[j] - (n - j + 1) * row[j - 1]
        q, r = divmod(num, j + 1)
        if r:
            raise ExactnessError(
                f"inexact degree recurrence at x={x}, j={j}, n={n}: {num} / {j + 1}"
            )
        row[j + 1] = q
    return tuple(row)


def central_K(i: int, n: int) -> int:
    """K(i, n) = P_{n/2}(i; n) for even n."""
    col = central_column(n)
    if not 0 <= i <= n:
        raise ParameterError(f"argument i must be in 0..n, got i={i}, n={n}")
    return col[i]


def central_column(n: int) -> list[int]:
    """[K(i, n) for i in 0..n], n even: the column of degree n/2."""
    if n <= 0 or n % 2:
        raise ParameterError(f"central column needs even n >= 2, got {n}")
    return kraw_column(n // 2, n)


class SignClass(enum.Enum):
    """Sign of the central Krawtchouk value K(i, n), fixed by i mod 4."""

    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


def sign_class(i: int, n: int) -> SignClass:
    """Sign of K(i, n) from the residue of i mod 4 (n even): odd i gives
    zero, i = 2 (mod 4) negative, i = 0 (mod 4) positive."""
    if n <= 0 or n % 2:
        raise ParameterError(f"sign classes need even n >= 2, got {n}")
    if not 0 <= i <= n:
        raise ParameterError(f"argument i must be in 0..n, got i={i}, n={n}")
    if i % 2:
        return SignClass.ZERO
    if i % 4 == 2:
        return SignClass.NEGATIVE
    return SignClass.POSITIVE
