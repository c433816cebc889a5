"""Exact binary Krawtchouk polynomial values and their sign structure.

P_k(x; n) = sum_j (-1)^j C(x, j) C(n-x, k-j), with C(a, b) = 0 for
b > a as math.comb gives it, evaluated at integer arguments
0 <= x <= n, always in exact integer arithmetic: a column
(fixed k, every x) by the recurrence in x, a row (fixed x, every k) by
the recurrence in k up to n/2 and the reflection P_{n-k}(x; n) =
(-1)^x P_k(x; n) above it (MacWilliams & Sloane, ch. 5 sec. 7); rows
are built per transform and never cached, so a run holds no more rows
than its largest transform.  The central value K(i, n) = P_{n/2}(i; n)
(n even), the column of degree n/2, drives the balanced-weight entry of
every coset weight distribution, and its sign depends only on i mod 4:
zero for odd i, negative for i = 2 (mod 4), positive for i = 0 (mod 4).
"""

from __future__ import annotations

import enum
from math import comb

from .errors import ExactnessError, ParameterError


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
    return sum((-1) ** j * comb(x, j) * comb(n - x, k - j) for j in range(min(k, x) + 1))


def kraw_column(k: int, n: int) -> list[int]:
    """[P_k(i; n) for i in 0..n] via the three-term recurrence in the
    argument i:  (n - i) P_k(i+1) = (n - 2k) P_k(i) - i P_k(i-1),
    from P_k(-1) = 0 and P_k(0) = C(n, k).

    Every division is checked exact; a remainder means the recurrence was
    misapplied and we refuse to return a wrong integer.
    """
    _check_kraw_args(k, 0, n)
    col = [0, comb(n, k)]
    for i in range(n):
        num = (n - 2 * k) * col[-1] - i * col[-2]
        q, r = divmod(num, n - i)
        if r:
            raise ExactnessError(
                f"inexact recurrence step at k={k}, i={i}, n={n}: {num} / {n - i}"
            )
        col.append(q)
    return col[1:]


def kraw_row(x: int, n: int) -> tuple[int, ...]:
    """(P_j(x; n) for j in 0..n) via the three-term recurrence in the
    degree j:  (j + 1) P_{j+1}(x) = (n - 2x) P_j(x) - (n - j + 1) P_{j-1}(x),
    from P_{-1} = 0 and P_0 = 1, for j <= n/2 only; the degrees above
    are the reflection P_{n-j}(x) = (-1)^x P_j(x).

    Every division is checked exact, as in kraw_column.
    """
    _check_kraw_args(0, x, n)
    row = [0, 1]
    for j in range(n // 2):
        num = (n - 2 * x) * row[-1] - (n - j + 1) * row[-2]
        q, r = divmod(num, j + 1)
        if r:
            raise ExactnessError(
                f"inexact degree recurrence at x={x}, j={j}, n={n}: {num} / {j + 1}"
            )
        row.append(q)
    mirror = row[n - n // 2:0:-1]
    return tuple(row[1:] + ([-v for v in mirror] if x & 1 else mirror))


def _check_central_args(n: int, i: int = 0) -> None:
    if n <= 0 or n % 2:
        raise ParameterError(f"central column needs even n >= 2, got {n}")
    if not 0 <= i <= n:
        raise ParameterError(f"argument i must be in 0..n, got i={i}, n={n}")


def central_K(i: int, n: int) -> int:
    """K(i, n) = P_{n/2}(i; n) for even n, once n and i are checked, in
    closed form: 0 at odd i, (-1)^(i/2) C(n, n/2) C(n/2, i/2) / C(n, i)
    at even i, the division checked exact."""
    _check_central_args(n, i)
    if i % 2:
        return 0
    q, r = divmod(comb(n, n // 2) * comb(n // 2, i // 2), comb(n, i))
    if r:
        raise ExactnessError(f"inexact closed form of K(i, n) at i={i}, n={n}")
    return -q if i // 2 % 2 else q


def central_column(n: int) -> list[int]:
    """[K(i, n) for i in 0..n], n even: the column of degree n/2."""
    _check_central_args(n)
    return kraw_column(n // 2, n)


class SignClass(enum.Enum):
    """Sign of the central Krawtchouk value K(i, n), fixed by i mod 4."""

    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


def sign_class(i: int, n: int) -> SignClass:
    """Sign of K(i, n) from the residue of i mod 4 (n even): odd i gives
    zero, i = 2 (mod 4) negative, i = 0 (mod 4) positive."""
    _check_central_args(n, i)
    if i % 2:
        return SignClass.ZERO
    if i % 4 == 2:
        return SignClass.NEGATIVE
    return SignClass.POSITIVE
