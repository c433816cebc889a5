"""An oracle for coset weight distributions that shares nothing with
harness._dual_table but the span walker.  The dual words orthogonal to
the rep are a subcode of the dual, walked unkeyed; its histogram b and
the dual's B give

    d_j = 2^(K-n) sum_i (2 b_i - B_i) P_j(i;n)

by dense Krawtchouk columns (the recurrence in the argument i, where the
package's transforms use rows and the recurrence in the degree).

The positions that index the cosets have their own oracle here too:
eliminated_pivots, the information set by Gaussian elimination.  So has
the span walker: iter_span walks a span one Python int at a time.  And
so have the censuses: coset_representatives lists one table per coset,
and balanced_count_of_coset counts one coset's balanced words by its own
walk of the code.  The truth tables' own oracles live here as well:
bit reads one position, and anf_from_tt, with anf_degree, gives the ANF
whose degree decides rm_membership."""

from functools import lru_cache

from rmlab import _bitenum
from rmlab._bitenum import SpanCounter
from rmlab.bfcore import AnfMonomialSet, TruthTable, _mobius_bits
from rmlab.errors import ParameterError
from rmlab.harness import Scope, _build_rep, _capped_rep_basis
from rmlab.krawtchouk import central_column, kraw_column
from rmlab.rmcodes import RMParams, WeightDistribution, code_counter, dual_params, monomial_basis, require_cap


def iter_span(basis: list[int], offset: int = 0):
    """Yield every element of {offset XOR span(basis)} as a packed int, in
    Gray order (consecutive elements differ by one basis vector): the
    reference walk that the SpanCounter tests compare the block walk against."""
    cur = offset
    yield cur
    for step in range(1, 1 << len(basis)):
        cur ^= basis[(step & -step).bit_length() - 1]
        yield cur


def coset_representatives(code: RMParams, scope: Scope, coset_cap: int | None = None):
    """One representative per nontrivial coset: nonzero vectors on the
    positions u with popcount(u) > k (FULL_SPACE) or nonzero combinations
    of the degree-(k+1) monomials (WITHIN_NEXT_ORDER), in counting order
    of the combination index."""
    basis = _capped_rep_basis(code, scope, coset_cap)
    for g in range(1, 1 << len(basis)):
        yield TruthTable(code.m, _build_rep(basis, g))


def balanced_count_of_coset(code: RMParams, rep: TruthTable, cap: int | None = None) -> int:
    """Words of weight n/2 in code + rep, by exhaustive enumeration
    (rep = 0 gives the code's own balanced count)."""
    if rep.m != code.m:
        raise ParameterError(f"rep has m={rep.m}, code has m={code.m}")
    require_cap(code.dimension, cap, f"counting balanced words in a coset of {code}")
    return int(code_counter(code).balanced_counts(_bitenum._to_words([rep.bits], code.n))[0])


def span_distribution(basis: list[int], n: int) -> WeightDistribution:
    return WeightDistribution.from_dense(SpanCounter(basis, n).weight_histogram().tolist())


def orthogonal_profile(code: RMParams, rep: TruthTable) -> tuple[WeightDistribution, WeightDistribution]:
    """(B, b): the dual's distribution, and that of its words orthogonal to
    rep (rep outside the code).  The subcode's basis drops one generator p
    with odd parity against rep and XORs p into every other odd one."""
    dual = [t.bits for t in monomial_basis(dual_params(code))]
    odd = [(g & rep.bits).bit_count() % 2 for g in dual]
    assert any(odd), "rep lies in the code"
    p = dual[odd.index(1)]
    sub = [g ^ p if o else g for g, o in zip(dual, odd) if g != p]
    return span_distribution(dual, code.n), span_distribution(sub, code.n)


def eliminated_pivots(p: RMParams) -> tuple[int, ...]:
    """Independent oracle: the pivot columns of the reduced row-echelon
    form of the monomial generator matrix, by Gaussian elimination."""
    rows = [t.bits for t in monomial_basis(p)]
    n = p.n
    pivots = []
    for pos in range(n):
        if not rows:
            break
        colbit = 1 << (n - 1 - pos)
        hit = next((i for i, r in enumerate(rows) if r & colbit), None)
        if hit is None:
            continue
        pivot = rows.pop(hit)
        rows = [r ^ pivot if r & colbit else r for r in rows]
        pivots.append(pos)
    return tuple(pivots)


@lru_cache(maxsize=None)
def kraw_columns(n: int) -> tuple[list[int], ...]:
    return tuple(kraw_column(j, n) for j in range(n + 1))


def dense_transform(coeffs: dict[int, int], K: int, n: int) -> WeightDistribution:
    """2^(K-n) sum_i c_i P_j(i;n) for every j, every division checked exact."""
    dense = []
    for col in kraw_columns(n):
        q, r = divmod(sum(c * col[i] for i, c in coeffs.items()), 1 << (n - K))
        assert r == 0
        dense.append(q)
    return WeightDistribution.from_dense(dense)


def coset_distribution(code: RMParams, rep: TruthTable) -> WeightDistribution:
    B, b = orthogonal_profile(code, rep)
    return dense_transform({w: 2 * b[w] - c for w, c in B.pairs}, code.dimension, code.n)


def balanced_gap(code: RMParams, rep: TruthTable) -> int:
    """The code's balanced words minus the coset's,
    2^(K-n+1) sum_i (B_i - b_i) K(i,n), with K(i,n) = P_{n/2}(i;n)."""
    B, b = orthogonal_profile(code, rep)
    col = central_column(code.n)
    q, r = divmod(2 * sum((c - b[w]) * col[w] for w, c in B.pairs), 1 << (code.n - code.dimension))
    assert r == 0
    return q


def bit(t: TruthTable, i: int) -> int:
    """Value f(x) at table position i."""
    if not 0 <= i < t.n:
        raise ParameterError(f"position {i} out of range 0..{t.n - 1}")
    return (t.bits >> (t.n - 1 - i)) & 1


def anf_from_tt(t: TruthTable) -> AnfMonomialSet:
    """ANF of a truth table via the fast Moebius transform."""
    coef = _mobius_bits(t.bits, t.m)
    n = t.n
    monomials = []
    while coef:
        low = coef & -coef
        u = n - 1 - (low.bit_length() - 1)  # point index of this coefficient
        monomials.append(frozenset(j for j in range(1, t.m + 1) if (u >> (t.m - j)) & 1))
        coef ^= low
    return AnfMonomialSet(t.m, frozenset(monomials))


def anf_degree(anf: AnfMonomialSet) -> int | None:
    """Max monomial size; None for the zero function (no monomials)."""
    if not anf.monomials:
        return None
    return max(len(s) for s in anf.monomials)
