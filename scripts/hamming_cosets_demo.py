#!/usr/bin/env python3
"""Closed forms for the balanced-word counts of RM(m-2,m) (the extended
Hamming code) and of each nontrivial coset inside RM(m-1,m), tabulated
against the dual-side transform.

The closed forms are

    in_code   = [ C(n,n/2) + (n-1) C(n/2,n/4) ] / n
    per_coset = [ C(n,n/2) -       C(n/2,n/4) ] / n

with n = 2^m.  The transform column recomputes both counts from walks
of the dual RM(1,m): in_code by MacWilliams from its distribution, and
per_coset from the dual table of one degree-(m-1) monomial
representative (coset_weight_distribution).
"""

import argparse
import sys

from rmlab.bfcore import AnfMonomialSet, tt_from_anf
from rmlab.harness import coset_weight_distribution
from rmlab.rmcodes import RMParams, dual_params, rm_weight_distribution, unlimited_int_digits
from rmlab.transforms import hamming_closed_forms, macwilliams


def transform_pair(m: int) -> tuple[int, int]:
    code = RMParams(m - 2, m)
    n = code.n
    B = rm_weight_distribution(dual_params(code))
    in_code = macwilliams(B, code.dimension, n)[n // 2]
    rep = tt_from_anf(AnfMonomialSet(m, frozenset([frozenset(range(1, m))])))
    per_coset = coset_weight_distribution(code, rep)[n // 2]
    return in_code, per_coset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=8, help="largest m to tabulate")
    args = parser.parse_args()
    if args.max_m < 3:
        parser.error("--max-m must be at least 3")

    header = f"{'m':>2} {'in_code':>24} {'per_coset':>24} {'gap':>12} transform"
    print(header)
    # the counts pass int -> str's default limit of 4300 digits from m = 14
    with unlimited_int_digits():
        for m in range(3, args.max_m + 1):
            in_code, per_coset = hamming_closed_forms(m)
            agrees = (in_code, per_coset) == transform_pair(m)
            print(
                f"{m:>2} {in_code:>24} {per_coset:>24} {in_code - per_coset:>12} "
                f"{'agrees' if agrees else 'DISAGREES'}"
            )
            if not agrees:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
