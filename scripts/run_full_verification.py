#!/usr/bin/env python3
"""Run every claim verification at its standard parameters and print one
verdict JSON per line.  Exits 1 if any claim fails.

The strict maximum runs by brute enumeration at m <= 4 and by the
dual-side transform at (2,3), at m = 5 and 6 (brute cannot reach m = 6)
and at (5,7), (6,7), (6,8) and (7,8), the pairs at m = 7 and 8 whose
cosets fit the default coset cap.  RM(2,5), the paper's headline pair,
is checked both ways: its brute census over 65535 cosets takes 0.26-0.33
s (ten cold runs, 2 shared cores, Python 3.11, numpy 2.4), and the whole
script 1.0-1.2 s (five runs).  The conjecture runs by brute census at six pairs with
m <= 5 and at (1,6).  The odd-weight and equidistribution checks read
the same dual table and run at m = 3..8, 10 ms or less each.
"""

import argparse
import json
import sys

from rmlab.harness import (
    Method,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)


def planned_runs():
    yield lambda: verify_theorem_basic(1, 3)
    yield lambda: verify_theorem_basic(2, 4)
    yield lambda: verify_theorem_basic(3, 4)
    for k, m in [(3, 5), (4, 5), (2, 5), (4, 6), (5, 6), (2, 3), (5, 7), (6, 7), (6, 8), (7, 8)]:
        yield lambda k=k, m=m: verify_theorem_basic(k, m, method=Method.TRANSFORM)
    yield lambda: verify_theorem_basic(2, 5)
    for k, m in [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (1, 6)]:
        yield lambda k=k, m=m: verify_quotient_conjecture(k, m)
    for m in (3, 4):
        yield lambda m=m: verify_rm1_proposition(m)
    for m in range(5, 13):
        yield lambda m=m: verify_rm1_proposition(m, exhaustive=False)
    for m in range(3, 9):
        yield lambda m=m: verify_oddweight_cosets(m)
    for m in range(3, 9):
        yield lambda m=m: verify_hamming_coset_equidistribution(m)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    failures = 0
    for run in planned_runs():
        verdict = run()
        print(json.dumps(verdict.to_json_obj()))
        if not verdict.passed:
            failures += 1
    print(f"# {failures} failing claim(s)" if failures else "# all claims passed",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
