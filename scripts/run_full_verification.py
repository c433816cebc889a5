#!/usr/bin/env python3
"""Run every claim verification at its standard parameters and print one
verdict JSON per line.  Exits 1 if any claim fails.

The strict maximum runs by the dual-side transform wherever brute
enumeration is slow or out of reach (m = 6); the brute run over all
65535 cosets of RM(2,5) and the m=5 equidistribution sweep are included
only with --slow.
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


def planned_runs(slow: bool, workers: int):
    yield lambda: verify_theorem_basic(1, 3, workers=workers)
    yield lambda: verify_theorem_basic(2, 4, workers=workers)
    yield lambda: verify_theorem_basic(3, 4, workers=workers)
    for k, m in [(3, 5), (4, 5), (2, 5), (4, 6), (5, 6)]:
        yield lambda k=k, m=m: verify_theorem_basic(k, m, method=Method.TRANSFORM)
    if slow:
        yield lambda: verify_theorem_basic(2, 5, workers=workers)
    for k, m in [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]:
        yield lambda k=k, m=m: verify_quotient_conjecture(k, m, workers=workers)
    for m in (3, 4):
        yield lambda m=m: verify_rm1_proposition(m)
    for m in range(5, 11):
        yield lambda m=m: verify_rm1_proposition(m, exhaustive=False)
    for m in (3, 4, 5):
        yield lambda m=m: verify_oddweight_cosets(m)
    for m in (3, 4) + ((5,) if slow else ()):
        yield lambda m=m: verify_hamming_coset_equidistribution(m)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1, help="census worker processes")
    parser.add_argument("--slow", action="store_true", help="include the long runs")
    args = parser.parse_args()

    failures = 0
    for run in planned_runs(args.slow, args.workers):
        verdict = run()
        print(json.dumps(verdict.to_json_obj()))
        if not verdict.passed:
            failures += 1
    print(f"# {failures} failing claim(s)" if failures else "# all claims passed",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
