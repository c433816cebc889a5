"""rmlab command line: exact Reed-Muller weight distributions, coset
distributions, Walsh spectra, Krawtchouk values, claim verification and
coset censuses.

Exit codes: 0 success / claim passed, 1 claim failed, 2 invalid
parameters, 3 enumeration cap exceeded, 4 exactness check failed (an
exact identity or an asserted integer bound did not hold, so no result
is printed).  RMLAB_CAP_DIM overrides the default enumeration-dimension
cap; --cap overrides both.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .bfcore import AnfMonomialSet, TruthTable, tt_from_anf
from .errors import CapExceededError, ExactnessError, ParameterError
from .harness import (
    Method,
    Scope,
    census_balanced,
    coset_weight_distribution,
    require_workers,
    verify_hamming_coset_equidistribution,
    verify_oddweight_cosets,
    verify_quotient_conjecture,
    verify_rm1_proposition,
    verify_theorem_basic,
)
from .krawtchouk import central_K, central_column, kraw_column, kraw_direct
from .rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    rm_weight_distribution,
    unlimited_int_digits,
)
from .spectral import wht
from .transforms import macwilliams


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _two_column(header: tuple[str, str], rows: list[tuple[str, str]]) -> str:
    wa = max(len(header[0]), *(len(a) for a, _ in rows)) if rows else len(header[0])
    wb = max(len(header[1]), *(len(b) for _, b in rows)) if rows else len(header[1])
    lines = [f"{header[0]:>{wa}} {header[1]:>{wb}}"]
    lines += [f"{a:>{wa}} {b:>{wb}}" for a, b in rows]
    return "\n".join(lines) + "\n"


def _format_distribution(dist: WeightDistribution, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dist.to_json_obj()) + "\n"
    rows = [(str(w), str(c)) for w, c in dist.pairs]
    if fmt == "csv":
        return "weight,count\n" + "".join(f"{a},{b}\n" for a, b in rows)
    return _two_column(("weight", "count"), rows)


def _format_values(pairs: list[tuple[int, int]], fmt: str, index_name: str) -> str:
    if fmt == "json":
        values = [v for _, v in pairs]
        return json.dumps(values[0] if len(values) == 1 else values) + "\n"
    if fmt == "csv":
        return f"{index_name},value\n" + "".join(f"{i},{v}\n" for i, v in pairs)
    return " ".join(str(v) for _, v in pairs) + "\n"


def _cmd_kraw(args: argparse.Namespace) -> int:
    n = args.n
    if args.central and args.j is not None:
        raise ParameterError("--central and --j are mutually exclusive")
    if not args.central and args.j is None:
        raise ParameterError("need either --central or --j")
    if args.all == (args.i is not None):
        raise ParameterError("need exactly one of --i or --all")
    if args.central:
        if args.all:
            pairs = list(enumerate(central_column(n)))
        else:
            pairs = [(args.i, central_K(args.i, n))]
    else:
        if args.all:
            pairs = list(enumerate(kraw_column(args.j, n)))
        else:
            pairs = [(args.i, kraw_direct(args.j, args.i, n))]
    _emit(_format_values(pairs, args.format, "i"), args.output)
    return 0


def _cmd_weightdist(args: argparse.Namespace) -> int:
    code = RMParams(args.k, args.m)
    if args.method == "brute":
        dist = rm_weight_distribution(code, args.cap)
    else:
        dual = dual_params(code)
        B = rm_weight_distribution(dual, args.cap)
        dist = macwilliams(B, code.dimension, code.n)
    _emit(_format_distribution(dist, args.format), args.output)
    return 0


def _cmd_cosetdist(args: argparse.Namespace) -> int:
    code = RMParams(args.k, args.m)
    rep = TruthTable.from_hex(args.m, args.rep)
    dist = coset_weight_distribution(code, rep, Method(args.method), args.cap)
    _emit(_format_distribution(dist, args.format), args.output)
    return 0


def _cmd_wht(args: argparse.Namespace) -> int:
    if args.hex is not None:
        f = TruthTable.from_hex(args.m, args.hex)
    else:
        f = tt_from_anf(AnfMonomialSet.from_str(args.m, args.anf))
    spectrum = wht(f)
    if args.format == "json":
        _emit(json.dumps(spectrum.to_json_obj()) + "\n", args.output)
    else:
        pairs = list(enumerate(spectrum.values))
        _emit(_format_values(pairs, args.format, "omega"), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    require_workers(args.workers)
    if args.claim == "theorem5":
        verdict = verify_theorem_basic(
            args.k, args.m, Method(args.method), args.workers,
            args.cap, args.coset_cap, args.checkpoint,
        )
    elif args.claim == "conjecture":
        verdict = verify_quotient_conjecture(
            args.k, args.m, args.workers, args.cap, args.coset_cap, args.checkpoint
        )
    elif args.claim == "rm1":
        if args.exhaustive and args.sampled:
            raise ParameterError("--exhaustive and --sampled are mutually exclusive")
        exhaustive = True if args.exhaustive else (False if args.sampled else None)
        verdict = verify_rm1_proposition(
            args.m, exhaustive, args.samples, args.seed, args.coset_cap
        )
    elif args.claim == "oddweight":
        verdict = verify_oddweight_cosets(args.m, args.cap, args.coset_cap)
    else:
        verdict = verify_hamming_coset_equidistribution(args.m, args.cap, args.coset_cap)
    _emit(json.dumps(verdict.to_json_obj(), indent=2) + "\n", args.output)
    return 0 if verdict.passed else 1


def _cmd_census(args: argparse.Namespace) -> int:
    code = RMParams(args.k, args.m)
    scope = Scope.FULL_SPACE if args.scope == "full" else Scope.WITHIN_NEXT_ORDER
    census = census_balanced(code, scope, args.workers, args.cap, args.coset_cap, args.checkpoint)
    if args.format == "csv":
        buf = io.StringIO()
        census.to_csv(buf)
        _emit(buf.getvalue(), args.output)
    elif args.format == "json":
        entries = [[rep_hex, str(c)] for rep_hex, c in census.rows()]
        obj = {
            "k": args.k,
            "m": args.m,
            "scope": scope.name,
            "code_balanced_count": str(census.code_balanced_count),
            "entries": entries,
        }
        _emit(json.dumps(obj) + "\n", args.output)
    else:
        rows = [(rep_hex, str(c)) for rep_hex, c in census.rows()]
        _emit(_two_column(("rep_hex", "balanced_count"), rows), args.output)
    return 0


def _add_output_args(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "csv", "table")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0], help="output format")
    p.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="Exact weight distributions of Reed-Muller codes and their cosets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kraw = sub.add_parser("kraw", help="Krawtchouk polynomial values P_j(i;n)")
    kraw.add_argument("--n", type=int, required=True, help="code length n")
    kraw.add_argument("--j", type=int, help="polynomial degree j")
    kraw.add_argument("--central", action="store_true", help="use the central degree j = n/2")
    kraw.add_argument("--i", type=int, help="evaluation point i")
    kraw.add_argument("--all", action="store_true", help="print the whole column i = 0..n")
    _add_output_args(kraw, ("table", "json", "csv"))
    kraw.set_defaults(func=_cmd_kraw)

    wd = sub.add_parser("weightdist", help="weight distribution of RM(k,m)")
    wd.add_argument("-k", type=int, required=True, help="order k")
    wd.add_argument("-m", type=int, required=True, help="variable count m")
    wd.add_argument("--method", choices=("brute", "macwilliams"), default="brute")
    wd.add_argument("--cap", type=int, help="enumeration dimension cap override")
    _add_output_args(wd)
    wd.set_defaults(func=_cmd_weightdist)

    cd = sub.add_parser("cosetdist", help="weight distribution of RM(k,m) + rep")
    cd.add_argument("-k", type=int, required=True)
    cd.add_argument("-m", type=int, required=True)
    cd.add_argument("--rep", required=True, metavar="HEX", help="coset representative, hex truth table")
    cd.add_argument("--method", choices=("transform", "brute"), default="transform")
    cd.add_argument("--cap", type=int, help="enumeration dimension cap override")
    _add_output_args(cd)
    cd.set_defaults(func=_cmd_cosetdist)

    wh = sub.add_parser("wht", help="Walsh-Hadamard spectrum of a Boolean function")
    wh.add_argument("-m", type=int, required=True)
    src = wh.add_mutually_exclusive_group(required=True)
    src.add_argument("--hex", metavar="HEX", help="truth table as hex")
    src.add_argument("--anf", metavar="EXPR", help="ANF like Y1Y2+Y3+1 (0 for the zero function)")
    _add_output_args(wh)
    wh.set_defaults(func=_cmd_wht)

    ver = sub.add_parser("verify", help="verify a claim; exit 0 on pass, 1 on fail")
    claims = ver.add_subparsers(dest="claim", required=True)

    t5 = claims.add_parser("theorem5", help="strict maximum over all cosets of RM(k,m)")
    t5.add_argument("-k", type=int, required=True)
    t5.add_argument("-m", type=int, required=True)
    t5.add_argument("--method", choices=("brute", "transform"), default="brute")
    conj = claims.add_parser("conjecture", help="strict maximum within RM(k+1,m)")
    conj.add_argument("-k", type=int, required=True)
    conj.add_argument("-m", type=int, required=True)
    rm1 = claims.add_parser("rm1", help="first-order coset balanced-count bound")
    rm1.add_argument("-m", type=int, required=True)
    rm1.add_argument("--exhaustive", action="store_true", help="check every coset (m <= 4)")
    rm1.add_argument("--sampled", action="store_true", help="check random non-affine functions")
    rm1.add_argument("--samples", type=int, default=10_000)
    rm1.add_argument("--seed", type=int, default=0)
    odd = claims.add_parser("oddweight", help="odd-weight cosets of RM(m-2,m) have no balanced words")
    odd.add_argument("-m", type=int, required=True)
    eq = claims.add_parser("equidist", help="cosets of RM(m-2,m) in RM(m-1,m) share one distribution")
    eq.add_argument("-m", type=int, required=True)
    for sp in (t5, conj, odd, eq):
        sp.add_argument("--cap", type=int, help="enumeration dimension cap override")
        if sp in (t5, conj):
            sp.add_argument("--checkpoint", metavar="PATH", help="resumable census checkpoint log")
    for sp in (t5, conj, rm1, odd, eq):
        sp.add_argument("--workers", type=int, default=1, help="worker processes for censuses")
        sp.add_argument("--coset-cap", type=int, help="coset-count cap override")
        sp.add_argument("--output", metavar="PATH", help="write the verdict JSON to a file")
        sp.set_defaults(func=_cmd_verify)

    cen = sub.add_parser("census", help="balanced-word count of every coset in scope")
    cen.add_argument("-k", type=int, required=True)
    cen.add_argument("-m", type=int, required=True)
    cen.add_argument("--scope", choices=("full", "next"), default="full")
    cen.add_argument("--workers", type=int, default=1)
    cen.add_argument("--checkpoint", metavar="PATH")
    cen.add_argument("--cap", type=int, help="enumeration dimension cap override")
    cen.add_argument("--coset-cap", type=int, help="coset-count cap override")
    _add_output_args(cen, ("csv", "json", "table"))
    cen.set_defaults(func=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with unlimited_int_digits():
            return args.func(args)
    except ParameterError as exc:
        print(f"rmlab: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"rmlab: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ExactnessError as exc:
        print(f"rmlab: exactness check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
