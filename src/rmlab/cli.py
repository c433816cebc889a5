"""rmlab command line: exact Reed-Muller weight distributions, coset
distributions, Walsh spectra, Krawtchouk values, claim verification and
coset censuses.

Exit codes: 0 success / claim passed, 1 claim failed, 2 invalid
parameters (an unwritable --output or --checkpoint path among them), 3
enumeration cap exceeded, 4 exactness check failed (an exact identity or
an asserted integer bound did not hold, so no result is printed).  --cap
overrides the default enumeration-dimension cap.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import locale  # argparse's gettext imports it at its first message: load it here, not in main
import sys

from .bfcore import AnfMonomialSet, TruthTable, hex_layout, tt_from_anf
from .errors import CapExceededError, ExactnessError, ParameterError
from .harness import (
    Method,
    Scope,
    census_balanced,
    coset_weight_distribution,
    require_writable,
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


@contextlib.contextmanager
def _open_output(output: str | None):
    """stdout, or the named file opened for writing (an OSError there is an invalid parameter)."""
    if output is None:
        yield sys.stdout
        return
    try:
        with open(output, "w") as fh:
            yield fh
    except OSError as exc:
        raise ParameterError(f"cannot write {output}: {exc.strerror}") from exc


def _emit(text: str, output: str | None) -> None:
    with _open_output(output) as out:
        out.write(text)


def _two_column(header: tuple[str, str], rows: list[tuple[str, str]]) -> str:
    wa, wb = (max(map(len, column)) for column in zip(header, *rows))
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
    if args.all:
        pairs = list(enumerate(central_column(n) if args.central else kraw_column(args.j, n)))
    else:
        pairs = [(args.i, central_K(args.i, n) if args.central else kraw_direct(args.j, args.i, n))]
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
    if args.claim == "theorem5":
        verdict = verify_theorem_basic(args.k, args.m, Method(args.method),
                                       args.cap, args.coset_cap, args.checkpoint)
    elif args.claim == "conjecture":
        verdict = verify_quotient_conjecture(args.k, args.m, args.cap, args.coset_cap, args.checkpoint)
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
    scope = Scope(args.scope)
    census = census_balanced(code, scope, args.cap, args.coset_cap, args.checkpoint)
    # rows are written a chunk at a time: a census output can be gigabytes
    counts = [str(c) for c in census.counts]
    with _open_output(args.output) as out:
        if args.format == "csv":
            out.write("rep_hex,balanced_count\n")
            out.writelines(census.text_chunks("", [f",{c}\n" for c in counts]))
        elif args.format == "json":
            head = {"k": args.k, "m": args.m, "scope": scope.name,
                    "code_balanced_count": str(census.code_balanced_count), "entries": []}
            out.write(json.dumps(head)[:-2])  # all but the closing "]}"
            # hex and decimal strings need no escapes: each entry is its json.dumps
            chunks = census.text_chunks(', ["', [f'", "{c}"]' for c in counts])
            out.write(next(chunks, "")[2:])  # the first entry has no separator
            out.writelines(chunks)
            out.write("]}\n")
        else:
            digits = hex_layout(code.n)[0] if len(census.classes) > 1 else 0
            wa, wb = max(len("rep_hex"), digits), max(len("balanced_count"), len(str(census.max_other)))
            out.write(f"{'rep_hex':>{wa}} {'balanced_count':>{wb}}\n")
            out.writelines(census.text_chunks(" " * (wa - digits), [f" {c:>{wb}}\n" for c in counts]))
    return 0


def _arg(*flags: str, **kw):
    """One add_argument call, made on the parser given later."""
    return lambda p: p.add_argument(*flags, **kw)


def _wht_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hex", metavar="HEX", help="truth table as hex")
    src.add_argument("--anf", metavar="EXPR", help="ANF like Y1Y2+Y3+1 (0 for the zero function)")


def _output_args(formats: tuple[str, ...] = ("json", "csv", "table")) -> tuple:
    return (_arg("--format", choices=formats, default=formats[0], help="output format"),
            _arg("--output", metavar="PATH", help="write output to a file instead of stdout"))


_K, _M = _arg("-k", type=int, required=True), _arg("-m", type=int, required=True)
_CAP = _arg("--cap", type=int, help="enumeration dimension cap override")
_CHECKPOINT = _arg("--checkpoint", metavar="PATH", help="resumable census checkpoint log")
# a census runs in one process: --workers takes only 1, kept for the pinned command lines of perfbench/
_WORKERS = _arg("--workers", type=int, choices=(1,), help="census worker processes (only 1)")
_CLAIM_TAIL = (_WORKERS,
               _arg("--coset-cap", type=int, help="coset-count cap override"),
               _arg("--output", metavar="PATH", help="write the verdict JSON to a file"))
# name -> (help, handler, its arguments in order, or a table of its subcommands)
_CLAIMS = {
    "theorem5": ("strict maximum over all cosets of RM(k,m)", _cmd_verify, (
        _K, _M, _arg("--method", choices=("brute", "transform"), default="brute"),
        _CAP, _CHECKPOINT, *_CLAIM_TAIL)),
    "conjecture": ("strict maximum within RM(k+1,m)", _cmd_verify, (_K, _M, _CAP, _CHECKPOINT, *_CLAIM_TAIL)),
    "rm1": ("first-order coset balanced-count bound", _cmd_verify, (
        _M,
        _arg("--exhaustive", action="store_true", help="check every coset (m <= 4)"),
        _arg("--sampled", action="store_true", help="check random non-affine functions"),
        _arg("--samples", type=int, default=10_000),
        _arg("--seed", type=int, default=0),
        *_CLAIM_TAIL)),
    "oddweight": ("odd-weight cosets of RM(m-2,m) have no balanced words", _cmd_verify,
                  (_M, _CAP, *_CLAIM_TAIL)),
    "equidist": ("cosets of RM(m-2,m) in RM(m-1,m) share one distribution", _cmd_verify,
                 (_M, _CAP, *_CLAIM_TAIL)),
}
_COMMANDS = {
    "kraw": ("Krawtchouk polynomial values P_j(i;n)", _cmd_kraw, (
        _arg("--n", type=int, required=True, help="code length n"),
        _arg("--j", type=int, help="polynomial degree j"),
        _arg("--central", action="store_true", help="use the central degree j = n/2"),
        _arg("--i", type=int, help="evaluation point i"),
        _arg("--all", action="store_true", help="print the whole column i = 0..n"),
        *_output_args(("table", "json", "csv")))),
    "weightdist": ("weight distribution of RM(k,m)", _cmd_weightdist, (
        _arg("-k", type=int, required=True, help="order k"),
        _arg("-m", type=int, required=True, help="variable count m"),
        _arg("--method", choices=("brute", "macwilliams"), default="brute"),
        _CAP, *_output_args())),
    "cosetdist": ("weight distribution of RM(k,m) + rep", _cmd_cosetdist, (
        _K, _M, _arg("--rep", required=True, metavar="HEX", help="coset representative, hex truth table"),
        _arg("--method", choices=("transform", "brute"), default="transform"),
        _CAP, *_output_args())),
    "wht": ("Walsh-Hadamard spectrum of a Boolean function", _cmd_wht, (_M, _wht_source, *_output_args())),
    "verify": ("verify a claim; exit 0 on pass, 1 on fail", _cmd_verify, _CLAIMS),
    "census": ("balanced-word count of every coset in scope", _cmd_census, (
        _K, _M, _arg("--scope", choices=("full", "next"), default="full"),
        _WORKERS,
        _arg("--checkpoint", metavar="PATH"),
        _CAP, _arg("--coset-cap", type=int, help="coset-count cap override"),
        *_output_args(("csv", "json", "table")))),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict, argv: list[str]) -> None:
    """A subparser for the entry of `table` that argv names next, or for
    every entry when it names none (help, a missing or an unknown name)."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name in [argv[0]] if argv and argv[0] in table else table:
        help_, func, args = table[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if isinstance(args, dict):
            _add_commands(p, "claim", args, argv[1:])
        else:
            for arg in args:
                arg(p)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: the full tree less the subcommands argv does not name."""
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="Exact weight distributions of Reed-Muller codes and their cosets.",
    )
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = _build_parser(argv).parse_known_args(argv)
    if extra:  # the full parser's error: its usage line lists every command
        _build_parser([]).parse_args(argv)
    try:
        if args.output is not None:
            require_writable(args.output)
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
