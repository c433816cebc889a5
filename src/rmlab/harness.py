"""Verification workflows for the balanced-word claims about Reed-Muller
cosets: censuses of balanced counts over coset families, and verdicts for

  theorem5   - no nontrivial coset of RM(k,m) (k >= ceil((m-1)/2)) has as
               many balanced words as the code itself;
  conjecture - the code beats every other coset inside RM(k+1,m)
               (empirical: checked only at the given parameters);
  rm1        - no nontrivial coset of RM(1,m) reaches 2^(m+1)-2 balanced
               words (spectral count, exhaustive or sampled);
  oddweight  - cosets of RM(m-2,m) with odd-weight representatives have
               no balanced words at all;
  equidist   - all nontrivial cosets of RM(m-2,m) inside RM(m-1,m) share
               one weight distribution.

Brute censuses shard deterministically across worker processes and can
resume from an append-only, checksummed checkpoint log; theorem5's
transform method reads one walk of the dual code (see _dual_census).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import os
import random
import re
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb
from typing import Iterable, Iterator

import numpy as np

from . import _bitenum
from .bfcore import TruthTable, monomial_tt
from .errors import CapExceededError, ExactnessError, ParameterError
from .rmcodes import (
    RMParams,
    WeightDistribution,
    dual_params,
    monomial_basis,
    pivot_positions,
    require_cap,
    rm_membership,
    rm_weight_distribution,
)
from .krawtchouk import kraw_column
from .spectral import _fwht_rows, rm1_coset_balanced_count, wht_many
from .transforms import CosetSpec, assmus_mattson, coset_dual_profile, hamming_closed_forms, macwilliams


class Scope(enum.Enum):
    FULL_SPACE = "full"
    WITHIN_NEXT_ORDER = "next"


class Method(enum.Enum):
    BRUTE = "brute"
    TRANSFORM = "transform"
    SPECTRAL = "spectral"


class Mode(enum.Enum):
    EXHAUSTIVE = "EXHAUSTIVE"
    SAMPLED = "SAMPLED"
    EMPIRICAL = "EMPIRICAL"


DEFAULT_COSET_CAPS = {Scope.FULL_SPACE: 1 << 20, Scope.WITHIN_NEXT_ORDER: 1 << 16}
_CHECKPOINT_CHUNK = 4096


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim verification."""

    claim: str
    params: dict
    mode: Mode
    method: Method
    passed: bool
    code_count: int
    max_other: int | None
    witness: TruthTable | None
    elapsed_ms: int

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ParameterError("failing verdict requires a witness")

    def to_json_obj(self) -> dict:
        return {
            "claim": self.claim,
            "params": dict(self.params),
            "mode": self.mode.value,
            "pass": self.passed,
            "code_count": str(self.code_count),
            "max_other": None if self.max_other is None else str(self.max_other),
            "witness_hex": None if self.witness is None else self.witness.to_hex(),
            "elapsed_ms": self.elapsed_ms,
            "method": self.method.value,
        }


def _scan(counts: Iterable[tuple[object, int]], bound: int) -> tuple[int, object | None]:
    """(largest count, first item whose count reaches bound) over
    (item, count) pairs; the largest count of no pairs is 0."""
    best = 0
    first = None
    for item, c in counts:
        if c > best:
            best = c
        if first is None and c >= bound:
            first = item
    return best, first


def require_workers(workers: int) -> None:
    """Raise ParameterError unless the worker count is at least 1."""
    if workers < 1:
        raise ParameterError(f"worker count must be at least 1, got {workers}")


def _verdict(claim, params, mode, method, passed, code_count, max_other, witness, t0) -> Verdict:
    return Verdict(
        claim=claim,
        params=params,
        mode=mode,
        method=method,
        passed=passed,
        code_count=code_count,
        max_other=max_other,
        witness=witness,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


def _rep_basis(code: RMParams, scope: Scope) -> list[int]:
    """Basis tables whose nonzero XOR-combinations are exactly one
    representative per nontrivial coset in scope."""
    if scope is Scope.FULL_SPACE:
        pivots = set(pivot_positions(code))
        n = code.n
        return [1 << (n - 1 - pos) for pos in range(n) if pos not in pivots]
    if code.trivial or code.k >= code.m:
        raise ParameterError(f"{code} has no next order inside RM({code.m},{code.m})")
    return [
        monomial_tt(code.m, combo).bits
        for combo in itertools.combinations(range(1, code.m + 1), code.k + 1)
    ]


def _build_rep(basis: list[int], rep_id: int) -> int:
    bits = 0
    t = 0
    g = rep_id
    while g:
        if g & 1:
            bits ^= basis[t]
        g >>= 1
        t += 1
    return bits


def _require_coset_cap(r: int, scope: Scope, override: int | None) -> None:
    limit = DEFAULT_COSET_CAPS[scope] if override is None else override
    if (1 << r) > limit:
        raise CapExceededError(
            f"{1 << r} cosets in scope {scope.name} exceed the coset cap {limit}"
        )


def coset_representatives(
    code: RMParams, scope: Scope, coset_cap: int | None = None
):
    """One representative per nontrivial coset: nonzero vectors on the
    non-pivot coordinates (FULL_SPACE) or nonzero combinations of the
    degree-(k+1) monomials (WITHIN_NEXT_ORDER), in counting order of the
    combination index."""
    basis = _rep_basis(code, scope)
    _require_coset_cap(len(basis), scope, coset_cap)
    for g in range(1, 1 << len(basis)):
        yield TruthTable(code.m, _build_rep(basis, g))


def _code_counter(code: RMParams, cap: int | None, what: str) -> _bitenum.SpanCounter:
    """The code's span, checked against the enumeration cap."""
    require_cap(code.dimension, cap, what)
    return _bitenum.SpanCounter([t.bits for t in monomial_basis(code)], code.n)


def balanced_count_of_coset(code: RMParams, rep: TruthTable, cap: int | None = None) -> int:
    """Words of weight n/2 in code + rep, by exhaustive enumeration
    (rep = 0 gives the code's own balanced count)."""
    if rep.m != code.m:
        raise ParameterError(f"rep has m={rep.m}, code has m={code.m}")
    counter = _code_counter(code, cap, f"counting balanced words in a coset of {code}")
    return int(counter.weight_histogram(rep.bits)[code.n // 2])


@dataclass(frozen=True)
class CosetCensus:
    """Balanced-word counts for every nontrivial coset in scope; entry
    ids decode through the same representative basis order."""

    code: RMParams
    scope: Scope
    entries: tuple[tuple[int, int], ...]
    code_balanced_count: int

    @cached_property
    def _basis(self) -> list[int]:
        return _rep_basis(self.code, self.scope)

    def rep_table(self, rep_id: int) -> TruthTable:
        if not 1 <= rep_id < (1 << len(self._basis)):
            raise ParameterError(f"rep id {rep_id} out of range")
        return TruthTable(self.code.m, _build_rep(self._basis, rep_id))

    def rows(self) -> Iterator[tuple[str, int]]:
        """(representative hex, balanced count) for every entry, in order."""
        for rep_id, c in self.entries:
            yield TruthTable(self.code.m, _build_rep(self._basis, rep_id)).to_hex(), c

    def max_entry(self) -> tuple[int, int]:
        """(first id attaining the max count, that count)."""
        if not self.entries:
            raise ParameterError("census has no nontrivial cosets")
        return max(self.entries, key=lambda entry: entry[1])

    def to_csv(self, fileobj) -> None:
        fileobj.write("rep_hex,balanced_count\n")
        for rep_hex, c in self.rows():
            fileobj.write(f"{rep_hex},{c}\n")


def _count_chunk(code: RMParams, scope: Scope, start: int, stop: int) -> list[int]:
    """Balanced counts for rep ids start..stop-1 (id 0 is the code itself),
    from a walker built from the parameters, so it runs in any process."""
    basis = _rep_basis(code, scope)
    counter = _bitenum.SpanCounter([t.bits for t in monomial_basis(code)], code.n)
    return [int(counter.weight_histogram(_build_rep(basis, g))[code.n // 2]) for g in range(start, stop)]


# A census log is the header "census <format version 1> <k> <m> <scope>
# <cosets>", then one line per finished chunk: "<start id> <CRC-32 of the
# counts text, 8 hex digits> <counts...>".  No id or count of a census that
# can run has more than 20 digits, which keeps int() under its digit limit.
_CHUNK_LINE = re.compile(r"(\d{1,20}) ([0-9a-f]{8}) (\d{1,20}(?: \d{1,20})*)", re.ASCII)


def _load_checkpoint(path: str, header: str, ids: int, top: int) -> list[int]:
    """The counts of a census log, each line checked; a last line without
    its newline is an interrupted write and is cut off so its chunk reruns."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rfind(b"\n") + 1
    lines = data[:cut].decode("ascii", "replace").split("\n")[:-1]
    where = f"checkpoint {path}, line"
    if not lines or lines[0] + "\n" != header:
        raise ParameterError(f"{where} 1: not the census log header {header.strip()!r}")
    counts: list[int] = []
    for line_no, line in enumerate(lines[1:], start=2):
        match = _CHUNK_LINE.fullmatch(line)
        if match is None:
            raise ParameterError(f"{where} {line_no}: not a chunk line of ids and counts")
        start, crc, body = match.groups()
        if int(start) != len(counts):
            raise ParameterError(f"{where} {line_no}: chunk starts at id {start}, not {len(counts)}")
        if int(crc, 16) != zlib.crc32(body.encode()):
            raise ParameterError(f"{where} {line_no}: CRC-32 mismatch")
        part = [int(c) for c in body.split(" ")]
        if len(counts) + len(part) > ids or max(part) > top:
            raise ParameterError(f"{where} {line_no}: counts beyond {ids} ids or above {top}")
        counts.extend(part)
    if cut < len(data):
        os.truncate(path, cut)
    return counts


def _save_checkpoint(path: str, line: str) -> None:
    """Append one line to the census log."""
    with open(path, "a") as fh:
        fh.write(line)


def census_balanced(
    code: RMParams,
    scope: Scope,
    workers: int = 1,
    cap: int | None = None,
    coset_cap: int | None = None,
    checkpoint: str | None = None,
) -> CosetCensus:
    """Balanced-word count of every nontrivial coset in scope, plus the
    code's own count (rep id 0).  Work is split into rep-id chunks, run in
    order or by a process pool; the merge is by id order, so the result
    is identical for any worker count.  A checkpoint log gets one line
    per finished chunk, and a rerun resumes after its last verified one."""
    require_workers(workers)
    basis = _rep_basis(code, scope)
    _require_coset_cap(len(basis), scope, coset_cap)
    require_cap(code.dimension, cap, f"balanced census of {code}")
    ids = 1 << len(basis)
    header = f"census 1 {code.k} {code.m} {scope.name} {ids - 1}\n"

    counts: list[int] = []
    if checkpoint and os.path.exists(checkpoint):
        counts = _load_checkpoint(checkpoint, header, ids, 1 << code.dimension)
    elif checkpoint:
        _save_checkpoint(checkpoint, header)

    starts = range(len(counts), ids, _CHECKPOINT_CHUNK)
    stops = [min(a + _CHECKPOINT_CHUNK, ids) for a in starts]
    chunk = partial(_count_chunk, code, scope)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for a, part in zip(starts, (pool.map if pool else map)(chunk, starts, stops)):
            counts.extend(part)
            if checkpoint:
                body = " ".join(map(str, part))
                _save_checkpoint(checkpoint, f"{a} {zlib.crc32(body.encode()):08x} {body}\n")

    return _checked_census(code, scope, counts, cap)


def _checked_census(code: RMParams, scope: Scope, counts: list[int], cap: int | None) -> CosetCensus:
    """The census of per-id counts (id 0 is the code itself), checked to
    sum to the balanced words of the space its cosets tile: the full
    space, or RM(k+1,m), counted on whichever of it and its dual is smaller."""
    n = code.n
    total, what = comb(n, n // 2), f"C({n},{n // 2})"
    if scope is Scope.WITHIN_NEXT_ORDER:
        outer = RMParams(code.k + 1, code.m)
        small = min(outer, dual_params(outer), key=lambda p: p.dimension)
        dist = rm_weight_distribution(small, cap)
        total = (dist if small == outer else macwilliams(dist, outer.dimension, n))[n // 2]
        what = f"the balanced count of {outer}"
    if sum(counts) != total:
        raise ExactnessError(
            f"balanced counts of {code} and its cosets sum to {sum(counts)}, not {what} = {total}"
        )
    entries = tuple(enumerate(counts))[1:]
    return CosetCensus(code=code, scope=scope, entries=entries, code_balanced_count=counts[0])


def _dual_census(
    code: RMParams, scope: Scope, cap: int | None = None, coset_cap: int | None = None
) -> CosetCensus:
    """The census from one walk of the dual, by MacWilliams for cosets:
    with s(b) the syndrome of dual word b against the rep basis, rep id g
    has 2^(K-n) sum_b (-1)^(g.s(b)) K(wt b, n) balanced words, so every
    count comes from one FWHT over syndromes of the (s, wt) histogram."""
    basis = _rep_basis(code, scope)
    r, n, dual = len(basis), code.n, dual_params(code)
    require_cap(dual.dimension, cap, f"dual census of {code} over {dual}")
    _require_coset_cap(r, scope, coset_cap)
    if r > 64:
        raise ExactnessError(f"{r}-bit syndromes do not fit the 64-bit key column")
    if dual.dimension > 62:  # every transform entry is at most 2^dim(dual) in size
        raise ExactnessError(f"int64 transform of a {dual.dimension}-dimensional dual may overflow")
    require_cap(r + code.m, cap, f"dual census of {code} (2^{r} syndromes x {n + 1} weights)")
    gens = [t.bits for t in monomial_basis(dual)]
    keys = [sum(((b & t).bit_count() & 1) << i for i, t in enumerate(basis)) for b in gens]
    hist = _bitenum.SpanCounter(gens, n, keys, r).weight_histogram().reshape(1 << r, n + 1)
    col = kraw_column(n // 2, n)
    weights = [w for w in range(n + 1) if col[w] and hist[:, w].any()]
    spectra = _fwht_rows(np.ascontiguousarray(hist[:, weights].T))
    sums = np.array([col[w] for w in weights], dtype=object) @ spectra.astype(object)
    counts = [divmod(s, 1 << (n - code.dimension)) for s in sums.tolist()]
    if any(rem or q < 0 for q, rem in counts):
        raise ExactnessError(f"dual census of {code}: a sum is not 2^(n-K) times a count")
    return _checked_census(code, scope, [q for q, _ in counts], cap)


def _census_scan(census: CosetCensus) -> tuple[int, TruthTable | None]:
    """(largest coset count, first coset reaching the code's count)."""
    max_other, bad_id = _scan(census.entries, census.code_balanced_count)
    return max_other, None if bad_id is None else census.rep_table(bad_id)


def _check_theorem_hypothesis(k: int, m: int) -> None:
    low = (m - 1 + 1) // 2  # ceil((m-1)/2)
    if not 1 <= k <= m - 1 or k < low:
        raise ParameterError(
            f"theorem hypothesis needs ceil((m-1)/2) <= k <= m-1; "
            f"got k={k}, m={m} (lower bound {max(low, 1)})"
        )


def verify_theorem_basic(
    k: int,
    m: int,
    method: Method = Method.BRUTE,
    workers: int = 1,
    cap: int | None = None,
    coset_cap: int | None = None,
    checkpoint: str | None = None,
) -> Verdict:
    """Strict-maximum check: every nontrivial coset of RM(k,m) in the
    full space has fewer balanced words than the code itself."""
    t0 = time.monotonic()
    _check_theorem_hypothesis(k, m)
    code = RMParams(k, m)
    params = {"k": k, "m": m}

    if method is Method.BRUTE:
        census = census_balanced(code, Scope.FULL_SPACE, workers, cap, coset_cap, checkpoint)
    elif method is Method.TRANSFORM:
        if checkpoint:
            raise ParameterError("checkpoints are for the brute census, not the transform method")
        census = _dual_census(code, Scope.FULL_SPACE, cap, coset_cap)
    else:
        raise ParameterError("theorem verification supports BRUTE or TRANSFORM")
    max_other, witness = _census_scan(census)
    return _verdict(
        "theorem5", params, Mode.EXHAUSTIVE, method, max_other < census.code_balanced_count,
        census.code_balanced_count, max_other, witness, t0,
    )


def verify_quotient_conjecture(
    k: int,
    m: int,
    workers: int = 1,
    cap: int | None = None,
    coset_cap: int | None = None,
    checkpoint: str | None = None,
) -> Verdict:
    """Does RM(k,m) beat every other coset of itself inside RM(k+1,m)?
    Checked exhaustively at these parameters only, hence EMPIRICAL."""
    t0 = time.monotonic()
    if not isinstance(k, int) or not 1 <= k <= m - 1:
        raise ParameterError(f"quotient check needs 1 <= k <= m-1, got k={k}, m={m}")
    code = RMParams(k, m)
    census = census_balanced(code, Scope.WITHIN_NEXT_ORDER, workers, cap, coset_cap, checkpoint)
    code_count = census.code_balanced_count
    max_other, witness = _census_scan(census)
    return _verdict(
        "conjecture", {"k": k, "m": m}, Mode.EMPIRICAL, Method.BRUTE,
        max_other < code_count, code_count, max_other, witness, t0,
    )


def verify_rm1_proposition(
    m: int,
    exhaustive: bool | None = None,
    samples: int = 10_000,
    seed: int = 0,
    coset_cap: int | None = None,
) -> Verdict:
    """Every nontrivial coset of RM(1,m) has fewer than 2^(m+1)-2
    balanced words.  Exhaustive over all cosets (m <= 4) or over seeded
    random non-affine representatives (m <= 16); counts are spectral,
    cross-checked against brute enumeration at m <= 3."""
    t0 = time.monotonic()
    if exhaustive is None:
        exhaustive = m <= 4
    bound = (1 << (m + 1)) - 2
    code = RMParams(1, m)

    if exhaustive:
        if m > 4:
            raise ParameterError(f"exhaustive proposition check supports m <= 4, got {m}")

        def balanced(rep: TruthTable) -> int:
            c = rm1_coset_balanced_count(rep)
            if m <= 3 and c != balanced_count_of_coset(code, rep):
                raise ExactnessError(f"spectral/brute disagreement at rep {rep.to_hex()}")
            return c

        reps = coset_representatives(code, Scope.FULL_SPACE, coset_cap)
        max_other, witness = _scan(((rep, balanced(rep)) for rep in reps), bound)
        return _verdict(
            "rm1", {"m": m}, Mode.EXHAUSTIVE, Method.SPECTRAL,
            max_other < bound, bound, max_other, witness, t0,
        )

    if not 2 <= m <= 16:
        raise ParameterError(f"sampled proposition check supports 2 <= m <= 16, got {m}")
    if samples < 1:
        raise ParameterError(f"sample count must be positive, got {samples}")
    n = 1 << m
    rng = random.Random(seed)
    drawn: list[int] = []
    while len(drawn) < samples:
        bits = rng.getrandbits(n)
        if not rm_membership(TruthTable(m, bits), code):
            drawn.append(bits)
    max_other = 0
    witness = None
    chunk_rows = max(1, (1 << 22) // n)
    for lo in range(0, samples, chunk_rows):
        batch = drawn[lo : lo + chunk_rows]
        spectra = wht_many(batch, m)
        zero_counts = 2 * np.count_nonzero(spectra == 0, axis=1)
        max_other = max(max_other, int(zero_counts.max()))
        if witness is None:
            bad = np.nonzero(zero_counts >= bound)[0]
            if bad.size:
                witness = TruthTable(m, batch[int(bad[0])])
    return _verdict(
        "rm1", {"m": m, "samples": samples, "seed": seed}, Mode.SAMPLED, Method.SPECTRAL,
        max_other < bound, bound, max_other, witness, t0,
    )


def verify_oddweight_cosets(m: int, cap: int | None = None, coset_cap: int | None = None) -> Verdict:
    """Cosets of RM(m-2,m) with odd-weight representatives (those outside
    RM(m-1,m)) contain no balanced words; in fact every word weight there
    is odd, which the enumeration re-checks."""
    t0 = time.monotonic()
    if not 2 <= m <= 5:
        raise ParameterError(f"odd-weight coset check supports 2 <= m <= 5, got {m}")
    code = RMParams(m - 2, m)
    counter = _code_counter(code, cap, f"odd-weight coset check of {code}")
    n = code.n
    code_count = int(counter.weight_histogram()[n // 2])
    max_other = 0
    witness = None
    for rep in coset_representatives(code, Scope.FULL_SPACE, coset_cap):
        if rep.bits.bit_count() % 2 == 0:
            continue
        hist = counter.weight_histogram(rep.bits)
        balanced = int(hist[n // 2])
        if balanced > max_other:
            max_other = balanced
        even_words = int(hist[0::2].sum())
        if witness is None and (balanced > 0 or even_words > 0):
            witness = rep
    return _verdict(
        "oddweight", {"m": m}, Mode.EXHAUSTIVE, Method.BRUTE,
        witness is None, code_count, max_other, witness, t0,
    )


def verify_hamming_coset_equidistribution(
    m: int, cap: int | None = None, coset_cap: int | None = None
) -> Verdict:
    """All nontrivial cosets of RM(m-2,m) inside RM(m-1,m) share one full
    weight distribution, whose balanced entry matches the closed form."""
    t0 = time.monotonic()
    if not 3 <= m <= 5:
        raise ParameterError(f"equidistribution check supports 3 <= m <= 5, got {m}")
    code = RMParams(m - 2, m)
    counter = _code_counter(code, cap, f"equidistribution check of {code}")
    n = code.n
    code_count = int(counter.weight_histogram()[n // 2])

    reference: WeightDistribution | None = None
    max_other = 0
    witness = None
    for rep in coset_representatives(code, Scope.WITHIN_NEXT_ORDER, coset_cap):
        hist = counter.weight_histogram(rep.bits)
        dist = WeightDistribution.from_dense(hist.tolist())
        if reference is None:
            reference = dist
            max_other = dist[n // 2]
        elif dist != reference:
            witness = rep
            break
    closed_b, closed_d = hamming_closed_forms(m)
    if witness is None and (code_count != closed_b or max_other != closed_d):
        raise ExactnessError(
            f"equidistributed cosets disagree with closed forms at m={m}: "
            f"({code_count}, {max_other}) vs ({closed_b}, {closed_d})"
        )
    return _verdict(
        "equidist", {"m": m}, Mode.EXHAUSTIVE, Method.BRUTE,
        witness is None, code_count, max_other, witness, t0,
    )


def coset_weight_distribution(
    code: RMParams, rep: TruthTable, method: Method = Method.TRANSFORM, cap: int | None = None
) -> WeightDistribution:
    """Full weight distribution of code + rep, by enumeration or by the
    dual-side transform; both require rep outside the code."""
    spec = CosetSpec(code, rep)
    if method is Method.BRUTE:
        counter = _code_counter(code, cap, f"coset distribution of {code}")
        hist = counter.weight_histogram(rep.bits)
        return WeightDistribution.from_dense(hist.tolist())
    if method is Method.TRANSFORM:
        B = rm_weight_distribution(dual_params(code), cap)
        profile = coset_dual_profile(spec, cap)
        return assmus_mattson(profile, B, code.dimension, code.n)
    raise ParameterError("coset distributions support BRUTE or TRANSFORM")
