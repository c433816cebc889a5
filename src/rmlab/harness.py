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

A coset's rep combines the unit tables off RM(k,m)'s information set
(full space) or the degree-(k+1) monomials; its id is the combination.

Each coset-family verdict reads a sum-checked census and takes its
witness from one scan of it (CosetCensus.witness): theorem5, conjecture
and exhaustive rm1 a strict maximum (_strict_max), oddweight an even
weight among the odd-weight cosets, equidist a second distribution.
A brute census builds one counter of the code's span, which walks it once
per chunk of rep ids, counting the chunk's reps in batched numpy passes;
chunks shard deterministically across worker processes, whose pool is
imported only for more than one worker, and can resume from an
append-only, checksummed checkpoint log.  Sampled rm1 draws its tables
in the calling thread and counts batches of them on one thread per
usable core, reading the counts in draw order.  Exhaustive rm1's census is
spectral; theorem5's transform method, oddweight, equidist and the
transform coset distribution read every coset's distribution from one
walk of the dual code (see _dual_table).
"""

from __future__ import annotations

import contextlib
import enum
import os
import random
import re
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _bitenum, transforms
from .bfcore import TruthTable, hex_layout
from .errors import CapExceededError, ExactnessError, ParameterError
from .rmcodes import (
    RMParams,
    WeightDistribution,
    _cap_limit,
    _high_degree_mask,
    code_counter,
    dual_params,
    monomial_basis,
    require_cap,
    rm_membership,
    rm_weight_distribution,
    unlimited_int_digits,
)
from .spectral import _exact_float, _rm1_counts, _scratch, _wht_rows
from .transforms import hamming_closed_forms, macwilliams


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
        with unlimited_int_digits():
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


def require_workers(workers: int) -> None:
    """Raise ParameterError unless the worker count is at least 1."""
    if workers < 1:
        raise ParameterError(f"worker count must be at least 1, got {workers}")


def require_writable(path: str) -> None:
    """Raise ParameterError, creating nothing, where opening path to write
    would fail: on a directory, in a missing folder, or without write access."""
    folder = os.path.dirname(path) or "."
    reason = ("Is a directory" if os.path.isdir(path)
              else "No such file or directory" if not os.path.isdir(folder)
              else "" if os.access(path if os.path.exists(path) else folder, os.W_OK)
              else "Permission denied")
    if reason:
        raise ParameterError(f"cannot write {path}: {reason}")


def _verdict(claim, params, mode, method, code_count, max_other, witness, t0) -> Verdict:
    """The verdict of a check that passes unless it found a witness."""
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return Verdict(claim, params, mode, method, witness is None, code_count, max_other, witness, elapsed_ms)


def _rep_basis(code: RMParams, scope: Scope) -> list[int]:
    """Basis tables whose nonzero XOR-combinations are exactly one
    representative per nontrivial coset in scope: the unit tables of the
    positions outside the information set, the set bits of
    _high_degree_mask in ascending position order (FULL_SPACE), or the
    degree-(k+1) monomials (WITHIN_NEXT_ORDER)."""
    if scope is Scope.FULL_SPACE:
        mask, basis = _high_degree_mask(code.m, code.k), []
        while mask:
            basis.append(1 << (mask.bit_length() - 1))  # the highest bit is the lowest position
            mask ^= basis[-1]
        return basis
    degree = _next_degree(code)
    return [t.bits for t in monomial_basis(RMParams(degree, code.m), lowest=degree)]


def _next_degree(code: RMParams) -> int:
    if code.k >= code.m:
        raise ParameterError(f"{code} has no next order inside RM({code.m},{code.m})")
    return code.k + 1


def _build_rep(basis: list[int], rep_id: int) -> int:
    """XOR of the basis tables that the bits of rep_id select."""
    bits = 0
    for t in range(rep_id.bit_length()):
        bits ^= basis[t] if rep_id >> t & 1 else 0
    return bits


def _capped_rep_basis(code: RMParams, scope: Scope, override: int | None) -> list[int]:
    """The rep basis, built only once its cosets are counted against the
    coset cap: its tables have 2^m bits each, too many to build first."""
    limit = _cap_limit(override, DEFAULT_COSET_CAPS[scope], "coset cap")
    dim = code.n - code.dimension if scope is Scope.FULL_SPACE else comb(code.m, _next_degree(code))
    if (1 << dim) > limit:
        # 2^dim, not its decimal digits: those pass int -> str's limit from m = 14
        raise CapExceededError(f"2^{dim} cosets in scope {scope.name} exceed the coset cap {limit}")
    return _rep_basis(code, scope)


@dataclass(frozen=True, eq=False)
class CosetCensus:
    """Balanced-word counts of the code (id 0) and every nontrivial coset
    in scope: id g's count is counts[classes[g]], with classes a numpy int
    array and counts one exact Python int per class.  Ids decode through
    the representative basis order (rep_table)."""

    code: RMParams
    scope: Scope
    classes: np.ndarray
    counts: tuple[int, ...]

    @property
    def code_balanced_count(self) -> int:
        return self.counts[self.classes[0]]

    @cached_property
    def max_other(self) -> int:
        """The largest count of a nontrivial coset (0 when there is none)."""
        seen = np.bincount(self.classes[1:], minlength=len(self.counts)).tolist()
        return max((c for c, k in zip(self.counts, seen) if k), default=0)

    def id_counts(self) -> list[int]:
        return list(map(self.counts.__getitem__, self.classes.tolist()))

    @property
    def entries(self) -> list[tuple[int, int]]:
        """(id, count) of every nontrivial coset, built on demand (perfbench's tracer counts it)."""
        return list(enumerate(self.id_counts()))[1:]

    def __eq__(self, other: object) -> bool:
        """Same space and the same count at every id, whatever the class labels."""
        key = (self.code, self.scope, self.id_counts())
        return isinstance(other, CosetCensus) and key == (other.code, other.scope, other.id_counts())

    @cached_property
    def _basis(self) -> list[int]:
        return _rep_basis(self.code, self.scope)

    def rep_table(self, rep_id: int) -> TruthTable:
        if not 1 <= rep_id < (1 << len(self._basis)):
            raise ParameterError(f"rep id {rep_id} out of range")
        return TruthTable(self.code.m, _build_rep(self._basis, rep_id))

    def witness(self, flagged: Sequence[bool], ids: np.ndarray | None = None) -> TruthTable | None:
        """The rep of the first id whose class is flagged, over every id >= 1
        or over the given ascending ids; None when there is none."""
        ids = np.arange(1, len(self.classes)) if ids is None else ids
        hit = ids[np.asarray(flagged, dtype=bool)[self.classes[ids]]]
        return self.rep_table(int(hit[0])) if len(hit) else None

    def text_chunks(self, lead: str, texts: Sequence[str]) -> Iterator[str]:
        """The row lead + rep hex + texts[class] of every nontrivial coset
        in id order, one string per chunk of at most _PASS_WORDS table
        words.  A chunk is a (rows, width) byte array; NUL bytes pad the
        shorter texts and are dropped."""
        n, head = self.code.n, np.frombuffer(lead.encode(), np.uint8)
        width, ragged = max(map(len, texts)), len(set(map(len, texts))) > 1
        table = np.array([list(t.encode().ljust(width, b"\0")) for t in texts], dtype=np.uint8)
        at = len(head) + hex_layout(n)[0]
        step = max(1, _bitenum._PASS_WORDS // max(1, n // 64))
        for a in range(1, len(self.classes), step):
            ids = np.arange(a, min(a + step, len(self.classes)))
            rows = np.empty((len(ids), at + width), dtype=np.uint8)
            rows[:, : len(head)] = head
            rows[:, len(head) : at] = _bitenum.hex_rows(_bitenum.span_rows(self._basis, n, ids), n)
            rows[:, at:] = table[self.classes[ids]]
            yield (rows[rows != 0] if ragged else rows).tobytes().decode()


# A census log is the header "census <format version 1> <k> <m> <scope>
# <cosets>", then one line per finished chunk: "<start id> <CRC-32 of the
# counts text, 8 hex digits> <counts...>".  No id or count of a census that
# can run has more than 20 digits, which keeps int() under its digit limit.
_CHUNK_LINE = re.compile(r"(\d{1,20}) ([0-9a-f]{8}) (\d{1,20}(?: \d{1,20})*)", re.ASCII)


def _open_log(path: str, mode: str):
    """The census log opened in mode; a path that cannot be opened is an invalid parameter."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ParameterError(f"cannot open checkpoint {path}: {exc.strerror}") from exc


def _load_checkpoint(path: str, header: str, ids: int, top: int) -> list[int]:
    """The counts of a census log, each line checked; a last line without
    its newline is an interrupted write and is cut off so its chunk reruns."""
    # the header, then per chunk: start id, space, CRC, space, each count with its space or newline
    limit = len(header) + -(-ids // _CHECKPOINT_CHUNK) * (20 + 1 + 8 + 1 + 21 * _CHECKPOINT_CHUNK)
    if not os.path.isfile(path) or os.path.getsize(path) > limit:
        raise ParameterError(f"cannot open checkpoint {path}: not a regular file of at most {limit} bytes")
    with _open_log(path, "rb") as fh:
        data = fh.read(limit)
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
    with _open_log(path, "a") as fh:
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
    code's own count (rep id 0).  One counter counts the rep rows of each
    rep-id chunk, in order or by a process pool that gets a copy of it
    with each chunk; the merge is by id order, so the result is identical
    for any worker count.  A checkpoint log gets one line per finished
    chunk, and a rerun resumes after its last verified one."""
    require_workers(workers)
    basis = _capped_rep_basis(code, scope, coset_cap)
    require_cap(code.dimension, cap, f"balanced census of {code}")
    if code.dimension > 62:
        raise ExactnessError(f"balanced counts of {code} may pass 2^62, beyond the int64 counts")
    ids = 1 << len(basis)
    header = f"census 1 {code.k} {code.m} {scope.name} {ids - 1}\n"

    counts: list[int] = []
    if checkpoint and os.path.exists(checkpoint):
        counts = _load_checkpoint(checkpoint, header, ids, 1 << code.dimension)
    elif checkpoint:
        _save_checkpoint(checkpoint, header)

    starts = range(len(counts), ids, _CHECKPOINT_CHUNK)
    rows = (_bitenum.span_rows(basis, code.n, np.arange(a, min(a + _CHECKPOINT_CHUNK, ids))) for a in starts)
    counter = code_counter(code)
    if workers > 1:  # the process pool loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for a, part in zip(starts, (pool.map if pool else map)(counter.balanced_counts, rows)):
            counts.extend(part.tolist())
            if checkpoint:
                body = " ".join(map(str, part.tolist()))
                _save_checkpoint(checkpoint, f"{a} {zlib.crc32(body.encode()):08x} {body}\n")

    return _counted_census(code, scope, np.array(counts, dtype=np.int64), cap)


def _counted_census(code: RMParams, scope: Scope, counts: np.ndarray, cap: int | None) -> CosetCensus:
    """The checked census of per-id int64 counts, one class per distinct count."""
    distinct, classes = np.unique(counts, return_inverse=True)
    return _checked_census(code, scope, classes, tuple(distinct.tolist()), cap)


def _checked_census(code: RMParams, scope: Scope, classes: np.ndarray, counts: tuple, cap: int | None):
    """The census of per-id classes and per-class counts (id 0 is the code
    itself), checked to sum to the balanced words of the space its cosets
    tile: the full space, or RM(k+1,m), counted on whichever of it and its
    dual is smaller."""
    n = code.n
    total, what = comb(n, n // 2), f"C({n},{n // 2})"
    if scope is Scope.WITHIN_NEXT_ORDER:
        outer = RMParams(code.k + 1, code.m)
        small = min(outer, dual_params(outer), key=lambda p: p.dimension)
        dist = rm_weight_distribution(small, cap)
        total = (dist if small == outer else macwilliams(dist, outer.dimension, n))[n // 2]
        what = f"the balanced count of {outer}"
    got = sum(c * size for c, size in zip(counts, np.bincount(classes, minlength=len(counts)).tolist()))
    if got != total:
        raise ExactnessError(f"balanced counts of {code} and its cosets sum to {got}, not {what} = {total}")
    return CosetCensus(code, scope, classes, counts)


def _dual_table(
    code: RMParams, basis: list[int], cap: int | None = None
) -> tuple[list[int], Callable[[int], WeightDistribution]]:
    """Every coset distribution of code + rep_g (rep_g the XOR of the basis
    tables that id g selects; id 0 is the code) from one walk of the dual,
    by MacWilliams for cosets: A_g(j) = 2^(K-n) sum_w F_g(w) P_j(w;n), where
    F_g(w) = sum_{wt b = w} (-1)^(g.s(b)) is the Hadamard transform over the
    syndrome s(b) of column w of the (s, wt) histogram, at most 2^dim(dual)
    in size.  Every rep but id 0's lies outside the code, so half the dual
    is orthogonal to it (all of it at id 0): F_g sums to 0 over w (to
    2^dim(dual) at g = 0), as checked.  Returns each id's distinct column
    of F and the contraction of a column."""
    r, n, dual = len(basis), code.n, dual_params(code)
    require_cap(dual.dimension, cap, f"dual walk of {code} over {dual}")
    _bitenum.check_key_bits(r, n, "syndromes")
    dtype = _exact_float(dual.dimension, f"the transform of a {dual.dimension}-dimensional dual")
    require_cap(r + code.m, cap, f"dual walk of {code} (2^{r} syndromes x {n + 1} weights)")
    hist = code_counter(dual, basis).weight_histogram().reshape(1 << r, n + 1)
    weights = np.flatnonzero(hist.any(axis=0)).tolist()
    pair = np.empty((2, len(weights), 1 << r), dtype)
    pair[0] = hist[:, weights].T
    spectra = _wht_rows(pair).astype(np.int64)
    signed = spectra.sum(axis=0)
    signed[0] -= 1 << dual.dimension
    if signed.any():
        g = int(np.flatnonzero(signed)[0])
        raise ExactnessError(f"dual table of {code}: the dual words orthogonal to rep id {g} "
                             f"are not {'all' if g == 0 else 'half'} of the 2^{dual.dimension}")
    columns, ids = np.unique(spectra.T, axis=0, return_inverse=True)

    def distribution(i: int) -> WeightDistribution:
        coeffs = [(w, c) for w, c in zip(weights, columns[i].tolist()) if c]
        return transforms._transform(coeffs, code.dimension, n, f"dual table of {code}")

    return ids.reshape(-1), distribution


def _dual_census(
    code: RMParams, scope: Scope, cap: int | None = None, coset_cap: int | None = None
) -> tuple[CosetCensus, list[WeightDistribution]]:
    """The census read from the dual table, one balanced count per distinct
    column, and the table's distribution of each class."""
    ids, distribution = _dual_table(code, _capped_rep_basis(code, scope, coset_cap), cap)
    distributions = [distribution(i) for i in range(int(ids.max()) + 1)]
    central = tuple(d[code.n // 2] for d in distributions)
    return _checked_census(code, scope, ids, central, cap), distributions


def _strict_max(claim, params, mode, method, census: CosetCensus, t0) -> Verdict:
    """The verdict that the code has more balanced words than every other
    coset of the census; the witness is the first coset reaching its count."""
    code_count = census.code_balanced_count
    return _verdict(claim, params, mode, method, code_count, census.max_other,
                    census.witness([c >= code_count for c in census.counts]), t0)


def _check_theorem_hypothesis(k: int, m: int) -> None:
    low = (m - 1 + 1) // 2  # ceil((m-1)/2)
    if not 1 <= k <= m - 1 or k < low:
        raise ParameterError(f"theorem hypothesis needs ceil((m-1)/2) <= k <= m-1; "
                             f"got k={k}, m={m} (lower bound {max(low, 1)})")


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
        census = _dual_census(code, Scope.FULL_SPACE, cap, coset_cap)[0]
    else:
        raise ParameterError("theorem verification supports BRUTE or TRANSFORM")
    return _strict_max("theorem5", params, Mode.EXHAUSTIVE, method, census, t0)


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
    return _strict_max("conjecture", {"k": k, "m": m}, Mode.EMPIRICAL, Method.BRUTE, census, t0)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def verify_rm1_proposition(
    m: int,
    exhaustive: bool | None = None,
    samples: int = 10_000,
    seed: int = 0,
    coset_cap: int | None = None,
) -> Verdict:
    """Every nontrivial coset of RM(1,m) has fewer than 2^(m+1)-2
    balanced words.  Exhaustive (m <= 4): the strict-maximum census of
    spectral counts.  Sampled (m <= 16): seeded random non-affine
    representatives, in batches counted on one thread per usable core;
    the verdict is the same at every core count."""
    t0 = time.monotonic()
    if exhaustive is None:
        exhaustive = m <= 4
    code = RMParams(1, m)

    if exhaustive:
        if m > 4:
            raise ParameterError(f"exhaustive proposition check supports m <= 4, got {m}")
        basis = _capped_rep_basis(code, Scope.FULL_SPACE, coset_cap)
        reps = [_build_rep(basis, g) for g in range(1 << len(basis))]
        counts = _rm1_counts(reps, m)[0]
        census = _counted_census(code, Scope.FULL_SPACE, counts, None)
        return _strict_max("rm1", {"m": m}, Mode.EXHAUSTIVE, Method.SPECTRAL, census, t0)

    bound = (1 << (m + 1)) - 2
    if coset_cap is not None:
        raise ParameterError("a coset cap applies to the exhaustive check; the sampled one counts no cosets")
    if not 2 <= m <= 16:
        raise ParameterError(f"sampled proposition check supports 2 <= m <= 16, got {m}")
    if samples < 1:
        raise ParameterError(f"sample count must be positive, got {samples}")

    n = 1 << m
    rng = random.Random(seed)
    chunk_rows = min(samples, max(1, (1 << 18) // n))  # 2^18 entries: a 2 MB float32 pair
    width = min(_usable_cores(), -(-samples // chunk_rows))  # no idle thread or buffer
    # one _scratch per batch in flight, handed on once its counts are read:
    # fresh buffers cost a page fault per 4 KB, about a third of the time
    free = [_scratch(chunk_rows, m) for _ in range(width)]
    max_other = kept = 0
    witness = None
    pending = []  # (batch, scratch, future) in draw order
    with ThreadPoolExecutor(width) as pool:
        while kept < samples:
            # the draws of a rejection loop, in order: only the affine tables
            # (the ones with |W| = 2^m somewhere) are dropped and drawn again.
            # No more is drawn than the batches in flight leave needed, so the
            # loop checks the shortest prefix of the stream that holds
            # `samples` non-affine tables, whatever the width.
            need = samples - kept - sum(len(batch) for batch, _, _ in pending)
            while free and need > 0:
                batch = [rng.getrandbits(n) for _ in range(min(chunk_rows, need))]
                need -= len(batch)
                scratch = free.pop()
                pending.append((batch, scratch, pool.submit(_rm1_counts, batch, m, scratch)))
            batch, scratch, future = pending.pop(0)
            zero_counts, affine = future.result()
            free.append(scratch)
            kept += len(batch) - int(np.count_nonzero(affine))
            zero_counts[affine] = 0
            max_other = max(max_other, int(zero_counts.max()))
            bad = np.flatnonzero(zero_counts >= bound)
            if witness is None and len(bad):
                witness = TruthTable(m, batch[bad[0]])
    return _verdict("rm1", {"m": m, "samples": samples, "seed": seed}, Mode.SAMPLED, Method.SPECTRAL,
                    bound, max_other, witness, t0)


def verify_oddweight_cosets(m: int, cap: int | None = None, coset_cap: int | None = None) -> Verdict:
    """Cosets of RM(m-2,m) with odd-weight representatives (those outside
    RM(m-1,m)) contain no balanced words; in fact every word weight there
    is odd, which the dual table re-checks."""
    t0 = time.monotonic()
    if m < 2:
        raise ParameterError(f"odd-weight coset check needs m >= 2, got {m}")
    census, distributions = _dual_census(RMParams(m - 2, m), Scope.FULL_SPACE, cap, coset_cap)
    # the rep basis is unit tables, so rep g has weight popcount(g)
    odd = np.flatnonzero(np.bitwise_count(np.arange(len(census.classes))) & 1)
    max_other = max(census.counts[c] for c in set(census.classes[odd].tolist()))
    # a balanced word has the even weight n/2, so one even weight is enough
    even = [any(w % 2 == 0 for w in d.support) for d in distributions]
    return _verdict("oddweight", {"m": m}, Mode.EXHAUSTIVE, Method.BRUTE,
                    census.code_balanced_count, max_other, census.witness(even, odd), t0)


def verify_hamming_coset_equidistribution(
    m: int, cap: int | None = None, coset_cap: int | None = None
) -> Verdict:
    """All nontrivial cosets of RM(m-2,m) inside RM(m-1,m) share one full
    weight distribution, whose balanced entry matches the closed form."""
    t0 = time.monotonic()
    if m < 3:
        raise ParameterError(f"equidistribution check needs m >= 3, got {m}")
    census = _dual_census(RMParams(m - 2, m), Scope.WITHIN_NEXT_ORDER, cap, coset_cap)[0]
    code_count, max_other = census.code_balanced_count, census.max_other
    # distinct columns are distinct distributions: the Krawtchouk matrix is invertible
    witness = census.witness(np.arange(len(census.counts)) != census.classes[1])
    closed_b, closed_d = hamming_closed_forms(m)
    if witness is None and (code_count != closed_b or max_other != closed_d):
        raise ExactnessError(
            f"equidistributed cosets disagree with closed forms at m={m}: "
            f"({code_count}, {max_other}) vs ({closed_b}, {closed_d})"
        )
    return _verdict("equidist", {"m": m}, Mode.EXHAUSTIVE, Method.BRUTE,
                    code_count, max_other, witness, t0)


def coset_weight_distribution(
    code: RMParams, rep: TruthTable, method: Method = Method.TRANSFORM, cap: int | None = None
) -> WeightDistribution:
    """Full weight distribution of code + rep, by enumeration or by the
    dual-side transform; both require rep outside the code."""
    if rep.m != code.m:
        raise ParameterError(f"rep has m={rep.m}, code has m={code.m}")
    if rm_membership(rep, code):
        raise ParameterError(f"representative {rep.to_hex()} lies in {code}; coset is trivial")
    if method is Method.BRUTE:
        require_cap(code.dimension, cap, f"coset distribution of {code}")
        return WeightDistribution.from_dense(code_counter(code).weight_histogram(rep.bits).tolist())
    if method is Method.TRANSFORM:
        ids, distribution = _dual_table(code, [rep.bits], cap)
        return distribution(ids[1])
    raise ParameterError("coset distributions support BRUTE or TRANSFORM")
