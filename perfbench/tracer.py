"""Per-layer tracing of one rmlab CLI job, installed from outside the
package.

rmlab modules bind imported names in their own namespace, so each
wrapper is installed where the caller looks the name up (for example
rmlab.transforms.kraw_column, not rmlab.krawtchouk.kraw_column).  Each
wrapped call records a span [name, start, end, parent] in memory, plus
counts computed from its arguments or result.  A layer's self time is
its spans' time minus the time of the traced spans they contain.
Targets that a later version of rmlab no longer has are skipped and
listed, so the trace degrades instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _fold(c, a, kw, r):
    c["bitenum.fold_calls"] += 1
    c["bitenum.fold_words"] += 1 << len(_arg(a, kw, 0, "basis"))


def _query(c, a, kw, r):
    c["bitenum.counter_queries"] += 1


def _span_block(c, a, kw, r):
    c["bitenum.span_block_rows"] += 1 << _arg(a, kw, 1, "log2_rows")


def _popcount(c, a, kw, r):
    c["bitenum.popcount_rows"] += _arg(a, kw, 0, "words").shape[0]


def _census(c, a, kw, r):
    c["harness.cosets"] += len(r.entries)


def _rep_decode(c, a, kw, r):
    c["harness.rep_decodes"] += 1


def _checkpoint(c, a, kw, r):
    c["harness.checkpoint_writes"] += 1
    c["harness.checkpoint_bytes"] += os.path.getsize(_arg(a, kw, 0, "path"))


def _calls(metric):
    def count(c, a, kw, r):
        c[metric] += 1

    return count


def _kraw_column(c, a, kw, r):
    c["krawtchouk.column_calls"] += 1
    c["krawtchouk.column_entries"] += _arg(a, kw, 1, "n") + 1


def _transform(c, a, kw, r):
    n = _arg(a, kw, 2, "n")
    c["transforms.transform_calls"] += 1
    c["transforms.transform_mults"] += (n + 1) * len(_arg(a, kw, 0, "coeffs"))


def _fwht(c, a, kw, r):
    rows = _arg(a, kw, 0, "rows")
    n = rows.shape[-1]
    c["spectral.fwht_calls"] += 1
    c["spectral.fwht_rows"] += rows.size // n
    c["spectral.butterflies"] += (rows.size // n) * n * (n.bit_length() - 1)


def _emit(c, a, kw, r):
    c["cli.output_bytes"] += len(_arg(a, kw, 0, "text").encode())


# (module, attribute path, span name, count function); the same span
# name may be installed at several call sites.
TARGETS = [
    ("rmlab._bitenum", "span_balanced_count", "bitenum.fold", _fold),
    ("rmlab._bitenum", "span_weight_histogram", "bitenum.fold", _fold),
    ("rmlab._bitenum", "span_orthogonal_histogram", "bitenum.fold", _fold),
    ("rmlab._bitenum", "SpanCounter.__init__", "bitenum.counter", None),
    ("rmlab._bitenum", "SpanCounter.balanced_count", "bitenum.counter", _query),
    ("rmlab._bitenum", "SpanCounter.weight_histogram", "bitenum.counter", _query),
    ("rmlab._bitenum", "_span_block", "bitenum.span_block", _span_block),
    ("rmlab._bitenum", "_popcount_rows", "bitenum.popcount", _popcount),
    ("rmlab.harness", "census_balanced", "harness.census", _census),
    ("rmlab.cli", "census_balanced", "harness.census", _census),
    ("rmlab.harness", "CosetCensus.rep_table", "harness.rep_decode", _rep_decode),
    ("rmlab.harness", "_save_checkpoint", "harness.checkpoint", _checkpoint),
    ("rmlab.cli", "verify_theorem_basic", "harness.verify", None),
    ("rmlab.cli", "verify_quotient_conjecture", "harness.verify", None),
    ("rmlab.cli", "verify_rm1_proposition", "harness.verify", None),
    ("rmlab.cli", "verify_oddweight_cosets", "harness.verify", None),
    ("rmlab.cli", "verify_hamming_coset_equidistribution", "harness.verify", None),
    ("rmlab.harness", "pivot_positions", "rmcodes.pivot", _calls("rmcodes.pivot_calls")),
    ("rmlab.cli", "rm_weight_distribution", "rmcodes.weightdist", _calls("rmcodes.weightdist_calls")),
    ("rmlab.harness", "rm_weight_distribution", "rmcodes.weightdist", _calls("rmcodes.weightdist_calls")),
    ("rmlab.harness", "rm_membership", "rmcodes.membership", _calls("rmcodes.membership_calls")),
    ("rmlab.transforms", "rm_membership", "rmcodes.membership", _calls("rmcodes.membership_calls")),
    ("rmlab.transforms", "kraw_column", "krawtchouk.column", _kraw_column),
    ("rmlab.transforms", "_transform", "transforms.transform", _transform),
    ("rmlab.harness", "coset_dual_profile", "transforms.profile", _calls("transforms.profile_calls")),
    ("rmlab.spectral", "_fwht_rows", "spectral.fwht", _fwht),
    ("rmlab.spectral", "tt_to_positions", "spectral.unpack", None),
    ("rmlab.rmcodes", "_mobius_bits", "bfcore.mobius", _calls("bfcore.mobius_calls")),
    ("rmlab.cli", "_format_distribution", "cli.format", None),
    ("rmlab.cli", "_format_values", "cli.format", None),
    ("rmlab.cli", "_two_column", "cli.format", None),
    ("rmlab.cli", "json.dumps", "cli.format", None),
    ("rmlab.cli", "_emit", "cli.format", _emit),
]

# span name -> per-layer self-time metric
SELF_TIME = {
    "bitenum.fold": "bitenum.fold_s",
    "bitenum.counter": "bitenum.counter_s",
    "bitenum.span_block": "bitenum.span_block_s",
    "bitenum.popcount": "bitenum.popcount_s",
    "harness.census": "harness.census_s",
    "harness.rep_decode": "harness.rep_decode_s",
    "harness.checkpoint": "harness.checkpoint_s",
    "harness.verify": "harness.verify_self_s",
    "rmcodes.pivot": "rmcodes.pivot_s",
    "rmcodes.weightdist": "rmcodes.weightdist_s",
    "rmcodes.membership": "rmcodes.membership_s",
    "krawtchouk.column": "krawtchouk.column_s",
    "transforms.transform": "transforms.transform_s",
    "transforms.profile": "transforms.profile_s",
    "spectral.fwht": "spectral.fwht_s",
    "spectral.unpack": "spectral.unpack_s",
    "bfcore.mobius": "bfcore.mobius_s",
    "cli.format": "cli.format_s",
}

COUNTS = (
    "bitenum.fold_calls", "bitenum.fold_words", "bitenum.counter_queries",
    "bitenum.span_block_rows", "bitenum.popcount_rows",
    "harness.cosets", "harness.rep_decodes", "harness.checkpoint_writes",
    "harness.checkpoint_bytes",
    "rmcodes.pivot_calls", "rmcodes.weightdist_calls", "rmcodes.membership_calls",
    "krawtchouk.column_calls", "krawtchouk.column_entries",
    "transforms.transform_calls", "transforms.transform_mults", "transforms.profile_calls",
    "transforms.column_cache_hits", "transforms.column_cache_lookups",
    "spectral.fwht_calls", "spectral.fwht_rows", "spectral.butterflies",
    "bfcore.mobius_calls", "cli.output_bytes",
)


class Tracer:
    """Spans and counts of one job, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    child = getattr(owner, part)
                    if isinstance(child, types.ModuleType):
                        # a private copy, so only this caller's lookups are traced
                        proxy = types.ModuleType(child.__name__)
                        proxy.__dict__.update(child.__dict__)
                        setattr(owner, part, proxy)
                        child = proxy
                    owner = child
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, fn, count))

    def read_cache_counts(self) -> None:
        """Hits and lookups of the transform column cache (an lru_cache)."""
        transforms = importlib.import_module("rmlab.transforms")
        cached = getattr(transforms, "_cached_column", None)
        if cached is None or not hasattr(cached, "cache_info"):
            self.missing.append("rmlab.transforms._cached_column")
            return
        info = cached.cache_info()
        self.counts["transforms.column_cache_hits"] += info.hits
        self.counts["transforms.column_cache_lookups"] += info.hits + info.misses

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer and every count, zero where no work ran."""
        inner = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, float] = {metric: 0.0 for metric in SELF_TIME.values()}
        for (name, start, end, _), covered in zip(self.spans, inner):
            out[SELF_TIME[name]] += end - start - covered
        for metric in COUNTS:
            out[metric] = self.counts.get(metric, 0)
        return out

    def span_records(self, job_id: int) -> list[list]:
        """Spans as rows [name, start, end, parent, job id]."""
        return [[n, s, e, p, job_id] for n, s, e, p in self.spans]
