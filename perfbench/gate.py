"""Exactness gate: every job's output must equal what the pinned commit
printed, or, for seeded jobs, satisfy facts that hold for every seed.

expected.json holds
  outputs:  pin key -> {"sha256", "bytes"} of the byte-exact output
            (weight distributions and censuses; cosetdist keyed by
            (m, parity of the representative's weight));
  verdicts: pin key -> verdict JSON text with its elapsed_ms line cut.

Every nontrivial coset of RM(m-2,m) has a weight distribution fixed by
the parity of its representative's weight (odd: one orbit of weight-1
leaders; even: the equidistributed cosets inside RM(m-1,m)), so each
seeded cosetdist output must match the pinned one for its (m, parity).
Each sampled rm1 verdict must pass with code_count = 2^(m+1) - 2.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import Job

_ELAPSED = re.compile(rb'^  "elapsed_ms": -?\d+,\n', re.MULTILINE)


def strip_elapsed(out: bytes) -> str:
    return _ELAPSED.sub(b"", out, count=1).decode()


def digest(out: bytes) -> dict:
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


def cosetdist_key(job: Job) -> str:
    m = int(job.argv[job.argv.index("-m") + 1])
    rep = int(job.argv[job.argv.index("--rep") + 1], 16)
    return f"cosetdist m={m} {'odd' if rep.bit_count() % 2 else 'even'}"


def _check_rm1_sampled(job: Job, out: bytes) -> str | None:
    argv = job.argv
    m = int(argv[argv.index("-m") + 1])
    want = {
        "claim": "rm1",
        "params": {
            "m": m,
            "samples": int(argv[argv.index("--samples") + 1]),
            "seed": int(argv[argv.index("--seed") + 1]),
        },
        "mode": "SAMPLED",
        "method": "spectral",
        "pass": True,
        "code_count": str((1 << (m + 1)) - 2),
        "witness_hex": None,
    }
    try:
        got = json.loads(out)
    except ValueError:
        return "sampled rm1 verdict is not JSON"
    wrong = sorted(k for k, v in want.items() if got.get(k) != v)
    if wrong:
        return f"sampled rm1 verdict differs in {', '.join(wrong)}"
    if not int(got["max_other"]) < int(want["code_count"]):
        return "sampled rm1 max_other reaches code_count"
    return None


def check(job: Job, rc: int | None, out: bytes | None, expected: dict) -> str | None:
    """None if the job's exit code and output are right, else why not."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if out is None:
        return "no output file"
    if job.kind == "rm1-sampled":
        return _check_rm1_sampled(job, out)
    if job.kind == "verdict":
        pinned = expected["verdicts"].get(job.pin_key)
        if pinned is None:
            return "no pinned verdict"
        return None if strip_elapsed(out) == pinned else "verdict differs from the pinned one"
    key = cosetdist_key(job) if job.kind == "cosetdist" else job.pin_key
    pinned = expected["outputs"].get(key)
    if pinned is None:
        return f"no pinned output for {key!r}"
    return None if digest(out) == pinned else f"output differs from pinned {key!r}"
