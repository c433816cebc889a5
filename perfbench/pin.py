#!/usr/bin/env python3
"""Write perfbench/expected.json: the outputs the exactness gate compares
against, taken from the rmlab sources in this checkout.

Run it only on the commit whose outputs are the reference:
  python3 perfbench/pin.py
Deterministic jobs are pinned byte for byte (verdicts without their
elapsed_ms line).  cosetdist outputs are pinned once per (m, parity)
from the canonical coset leaders: position 0 (odd weight) and
positions {0, 1} (even weight, outside RM(m-2,m)).  Sampled rm1 jobs are
checked by seed-independent facts and need no pin.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from gate import cosetdist_key, digest, strip_elapsed
from workloads import WORKLOADS, Job, make_jobs


def pin_jobs() -> list[Job]:
    jobs = []
    for workload in WORKLOADS:
        for job in make_jobs(workload, 0):
            if job.kind in ("exact", "verdict"):
                jobs.append(job)
            elif job.kind == "cosetdist":
                argv = list(job.argv)
                m = int(argv[argv.index("-m") + 1])
                n = 1 << m
                odd = cosetdist_key(job).endswith("odd")
                bits = (1 << (n - 1)) if odd else (3 << (n - 2))
                argv[argv.index("--rep") + 1] = format(bits, f"0{n // 4}x")
                jobs.append(Job(tuple(argv), "cosetdist"))
    return jobs


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "pin"
    work.mkdir(exist_ok=True)
    expected = {"pinned_from": None, "outputs": {}, "verdicts": {}}
    try:
        for job_id, job in enumerate(pin_jobs()):
            s = run.run_job(job, job_id, work, trace=False, spans=False, expected=None, timeout=run.DEADLINE_S)
            if s.get("error") or s["rc"] != 0:
                print(f"cannot pin {' '.join(job.argv)}: {s.get('error') or s['rc']}", file=sys.stderr)
                return 1
            out = (work / f"job{job_id}.out").read_bytes()
            if job.kind == "verdict":
                expected["verdicts"][job.pin_key] = strip_elapsed(out)
            else:
                key = cosetdist_key(job) if job.kind == "cosetdist" else job.pin_key
                expected["outputs"][key] = digest(out)
            print(f"pinned {' '.join(job.argv)}")
        env = run.environment(os.getloadavg(), [])
        expected["pinned_from"] = {k: env[k] for k in ("git_commit", "src_sha256")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
