#!/usr/bin/env python3
"""rmlab benchmark: run one workload's ordered list of CLI jobs, check
every output for exactness, and print the metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload coset-sweep --seed 1 --seconds 36 --trace 0

One client runs the jobs one at a time (closed loop, --workers 1).  Each
job runs in a fresh Python process that imports rmlab.cli and calls
cli.main(argv) with --output to a file, so one job's allocator state
cannot change the next job's timing.  The job list is repeated in
passes until another pass would end more than half a pass past
--seconds; each metric takes the per-job median over the passes.  With
--trace 1, passes alternate between traced and untraced; the traced
ones give the per-layer metrics and the difference gives the tracing
overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A full
report, with every per-job sample, the environment and the spans of the
first traced pass, is written to perfbench/out/.  Exit status is 0 when
every output was exact, 1 when some job failed, 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

import check_report  # noqa: E402
import gate  # noqa: E402
from tracer import COUNTS, SELF_TIME  # noqa: E402
from workloads import DIST, VERIFY, WORKLOADS, Job, make_jobs  # noqa: E402

# the whole run ends within this: a job is killed when it would pass it,
# jobs after that are not run, and no pass starts that would end past it
DEADLINE_S = 170

# end-to-end metrics every workload reports: the ones BENCHMARK.json gates
E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# end-to-end metrics printed and kept in the report but not gated: some
# workloads lack them, and verify_s on exact-transform is ~25 ms of two
# short jobs whose times flip between two modes from run to run
E2E_EXTRA = {
    "verify_s": "s", "dist_s": "s", "cosets_per_s": "1/s", "samples_per_s": "1/s", "failed_frac": "ratio",
}

PROCESS = {"process.minor_faults": "count", "process.sys_s": "s", "process.user_s": "s"}
TRACE = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {metric: "s" for metric in SELF_TIME.values()}
    for metric in COUNTS:
        units[metric] = "bytes" if metric.endswith("_bytes") else "count"
    units["transforms.column_cache_hit_ratio"] = "ratio"
    units.update(PROCESS)
    units.update(TRACE)
    return units


def run_job(
    job: Job, job_id: int, work: Path, trace: bool, spans: bool, expected: dict | None, timeout: float
) -> dict:
    """Run one job in a fresh process; return its sample (and spans)."""
    out_path = work / f"job{job_id}.out"
    argv = list(job.argv) + ["--output", str(out_path)]
    paths = [out_path]
    if job.checkpoint:
        ckpt = work / f"job{job_id}.ckpt"
        paths += [ckpt, Path(str(ckpt) + ".tmp")]
        argv += ["--checkpoint", str(ckpt)]
    for p in paths:  # a left-over checkpoint would resume instead of recount
        p.unlink(missing_ok=True)
    req = {"src": str(SRC), "argv": argv, "trace": trace, "spans": spans, "job_id": job_id}
    env = {k: v for k, v in os.environ.items() if not k.startswith("RMLAB_") and k != "PYTHONPATH"}

    sample: dict = {"job_id": job_id, "traced": trace}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(req)],
            capture_output=True, timeout=timeout, env=env, cwd=str(work),
        )
    except subprocess.TimeoutExpired:
        sample["error"] = f"timed out after {timeout:.0f} s"
        return sample
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.decode(errors="replace")[-2000:]
        sample["error"] = f"child exited {proc.returncode} without a result: {tail}"
        return sample

    sample.update(
        setup_s=res["t_ready"] - t_spawn,
        main_s=res["main_s"],
        rc=res["rc"],
        minor_faults=res["minor_faults"],
        user_s=res["user_s"],
        sys_s=res["sys_s"],
        maxrss_kb=res["maxrss_kb"],
        numpy=res["numpy"],
    )
    if "layers" in res:
        sample["layers"] = res["layers"]
        sample["untraced_targets"] = res["untraced_targets"]
    if res["error"]:
        sample["error"] = res["error"]
    elif expected is not None:
        out = out_path.read_bytes() if out_path.exists() else None
        sample["error"] = gate.check(job, res["rc"], out, expected)
    if spans:
        sample["spans"] = res.get("spans", [])
    return sample


def _per_job_median(samples: list[dict], field: str) -> dict[int, float]:
    by_job: dict[int, list] = {}
    for s in samples:
        if field in s:
            by_job.setdefault(s["job_id"], []).append(s[field])
    return {j: statistics.median(v) for j, v in by_job.items()}


def end_to_end(jobs: list[Job], samples: list[dict]) -> dict[str, float]:
    main = _per_job_median(samples, "main_s")
    setup = _per_job_median(samples, "setup_s")
    rss = _per_job_median(samples, "maxrss_kb")

    def total(pick) -> float:
        return sum(t for j, t in main.items() if pick(jobs[j]))

    out = {
        "setup_s": sum(setup.values()),
        "wall_s": sum(main.values()),
        "verify_s": total(lambda job: job.command == VERIFY),
        "peak_rss_mb": max(rss.values(), default=0) / 1024,
    }
    if any(job.command in DIST for job in jobs):
        out["dist_s"] = total(lambda job: job.command in DIST)
    cosets = sum(jobs[j].cosets for j in main)
    if cosets:
        out["cosets_per_s"] = cosets / total(lambda job: job.cosets > 0)
    tables = sum(jobs[j].tables for j in main)
    if tables:
        out["samples_per_s"] = tables / total(lambda job: job.tables > 0)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-job medians over traced passes (the lower one of an even
    count, so counts stay whole), summed over jobs."""
    by_job: dict[int, list[dict]] = {}
    for s in traced:
        if "layers" in s:
            by_job.setdefault(s["job_id"], []).append(s["layers"])
    out = {metric: 0 for metric in per_layer_units()}
    for layer_samples in by_job.values():
        for metric in layer_samples[0]:
            out[metric] += statistics.median_low(ls[metric] for ls in layer_samples)
    lookups = out["transforms.column_cache_lookups"]
    out["transforms.column_cache_hit_ratio"] = out["transforms.column_cache_hits"] / lookups if lookups else 0.0
    base = untraced or traced
    for metric in PROCESS:
        out[metric] = sum(_per_job_median(base, metric.split(".", 1)[1]).values())
    out["trace.wall_s"] = sum(_per_job_median(traced, "main_s").values())
    out["trace.untraced_wall_s"] = sum(_per_job_median(untraced, "main_s").values())
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def environment(load_start: tuple, samples: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30
            )
            commit = proc.stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": next((s["numpy"] for s in samples if "numpy" in s), None),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running job is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "rmlab" / "cli.py").is_file():
        print(f"perfbench: no rmlab sources at {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    jobs = make_jobs(args.workload, args.seed)
    load_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    samples: list[dict] = []
    spans: list = []
    try:
        # bytecode compiles and the page cache fills once, before timing
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import rmlab.cli"],
            check=True, timeout=DEADLINE_S, cwd=str(work),
        )
        t_begin = time.monotonic()
        n_pass = 0
        while True:
            traced = bool(args.trace) and n_pass % 2 == 0
            t_pass = time.monotonic()
            for job_id, job in enumerate(jobs):
                left = deadline - time.monotonic()
                if left > 0:
                    s = run_job(job, job_id, work, traced, traced and n_pass == 0, expected, left)
                else:
                    s = {"job_id": job_id, "traced": traced, "error": "not run: the run hit its deadline"}
                base = len(spans)  # parent indexes become indexes into the joined list
                spans += [[n, t0, t1, par + base if par >= 0 else -1, j] for n, t0, t1, par, j in s.pop("spans", [])]
                s["pass"] = n_pass
                samples.append(s)
            n_pass += 1
            now = time.monotonic()
            elapsed, last = now - t_begin, now - t_pass
            enough = n_pass >= (2 if args.trace else 1)
            if now + last > deadline or (enough and elapsed + last / 2 > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [
        {"job_id": s["job_id"], "pass": s["pass"], "argv": list(jobs[s["job_id"]].argv), "error": s["error"]}
        for s in samples if s.get("error")
    ]
    attempted, failed = len(samples), len(failures)
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    e2e = end_to_end(jobs, untraced) if untraced else {}
    if e2e:
        e2e["failed_frac"] = failed / attempted
    layers = per_layer(traced, untraced) if args.trace else {}
    units = {**E2E, **E2E_EXTRA, **per_layer_units()}

    report = {
        "schema": check_report.SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_pass,
        "jobs": [
            {"argv": list(j.argv), "kind": j.kind, "cosets": j.cosets, "tables": j.tables}
            for j in jobs
        ],
        "environment": environment(load_start, samples),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in {**e2e, **layers}.items()},
        "samples": samples,
        "spans": spans,
    }
    problems = check_report.validate(report, ROOT)
    if problems:
        print("perfbench: report fails its schema:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report))

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  passes {n_pass}  jobs/pass {len(jobs)}")
    print(
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"commit {env['git_commit']}  load {env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}"
    )
    for name, m in report["metrics"].items():
        v = m["value"]
        shown_v = f"{int(v):>16d}" if float(v).is_integer() else f"{v:>16.6g}"
        print(f"  {name:36s} {shown_v} {m['unit']}")
    for f in failures:
        print(f"FAILED job {f['job_id']} pass {f['pass']} ({' '.join(f['argv'])}): {f['error']}")
    print(f"report {report_path.relative_to(ROOT)}")

    shown = E2E if not args.trace else per_layer_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report["metrics"][k]["value"], "unit": shown[k]} for k in shown},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
