#!/usr/bin/env python3
"""Schema check of the benchmark's report files.  It checks structure,
types and internal consistency only, never a timing value.

Usage: python3 perfbench/check_report.py perfbench/out/report-*.json
Exits 1 and lists the problems if any report fails.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SCHEMA = 1

_ENV = {
    "git_commit": (str, type(None)),
    "src_sha256": str,
    "python": str,
    "numpy": (str, type(None)),
    "nproc": int,
    "platform": str,
    "loadavg_start": list,
    "loadavg_end": list,
}
_SAMPLE_NUMBERS = ("setup_s", "main_s", "user_s", "sys_s", "minor_faults", "maxrss_kb")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _benchmark_metrics(root: Path) -> tuple[set, set] | None:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def validate(report: dict, root: Path | None = None) -> list[str]:
    """Problems with a report dict; empty when it conforms."""
    p: list[str] = []
    if report.get("schema") != SCHEMA:
        return [f"schema is {report.get('schema')!r}, expected {SCHEMA}"]
    for key, kind in (
        ("workload", str), ("seed", int), ("seconds", (int, float)), ("trace", int),
        ("passes", int), ("jobs", list), ("environment", dict), ("correct", bool),
        ("attempted", int), ("failed", int), ("failures", list), ("metrics", dict),
        ("samples", list), ("spans", list),
    ):
        if not isinstance(report.get(key), kind):
            p.append(f"{key} missing or not {kind}")
    if p:
        return p

    env = report["environment"]
    for key, kind in _ENV.items():
        if not isinstance(env.get(key), kind):
            p.append(f"environment.{key} missing or not {kind}")
    for job in report["jobs"]:
        if not (isinstance(job.get("argv"), list) and all(isinstance(a, str) for a in job["argv"])):
            p.append(f"job argv malformed: {job!r}")

    n_jobs = len(report["jobs"])
    samples = report["samples"]
    if report["attempted"] != len(samples) or report["attempted"] < 1:
        p.append("attempted does not count the samples")
    if report["failed"] != len(report["failures"]) or report["failed"] != sum(
        1 for s in samples if s.get("error")
    ):
        p.append("failed does not count the failing samples")
    if report["correct"] != (report["failed"] == 0):
        p.append("correct disagrees with failed")
    if len(samples) != report["passes"] * n_jobs:
        p.append("samples are not one per job per pass")
    for s in samples:
        if not (isinstance(s.get("job_id"), int) and 0 <= s["job_id"] < n_jobs):
            p.append(f"sample job_id out of range: {s.get('job_id')!r}")
        if not isinstance(s.get("pass"), int) or not isinstance(s.get("traced"), bool):
            p.append("sample lacks pass or traced")
        if s.get("error"):
            continue
        for key in _SAMPLE_NUMBERS:
            if not _is_number(s.get(key)):
                p.append(f"sample {s.get('job_id')} pass {s.get('pass')}: {key} is not a number")
        if s["traced"] and not isinstance(s.get("layers"), dict):
            p.append(f"traced sample {s['job_id']} has no layers")

    for name, m in report["metrics"].items():
        if not (isinstance(m, dict) and _is_number(m.get("value")) and isinstance(m.get("unit"), str)):
            p.append(f"metric {name} malformed")
    names = _benchmark_metrics(root) if root is not None else None
    if names is not None and report["correct"]:
        need = names[1] if report["trace"] else names[0]
        missing = sorted(need - set(report["metrics"]))
        if missing:
            p.append(f"metrics missing: {', '.join(missing)}")

    for i, span in enumerate(report["spans"]):
        ok = (
            isinstance(span, list) and len(span) == 5 and isinstance(span[0], str)
            and _is_number(span[1]) and _is_number(span[2])
            and isinstance(span[3], int) and span[3] < i
            and isinstance(span[4], int) and 0 <= span[4] < n_jobs
        )
        if not ok:
            p.append(f"span {i} malformed: {span!r}")
            break
    return p


def main(paths: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    bad = 0
    for path in paths:
        problems = validate(json.loads(Path(path).read_text()), root)
        for problem in problems:
            print(f"{path}: {problem}")
        bad += bool(problems)
    return 1 if bad or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
