"""Run one rmlab CLI job in this fresh process and print one JSON line.

Usage: python3 child.py '<request JSON>'
  request: {"src": <dir holding the rmlab package>, "argv": [...],
            "trace": bool, "spans": bool, "job_id": int}

The line carries the CLOCK_MONOTONIC time at which rmlab.cli finished
importing (the parent subtracts its spawn time to get set-up time), the
time spent inside cli.main, its return code or traceback, this process's
resource use during main and its peak resident set, and, when traced,
the per-layer metrics and optionally the spans.
"""

import json
import resource
import sys
import time
import traceback


def _peak_rss_kb(ru) -> int:
    """High-water resident set of this process image.  ru_maxrss alone
    would also count the parent, whose peak Linux carries into the
    child across fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return ru.ru_maxrss


def main() -> None:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, req["src"])
    import rmlab.cli as cli

    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    error = None
    try:
        rc = cli.main(req["argv"])
    except Exception:  # reported as a failed job, not a crash of the benchmark
        rc = None
        error = traceback.format_exc()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "t_ready": t_ready,
        "main_s": t1 - t0,
        "rc": rc,
        "error": error,
        "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
        "user_s": ru1.ru_utime - ru0.ru_utime,
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "maxrss_kb": _peak_rss_kb(ru1),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.read_cache_counts()
        out["layers"] = tracer.layer_metrics()
        out["untraced_targets"] = tracer.missing
        if req["spans"]:
            out["spans"] = tracer.span_records(req["job_id"])
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
