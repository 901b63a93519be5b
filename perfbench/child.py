"""One measured run of a certificate plan, in a fresh interpreter.

Usage: python3 child.py <spawn time> <job JSON>

<spawn time> is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time
runs from interpreter start to ``import plinth.cli`` done.  The job holds
the plan, a list of ``[case, seed]`` pairs, and an optional ``spans``
path; with a spans path the run is traced.  The result is one JSON line
on stdout.
"""

import sys
import time

_SPAWNED = float(sys.argv[1])
import plinth.cli  # noqa: E402

SETUP_S = time.monotonic() - _SPAWNED

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402


def run_plan(plan, tracer=None):
    """Run each certificate of the plan; return (records, wall_s, cpu_s)."""
    records = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for case, seed in plan:
        if tracer is not None:
            tracer.request = f"{case}:{seed}"
        report = plinth.cli.run_case(case, {"seed": seed})
        status = report.status
        if report.case != case or report.seed != seed:
            status = "MISLABELED"
        records.append([case, seed, status, report.determinism_hash()])
    return records, time.perf_counter() - wall0, time.process_time() - cpu0


def main():
    job = json.loads(sys.argv[2])
    out = {"setup_s": SETUP_S}
    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out["certs"], out["wall_s"], out["cpu_s"] = run_plan(job["plan"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["plinth_file"] = plinth.cli.__file__
    out["python"] = platform.python_version()
    out["numpy"] = numpy.__version__
    if tracer is not None:
        out["trace"] = {
            "stats": tracer.stats,
            "counts": tracer.counts,
            "root_total_s": tracer.root_total_s(),
            "spans": len(tracer.spans),
            "leftovers": tracer.leftovers(),
        }
        tracer.write_spans(job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
