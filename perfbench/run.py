"""Suite benchmark for plinth: time to a correct certificate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sp44 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A closed loop with one caller: each child process is started only after
the previous one has exited, and runs ``plinth.cli.run_case`` on the
workload's plan (see workloads.py).  A run has as many workload
children as take about ``--seconds`` at the workload's typical child
time, and at least three.  With ``--trace 0`` the end-to-end
metrics of BENCHMARK.json are medians over the untraced children.  With
``--trace 1`` one more, traced, child follows them and gives the
per-layer metrics.  Every certificate timed is checked: its status must
be PASS and its determinism hash must equal the first hash recorded in
this checkout for the same (case, seed).  Results, the environment and
the spans go to perfbench-results/.  The last line of stdout is the
JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, child_count, per_layer_value, plan, predictions

HERE = Path(__file__).resolve().parent
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5  # import-only children per run, after one warm-up
RUN_DEADLINE_S = 170.0
SPAN_TOLERANCE = 1e-6  # relative; self times of a root's tree sum to its duration


class HarnessError(Exception):
    """The benchmark could not measure; no result is printed."""


def spawn(root, job, deadline):
    """Run child.py on one job and return its parsed JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("run deadline passed before the next child")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned), json.dumps(job)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("child process exceeded the run deadline") from None
    if proc.returncode != 0:
        raise HarnessError(f"child exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (root / "src" / "plinth" / "cli.py").resolve()
    if Path(out["plinth_file"]).resolve() != expected:
        raise HarnessError(f"child imported plinth from {out['plinth_file']}")
    return out


def _git(root, *args):
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(root, seed, first_child, program_seeds, load_start):
    # Only ask git inside a git checkout, so no enclosing repository answers.
    is_repo = (root / ".git").exists()
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if is_repo else None
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if is_repo else None,
        "git_dirty": None if status is None else bool(status),
        "python": first_child["python"],
        "numpy": first_child["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": THREAD_ENV,
        "workload_seed": seed,
        "program_seeds": program_seeds,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


class Ledger:
    """First determinism hash seen in this checkout for each (case, seed)."""

    def __init__(self, path):
        self.path = path
        self.hashes = json.loads(path.read_text()) if path.exists() else {}

    def check(self, case, seed, digest):
        key = f"{case}:{seed}"
        first = self.hashes.setdefault(key, digest)
        return first == digest

    def save(self):
        partial = self.path.with_suffix(".partial")
        partial.write_text(json.dumps(self.hashes, indent=1, sort_keys=True))
        os.replace(partial, self.path)


def run(root, bench, workload, seed, seconds, trace, sweep=None):
    """Measure one workload; return the full results record.

    ``sweep`` overrides the workload's number of program seeds (the
    self-test uses one).
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    count = child_count(workload, seconds)
    out_dir = root / "perfbench-results"
    out_dir.mkdir(exist_ok=True)
    load_start = os.getloadavg()

    warm = spawn(root, {"plan": []}, deadline)  # fills the bytecode cache
    setups = [spawn(root, {"plan": []}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    children = []
    for k in range(count):
        child = spawn(root, {"plan": plan(workload, seed, k, sweep)}, deadline)
        children.append(child)
        setups.append(child["setup_s"])
    traced = None
    if trace:
        # The traced child repeats the first child's plan, so the two can
        # be compared certificate by certificate and second by second.
        spans = out_dir / f"{workload}-seed{seed}-spans.jsonl"
        job = {"plan": plan(workload, seed, 0, sweep), "spans": str(spans)}
        traced = spawn(root, job, deadline)

    ledger = Ledger(out_dir / "hashes.json")
    certificates = []
    sources = [(f"child {k}", c) for k, c in enumerate(children)]
    if traced is not None:
        sources.append(("traced", traced))
    for source, child in sources:
        for case, s, status, digest in child["certs"]:
            reproducible = ledger.check(case, s, digest)
            certificates.append({
                "source": source, "case": case, "seed": s, "status": status,
                "hash": digest, "ok": status == "PASS" and reproducible,
            })
    ledger.save()
    failed = sum(not c["ok"] for c in certificates)

    samples = {
        "wall_s": [c["wall_s"] for c in children],
        "cpu_s": [c["cpu_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "setup_s": setups,
    }
    end_to_end = {
        name: {"median": statistics.median(values), "samples": len(values)}
        for name, values in samples.items()
    }
    checks = {"certificates_pass_and_reproduce": failed == 0}
    record = {
        "workload": workload,
        "seconds": seconds,
        "samples": samples,
        "end_to_end": end_to_end,
        "failed_frac": {"failed": failed, "attempted": len(certificates),
                        "value": failed / len(certificates)},
        "certificates": certificates,
    }
    if trace:
        checks["traced_hashes_match"] = [c[3] for c in traced["certs"]] == [
            c[3] for c in children[0]["certs"]
        ]
        record["trace"] = trace_summary(workload, traced, children[0])
    record["checks"] = checks
    program_seeds = sorted({c["seed"] for c in certificates})
    record["environment"] = environment(root, seed, warm, program_seeds, load_start)
    metric_specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in metric_specs:
        if trace:
            value = per_layer_value(spec["name"], record["trace"])
        else:
            value = end_to_end[spec["name"]]["median"]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    record["result"] = {
        "correct": all(checks.values()),
        "attempted": len(certificates),
        "failed": failed,
        "metrics": metrics,
    }
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def trace_summary(workload, traced, untraced):
    """Per-layer figures of the traced child, with its consistency checks.

    ``untraced`` is the child that ran the same plan without tracing.
    """
    trace = traced["trace"]
    if trace["leftovers"]:
        raise HarnessError(f"wrappers left installed: {trace['leftovers']}")
    self_total = sum(self_s for _, self_s in trace["stats"].values())
    root_total = trace["root_total_s"]
    gap = root_total - self_total
    if abs(gap) > SPAN_TOLERANCE * root_total:
        raise HarnessError(f"span self times miss the run_case total by {gap} s")
    trace["derived"] = {
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.wall_s": traced["wall_s"],
    }
    trace["consistency"] = {
        "run_case_total_s": root_total,
        "self_time_sum_s": self_total,
        "gap_s": gap,
        "tolerance": f"|gap| <= {SPAN_TOLERANCE} x run_case total",
        "outside_spans_s": traced["wall_s"] - root_total,
    }
    trace["predictions"] = [
        {"statement": text, "held": held} for text, held in predictions(workload, trace)
    ]
    return trace


def print_record(record, bench):
    """Human-readable summary; the JSON result line follows it."""
    env = record["environment"]
    print(f"== {record['workload']}  workload seed {env['workload_seed']}"
          f"  program seeds {env['program_seeds']}  run {record['seconds']} s")
    print(f"   git {env['git_sha']} dirty={env['git_dirty']}  python {env['python']}"
          f"  numpy {env['numpy']}  nproc {env['nproc']}  {env['cpu_model']}")
    print(f"   load {env['loadavg_start']} -> {env['loadavg_end']}  {env['thread_env']}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, stat in record["end_to_end"].items():
        print(f"   {name:<14} {stat['median']:>12.4f} {units[name]:<6} median of {stat['samples']}")
    ff = record["failed_frac"]
    print(f"   {'failed_frac':<14} {ff['value']:>12.4f} {'ratio':<6}"
          f" {ff['failed']} of {ff['attempted']} certificates")
    print(f"   checks: {record['checks']}")
    trace = record.get("trace")
    if trace:
        top = sorted(trace["stats"].items(), key=lambda kv: -kv[1][1])[:12]
        print("   traced self time, top spans:")
        for name, (calls, self_s) in top:
            print(f"     {name:<42} {self_s:>9.3f} s {calls:>8} calls")
        for name, value in trace["derived"].items():
            print(f"   {name:<14} {value:>12.4f} s")
        c = trace["consistency"]
        print(f"   run_case total {c['run_case_total_s']:.4f} s, self sum"
              f" {c['self_time_sum_s']:.4f} s, gap {c['gap_s']:.2e} s ({c['tolerance']})")
        for p in trace["predictions"]:
            print(f"   prediction {'held' if p['held'] else 'NOT MET'}: {p['statement']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "plinth" / "cli.py").is_file():
        print("error: run from a plinth checkout (src/plinth is missing)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            record = run(root, bench, name, args.seed, seconds, bool(args.trace))
            print_record(record, bench)
            results[name] = record["result"]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
