"""Fast self-test of the benchmark harness (about 20 s).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

It runs ``small-cases`` with one program seed, untraced and traced twice,
and checks that:
- every workload of BENCHMARK.json is defined in workloads.py;
- every end-to-end and every per-layer metric of BENCHMARK.json is
  produced, and every count repeats exactly between the two traced runs;
- tracing leaves the certificates unchanged and every wrapped name is
  restored afterwards, both in the traced child and in this process;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer

SEED = 0


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def namespace_snapshot():
    """Every attribute of every plinth module and plinth class, by identity."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name != "plinth" and not name.startswith("plinth."):
            continue
        spaces = [module] + [
            obj
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("plinth")
        ]
        for space in spaces:
            for attr, value in vars(space).items():
                snapshot[(space.__name__, attr)] = id(value)
    return snapshot


def check_in_process_restore(root):
    sys.path.insert(0, str(root / "src"))
    import plinth.cli  # noqa: F401

    before = namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    check(namespace_snapshot() != before, "install wrapped nothing")
    try:
        plinth.cli.run_case("sylvester", {"seed": 1})
    finally:
        tracer.uninstall()
    check(namespace_snapshot() == before, "some wrapped name was not restored")
    check(not tracer.leftovers(), f"wrappers left: {tracer.leftovers()}")
    check(tracer.stats["cli.run_case"][0] == 1, "run_case span missing")
    check(tracer.stats["perm.StabChain"][0] > 0, "StabChain span missing")


def check_bare_directory(root):
    bare = root / "perfbench-results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sp44", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory run exited 0")
    check(not proc.stdout.strip(), "bare directory run printed a result")


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    check({w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS),
          "BENCHMARK.json names a workload that workloads.py lacks")

    untraced = run.run(root, bench, "small-cases", SEED, 1, False, sweep=1)
    first = run.run(root, bench, "small-cases", SEED, 1, True, sweep=1)
    second = run.run(root, bench, "small-cases", SEED, 1, True, sweep=1)
    for name in (m["name"] for m in bench["end_to_end"]):
        check(name in untraced["result"]["metrics"], f"end-to-end {name} missing")
    for record in (untraced, first, second):
        check(record["result"]["correct"], f"checks failed: {record['checks']}")
        check(record["result"]["failed"] == 0, "a certificate failed")
    for spec in bench["per_layer"]:
        name = spec["name"]
        check(name in first["result"]["metrics"], f"per-layer {name} missing")
        if spec["unit"] == "count":
            a = first["result"]["metrics"][name]["value"]
            b = second["result"]["metrics"][name]["value"]
            check(a == b, f"count {name} differs between traced runs: {a} != {b}")
    for record in (first, second):
        check(record["checks"]["traced_hashes_match"], "tracing changed a certificate")
        check(not record["trace"]["leftovers"], "traced child left wrappers")

    check_in_process_restore(root)
    check_bare_directory(root)
    print("selftest ok: "
          f"{len(bench['end_to_end'])} end-to-end and {len(bench['per_layer'])} "
          "per-layer metrics present, counts repeat, wrappers restored")


if __name__ == "__main__":
    main()
