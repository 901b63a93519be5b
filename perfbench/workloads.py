"""Workloads of the suite benchmark and the metrics computed from a trace.

A workload turns the benchmark's ``--seed`` into plans: the list of
``(case, program seed)`` certificates one child process runs, in order.
Child k of a run continues the sweep where child k-1 stopped, so a run
samples several blocks of program seeds: the work of a small-cases sweep
depends on the seed, because its subgroup searches are seeded.  The
program sees only the derived program seeds.  README.md beside this file
gives why each workload exists and what each metric should show.
"""

from tracer import LAYERS

SMALL_CASES = ("sylvester", "m12", "factorizations", "products", "classify-a6")

# (cases run per seed, consecutive program seeds swept per child, typical
# seconds per child on a 2-vCPU Xeon).  BENCHMARK.json lists sp44 and
# small-cases; classify-sp44 is not in it, because runs of three of its
# children besides sp44's do not fit the time the benchmark is given, but
# it stays here to be run by name.
WORKLOADS = {
    "sp44": (("sp44",), 1, 27.0),
    "classify-sp44": (("classify-sp44",), 1, 8.5),
    "small-cases": (SMALL_CASES, 8, 7.0),
}
MIN_CHILDREN = 3  # so the median of a run drops one slow child


def child_count(workload, seconds):
    """Number of workload children in a run of about ``seconds``.

    It depends on the arguments only, never on how fast the machine is,
    so equal seeds and seconds give equal plans.
    """
    return max(MIN_CHILDREN, round(seconds / WORKLOADS[workload][2]))


def program_seed(seed):
    """Program seed derived from the workload seed: 1 or more, like the CLI's."""
    return 1 + seed % 1_000_000


def plan(workload, seed, child=0, sweep=None):
    """Certificates of child ``child`` of a run with this workload seed."""
    cases, default_sweep, _ = WORKLOADS[workload]
    count = default_sweep if sweep is None else sweep
    first = program_seed(seed) + child * count
    return [(case, s) for s in range(first, first + count) for case in cases]


def layer_self_s(stats):
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s) in stats.items():
        totals[name.split(".", 1)[0]] += self_s
    return totals


def per_layer_value(name, trace):
    """Value of one per-layer metric from a child's trace summary.

    Names are ``<layer>.self_s`` (layer total), ``<span>.self_s``,
    ``<span>.calls``, a size count, ``cartesian.grid_yield`` or a
    ``trace.*`` figure stored in the summary.  A name the trace cannot
    give raises KeyError, so a renamed function cannot read as zero.
    """
    stats, counts = trace["stats"], trace["counts"]
    if name in trace["derived"]:
        return trace["derived"][name]
    if name in counts:
        return counts[name]
    if name == "cartesian.grid_yield":
        tried = stats["cartesian.CartesianDecomposition"][0]
        return counts["cartesian.grids_found"] / tried if tried else 0.0
    prefix, stat = name.rsplit(".", 1)
    if stat == "self_s" and prefix in LAYERS:
        return layer_self_s(stats)[prefix]
    if stat == "self_s":
        return stats[prefix][1]
    if stat == "calls":
        return stats[prefix][0]
    raise KeyError(name)


def predictions(workload, trace):
    """The layer-share predictions this workload's trace can confirm.

    Returns (statement, held) pairs; a prediction that fails is reported,
    never tuned away.
    """
    stats = trace["stats"]
    layers = layer_self_s(stats)
    total = sum(layers.values())
    if workload == "sp44":
        return [("graphs is the largest layer by self time",
                 max(layers, key=layers.get) == "graphs")]
    if workload == "classify-sp44":
        return [("graphs self time is under 10% of the total",
                 layers["graphs"] < 0.10 * total)]
    if workload == "small-cases":
        top = max(stats, key=lambda n: stats[n][1])
        return [(f"perm.StabChain is the largest single span (largest: {top})",
                 top == "perm.StabChain")]
    return []
