"""Span tracer that wraps plinth's layer entry points from outside.

The program under test is not edited.  ``Tracer.install`` replaces every
public function of each layer module, plus a few named methods, with a
wrapper that records a span (name, start, end, parent, request id).  The
package binds names with ``from .x import f``, so each wrapper is rebound
in every ``plinth`` module namespace that holds the original object;
methods are wrapped on their class.  ``Tracer.uninstall`` puts every
original back and ``Tracer.leftovers`` proves it.

Spans stay in memory; self time is a span's duration minus the time its
direct child spans cover, so the self times of one root span's tree add
up to the root's duration.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("perm", "algebra", "actions", "graphs", "autgq", "cartesian", "cli")

# Methods whose cost the per-layer metrics name; a constructor's span is
# named after its class.
METHODS = (
    ("perm", "StabChain", "__init__"),
    ("actions", "SubgroupClassAction", "key_of"),
    ("actions", "SubgroupClassAction", "action_of"),
    ("cartesian", "CartesianDecomposition", "__init__"),
)


def _count_entries(counts, args, result):
    counts["graphs.orbital_graph.entries"] += len(result.indices)


def _count_strong_gens(counts, args, result):
    counts["perm.StabChain.strong_gens"] += len(args[0].gens)


def _count_grids(counts, args, result):
    counts["cartesian.grids_found"] += len(result)


# Size counters taken from a wrapped call's arguments or result.
COUNT_NAMES = (
    "graphs.orbital_graph.entries",
    "perm.StabChain.strong_gens",
    "cartesian.grids_found",
)
COUNTERS = {
    "graphs.orbital_graph": _count_entries,
    "perm.StabChain": _count_strong_gens,
    "cartesian.find_grid_decompositions": _count_grids,
}


def span_name(layer, owner, attr):
    if owner is None:
        return f"{layer}.{attr}"
    if attr == "__init__":
        return f"{layer}.{owner}"
    return f"{layer}.{owner}.{attr}"


def _plinth_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "plinth" or name.startswith("plinth.")
    ]


def _layer_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield attr, obj


class Tracer:
    """Records spans and counts for calls into plinth's layers."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, request)
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.request = None
        self._open = []  # [name, start, covered seconds, span index]
        self._patches = []  # (namespace, attribute, original)
        self._wrappers = set()

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        self._open.append([name, perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def _exit(self):
        end = perf_counter()
        name, start, covered, index = self._open.pop()
        duration = end - start
        parent = -1
        if self._open:
            self._open[-1][2] += duration
            parent = self._open[-1][3]
        self.spans[index] = (name, start, end, parent, self.request)
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - covered

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        self._wrappers.add(traced)
        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self):
        """Wrap every layer entry point; plinth must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _plinth_modules()
        for layer in LAYERS:
            module = sys.modules[f"plinth.{layer}"]
            for attr, fn in list(_layer_functions(module)):
                wrapper = self.wrap(span_name(layer, None, attr), fn)
                for namespace in modules:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, name, wrapper)
        for layer, owner, attr in METHODS:
            cls = getattr(sys.modules[f"plinth.{layer}"], owner)
            wrapper = self.wrap(span_name(layer, owner, attr), vars(cls)[attr])
            self._patch(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def leftovers(self):
        """Names in plinth namespaces that still hold a wrapper."""
        found = []
        wrapper_ids = {id(w) for w in self._wrappers}
        namespaces = _plinth_modules()
        namespaces += [
            obj
            for module in _plinth_modules()
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("plinth")
        ]
        for namespace in namespaces:
            for name, value in vars(namespace).items():
                if id(value) in wrapper_ids:
                    found.append(f"{namespace.__name__}.{name}")
        return found

    # -- output ---------------------------------------------------------

    def root_total_s(self):
        """Summed duration of the root spans (one per certificate)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
