"""The spans named by the benchmark's per-layer metrics exist.

A traced benchmark run reads each per-layer metric from the span of a
function, class or method of ``plinth.<layer>``; a renamed or deleted
one would stop that run with a KeyError.  This test reads the names
from BENCHMARK.json only.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _spans():
    spans = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        prefix = metric["name"].rsplit(".", 1)[0]
        # a one-word prefix is a layer total or a trace figure, not a span
        if "." in prefix:
            spans.add(prefix)
    return sorted(spans)


def test_benchmark_spans_are_read():
    assert "graphs.two_arc_transitive" in _spans()


@pytest.mark.parametrize("span", _spans())
def test_benchmark_span_is_public_in_its_layer(span):
    layer, name, *method = span.split(".")
    assert len(method) <= 1 and not name.startswith("_")
    module = importlib.import_module(f"plinth.{layer}")
    obj = getattr(module, name, None)
    assert inspect.isfunction(obj) or inspect.isclass(obj), span
    assert obj.__module__ == module.__name__, span
    if method:
        assert inspect.isclass(obj) and not method[0].startswith("_")
        assert inspect.isfunction(getattr(obj, method[0], None)), span
