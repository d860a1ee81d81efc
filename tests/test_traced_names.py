"""The benchmark's per-layer metrics name package functions; each must exist.

``BENCHMARK.json`` lists metrics ``<layer>.self_s`` and
``<layer>.<name>[.<method>].self_s`` or ``.calls``, which the layer tracer
records for public functions of the ``girthspan`` modules.  Deleting or
renaming such a function would leave its metric reading nothing, so this
test fails first.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRACER_SPANS = {"root"}         # the span around a whole op
TRACER_FILE_SPAN = "file_io"    # ``<layer>.file_io``: a file read or write, not a function


def traced_names():
    for entry in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) > 1 and parts[-1] in ("self_s", "calls"):
            yield entry["name"], parts[0], parts[1:-1]


def test_traced_names_are_listed():
    names = [name for name, _, _ in traced_names()]
    assert "labelcover.repcover_valid.self_s" in names
    assert "graphs.Graph.edge_id.calls" in names


def test_every_traced_name_resolves_to_a_function():
    for name, layer, path in traced_names():
        if layer in TRACER_SPANS:
            continue
        module = importlib.import_module(f"girthspan.{layer}")
        if not path or path[0] == TRACER_FILE_SPAN:
            continue
        assert len(path) <= 2, f"{name}: expected <layer>.<name>[.<method>]"
        target = module
        for attr in path:
            assert hasattr(target, attr), f"{name}: girthspan.{layer} has no {'.'.join(path)}"
            target = getattr(target, attr)
        assert inspect.isfunction(target), f"{name} is not a function"
        if len(path) == 1:
            assert target.__module__ == f"girthspan.{layer}", f"{name} is defined elsewhere"
