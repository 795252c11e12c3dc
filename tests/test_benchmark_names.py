"""The benchmark's per-layer metrics name functions that must still exist.

The tracer finds functions by name, so a renamed function would make its
metric read 0 instead of failing.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# modules whose public functions the tracer wraps (``cli.glue`` is the
# scenario glue time, not a function)
LAYERS = ("lattice", "fock", "dynamics", "pulses", "readout", "kicks")


def per_layer_functions():
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["per_layer"]
    names = set()
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in LAYERS:
            names.add((parts[0], parts[1]))
    return sorted(names)


def test_benchmark_names_some_functions():
    assert len(per_layer_functions()) >= 10


@pytest.mark.parametrize("layer,name", per_layer_functions())
def test_per_layer_function_exists(layer, name):
    module = importlib.import_module(f"ionwalk.{layer}")
    function = getattr(module, name, None)
    assert isinstance(function, types.FunctionType), f"ionwalk.{layer}.{name} is gone"
    assert not name.startswith("_")
    assert function.__module__ == module.__name__
