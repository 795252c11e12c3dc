"""Names the benchmark needs must still exist.

The per-layer metrics name functions that the tracer finds by name, so a
renamed function would make its metric read 0 instead of failing.  The
harness also calls some functions directly and patches some imported names;
losing one would break the benchmark while every other test passes.
"""

import importlib
import inspect
import json
import math
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


# calls the benchmark harness makes directly (perfbench/worker.py and
# perfbench/test_perfbench.py), in its argument shapes: (layer, name,
# positional, keyword)
HARNESS_CALLS = [
    ("cli", "run_scenario", ("td-scan", {}, "out"), {"workers": 1, "seed": 1}),
    ("dynamics", "lda_propagate", ("state", "params", 1e-6), {}),
    ("dynamics", "ground_hybrid", (32, "TH"), {}),
    ("kicks", "kick_fidelity", (1j, "kp"), {}),
    ("kicks", "pi_pulse", (1e-9, 0.31, 1e7, 64), {}),
    ("pulses", "calibrate_positions", (1, "params"), {}),
    ("fock", "experimental_params", (), {"level": "LDA", "dim": 32}),
]

# imported names the harness's tracer self-test patches: (importing layer,
# name, defining layer)
IMPORTED_ALIASES = [
    ("pulses", "propagate", "dynamics"),
    ("pulses", "coherent_state", "fock"),
    ("dynamics", "displacement_matrix", "fock"),
    ("kicks", "displacement_matrix", "fock"),
    ("kicks", "coherent_state", "fock"),
]


@pytest.mark.parametrize("layer,name,args,kwargs", HARNESS_CALLS)
def test_harness_call_binds(layer, name, args, kwargs):
    module = importlib.import_module(f"ionwalk.{layer}")
    function = getattr(module, name, None)
    assert isinstance(function, types.FunctionType), f"ionwalk.{layer}.{name} is gone"
    assert function.__module__ == module.__name__
    inspect.signature(function).bind(*args, **kwargs)


@pytest.mark.parametrize("layer,name,home", IMPORTED_ALIASES)
def test_harness_alias_is_the_traced_function(layer, name, home):
    alias = getattr(importlib.import_module(f"ionwalk.{layer}"), name, None)
    defined = getattr(importlib.import_module(f"ionwalk.{home}"), name, None)
    assert isinstance(defined, types.FunctionType), f"ionwalk.{home}.{name} is gone"
    assert alias is defined, f"ionwalk.{layer}.{name} no longer imports ionwalk.{home}.{name}"


def test_threshold_search_result_holds_its_samples():
    # perfbench/tracing.py counts kicks.fidelity_threshold.samples as
    # len(result[2]), and the scenario path passes these arguments
    from ionwalk import kicks

    params = list(inspect.signature(kicks.fidelity_threshold).parameters)
    assert params == ["alpha", "f_min", "eta", "omega_z", "dim"]
    kp = kicks.pi_pulse(1e-9, 0.31, 2 * math.pi * 2.13e6, 32)
    assert type(kicks.kick_fidelity(1j, kp)) is float
    result = kicks.fidelity_threshold(1j, 0.99, 0.31, kp.omega_z, dim=32)
    assert len(result) == 3
    t_p, f, samples = result
    assert isinstance(samples, list) and len(samples) > 5
    assert all(len(sample) == 2 for sample in samples) and (t_p, f) in samples
