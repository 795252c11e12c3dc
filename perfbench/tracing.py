"""Per-layer tracing of ionwalk from outside the package.

``Tracer`` wraps every public function of the layer modules (plus
``cli.run_scenario``, the root of each scenario run) in every ``ionwalk``
namespace that holds it, so a call through ``pulses.propagate`` or
``kicks.displacement_matrix`` is seen as well as one through the defining
module. Spans stay in memory until the run ends. ``dynamics.apply_drive``
runs ~39k times per walk, so it gets no span of its own: its calls and
summed time are added to the span that called it (``propagate``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("lattice", "fock", "dynamics", "pulses", "readout", "kicks")
ROOT = "cli.run_scenario"
AGGREGATED = "dynamics.apply_drive"
# counts read from a function's return value: function -> (metric, extractor)
RESULT_COUNTS = {
    "dynamics.propagate": ("dynamics.samples", lambda r: len(r[1]) if isinstance(r, tuple) else 0),
    "kicks.fidelity_threshold": ("kicks.fidelity_threshold.samples", lambda r: len(r[2])),
}


class Span:
    __slots__ = ("index", "name", "parent", "trace", "start", "end", "child_s",
                 "inner_calls", "inner_s", "count")

    def __init__(self, index, name, parent):
        self.index = index
        self.name = name
        self.parent = parent
        self.trace = index if parent is None else parent.trace
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.inner_calls = 0  # calls of AGGREGATED made directly from this span
        self.inner_s = 0.0
        self.count = 0

    def as_dict(self) -> dict:
        return {
            "id": self.index, "trace": self.trace, "name": self.name,
            "parent": None if self.parent is None else self.parent.index,
            "start": self.start, "end": self.end,
            "self_s": self.end - self.start - self.child_s,
            AGGREGATED: {"calls": self.inner_calls, "seconds": self.inner_s},
            "count": self.count,
        }


def _traced_functions() -> dict[int, tuple[str, types.FunctionType]]:
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"ionwalk.{layer}"]
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found[id(value)] = (f"{layer}.{attr}", value)
    root = sys.modules["ionwalk.cli"].run_scenario
    found[id(root)] = (ROOT, root)
    return found


class Tracer:
    """Install with ``with Tracer() as tracer:``; leaving the block restores
    every original function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.names: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        functions = _traced_functions()
        self.names = sorted(name for name, _ in functions.values())
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in functions.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "ionwalk" and not module_name.startswith("ionwalk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and functions[id(value)][1] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        if name == AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                parent = stack[-1]
                parent.child_s += elapsed
                parent.inner_calls += 1
                parent.inner_s += elapsed
                return result
            return aggregated

        counter = RESULT_COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = Span(len(self.spans), name, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
        return spanned

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([span.as_dict() for span in self.spans], fh)

    def metrics(self) -> dict[str, float]:
        """Calls, self time and inclusive time of every traced function,
        self time per layer and the counts named in RESULT_COUNTS."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        counts = defaultdict(int)
        evals = 0
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            self_s[span.name] += duration - span.child_s
            wall_s[span.name] += duration
            if span.name in RESULT_COUNTS:
                counts[RESULT_COUNTS[span.name][0]] += span.count
            calls[AGGREGATED] += span.inner_calls
            self_s[AGGREGATED] += span.inner_s
            wall_s[AGGREGATED] += span.inner_s
            if span.name == "pulses.run_program" and _has_ancestor(span, "pulses.find_optimal_td"):
                evals += 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.wall_s"] = wall_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(self_s[n] for n in self.names if n.startswith(layer + "."))
        for metric, _ in RESULT_COUNTS.values():
            out[metric] = counts[metric]
        out["pulses.find_optimal_td.evals"] = evals
        out["cli.glue.self_s"] = self_s[ROOT]
        return out


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False
