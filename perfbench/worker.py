"""One benchmark pass in a fresh interpreter.

A new process per pass pays the start-up cost every ``ionwalk`` command
pays and starts with cold caches, as a command-line user does. ``run.py``
starts it as

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "trace": ...,
                                  "out": ..., "spawned_at": ..., "setup_only": ...}'

with ``src`` on PYTHONPATH, and reads the JSON object it prints last.
``spawned_at`` is the parent's ``time.monotonic()`` just before the spawn;
the clock is system-wide, so the set-up time covers interpreter start-up.
"""

import json
import os
import resource
import sys
import time
import traceback

import speed


def _blas() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main(request: dict) -> dict:
    with speed.setup_probe() as setup:
        import numpy as np
        import scipy

        from ionwalk import cli

        import tracing
        import workloads

        runs = workloads.WORKLOADS[request["workload"]]
        seed = int(request["seed"])
        setup_raw_s = time.monotonic() - request["spawned_at"] - setup.spent_s()
    result = {
        "setup_raw_s": setup_raw_s,
        "setup_s": setup.at_reference(setup_raw_s),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas()},
    }
    if request["setup_only"]:
        return result

    os.makedirs(request["out"], exist_ok=True)
    scenarios = []
    # traced passes go unprobed: a probe tick would land in some span's self time
    tracer, probe = (tracing.Tracer(), None) if request["trace"] else (None, speed.pass_probe())
    started = time.perf_counter()
    with tracer or probe:
        for i, run in enumerate(runs):
            out = os.path.join(request["out"], f"{i}-{run.scenario}")
            error = None
            t0 = time.perf_counter()
            try:
                cli.run_scenario(run.scenario, dict(run.overrides), out, workers=1, seed=seed)
            except Exception:  # counted as a failed operation; the pass goes on
                error = traceback.format_exc()
            scenarios.append({"scenario": run.scenario, "out": out,
                              "seconds": time.perf_counter() - t0, "error": error})
    result["wall_raw_s"] = time.perf_counter() - started
    if probe is not None:
        result["wall_raw_s"] -= probe.spent_s()
        result["wall_s"] = probe.at_reference(result["wall_raw_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["scenarios"] = scenarios
    if tracer is not None:
        result["spans"] = os.path.join(request["out"], "spans.json")
        tracer.write(result["spans"])
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
