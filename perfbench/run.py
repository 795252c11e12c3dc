"""ionwalk benchmark: run one workload for a time budget, check every
output, print the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload td-scan --seed 1 --seconds 20 --trace 0

    for w in td-scan kick-thresholds studies-mix; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Run it from the root of a checkout; it runs the code under ``src``. Each
pass runs the workload's scenarios through ``ionwalk.cli.run_scenario``
with ``workers=1`` in a fresh interpreter (``worker.py``) whose BLAS and
OpenMP pools are pinned to one thread. Passes are started until the next
one would end after ``--seconds``; the first always runs, so a pass longer
than the budget is measured once. ``--trace 0`` reports the end-to-end
metrics (medians over passes). ``wall_s`` and ``setup_s`` are rescaled to
a reference machine speed measured while they run (``speed.py`` says why);
the raw times are printed beside them as ``wall_raw_s`` and
``setup_raw_s``. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, with
``trace.overhead_s`` the traced minus the untraced median raw wall time.

A scenario run is a failed operation if it raises, misses its correctness
gate (``workloads.py``) or writes CSVs whose bytes differ from the first
pass of the run. The last stdout line is the JSON result; exit code 0
means every operation passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _csv_digests(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ionwalk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runs = workloads.WORKLOADS[workload]
        self.out = os.path.join(HERE, "out", f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.started = time.monotonic()
        self.passes: list[dict] = []
        self.setup_samples: list[dict] = []  # results of every worker, passes included
        self.attempted = self.failed = 0
        self.reference_csvs: dict[int, dict] = {}  # scenario index -> first pass's digests

    def _spawn(self, traced: bool, out: str, setup_only: bool) -> dict | None:
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        request = {"workload": self.workload, "seed": self.seed, "trace": traced,
                   "out": out, "setup_only": setup_only, "spawned_at": time.monotonic()}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_samples.append(result)
        return result

    def run_pass(self, traced: bool) -> dict | None:
        out = os.path.join(self.out, f"pass{len(self.passes)}")
        result = self._spawn(traced, out, setup_only=False)
        self.attempted += len(self.runs)
        if result is None:
            self.failed += len(self.runs)
            return None
        result["traced"] = traced
        for i, (run, record) in enumerate(zip(self.runs, result["scenarios"])):
            failures = [record["error"]] if record["error"] else []
            if not failures:
                try:
                    failures = run.check(record["out"])
                except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
                    failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
                digests = _csv_digests(record["out"])
                if digests != self.reference_csvs.setdefault(i, digests):
                    failures.append("CSV bytes differ from the first pass")
            if failures:
                self.failed += 1
                print(f"FAILED {run.scenario}: {'; '.join(failures)}", file=sys.stderr)
        self.passes.append(result)
        return result

    def measure(self) -> None:
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            if self.run_pass(traced) is None:
                return
            elapsed = time.monotonic() - self.started
            typical = statistics.median(p["wall_raw_s"] + p["setup_raw_s"] for p in self.passes)
            enough = not self.trace or len(self.passes) >= 2
            if enough and elapsed + typical > self.seconds:
                break
            if elapsed + typical > RUN_LIMIT_S - SETUP_SAMPLES * 2.0:
                break
        while len(self.setup_samples) < SETUP_SAMPLES:
            if self._spawn(False, self.out, setup_only=True) is None:
                return

    def end_to_end(self) -> dict[str, float]:
        passes = [p for p in self.passes if not p["traced"]]
        return {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
            "setup_s": statistics.median(s["setup_s"] for s in self.setup_samples),
            "setup_raw_s": statistics.median(s["setup_raw_s"] for s in self.setup_samples),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    def per_layer(self) -> tuple[dict[str, float], bool]:
        """Medians of the traced passes; returns (metrics, counts_repeat)."""
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]
        metrics = {}
        repeat = True
        for name, first in traced[0]["layers"].items():
            values = [p["layers"][name] for p in traced]
            if isinstance(first, int):
                repeat = repeat and all(v == first for v in values)
                metrics[name] = first
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(p["wall_raw_s"] for p in traced)
                                       - statistics.median(p["wall_raw_s"] for p in untraced))
        return metrics, repeat

    def environment(self) -> dict:
        env = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: self.env[var] for var in THREAD_VARS},
            "source_sha256": _source_digest(self.root),
            **self.setup_samples[-1]["versions"],
        }
        head = os.path.join(self.root, ".git", "HEAD")
        if os.path.exists(head):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                 capture_output=True, text=True)
            env["git_rev"] = rev.stdout.strip() or None
        return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ionwalk", "cli.py")):
        print(f"no ionwalk source under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    spans = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}.spans.json")
    try:
        bench.measure()
        traced = [p for p in bench.passes if p["traced"]]
        if traced:
            os.replace(traced[-1]["spans"], spans)
    finally:
        shutil.rmtree(bench.out, ignore_errors=True)
    complete = bool(bench.passes) and (not args.trace or len(bench.passes) >= 2)
    if not complete:
        print("no complete measurement", file=sys.stderr)
        return 1

    counts_repeat = True
    if args.trace:
        values, counts_repeat = bench.per_layer()
        if not counts_repeat:
            print("per-layer counts differ between traced passes", file=sys.stderr)
        wanted = spec["per_layer"]
    else:
        values = bench.end_to_end()
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(bench.environment(), sort_keys=True))
    walls = ", ".join(f"{p['wall_raw_s']:.3f}{'t' if p['traced'] else ''}" for p in bench.passes)
    print(f"{args.workload} seed={args.seed} pass wall_raw_s: {walls}")
    if args.trace:
        print(f"spans of the last traced pass: {os.path.relpath(spans, root)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name in ("wall_raw_s", "setup_raw_s"):
            print(f"  {name} = {values[name]:.6g} s")
    print(f"  ops = {bench.attempted} count")
    print(f"  failed_ops = {bench.failed} count")
    correct = bench.failed == 0 and counts_repeat
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
