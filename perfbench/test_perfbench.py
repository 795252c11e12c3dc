"""Self-tests of the benchmark; they run real passes (a few minutes):

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

COUNT_SUFFIXES = (".calls", ".samples", ".evals")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = _bench("--workload", "kick-thresholds", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    extra = {"ops": "count", "failed_ops": "count"}
    if trace == "0":
        extra |= {"wall_raw_s": "s", "setup_raw_s": "s"}
    assert printed == {**wanted, **extra}


@pytest.fixture(scope="module")
def studies_passes(tmp_path_factory):
    bench = run.Bench(ROOT, "studies-mix", seed=7, seconds=1, trace=True)
    bench.out = str(tmp_path_factory.mktemp("studies"))
    passes = [bench.run_pass(traced) for traced in (False, True, True)]
    assert all(p is not None for p in passes)
    return bench, passes


def _csv_bytes(pass_result: dict) -> dict:
    return {record["scenario"]: run._csv_digests(record["out"])
            for record in pass_result["scenarios"]}


def test_csvs_identical_with_tracing_on_and_off(studies_passes):
    bench, (plain, traced, _) = studies_passes
    assert bench.failed == 0
    assert sum(len(csvs) for csvs in _csv_bytes(plain).values()) >= 6
    assert _csv_bytes(plain) == _csv_bytes(traced)


def test_counts_repeat_across_runs_at_one_seed(studies_passes):
    _, (_, first, second) = studies_passes
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["layers"][k] for k in counts}
    for layer in ("dynamics", "pulses", "fock", "lattice", "readout"):
        assert first["layers"][f"{layer}.self_s"] > 0.0


def _ionwalk_namespaces() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "ionwalk" or name.startswith("ionwalk.")
            for attr, value in vars(module).items()}


def test_tracer_sees_calls_through_imported_names_and_restores_them(tmp_path):
    from ionwalk import cli, dynamics, fock, kicks, pulses

    before = _ionwalk_namespaces()
    params = fock.experimental_params(level="LDA", dim=32)
    with tracing.Tracer() as tracer:
        for module, attr in ((pulses, "propagate"), (pulses, "coherent_state"),
                             (dynamics, "displacement_matrix"),
                             (kicks, "displacement_matrix"), (kicks, "coherent_state")):
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        cli.run_scenario("readout-roundtrip", {"trials": 3}, str(tmp_path), seed=1)
        pulses.calibrate_positions(1, params)
        dynamics.lda_propagate(dynamics.ground_hybrid(32, "TH"), params, params.t_half_turn)
        kicks.kick_fidelity(1j, kicks.pi_pulse(1e-9, 0.31, 2 * math.pi * 2.13e6, 64))
    metrics = tracer.metrics()
    after = _ionwalk_namespaces()
    assert after.keys() == before.keys()
    assert all(value is before[key] for key, value in after.items())
    assert metrics["readout.invert_bsb.calls"] == 6
    assert metrics["pulses.run_program.calls"] == 1
    assert metrics["dynamics.propagate.calls"] == 2
    assert metrics["dynamics.apply_drive.calls"] > 0
    assert metrics["fock.coherent_state.calls"] == 3  # 2 calibration targets + 1 kick
    assert metrics["fock.displacement_matrix.calls"] == 4  # 2 lda_propagate + 2 kick
    assert metrics["cli.glue.self_s"] > 0.0


@pytest.mark.parametrize("make_probe", [speed.setup_probe, speed.pass_probe])
def test_speed_probe_samples_while_running_and_restores_sigalrm(make_probe):
    before = signal.getsignal(signal.SIGALRM)
    with make_probe() as probe:
        deadline = time.perf_counter() + 3 * probe.period_s
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 2
    assert probe.at_reference(1.0) > 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "td-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
