import json
import math
import os
import subprocess
import sys

import pytest

from ionwalk import cli, fock, pulses
from ionwalk import dynamics as dyn
from ionwalk.errors import StepError


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestWalkIdeal:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        out = str(tmp_path / "walk")
        assert run(["walk-ideal", "--out", out, "--set", "step_size=4", "--set", "steps=60"]) == 0
        header, rows = read_csv(os.path.join(out, "positions.csv"))
        assert header == ["k", "p"]
        odd = [float(p) for k, p in rows if int(k) % 2 != 0]
        assert max(odd) < 1e-6
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["scenario"] == "walk-ideal"
        assert manifest["options"]["step_size"] == 4
        assert manifest["options"]["steps"] == 60
        assert "numpy" in manifest["versions"]
        assert manifest["artifacts"] == ["positions.csv", "sigma.csv", "scaling.csv", "manifest.json"]

    @pytest.mark.parametrize("args", [
        ["walk-ideal", "--set", "step_size=2", "--set", "steps=50"],
        ["combined-pulse", "--set", 'levels=["LDA"]', "--set", "dim=32"],
        ["readout-roundtrip"],
        ["scan-td", "--set", 'level="LDA"', "--set", "points=3", "--set", "n_steps=1"],
    ], ids=lambda args: args[0])
    def test_output_is_deterministic(self, tmp_path, args):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        names = sorted(n for n in os.listdir(out1) if n.endswith((".csv", ".json")))
        assert any(n.endswith(".csv") for n in names)
        assert sorted(os.listdir(out2)) == sorted(os.listdir(out1))
        for name in names:
            if name != "manifest.json":
                assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))


class TestConfigHandling:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert run(["does-not-exist", "--out", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"

    def test_unknown_override_exits_2(self, tmp_path):
        assert run(["walk-ideal", "--set", "nope=1", "--out", str(tmp_path)]) == 2

    def test_missing_scenario_exits_2(self, tmp_path):
        assert run(["--out", str(tmp_path)]) == 2

    def test_config_file_supplies_scenario(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "walk-ideal",
            "overrides": {"steps": 40, "step_size": 2.0},
        }))
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["options"]["steps"] == 40

    def test_flags_override_config_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "walk-ideal", "overrides": {"steps": 40}, "seed": 5,
        }))
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "--seed", "0"]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["seed"] == 0
        assert "workers" not in manifest

    @pytest.mark.parametrize("extra", [
        {"workers": 2}, {"sead": 5}, {"seed": "x"}, {"overrides": [1, 2]},
        {"scenario": ["walk-ideal"]}, {"out": 5},
        pytest.param(lambda cfg: cfg.write_bytes(b"\xff\xfe{"), id="not-utf8"),
        pytest.param(lambda cfg: cfg.mkdir(), id="directory"),
        pytest.param(lambda cfg: None, id="missing"),
        {"seed": -1},
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, extra):
        # a dict extends a valid config file; a callable makes the file itself
        cfg = tmp_path / "cfg.json"
        if callable(extra):
            extra(cfg)
        else:
            cfg.write_text(json.dumps({"scenario": "walk-ideal", **extra}))
        out = tmp_path / "out"
        assert run(["--config", str(cfg), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert (str(cfg) if callable(extra) else list(extra)[0]) in payload["message"]
        assert not out.exists()

    def test_out_path_that_is_a_file_exits_2_before_numerics(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        ran = []
        _, defaults = cli.SCENARIOS["walk-ideal"]
        monkeypatch.setitem(cli.SCENARIOS, "walk-ideal", (ran.append, defaults))
        assert run(["walk-ideal", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError" and str(out) in payload["message"]
        assert ran == [] and out.read_text() == "kept\n"

    def test_run_scenario_accepts_only_one_worker(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.run_scenario("walk-ideal", {"steps": 40}, str(tmp_path / "w"), workers=2)
        assert not (tmp_path / "w").exists()
        cli.run_scenario("walk-ideal", {"steps": 40}, str(tmp_path / "one"), workers=1)

    @pytest.mark.parametrize("args", [
        ["walk-ideal", "--set", "steps=-3"],
        ["walk-ideal", "--set", 'steps="ten"'],
        ["calibrate", "--set", "dim=8"],
        ["walk-ideal", "--set", "steps=10"],
        ["readout-roundtrip", "--set", "eta=0"],
        ["readout-roundtrip", "--set", "n_max=-1"],
        ["readout-roundtrip", "--set", "support=0"],
        ["readout-roundtrip", "--set", "support=20"],
        ["readout-roundtrip", "--set", "noise_sigma=-1"],
        ["trajectory", "--set", "level=RWA"],
        ["combined-pulse", "--set", "level=RWA"],
        ["trajectory", "--set", "samples=0"],
        ["trajectory", "--set", "samples=-5"],
        ["scan-td", "--set", "points=1"],
        ["scan-td", "--set", "points=0"],
        ["walk-positions", "--set", "n_steps=0"],
        ["stepwise", "--set", "n_pulses=-1"],
        ["calibrate", "--set", "k_max=-1"],
        ["readout-roundtrip", "--set", "trials=0"],
        ["scan-td", "--workers", "2"],
        ["walk-ideal", "--step-size", "2"],
        ["walk-ideal", "--steps", "50"],
        ["kick-threshold", "--alpha-max", "1"],
        ["--scenario", "walk-ideal"],
        ["walk-ideal", "--seed", "x"],
        ["resonant", "--set", "duration=-1e-6"],
        ["trajectory", "--set", "duration=-1e-6"],
        ["kick-threshold", "--set", "f_min=2"],
        ["kick-threshold", "--set", "alpha_max=-1"],
        ["scan-td", "--set", "mode=far"],
        ["calibrate", "--set", "wait_multiplier=3"],
        ["calibrate", "--set", "k_max=0", "--set", "wait_multiplier=3"],
        ["scan-td", "--set", "wait_multiplier=3"],
        ["combined-pulse", "--set", "t_d=-1e-6"],
        ["walk-positions", "--set", "t_d=-1e-6"],
        ["trajectory", "--set", "levels=[]"],
        ["kick-threshold", "--set", "alphas=[]"],
        ["combined-pulse", "--set", "t_d=0"],
        ["walk-positions", "--set", "t_d=0"],
        ["kick-threshold", "--set", "dim=0"],
        ["kick-threshold", "--set", "dim=64.5"],
        ["walk-ideal", "--set", "scaling_step_sizes=[]"],
        ["kick-threshold", "--set", "alphas=[0.0,1.0,2.0,3.0,4.0]"],
        ["kick-threshold", "--set", "alphas=[-2.0]"],
        ["stepwise", "--set", "delta=0"],
        ["combined-pulse", "--set", "delta=0"],
        ["calibrate", "--set", "delta=0"],
        ["scan-td", "--set", "delta=0"],
        ["walk-positions", "--set", "delta=0"],
        ["resonant", "--set", "delta=1e6"],
        ["resonant", "--set", "level=LDA"],
        ["stepwise", "--set", "level=LDA"],
        ["trajectory", "--set", 'levels=["LDA","XX"]', "--set", "dim=64"],
        ["trajectory", "--set", 'levels=["RWA","RWA"]', "--set", "dim=64"],
        ["kick-threshold", "--set", "alphas=[1.0,1.0]"],
        ["readout-roundtrip", "--seed", "-1"],
        ["walk-ideal", "--seed", "-1"],
        ["readout-roundtrip", "--set", "eta=39"],
    ])
    def test_invalid_option_value_exits_2(self, tmp_path, capsys, args):
        assert run(args + ["--out", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        # some rules are checked by the library mid-run; output is written
        # only when the scenario returns, so a rejected run writes nothing
        assert os.listdir(tmp_path) == []

    def test_overrides_take_the_type_of_their_default(self, tmp_path):
        ctx = cli.run_scenario("walk-ideal", {"steps": 40.0, "step_size": 2}, str(tmp_path))
        assert ctx.options["steps"] == 40 and isinstance(ctx.options["steps"], int)
        assert isinstance(ctx.options["step_size"], float)
        for bad in ({"steps": 40.5}, {"steps": True}, {"phi": "0"}, {"phi": float("nan")},
                    {"scaling_step_sizes": 2.0}, {"scaling_step_sizes": ["2"]}):
            with pytest.raises(cli.ConfigError):
                cli.run_scenario("walk-ideal", bad, str(tmp_path))

    def test_trap_options_come_from_experimental_params(self):
        params = fock.experimental_params()
        assert cli._TRAP == {k: getattr(params, k) for k in cli._TRAP}
        assert set(cli._TRAP) == {"omega_z", "delta", "omega_d", "eta", "dim", "level"}
        for _, options in cli.SCENARIOS.values():
            if "level" in options:
                built = cli._params_from_options(options)
                trap = [k for k in cli._TRAP if k in options]
                assert {k: getattr(built, k) for k in trap} == {k: options[k] for k in trap}

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        cases = [
            # a basis too small for the requested excitation trips the guard
            (["--set", "dim=16", "--set", "duration=6e-6"], "TruncationError", "increase dim"),
            # samples reach the guard band (up to 7.4e-4 at t = 4.09 us); the end does not
            (["--set", "dim=24", "--set", "duration=1e-5"], "TruncationError", "t = 2.263e-06 s"),
            # the CSV is ready before the return-time fit finds no post-peak window
            (["--set", "dim=64", "--set", "duration=1e-6"], "ValueError",
             "T-branch <n> still rises at the last sample, t = 1.000e-06 s: "
             "the history must be longer (raise duration)"),
        ]
        for i, (args, error, message) in enumerate(cases):
            out = tmp_path / str(i)
            assert run(["trajectory", "--out", str(out), "--set", 'levels=["RWA"]'] + args) == 3
            payload = json.loads(capsys.readouterr().out)
            assert payload["error"] == error and message in payload["message"]
            assert os.listdir(out) == []

    def test_undriven_trajectory_has_no_return_exits_3(self, tmp_path, capsys):
        # <n> holds its start on every sample, so no level has a return time
        out = tmp_path / "t"
        assert run(["trajectory", "--out", str(out), "--set", "omega_d=0",
                    "--set", "duration=2e-6"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValueError"
        assert "T-branch <n> never rises above its start, t = 0.000e+00 s" in payload["message"]
        assert os.listdir(out) == []

    def test_kick_basis_too_small_exits_3(self, tmp_path, capsys):
        # dim sets the frame basis: 16 levels cannot hold a kick segment at |alpha| = 200
        out = tmp_path / "k"
        assert run(["kick-threshold", "--out", str(out), "--set", "dim=16",
                    "--set", "alphas=[200.0]"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "TruncationError"
        assert "kick: guard-band population" in payload["message"]
        assert os.listdir(out) == []

    @pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
    def test_failed_run_writes_no_output(self, tmp_path, capsys, monkeypatch, scenario):
        def writes_then_fails(ctx):
            ctx.write_csv("partial.csv", ["k"], [(0,)])
            raise StepError("failed after its first artifact")

        monkeypatch.setitem(cli.SCENARIOS, scenario, (writes_then_fails, cli.SCENARIOS[scenario][1]))
        assert run([scenario, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "StepError"
        assert os.listdir(tmp_path / "o") == []


class TestScenarioOutputs:
    def test_readout_roundtrip_seeded(self, tmp_path):
        out = str(tmp_path / "r")
        assert run(["readout-roundtrip", "--out", out, "--seed", "11",
                    "--set", "trials=20"]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["summary"]["worst_noiseless"] < 1e-3
        assert manifest["summary"]["worst_noisy"] < 0.05

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_roundtrip_csv_does_not_depend_on_block_size(self, tmp_path, monkeypatch, block):
        # 30 trials: one block of the default size, 30 of 1, 5 of 7 with a short last one
        cli.run_scenario("readout-roundtrip", {"trials": 30}, str(tmp_path / "ref"), seed=5)
        monkeypatch.setattr(cli, "READOUT_BLOCK", block)
        cli.run_scenario("readout-roundtrip", {"trials": 30}, str(tmp_path / "b"), seed=5)
        for name in ("roundtrip.csv", "example_signal.csv"):
            assert read_bytes(tmp_path / "ref" / name) == read_bytes(tmp_path / "b" / name)

    def test_resonant_scenario_small(self, tmp_path):
        out = str(tmp_path / "res")
        assert run(["resonant", "--out", out, "--set", "duration=2e-6",
                    "--set", "dim=96"]) == 0
        header, rows = read_csv(os.path.join(out, "resonant.csv"))
        assert header == ["t", "mean_n", "var_n", "fano"]
        assert len(rows) > 50

    def test_every_level_samples_on_one_grid(self, tmp_path):
        # the grid follows the trap, not the level: at dim 512 the linearized
        # coupling's spectral radius exceeds every 3SB rate, and once gave
        # LDA a grid of its own
        defaults = cli.SCENARIOS["trajectory"][1]
        interval = defaults["duration"] / defaults["samples"]
        for dim in (128, 512):
            params = cli._params_from_options({**defaults, "dim": dim})
            grids = [dyn.propagate(dyn.ground_hybrid(dim), params.replace(level=level), 1e-6,
                                   interval)[1].tolist() for level in defaults["levels"]]
            assert len(grids[0]) > 2 and grids[0] == grids[1] == grids[2]
        cli.run_scenario("trajectory", {}, out_dir=str(tmp_path))
        columns = [[row[0] for row in read_csv(tmp_path / f"trajectory_{level.lower()}.csv")[1]]
                   for level in defaults["levels"]]
        assert columns[0] == columns[1] == columns[2]

    def test_trajectory_matches_separate_integrations(self, tmp_path):
        # each level runs the CSV grid and the return-time grid on their own,
        # on the one sample grid of the trap
        opts = {"levels": ["RWA", "3SB"], "duration": 12e-6, "samples": 1300, "dim": 64}
        cli.run_scenario("trajectory", opts, out_dir=str(tmp_path))
        returns = read_json(tmp_path / "returns.json")
        for level in opts["levels"]:
            params = cli._params_from_options({**cli.SCENARIOS["trajectory"][1], **opts})
            params = params.replace(level=level)
            _, *history = dyn.propagate(dyn.ground_hybrid(64), params, 12e-6, 12e-6 / 1300)
            _, *return_history = dyn.propagate(dyn.ground_hybrid(64), params, 12e-6,
                                               12e-6 / dyn.RETURN_TIME_SAMPLES)
            tab = dyn.trajectory_table(*history)
            lines = [",".join(tab)] + [",".join(cli._fmt(v) for v in row) for row in zip(*tab.values())]
            expected = ("\n".join(lines) + "\n").encode()
            assert read_bytes(tmp_path / f"trajectory_{level.lower()}.csv") == expected
            t_ret, n_min = dyn.return_time(*return_history)
            assert returns[level] == {"return_time": t_ret, "min_n": n_min}

    def test_undriven_stepwise_samples_every_pulse_on_the_grid(self, tmp_path):
        assert run(["stepwise", "--out", str(tmp_path), "--set", "omega_d=0",
                    "--set", "n_pulses=2"]) == 0
        _, rows = read_csv(tmp_path / "stepwise.csv")
        assert len(rows) == 102
        assert [row[0] for row in rows] == ["0"] * 51 + ["1"] * 51
        assert all(float(v) == 0.0 for row in rows for v in row[2:])

    def test_combined_pulse_scenario(self, tmp_path):
        out = str(tmp_path / "cp")
        assert run(["combined-pulse", "--out", out, "--set", 'levels=["LDA"]']) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        alpha_t = summary["LDA"]["alpha_t"]
        alpha_h = summary["LDA"]["alpha_h"]
        step = summary["LDA"]["step_prediction_linear"]
        assert math.hypot(*alpha_t) == pytest.approx(step, rel=1e-3)
        assert math.hypot(alpha_t[0] + alpha_h[0], alpha_t[1] + alpha_h[1]) < 1e-3

    def test_combined_pulse_writes_one_program_per_level(self, tmp_path):
        out = str(tmp_path / "cp2")
        assert run(["combined-pulse", "--out", out, "--set", 'levels=["LDA", "3SB"]']) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        artifacts = manifest["artifacts"]
        assert len(artifacts) == len(set(artifacts))
        for level in ("lda", "3sb"):
            program = read_json(os.path.join(out, f"program_{level}.json"))
            assert program["params"]["level"] == level.upper()
            # written by the one JSON writer: sorted keys, a final newline
            expected = json.dumps(program, indent=2, sort_keys=True) + "\n"
            assert read_bytes(os.path.join(out, f"program_{level}.json")) == expected.encode()
            params = fock.SimParams(**program["params"])
            events = pulses.combined_pulse(params.t_half_turn)
            assert program == pulses.PulseProgram(events, params).to_dict()

    def test_rerun_into_the_same_out_leaves_only_its_own_artifacts(self, tmp_path):
        out = str(tmp_path / "c")
        cli.run_scenario("combined-pulse", {"levels": ["LDA"], "dim": 32}, out)
        cli.run_scenario("combined-pulse", {"levels": ["3SB"], "dim": 64}, out)
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert "combined_pulse_3sb.csv" in manifest["artifacts"]
        assert sorted(os.listdir(out)) == sorted(manifest["artifacts"])

    @pytest.mark.parametrize("manifest,deleted", [
        (json.dumps({"artifacts": ["listed.csv", "../outside.csv", "sub", "", 7]}), {"listed.csv"}),
        ("not json", set()),
        (json.dumps({"files": ["listed.csv"]}), set()),
    ])
    def test_rerun_deletes_only_what_an_earlier_manifest_lists(self, tmp_path, manifest, deleted):
        out = tmp_path / "w"
        (out / "sub").mkdir(parents=True)
        for path in (out / "listed.csv", out / "mine.csv", tmp_path / "outside.csv"):
            path.write_text("earlier\n")
        (out / "manifest.json").write_text(manifest)
        ctx = cli.run_scenario("walk-ideal", {"steps": 40}, str(out))
        earlier = {"listed.csv", "mine.csv", "sub"} - deleted
        assert set(os.listdir(out)) == earlier | set(ctx.artifacts)
        assert (tmp_path / "outside.csv").exists()

    def test_kick_threshold_reference_mode(self, tmp_path):
        out = str(tmp_path / "k")
        assert run(["kick-threshold", "--out", out, "--set", "alphas=[1.0]",
                    "--set", "dim=64"]) == 0
        fit = read_json(os.path.join(out, "fit.json"))
        assert fit["reference"]["alpha_200_center_s"] == pytest.approx(0.21e-9, abs=0.01e-9)
        assert fit["reference"]["alpha_200_turning_s"] == pytest.approx(2.18e-9, abs=0.01e-9)
        rows = fit["measured"]
        assert len(rows) == 2  # one amplitude, both oscillation phases
        by_phase = {row[2]: row[3] for row in rows}
        assert by_phase["real"] > by_phase["imag"]

    def test_scan_td_linear_level_small(self, tmp_path):
        out = str(tmp_path / "s")
        assert run(["scan-td", "--out", out, "--set", 'level="LDA"',
                    "--set", "points=5", "--set", "dim=96"]) == 0
        optimum = read_json(os.path.join(out, "optimum.json"))
        assert abs(optimum["relative_offset_from_half_turn"]) < 0.02
        assert optimum["max_ratio"] > 2.9

    def test_list_flag(self, capsys):
        assert run(["--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "scan-td" in names and "kick-threshold" in names


def test_scenarios_run_without_loading_scipy(tmp_path):
    # importing scipy.special cost every command ~0.35 s and ~24 MB of start-up;
    # running scenarios, not only importing, also catches a lazy import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; from ionwalk import cli; "
        f"cli.run_scenario('kick-threshold', {{'alphas': [1.0]}}, {str(tmp_path / 'k')!r}); "
        f"cli.run_scenario('readout-roundtrip', {{'trials': 2}}, {str(tmp_path / 'r')!r}); "
        "cli.run_scenario('trajectory', {'levels': ['3SB'], 'dim': 32, 'duration': 2e-6, "
        f"'samples': 10}}, {str(tmp_path / 't')!r}); "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(tmp_path / "t" / "trajectory_3sb.csv")
    assert os.path.exists(tmp_path / "r" / "roundtrip.csv")


def test_lattice_import_loads_neither_scipy_nor_other_layers():
    # the package root holds only __version__, so the ideal walk needs numpy alone
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, ionwalk.lattice; "
            "layers = ('fock', 'dynamics', 'pulses', 'readout', 'kicks', 'cli'); "
            "assert 'scipy' not in sys.modules; "
            "assert not [m for m in layers if 'ionwalk.' + m in sys.modules]")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
