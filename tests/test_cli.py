import json
import math
import os

import pytest

from ionwalk import cli


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
        assert run(["walk-ideal", "--out", out, "--step-size", "4", "--steps", "60"]) == 0
        header, rows = read_csv(os.path.join(out, "positions.csv"))
        assert header == ["k", "p"]
        odd = [float(p) for k, p in rows if int(k) % 2 != 0]
        assert max(odd) < 1e-6
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["scenario"] == "walk-ideal"
        assert manifest["options"]["step_size"] == 4
        assert manifest["options"]["steps"] == 60
        assert "numpy" in manifest["versions"]

    def test_output_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["walk-ideal", "--step-size", "2", "--steps", "50"]
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        for name in ("positions.csv", "sigma.csv", "scaling.csv"):
            a = read_bytes(os.path.join(out1, name))
            b = read_bytes(os.path.join(out2, name))
            assert a == b


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

    def test_flags_override_config_workers_and_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "walk-ideal", "overrides": {"steps": 40}, "workers": 2, "seed": 5,
        }))
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "--workers", "1", "--seed", "0"]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert (manifest["workers"], manifest["seed"]) == (1, 0)

    @pytest.mark.parametrize("args", [
        ["walk-ideal", "--set", "steps=-3"],
        ["walk-ideal", "--set", 'steps="ten"'],
        ["calibrate", "--set", "dim=8"],
        ["walk-ideal", "--steps", "10"],
    ])
    def test_invalid_option_value_exits_2(self, tmp_path, capsys, args):
        assert run(args + ["--out", str(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"

    def test_overrides_take_the_type_of_their_default(self, tmp_path):
        ctx = cli.run_scenario("walk-ideal", {"steps": 40.0, "step_size": 2}, str(tmp_path))
        assert ctx.options["steps"] == 40 and isinstance(ctx.options["steps"], int)
        assert isinstance(ctx.options["step_size"], float)
        for bad in ({"steps": 40.5}, {"steps": True}, {"phi": "0"}, {"phi": float("nan")},
                    {"scaling_step_sizes": 2.0}, {"scaling_step_sizes": ["2"]}):
            with pytest.raises(cli.ConfigError):
                cli.run_scenario("walk-ideal", bad, str(tmp_path))

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # a basis too small for the requested excitation trips the guard
        code = run([
            "trajectory", "--out", str(tmp_path / "t"),
            "--set", "dim=16", "--set", 'levels=["RWA"]', "--set", "duration=6e-6",
        ])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "TruncationError"


class TestScenarioOutputs:
    def test_readout_roundtrip_seeded(self, tmp_path):
        out = str(tmp_path / "r")
        assert run(["readout-roundtrip", "--out", out, "--seed", "11",
                    "--set", "trials=20"]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["summary"]["worst_noiseless"] < 1e-3
        assert manifest["summary"]["worst_noisy"] < 0.05

    def test_resonant_scenario_small(self, tmp_path):
        out = str(tmp_path / "res")
        assert run(["resonant", "--out", out, "--set", "duration=2e-6",
                    "--set", "dim=96"]) == 0
        header, rows = read_csv(os.path.join(out, "resonant.csv"))
        assert header == ["t", "mean_n", "var_n", "fano"]
        assert len(rows) > 50

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

    def test_kick_threshold_reference_mode(self, tmp_path):
        out = str(tmp_path / "k")
        assert run(["kick-threshold", "--out", out, "--alpha-max", "1",
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
