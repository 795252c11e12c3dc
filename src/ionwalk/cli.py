"""Command-line entry point: named scenarios writing CSV data plus a JSON
manifest recording every physical parameter actually used.

Exit codes: 0 success, 2 configuration error, 3 numerical error.  Errors
are reported as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from . import dynamics as dyn
from . import kicks, lattice, pulses, readout
from .errors import ConfigError, IllConditioned, NoThreshold, StepError, TruncationError
from .fock import SimParams, experimental_params

TWO_PI = 2.0 * math.pi


@dataclass
class RunContext:
    scenario: str
    options: dict
    out_dir: str
    workers: int
    seed: int
    artifacts: list = field(default_factory=list)

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        full = os.path.join(self.out_dir, name)
        self.artifacts.append(name)
        return full

    def write_csv(self, name: str, header: list[str], rows) -> str:
        full = self.path(name)
        with open(full, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return full

    def write_json(self, name: str, payload: dict) -> str:
        full = self.path(name)
        with open(full, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return full


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _params_from_options(opt: dict) -> SimParams:
    return experimental_params(
        omega_z=opt["omega_z"],
        delta=opt["delta"],
        omega_d=opt["omega_d"],
        eta=opt["eta"],
        dim=opt["dim"],
        level=opt["level"],
    )


# ---------------------------------------------------------------------------
# Scenarios


def scenario_walk_ideal(ctx: RunContext) -> dict:
    opt = ctx.options
    spec = lattice.WalkSpec(opt["steps"], opt["step_size"], opt["phi"])
    state = lattice.run_walk(spec)
    ks, probs = lattice.position_probabilities(state)
    ctx.write_csv("positions.csv", ["k", "p"], zip(ks.tolist(), probs))
    sigmas = lattice.sigma_series(spec.step_size, spec.n_steps, phi=spec.phi)
    ctx.write_csv("sigma.csv", ["n", "sigma"], enumerate(sigmas))
    scaling_rows = []
    for s in opt["scaling_step_sizes"]:
        scaling_rows.append((s, lattice.scaling_factor(s, spec.n_steps)))
    ctx.write_csv("scaling.csv", ["step_size", "v"], scaling_rows)
    p_t, p_h = lattice.coin_probabilities(state)
    return {"p_t": p_t, "p_h": p_h, "sigma_final": float(sigmas[-1])}


def scenario_trajectory(ctx: RunContext) -> dict:
    opt = ctx.options
    info = {}
    for level in opt["levels"]:
        params = _params_from_options(opt).replace(level=level)
        _, history = dyn.propagate(dyn.ground_hybrid(params.dim), params, opt["duration"],
                                   sample_interval=opt["duration"] / opt["samples"])
        tab = dyn.trajectory_table(history)
        ctx.write_csv(
            f"trajectory_{level.lower()}.csv",
            ["t", "re_alpha_t", "im_alpha_t", "re_alpha_h", "im_alpha_h", "n_t", "n_h"],
            zip(*(tab[k] for k in (
                "t", "re_alpha_t", "im_alpha_t", "re_alpha_h", "im_alpha_h", "n_t", "n_h"))),
        )
        t_ret, n_min, _ = dyn.return_time(params, opt["duration"])
        info[level] = {"return_time": t_ret, "min_n": n_min}
    ctx.write_json("returns.json", info)
    return info


def scenario_resonant(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(ctx.options)
    result = dyn.resonant_excitation(params, opt["duration"])
    ctx.write_csv(
        "resonant.csv",
        ["t", "mean_n", "var_n", "fano"],
        zip(result.times, result.mean_n, result.var_n, result.fano),
    )
    return {"max_mean_n": float(result.mean_n.max())}


def scenario_stepwise(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    result = dyn.stepwise_excitation(params, opt["n_pulses"], params.t_half_turn, params.t_half_turn)
    rows = []
    for i, segment in enumerate(result.segments):
        tab = dyn.trajectory_table(segment)
        for j in range(tab["t"].size):
            rows.append((i, tab["t"][j], tab["re_alpha_t"][j], tab["im_alpha_t"][j], tab["n_t"][j]))
    ctx.write_csv("stepwise.csv", ["pulse", "t", "re_alpha", "im_alpha", "mean_n"], rows)
    return {"final_mean_n": result.final.t_part.mean_n()}


def scenario_combined_pulse(ctx: RunContext) -> dict:
    opt = ctx.options
    info = {}
    for level in opt["levels"]:
        params = _params_from_options(opt).replace(level=level)
        t_d = float(opt["t_d"]) if opt["t_d"] else params.t_half_turn
        program = pulses.PulseProgram(
            tuple(pulses.combined_pulse(t_d, opt["wait_multiplier"])),
            params,
            opt["wait_multiplier"],
        )
        initial = dyn.ground_hybrid(params.dim, "TH")
        final, history = pulses.run_program(program, initial, sample_interval=t_d / 40)
        tab = dyn.trajectory_table(history)
        ctx.write_csv(
            f"combined_pulse_{level.lower()}.csv",
            ["t", "re_alpha_t", "im_alpha_t", "re_alpha_h", "im_alpha_h", "n_t", "n_h"],
            zip(*(tab[k] for k in (
                "t", "re_alpha_t", "im_alpha_t", "re_alpha_h", "im_alpha_h", "n_t", "n_h"))),
        )
        info[level] = {
            "alpha_t": [final.t_part.mean_a().real, final.t_part.mean_a().imag],
            "alpha_h": [final.h_part.mean_a().real, final.h_part.mean_a().imag],
            "step_prediction_linear": abs(pulses.combined_pulse_step(params, t_d, opt["wait_multiplier"])),
        }
        with open(ctx.path(f"program_{level.lower()}.json"), "w") as fh:
            fh.write(program.to_json())
    ctx.write_json("summary.json", info)
    return info


def scenario_scan_td(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    t_half = params.t_half_turn
    lo, hi = (0.96, 1.04) if opt["mode"] == "near" else (0.88, 1.12)
    t_d_values = np.linspace(lo * t_half, hi * t_half, opt["points"])
    rows = pulses.scan_td(
        params,
        t_d_values,
        n_steps=opt["n_steps"],
        wait_multiplier=opt["wait_multiplier"],
        workers=ctx.workers,
    )
    table = [(td, pt, ph, pt / ph, ph / pt) for td, pt, ph in rows]
    ctx.write_csv("scan.csv", ["t_d", "p_t", "p_h", "ratio_t_h", "ratio_h_t"], table)
    best = max(rows, key=lambda r: r[1] / r[2])
    spacing = float(t_d_values[1] - t_d_values[0])
    t_opt, p_t, p_h = pulses.find_optimal_td(
        params,
        (best[0] - spacing, best[0] + spacing),
        n_steps=opt["n_steps"],
        wait_multiplier=opt["wait_multiplier"],
        tol=1e-9,
        max_iter=18,
    )
    info = {
        "t_d_optimal": t_opt,
        "p_t_optimal": p_t,
        "p_h_optimal": p_h,
        "max_ratio": p_t / p_h,
        "relative_offset_from_half_turn": (t_opt - t_half) / t_half,
    }
    if opt["mode"] == "extended":
        splits = [(td, ph / pt) for td, pt, ph in rows]
        peaks = []
        for i in range(1, len(splits) - 1):
            if splits[i][1] > splits[i - 1][1] and splits[i][1] > splits[i + 1][1] and splits[i][1] > 1.5:
                peaks.append({"t_d": splits[i][0], "ratio_h_t": splits[i][1]})
        info["inverted_ratio_peaks"] = peaks
    ctx.write_json("optimum.json", info)
    return info


def scenario_calibrate(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    result = pulses.calibrate_positions(opt["k_max"], params, wait_multiplier=opt["wait_multiplier"])
    rows = []
    for k, n in enumerate(result.mean_n):
        overlap = result.neighbor_overlaps[k] if k < len(result.neighbor_overlaps) else float("nan")
        rows.append((k, n, overlap, result.coherent_fidelities[k]))
    ctx.write_csv("calibration.csv", ["k", "mean_n", "overlap_next", "coherent_fidelity"], rows)
    return {"mean_n": result.mean_n, "force_newton": pulses.force_amplitude(params)}


def scenario_readout_roundtrip(ctx: RunContext) -> dict:
    opt = ctx.options
    rng = np.random.default_rng(ctx.seed)
    eta, n_max, support = opt["eta"], opt["n_max"], opt["support"]
    cfg = readout.default_config(eta, n_max=n_max)
    example = np.zeros(n_max + 1)
    example[:support] = rng.random(support)
    example /= example.sum()
    ctx.write_csv(
        "example_signal.csv", ["t", "p_t"],
        zip(cfg.t_grid, readout.bsb_signal(example, cfg, eta)),
    )
    rows = []
    worst_clean = worst_noisy = 0.0
    for trial in range(opt["trials"]):
        p = np.zeros(n_max + 1)
        p[:support] = rng.random(support)
        p /= p.sum()
        signal = readout.bsb_signal(p, cfg, eta)
        err_clean = float(np.max(np.abs(readout.invert_bsb(signal, cfg, eta) - p)))
        noisy = signal + rng.normal(0.0, opt["noise_sigma"], signal.size)
        err_noisy = float(np.max(np.abs(readout.invert_bsb(noisy, cfg, eta) - p)))
        worst_clean = max(worst_clean, err_clean)
        worst_noisy = max(worst_noisy, err_noisy)
        rows.append((trial, err_clean, err_noisy))
    ctx.write_csv("roundtrip.csv", ["trial", "err_noiseless", "err_noisy"], rows)
    return {"worst_noiseless": worst_clean, "worst_noisy": worst_noisy}


def scenario_walk_positions(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    m = opt["wait_multiplier"]
    t_d = float(opt["t_d"]) if opt["t_d"] else None
    if t_d is None:
        t_half = params.t_half_turn
        coarse = pulses.scan_td(
            params, np.linspace(0.97 * t_half, 1.02 * t_half, 11),
            wait_multiplier=m, workers=ctx.workers)
        best = max(coarse, key=lambda r: r[1] / r[2])
        t_d = best[0]
    program = pulses.walk_program(opt["n_steps"], t_d, params, wait_multiplier=m)
    final = pulses.run_program(program)

    shift_events = pulses.combined_pulse(t_d, m)
    up = pulses.run_program(
        pulses.PulseProgram(tuple(shift_events), params, m), initial=final)
    down = pulses.run_program(
        pulses.PulseProgram(tuple([pulses.wait(t_d)] + shift_events), params, m),
        initial=final)

    k_max = opt["n_steps"] + 1
    cal = pulses.calibrate_positions(k_max, params, t_d=t_d, wait_multiplier=m)
    profiles = {k: cal.states[k].fock_probs() for k in range(k_max + 1)}

    k_values = list(range(-opt["n_steps"], opt["n_steps"] + 1))
    results = {}
    residuals = {}
    for branch, sign in (("T", 1), ("H", -1)):
        def probs_of(state):
            part = state.t_part if branch == "T" else state.h_part
            q = part.fock_probs()
            return q / q.sum()

        weights, resid = readout.disambiguate_positions(
            probs_of(final), probs_of(up), probs_of(down),
            profiles, k_values, shift_sign=sign)
        results[branch] = weights
        residuals[branch] = resid
    p_t, p_h = final.coin_probabilities()
    rows = [
        (k, p_t * results["T"][k], p_h * results["H"][k],
         residuals["T"], residuals["H"])
        for k in k_values
    ]
    ctx.write_csv("positions.csv", ["k", "p_t", "p_h", "residual_t", "residual_h"], rows)
    ctx.write_json("summary.json", {
        "t_d": t_d, "residuals": residuals, "p_t": p_t, "p_h": p_h,
    })
    return {"t_d": t_d, "residuals": residuals}


def _threshold_job(args):
    mag, phase, f_min, eta, omega_z, dim = args
    alpha = 1j * mag if phase == "imag" else complex(mag)
    t_p, f_val, _ = kicks.fidelity_threshold(alpha, f_min, eta, omega_z, dim=dim)
    return mag, math.pi / 2.0 if phase == "imag" else 0.0, phase, t_p, f_val


def scenario_kick_threshold(ctx: RunContext) -> dict:
    opt = ctx.options
    mags = [m for m in opt["alphas"] if m <= opt["alpha_max"]]
    jobs = []
    for mag in mags:
        dim = int(opt["dim"]) if opt["dim"] else kicks.required_dim(mag)
        for phase in ("imag", "real"):
            jobs.append((mag, phase, opt["f_min"], opt["eta"], opt["omega_z"], dim))
    if ctx.workers > 1:
        with ProcessPoolExecutor(max_workers=ctx.workers) as pool:
            rows = list(pool.map(_threshold_job, jobs))
    else:
        rows = [_threshold_job(j) for j in jobs]
    ctx.write_csv(
        "thresholds.csv",
        ["alpha_mag", "arg_alpha", "phase", "t_p", "fidelity"],
        rows,
    )
    fits = {}
    for phase in ("imag", "real"):
        pts = [(mag, t_p) for mag, _, ph, t_p, _ in rows if ph == phase]
        if len(pts) >= 5:
            fits[phase] = kicks.fit_threshold_curve(pts)
    reference = {
        "center_kick_coeffs": list(kicks.CENTER_KICK_COEFFS),
        "turning_kick_coeffs": list(kicks.TURNING_KICK_COEFFS),
        "alpha_200_center_s": kicks.predict_threshold(kicks.CENTER_KICK_COEFFS, 200.0),
        "alpha_200_turning_s": kicks.predict_threshold(kicks.TURNING_KICK_COEFFS, 200.0),
    }
    payload = {"measured": rows, "fits": fits, "reference": reference}
    ctx.write_json("fit.json", payload)
    return payload


SCENARIOS = {
    "walk-ideal": (
        scenario_walk_ideal,
        {"steps": 100, "step_size": 2.0, "phi": 0.0,
         "scaling_step_sizes": [0.5, 1.0, 2.0, 3.0, 4.0]},
    ),
    "trajectory": (
        scenario_trajectory,
        {"omega_z": TWO_PI * 2.13e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 1.2e6,
         "eta": 0.31, "dim": 128, "level": "3SB", "duration": 12e-6, "samples": 600,
         "levels": ["LDA", "RWA", "3SB"]},
    ),
    "resonant": (
        scenario_resonant,
        {"omega_z": TWO_PI * 2.0e6, "delta": 0.0, "omega_d": TWO_PI * 2.0e6,
         "eta": 0.3, "dim": 128, "level": "3SB", "duration": 8e-6},
    ),
    "stepwise": (
        scenario_stepwise,
        {"omega_z": TWO_PI * 2.0e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 0.4e6,
         "eta": 0.3, "dim": 128, "level": "3SB", "n_pulses": 8},
    ),
    "combined-pulse": (
        scenario_combined_pulse,
        {"omega_z": TWO_PI * 2.13e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 0.24e6,
         "eta": 0.31, "dim": 96, "level": "3SB", "levels": ["LDA", "3SB"],
         "t_d": None, "wait_multiplier": 2.0},
    ),
    "scan-td": (
        scenario_scan_td,
        {"omega_z": TWO_PI * 2.13e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 0.24e6,
         "eta": 0.31, "dim": 96, "level": "3SB", "mode": "near", "points": 21,
         "n_steps": 3, "wait_multiplier": 4.0},
    ),
    "calibrate": (
        scenario_calibrate,
        {"omega_z": TWO_PI * 2.13e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 0.24e6,
         "eta": 0.31, "dim": 128, "level": "3SB", "k_max": 4, "wait_multiplier": 2.0},
    ),
    "readout-roundtrip": (
        scenario_readout_roundtrip,
        {"eta": 0.31, "n_max": 7, "support": 6, "trials": 100, "noise_sigma": 0.02},
    ),
    "walk-positions": (
        scenario_walk_positions,
        {"omega_z": TWO_PI * 2.13e6, "delta": TWO_PI * 0.1e6, "omega_d": TWO_PI * 0.24e6,
         "eta": 0.31, "dim": 96, "level": "3SB", "n_steps": 3, "t_d": None,
         "wait_multiplier": 4.0},
    ),
    "kick-threshold": (
        scenario_kick_threshold,
        {"alphas": [1.0, 2.0, 5.0, 10.0], "alpha_max": 10.0, "f_min": 0.99,
         "eta": 0.31, "omega_z": TWO_PI * 2.13e6, "dim": None},
    ),
}


def run_scenario(
    scenario: str,
    overrides: dict | None = None,
    out_dir: str | None = None,
    workers: int = 1,
    seed: int = 0,
) -> RunContext:
    """Programmatic entry point used by the CLI and the test suite."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    fn, defaults = SCENARIOS[scenario]
    options = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown option {key!r} for scenario {scenario!r}")
        options[key] = _coerce(key, value, defaults[key])
    ctx = RunContext(
        scenario=scenario,
        options=options,
        out_dir=out_dir or os.path.join("out", scenario),
        workers=max(1, int(workers)),
        seed=int(seed),
    )
    started = time.time()
    summary = fn(ctx)
    manifest = {
        "scenario": scenario,
        "options": dict(options),
        "workers": ctx.workers,
        "seed": ctx.seed,
        "runtime_s": time.time() - started,
        "artifacts": ctx.artifacts,
        "versions": {
            "ionwalk": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "summary": _jsonable(summary),
    }
    ctx.write_json("manifest.json", manifest)
    return ctx


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _coerce(key: str, value, default):
    """``value`` as the type of its scenario default (None: an optional
    number); ConfigError if it cannot be one."""
    if isinstance(default, list) and isinstance(value, list):
        return [_coerce(key, v, default[0]) for v in value]
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    if default is None and (value is None or number) or type(value) is type(default) is str:
        return value
    if number and (type(default) is float or type(default) is int and float(value).is_integer()):
        return type(default)(value)
    raise ConfigError(f"option {key!r} must be like the default {default!r}, got {value!r}")


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionwalk",
        description="Trapped-ion quantum-walk simulator scenarios",
    )
    parser.add_argument("scenario_pos", nargs="?", help="scenario name")
    parser.add_argument("--scenario", help="scenario name (alternative to positional)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, help="worker processes (default 1)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario option")
    parser.add_argument("--step-size", type=float, help="walk-ideal lattice spacing")
    parser.add_argument("--steps", type=int, help="walk-ideal step count")
    parser.add_argument("--alpha-max", type=float, help="kick-threshold amplitude cap")
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0

    try:
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ConfigError("config file must hold a JSON object")
        scenario = args.scenario_pos or args.scenario or config.get("scenario")
        if not scenario:
            raise ConfigError("no scenario given (positional, --scenario or config)")
        overrides = dict(config.get("overrides", {}))
        for text in args.overrides:
            key, value = _parse_override(text)
            overrides[key] = value
        if args.step_size is not None:
            overrides["step_size"] = args.step_size
        if args.steps is not None:
            overrides["steps"] = args.steps
        if args.alpha_max is not None:
            overrides["alpha_max"] = args.alpha_max
        out_dir = args.out or config.get("out")
        workers = args.workers if args.workers is not None else int(config.get("workers", 1))
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        ctx = run_scenario(scenario, overrides, out_dir, workers, seed)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except (TruncationError, StepError, IllConditioned, NoThreshold, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    print(json.dumps({"status": "ok", "out": ctx.out_dir, "artifacts": ctx.artifacts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
