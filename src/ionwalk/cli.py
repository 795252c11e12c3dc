"""Command-line entry point: named scenarios writing CSV data plus a JSON
manifest recording every physical parameter actually used.

Exit codes: 0 success, 2 configuration error, 3 numerical error.  Errors
are reported as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import kicks, lattice, pulses, readout
from .errors import ConfigError, IllConditioned, NoThreshold, StepError, TruncationError
from .fock import SimParams, experimental_params, mean_a, mean_n

TWO_PI = 2.0 * math.pi
# readout-roundtrip trials per invert_bsb stack (one stack of 4,000: ~20 MB more peak RSS)
READOUT_BLOCK = 250
_PARAM_FIELDS = {f.name for f in fields(SimParams)}


@dataclass
class RunContext:
    scenario: str
    options: dict
    out_dir: str
    seed: int
    # artifact name -> file text; run_scenario writes them once the scenario returns
    texts: dict = field(default_factory=dict)

    @property
    def artifacts(self) -> list[str]:
        return list(self.texts)

    def write_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        self.texts[name] = "\n".join(lines) + "\n"

    def write_json(self, name: str, payload: dict) -> None:
        # numpy scalars that are not Python numbers (np.int64, np.float32) as Python numbers
        text = json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.item())
        self.texts[name] = text + "\n"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _params_from_options(opt: dict) -> SimParams:
    return experimental_params(**{k: v for k, v in opt.items() if k in _PARAM_FIELDS})


# ---------------------------------------------------------------------------
# Scenarios


def scenario_walk_ideal(ctx: RunContext) -> dict:
    opt = ctx.options
    spec = lattice.WalkSpec(opt["steps"], opt["step_size"], opt["phi"])
    # walk_states never reads step_size: the late states of one walk at coin
    # phase 0 (this walk at phi = 0), relabelled, serve every scaling step size
    late = {s: [] for s in opt["scaling_step_sizes"]}
    sigmas = []
    for n, state in enumerate(lattice.walk_states(spec)):
        sigmas.append(lattice.std_dev(state))
        if spec.phi == 0.0 and n >= spec.n_steps // 2:
            _late_spread(late, state, sigmas[-1])
    if spec.phi != 0.0:
        for zero_phase in itertools.islice(lattice.walk_states(replace(spec, phi=0.0)), spec.n_steps // 2, None):
            _late_spread(late, zero_phase)
    ks, probs = lattice.position_probabilities(state)
    ctx.write_csv("positions.csv", ["k", "p"], zip(ks.tolist(), probs))
    ctx.write_csv("sigma.csv", ["n", "sigma"], enumerate(sigmas))
    ctx.write_csv("scaling.csv", ["step_size", "v"],
                  [(s, lattice.late_slope(values, spec.n_steps)) for s, values in late.items()])
    p_t, p_h = lattice.coin_probabilities(state)
    return {"p_t": p_t, "p_h": p_h, "sigma_final": float(sigmas[-1])}


def _late_spread(late: dict, state: lattice.LatticeState, sigma: float | None = None) -> None:
    """Append std_dev of ``state``'s amplitudes at each step size of ``late``;
    ``sigma``, if given, is std_dev(state) itself."""
    for s, values in late.items():
        own = s == state.step_size and sigma is not None
        values.append(sigma if own else lattice.std_dev(replace(state, step_size=s)))


def scenario_trajectory(ctx: RunContext) -> dict:
    opt = ctx.options
    info = {}
    duration = opt["duration"]
    for level in opt["levels"]:
        params = _params_from_options(opt).replace(level=level)
        start = dyn.ground_hybrid(params.dim)
        csv_history = dyn.propagate(start, params, duration, duration / opt["samples"])[1:]
        return_history = dyn.propagate(start, params, duration, duration / dyn.RETURN_TIME_SAMPLES)[1:]
        tab = dyn.trajectory_table(*csv_history)
        ctx.write_csv(f"trajectory_{level.lower()}.csv", list(tab), zip(*tab.values()))
        t_ret, n_min = dyn.return_time(*return_history)
        info[level] = {"return_time": t_ret, "min_n": n_min}
        del csv_history, return_history  # free this level's run before the next one's
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
    result = dyn.stepwise_excitation(params, opt["n_pulses"])
    rows = []
    for i, segment in enumerate(result.segments):
        tab = dyn.trajectory_table(*segment)
        rows += zip([i] * tab["t"].size, tab["t"], tab["re_alpha_t"], tab["im_alpha_t"], tab["n_t"])
    ctx.write_csv("stepwise.csv", ["pulse", "t", "re_alpha", "im_alpha", "mean_n"], rows)
    return {"final_mean_n": float(mean_n(result.final.amps[0]))}


def scenario_combined_pulse(ctx: RunContext) -> dict:
    opt = ctx.options
    info = {}
    for level in opt["levels"]:
        params = _params_from_options(opt).replace(level=level)
        t_d = params.t_half_turn if opt["t_d"] is None else float(opt["t_d"])
        program = pulses.PulseProgram(pulses.combined_pulse(t_d, opt["wait_multiplier"]), params)
        initial = dyn.ground_hybrid(params.dim, "TH")
        final, times, amps = pulses.run_program(program, initial, sample_interval=t_d / 40)
        tab = dyn.trajectory_table(times, amps)
        ctx.write_csv(f"combined_pulse_{level.lower()}.csv", list(tab), zip(*tab.values()))
        alpha_t, alpha_h = mean_a(final.amps)
        info[level] = {
            "alpha_t": [alpha_t.real, alpha_t.imag],
            "alpha_h": [alpha_h.real, alpha_h.imag],
            "step_prediction_linear": abs(pulses.combined_pulse_step(params, t_d, opt["wait_multiplier"])),
        }
        ctx.write_json(f"program_{level.lower()}.json", program.to_dict())
    ctx.write_json("summary.json", info)
    return info


def scenario_scan_td(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    t_half = params.t_half_turn
    lo, hi = (0.96, 1.04) if opt["mode"] == "near" else (0.88, 1.12)
    t_d_values = np.linspace(lo * t_half, hi * t_half, opt["points"])
    rows = pulses.scan_td(params, t_d_values, n_steps=opt["n_steps"],
                          wait_multiplier=opt["wait_multiplier"])
    table = [(td, pt, ph, pt / ph, ph / pt) for td, pt, ph in rows]
    ctx.write_csv("scan.csv", ["t_d", "p_t", "p_h", "ratio_t_h", "ratio_h_t"], table)
    best = max(rows, key=lambda r: r[1] / r[2])
    spacing = float(t_d_values[1] - t_d_values[0])
    t_opt, p_t, p_h = pulses.find_optimal_td(
        params,
        (best[0] - spacing, best[0] + spacing),
        n_steps=opt["n_steps"],
        wait_multiplier=opt["wait_multiplier"],
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
    n_max, support = opt["n_max"], opt["support"]
    cfg = readout.ReadoutConfig(n_max, opt["eta"])
    example = np.zeros(n_max + 1)
    example[:support] = rng.random(support)
    example /= example.sum()
    ctx.write_csv(
        "example_signal.csv", ["t", "p_t"],
        zip(cfg.t_grid, readout.bsb_signal(example, cfg)),
    )
    rows = []
    for start in range(0, opt["trials"], READOUT_BLOCK):
        probs = np.zeros((min(READOUT_BLOCK, opt["trials"] - start), n_max + 1))
        clean = np.empty((probs.shape[0], cfg.t_grid.size))
        noisy = np.empty_like(clean)
        for p, signal, noisy_signal in zip(probs, clean, noisy):
            p[:support] = rng.random(support)
            p /= p.sum()
            signal[:] = readout.bsb_signal(p, cfg)
            noisy_signal[:] = signal + rng.normal(0.0, opt["noise_sigma"], signal.size)
        errors = [np.max(np.abs(readout.invert_bsb(s, cfg) - probs), axis=1) for s in (clean, noisy)]
        rows += zip(range(start, start + probs.shape[0]), *(e.tolist() for e in errors))
    worst = np.max([row[1:] for row in rows], axis=0)
    ctx.write_csv("roundtrip.csv", ["trial", "err_noiseless", "err_noisy"], rows)
    return {"worst_noiseless": float(worst[0]), "worst_noisy": float(worst[1])}


def scenario_walk_positions(ctx: RunContext) -> dict:
    opt = ctx.options
    params = _params_from_options(opt)
    m = opt["wait_multiplier"]
    t_d = None if opt["t_d"] is None else float(opt["t_d"])
    if t_d is None:
        t_half = params.t_half_turn
        coarse = pulses.scan_td(
            params, np.linspace(0.97 * t_half, 1.02 * t_half, 11),
            wait_multiplier=m)
        best = max(coarse, key=lambda r: r[1] / r[2])
        t_d = best[0]
    program = pulses.walk_program(opt["n_steps"], t_d, params, wait_multiplier=m)
    final = pulses.run_program(program)

    shift_events = pulses.combined_pulse(t_d, m)
    up = pulses.run_program(pulses.PulseProgram(shift_events, params), initial=final)
    down = pulses.run_program(
        pulses.PulseProgram([pulses.wait(t_d)] + shift_events, params), initial=final)

    k_max = opt["n_steps"] + 1
    cal = pulses.calibrate_positions(k_max, params, t_d=t_d, wait_multiplier=m)
    profiles = {k: np.abs(cal.states[k]) ** 2 for k in range(k_max + 1)}

    k_values = list(range(-opt["n_steps"], opt["n_steps"] + 1))
    results = {}
    residuals = {}
    for row, (branch, sign) in enumerate((("T", 1), ("H", -1))):
        q = [np.abs(state.amps[row]) ** 2 for state in (final, up, down)]
        weights, resid = readout.disambiguate_positions(
            *(p / p.sum() for p in q), profiles, k_values, shift_sign=sign)
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


def scenario_kick_threshold(ctx: RunContext) -> dict:
    opt = ctx.options
    cases = [(mag, arg, phase, alpha) for mag in opt["alphas"]
             for phase, alpha, arg in (("imag", 1j * mag, math.pi / 2.0), ("real", complex(mag), 0.0))]
    found = kicks.fidelity_thresholds([alpha for *_, alpha in cases], opt["f_min"], opt["eta"],
                                      opt["omega_z"], dim=opt["dim"])
    rows = [(mag, arg, phase, t_p, f_val) for (mag, arg, phase, _), (t_p, f_val, _) in zip(cases, found)]
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


# Trap options of the Fock-space scenarios; each scenario lists what it changes.
_TRAP = {k: getattr(experimental_params(), k)
         for k in ("omega_z", "delta", "omega_d", "eta", "dim", "level")}
# Scenarios that loop over "levels" take no single level.
_TRAP_ALL_LEVELS = {k: v for k, v in _TRAP.items() if k != "level"}

SCENARIOS = {
    "walk-ideal": (
        scenario_walk_ideal,
        {"steps": 100, "step_size": 2.0, "phi": 0.0,
         "scaling_step_sizes": [0.5, 1.0, 2.0, 3.0, 4.0]},
    ),
    "trajectory": (
        scenario_trajectory,
        {**_TRAP_ALL_LEVELS, "omega_d": TWO_PI * 1.2e6, "duration": 12e-6, "samples": 600,
         "levels": ["LDA", "RWA", "3SB"]},
    ),
    "resonant": (
        scenario_resonant,
        # resonant_excitation drives at delta = 0, so the scenario takes no delta
        {"omega_z": TWO_PI * 2.0e6, "omega_d": TWO_PI * 2.0e6, "eta": 0.3,
         "dim": _TRAP["dim"], "level": _TRAP["level"], "duration": 8e-6},
    ),
    "stepwise": (
        scenario_stepwise,
        {**_TRAP, "omega_z": TWO_PI * 2.0e6, "omega_d": TWO_PI * 0.4e6, "eta": 0.3,
         "n_pulses": 8},
    ),
    "combined-pulse": (
        scenario_combined_pulse,
        {**_TRAP_ALL_LEVELS, "dim": 96, "levels": ["LDA", "3SB"], "t_d": None,
         "wait_multiplier": 2.0},
    ),
    "scan-td": (
        scenario_scan_td,
        {**_TRAP, "dim": 96, "mode": "near", "points": 21, "n_steps": 3, "wait_multiplier": 4.0},
    ),
    "calibrate": (
        scenario_calibrate,
        {**_TRAP, "k_max": 4, "wait_multiplier": 2.0},
    ),
    "readout-roundtrip": (
        scenario_readout_roundtrip,
        {"eta": _TRAP["eta"], "n_max": 7, "support": 6, "trials": 100, "noise_sigma": 0.02},
    ),
    "walk-positions": (
        scenario_walk_positions,
        {**_TRAP, "dim": 96, "n_steps": 3, "t_d": None, "wait_multiplier": 4.0},
    ),
    "kick-threshold": (
        scenario_kick_threshold,
        {"alphas": [1.0, 2.0, 5.0, 10.0], "f_min": 0.99,
         "eta": _TRAP["eta"], "omega_z": _TRAP["omega_z"], "dim": None},
    ),
}


# Option rules no library function checks (the library checks steps, n_steps,
# n_pulses, t_d, wait_multiplier, dim and each level), in every scenario that
# has the option: (test of the value and all options, what it must be).  The
# lower bounds of integer options come first.
_CHECKS = {
    **{key: (lambda v, o, low=low: v >= low, f"at least {low}")
       for key, low in {"samples": 1, "points": 2, "k_max": 0, "trials": 1}.items()},
    "duration": (lambda v, o: v > 0.0, "positive"),
    "levels": (lambda v, o: 0 < len(v) == len(set(v)), "a nonempty list without repeats"),
    "scaling_step_sizes": (lambda v, o: len(v) > 0, "a nonempty list"),
    "alphas": (lambda v, o: 0 < len(v) == len(set(v)) and min(v) > 0.0,
               "a nonempty list of distinct positive amplitudes"),
    "f_min": (lambda v, o: 0.0 < v < 1.0, "in (0, 1)"),
    "mode": (lambda v, o: v in ("near", "extended"), "'near' or 'extended'"),
    "support": (lambda v, o: 1 <= v <= o["n_max"] + 1, "in [1, n_max + 1]"),
    "noise_sigma": (lambda v, o: v >= 0.0, "nonnegative"),
}


def run_scenario(
    scenario: str,
    overrides: dict | None = None,
    out_dir: str | None = None,
    workers: int = 1,
    seed: int = 0,
) -> RunContext:
    """Programmatic entry point used by the CLI and the test suite; every
    scenario runs in this one process."""
    if workers != 1:
        raise ConfigError(f"workers={workers!r}: scenarios run in one process")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    fn, defaults = SCENARIOS[scenario]
    options = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown option {key!r} for scenario {scenario!r}")
        options[key] = _coerce(key, value, defaults[key])
    for key, (valid, must) in _CHECKS.items():
        if key in options and not valid(options[key], options):
            raise ConfigError(f"option {key!r} must be {must}, got {options[key]!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed!r}")
    ctx = RunContext(
        scenario=scenario,
        options=options,
        out_dir=out_dir or os.path.join("out", scenario),
        seed=int(seed),
    )
    try:
        os.makedirs(ctx.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {ctx.out_dir!r}: {exc}") from exc
    started = time.time()
    summary = fn(ctx)
    manifest = {
        "scenario": scenario,
        "options": dict(options),
        "seed": ctx.seed,
        "runtime_s": time.time() - started,
        "artifacts": ctx.artifacts + ["manifest.json"],
        "versions": {
            "ionwalk": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "summary": summary,
    }
    ctx.write_json("manifest.json", manifest)
    # a failed scenario raises before this point and leaves no CSV or JSON
    _remove_listed_artifacts(ctx.out_dir)
    for name, text in ctx.texts.items():
        with open(os.path.join(ctx.out_dir, name), "w") as fh:
            fh.write(text)
    return ctx


def _remove_listed_artifacts(out_dir: str) -> None:
    """Delete the files that an earlier run's manifest in ``out_dir`` lists, and no others."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            names = json.load(fh)["artifacts"]
    except (OSError, ValueError, KeyError, TypeError):  # no manifest, or not one of ours
        return
    for name in names:
        path = os.path.join(out_dir, str(name))
        if os.path.basename(path) == name and os.path.isfile(path):
            os.remove(path)


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


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError, so they print as JSON and exit 2."""

    def error(self, message):
        raise ConfigError(message)


_CONFIG_KEYS = {"scenario", "overrides", "out", "seed"}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="ionwalk",
        description="Trapped-ion quantum-walk simulator scenarios",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario option")
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    try:
        args = parser.parse_args(argv)
        if args.list:
            for name in sorted(SCENARIOS):
                print(name)
            return 0
        config = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    config = json.load(fh)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
            if not isinstance(config, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = sorted(set(config) - _CONFIG_KEYS)
            if unknown:
                raise ConfigError(
                    f"unknown config keys {unknown}; allowed {sorted(_CONFIG_KEYS)}")
            if not isinstance(config.get("overrides", {}), dict):
                raise ConfigError("config overrides must be a JSON object")
            for key in ("scenario", "out"):
                if not isinstance(config.get(key, ""), str):
                    raise ConfigError(f"config {key} must be a string")
        scenario = args.scenario or config.get("scenario")
        if not scenario:
            raise ConfigError("no scenario given (positional or config)")
        overrides = dict(config.get("overrides", {}))
        for text in args.overrides:
            key, value = _parse_override(text)
            overrides[key] = value
        out_dir = args.out or config.get("out")
        seed = args.seed if args.seed is not None else _coerce("seed", config.get("seed", 0), 0)
        ctx = run_scenario(scenario, overrides, out_dir, seed=seed)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    except (TruncationError, StepError, IllConditioned, NoThreshold, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    print(json.dumps({"status": "ok", "out": ctx.out_dir, "artifacts": ctx.artifacts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
