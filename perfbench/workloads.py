"""Benchmark workloads: the ionwalk scenarios one pass runs, why each
workload exists, and the correctness gate every scenario output must pass.

The gates repeat the tolerances of ``tests/test_acceptance.py`` (never
looser) with the reference values written out here, so that a change to
the program's own reference tables cannot move the gate.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi
# pi/delta for the scenarios' default detuning delta = 2 pi x 0.1 MHz
HALF_TURN_S = math.pi / (TWO_PI * 0.1e6)

# criterion 09 reference curves ln T = c0 + c1 ln|a| + c2 ln^2|a|
CENTER_KICK_COEFFS = (-17.55, -0.63, -0.05)
TURNING_KICK_COEFFS = (-17.03, -0.02, -0.1)
# criterion 07 reference <n> of position states k = 0..4
CALIBRATION_MEAN_N = (0.0, 1.33, 4.71, 9.08, 13.50)

READOUT_TRIALS = 4000


def _rows(out: str, name: str) -> list[dict]:
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _json(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def check_scan(out: str) -> list[str]:
    """Criterion 06, near-scan part."""
    opt = _json(out, "optimum.json")
    failures = []
    if not opt["max_ratio"] >= 2.9:
        failures.append(f"max P_T/P_H {opt['max_ratio']:.4f} < 2.9")
    if not abs(opt["relative_offset_from_half_turn"]) <= 0.02:
        failures.append(f"t_opt off pi/delta by {opt['relative_offset_from_half_turn']:.4f}")
    if not abs(opt["p_t_optimal"] - 0.75) <= 0.02:
        failures.append(f"P_T at optimum {opt['p_t_optimal']:.4f} not within 0.02 of 0.75")
    return failures


def _predict(coeffs, mag: float) -> float:
    c0, c1, c2 = coeffs
    la = math.log(mag)
    return math.exp(c0 + c1 * la + c2 * la * la)


def check_kicks(out: str) -> list[str]:
    """Criterion 09: thresholds within 20% of the reference curves and the
    turning-point threshold above the center one at every amplitude."""
    rows = _rows(out, "thresholds.csv")
    failures = [] if len(rows) == 8 else [f"{len(rows)} threshold rows, expected 8"]
    by_mag: dict[float, dict[str, float]] = {}
    for row in rows:
        mag, phase, t_p = float(row["alpha_mag"]), row["phase"], float(row["t_p"])
        coeffs = CENTER_KICK_COEFFS if phase == "imag" else TURNING_KICK_COEFFS
        predicted = _predict(coeffs, mag)
        if not abs(t_p - predicted) / predicted <= 0.20:
            failures.append(f"|alpha|={mag} {phase}: t_p {t_p:.3e} vs reference {predicted:.3e}")
        by_mag.setdefault(mag, {})[phase] = t_p
    for mag, pair in sorted(by_mag.items()):
        if not pair.get("real", 0.0) > pair.get("imag", math.inf):
            failures.append(f"|alpha|={mag}: turning-point threshold not above center")
    return failures


def check_returns(out: str) -> list[str]:
    """Criterion 05: exact coupling returns early, the LDA at 10 us."""
    info = _json(out, "returns.json")
    failures = []
    if not info["RWA"]["return_time"] < 10e-6:
        failures.append(f"RWA return time {info['RWA']['return_time']:.4e} s not below 10 us")
    if not abs(info["LDA"]["return_time"] - 10e-6) <= 0.01 * 10e-6:
        failures.append(f"LDA return time {info['LDA']['return_time']:.4e} s not within 1% of 10 us")
    return failures


def check_calibration(out: str) -> list[str]:
    """Criterion 07: position-ladder <n> within 10% of the reference."""
    mean_n = [float(r["mean_n"]) for r in _rows(out, "calibration.csv")]
    if len(mean_n) != len(CALIBRATION_MEAN_N):
        return [f"{len(mean_n)} calibration rows, expected {len(CALIBRATION_MEAN_N)}"]
    failures = [] if abs(mean_n[0]) < 1e-6 else [f"<n> of k=0 is {mean_n[0]:.3e}"]
    for k in range(1, len(mean_n)):
        ref = CALIBRATION_MEAN_N[k]
        if not abs(mean_n[k] - ref) <= 0.10 * ref:
            failures.append(f"<n> of k={k} is {mean_n[k]:.3f}, reference {ref}")
    return failures


def check_roundtrip(out: str) -> list[str]:
    """Criterion 08: every noiseless readout inversion within 1e-3."""
    errors = [float(r["err_noiseless"]) for r in _rows(out, "roundtrip.csv")]
    if len(errors) != READOUT_TRIALS:
        return [f"{len(errors)} roundtrip rows, expected {READOUT_TRIALS}"]
    worst = max(errors)
    return [] if worst < 1e-3 else [f"worst noiseless roundtrip error {worst:.3e}"]


def check_spread(out: str) -> list[str]:
    """Criterion 02: spread-scaling factor v(4) within 0.005 of 0.457."""
    v = {float(r["step_size"]): float(r["v"]) for r in _rows(out, "scaling.csv")}
    if 4.0 not in v:
        return ["no v(4) row in scaling.csv"]
    return [] if abs(v[4.0] - 0.457) <= 0.005 else [f"v(4) = {v[4.0]:.4f}"]


def finite_csvs(out: str) -> list[str]:
    """No acceptance criterion covers this output: every CSV value is finite."""
    failures = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            for row in _rows(out, name):
                if not all(math.isfinite(float(v)) for v in row.values()):
                    failures.append(f"{name}: non-finite value in {row}")
                    break
    return failures


@dataclass(frozen=True)
class Run:
    """One ``ionwalk.cli.run_scenario`` call and the gate for its output."""

    scenario: str
    overrides: dict
    check: Callable[[str], list[str]]


WORKLOADS = {
    # ROADMAP item 2 (vectorised, batched drive propagation) acts here:
    # 5 scan points plus 14 sequential golden-section evaluations, i.e. 19
    # three-step 3SB walk programs, ~85% of the time in dynamics.apply_drive
    # and its band factors. Kicks do no work. No random input.
    "td-scan": (
        Run("scan-td", {"mode": "near", "points": 5, "dim": 96, "level": "3SB",
                        "n_steps": 3, "wait_multiplier": 4.0}, check_scan),
    ),
    # ROADMAP item 3 (expm_multiply kicks, cached D(i eta)) acts here: the
    # kick RK4 and two expm rebuilds of D(i eta) per fidelity evaluation,
    # |alpha| in {1, 2, 5, 10}, both phases, automatic dim 64..256. The drive
    # integrator does no work. No random input.
    "kick-thresholds": (Run("kick-threshold", {}, check_kicks),),
    # The same dynamics layer used differently: dense sampled snapshots and
    # sequential state-dependent programs that cannot be batched, so a
    # batching or sampling change that helps td-scan but costs this path
    # shows here. The only workload where lattice and readout have weight;
    # --seed drives the readout-roundtrip RNG.
    "studies-mix": (
        Run("trajectory", {}, check_returns),
        Run("stepwise", {}, finite_csvs),
        Run("calibrate", {}, check_calibration),
        Run("walk-positions", {"t_d": HALF_TURN_S}, finite_csvs),
        Run("walk-ideal", {"steps": 300}, check_spread),
        Run("readout-roundtrip", {"trials": READOUT_TRIALS}, check_roundtrip),
    ),
}
