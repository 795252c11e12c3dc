"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime and checking the stated tolerances."""

import math
import time
from contextlib import contextmanager

import numpy as np

from ionwalk import dynamics as dyn
from ionwalk import fock, kicks, lattice, pulses, readout
from oracles import kick_deviation

TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number, name, limit_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"


def test_criterion_01_coin_ratio_closed_form():
    with criterion(1, "three-step coin ratio", 1.0):
        *_, state = lattice.walk_states(lattice.WalkSpec(3, 1.0))
        p_t, p_h = lattice.coin_probabilities(state)
        expected = (1.0 + math.exp(-8.0)) / (3.0 - math.exp(-8.0))
        assert abs(p_h / p_t - expected) < 1e-10
        *_, wide = lattice.walk_states(lattice.WalkSpec(3, 4.0))
        p_t, p_h = lattice.coin_probabilities(wide)
        assert abs(p_h / p_t - 1.0 / 3.0) < 1e-6


def test_criterion_02_spread_scaling():
    with criterion(2, "spread scaling factors", 10.0):
        v4 = lattice.scaling_factor(4.0, 100)
        v2 = lattice.scaling_factor(2.0, 100)
        v1 = lattice.scaling_factor(1.0, 100)
        assert abs(v4 - 0.457) <= 0.005
        assert abs(v1 / v4 - 0.89) <= 0.02
        assert v2 / v4 >= 0.99


def test_criterion_03_coupling_thresholds():
    with criterion(3, "sideband coupling thresholds", 1.0):
        g1, _ = fock.coupling_thresholds(0.31)
        assert g1 == 8
        mags = fock.sideband_magnitudes(0.31, 40)
        assert mags[37] / mags[0] < 0.02


def test_criterion_04_linear_regime_equivalence():
    with criterion(4, "linear-regime analytic equivalence", 30.0):
        params = fock.experimental_params(level="LDA", dim=128)
        initial = dyn.ground_hybrid(128, "TH")
        for fraction in (0.25, 0.5, 0.75, 1.0):
            duration = fraction * 2.0 * params.t_half_turn
            numeric = dyn.propagate(initial, params, duration)
            analytic = dyn.lda_propagate(initial, params, duration)
            for a, b in zip(analytic.amps, numeric.amps):
                fid = abs(np.vdot(a, b)) ** 2 / (
                    np.linalg.norm(a) ** 2 * np.linalg.norm(b) ** 2
                )
                assert fid >= 1.0 - 1e-6
        half = dyn.propagate(initial, params, params.t_half_turn)
        disp = dyn.lda_pulse_displacement(params, 0.0, params.t_half_turn)
        tgt_t = fock.displacement_matrix(disp, 128)[:, 0] / math.sqrt(2.0)
        tgt_h = fock.displacement_matrix(params.force_ratio * disp, 128)[:, 0] / math.sqrt(2.0)
        phi_t = np.angle(np.vdot(tgt_t, half.amps[0]))
        phi_h = np.angle(np.vdot(tgt_h, half.amps[1]))
        assert abs(phi_h / phi_t - 4.0 / 9.0) <= 1e-6


def test_criterion_05_return_time_departure():
    with criterion(5, "exact-coupling return time", 60.0):
        base = dict(
            omega_z=TWO_PI * 2.13e6, delta=TWO_PI * 0.1e6,
            omega_d=TWO_PI * 1.2e6, eta=0.31, dim=128,
        )

        def return_time(level):
            # sampled as the trajectory scenario samples its return-time history
            params = fock.SimParams(level=level, **base)
            _, times, amps = dyn.propagate(dyn.ground_hybrid(params.dim), params, 12e-6,
                                           12e-6 / dyn.RETURN_TIME_SAMPLES)
            return dyn.return_time(times, amps)[0]

        t_rwa, t_lda = return_time("RWA"), return_time("LDA")
        assert t_rwa < 10e-6
        assert abs(t_lda - 10e-6) <= 0.01 * 10e-6


def test_criterion_06_interference_scan():
    with criterion(6, "pulse-duration interference scan", 600.0):
        params = fock.experimental_params(level="3SB", dim=96)
        t_half = params.t_half_turn
        m = 4.0  # sensitivity-enhanced wait setting used for the scans

        coarse = pulses.scan_td(
            params, np.linspace(0.96 * t_half, 1.04 * t_half, 17), wait_multiplier=m)
        best = max(coarse, key=lambda r: r[1] / r[2])
        spacing = 0.005 * t_half
        t_opt, p_t, p_h = pulses.find_optimal_td(
            params, (best[0] - spacing, best[0] + spacing),
            wait_multiplier=m,
        )
        assert p_t / p_h >= 2.9
        assert abs(t_opt - t_half) <= 0.02 * t_half
        assert abs(p_t - 0.75) <= 0.02

        # extended scan: the exchanged-direction walk shows up as inverted
        # splittings (the heavy coin state swaps) around the nominal duration
        for window, center in (((4.40e-6, 4.80e-6), 4.6e-6), ((5.20e-6, 5.60e-6), 5.4e-6)):
            grid = np.arange(window[0], window[1] + 1e-12, 0.025e-6)
            rows = pulses.scan_td(params, grid, wait_multiplier=m)
            split = np.array([max(pt / ph, ph / pt) for _, pt, ph in rows])
            idx = int(np.argmax(split))
            assert 0 < idx < len(rows) - 1, "splitting peak not interior to window"
            t_peak = rows[idx][0]
            assert abs(t_peak - center) <= 0.1e-6 + 1e-12
            assert split[idx] >= 2.0


def test_criterion_07_position_calibration():
    with criterion(7, "position-state calibration", 300.0):
        params = fock.experimental_params(level="3SB", dim=128)
        cal = pulses.calibrate_positions(4, params)
        reference_n = [0.0, 1.33, 4.71, 9.08, 13.50]
        assert abs(cal.mean_n[0]) < 1e-6
        for k in range(1, 5):
            assert abs(cal.mean_n[k] - reference_n[k]) <= 0.10 * reference_n[k]
        for overlap in cal.neighbor_overlaps:
            assert abs(overlap - 0.24) <= 0.05
        reference_f = [1.00, 1.00, 0.97, 0.90, 0.78]
        for measured, expected in zip(cal.coherent_fidelities, reference_f):
            assert abs(measured - expected) <= 0.05


def test_criterion_08_readout_roundtrip():
    with criterion(8, "readout inversion roundtrip", 60.0):
        eta = 0.31
        cfg = readout.ReadoutConfig(7, eta)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = np.zeros(8)
            p[:6] = rng.random(6)
            p /= p.sum()
            recovered = readout.invert_bsb(readout.bsb_signal(p, cfg), cfg)
            assert np.max(np.abs(recovered - p)) < 1e-3

        profiles = {k: np.abs(fock.coherent_state(1.24 * k, 64)) ** 2 for k in range(5)}
        weights = {1: 4.0 / 6.0, 3: 1.0 / 6.0, -1: 1.0 / 6.0, -3: 0.0}

        def mixture(shift):
            q = np.zeros(64)
            for k, w in weights.items():
                prof = profiles[abs(k + shift)]
                q += w * np.pad(prof, (0, 64 - prof.size))
            return q

        recovered, residual = readout.disambiguate_positions(
            mixture(0), mixture(1), mixture(-1), profiles, sorted(weights), 1
        )
        assert residual < 1e-3
        for k, w in weights.items():
            assert abs(recovered[k] - w) < 0.03


def test_criterion_09_kick_thresholds():
    with criterion(9, "photon-kick fidelity thresholds", 1800.0):
        eta, omega_z, dim = 0.31, TWO_PI * 2.13e6, 256
        for mag in (1.0, 2.0, 5.0, 10.0):
            results = {}
            for phase, coeffs in (
                ("imag", kicks.CENTER_KICK_COEFFS),
                ("real", kicks.TURNING_KICK_COEFFS),
            ):
                alpha = 1j * mag if phase == "imag" else complex(mag)
                t_p, f_val, _ = kicks.fidelity_threshold(alpha, 0.99, eta, omega_z, dim=dim)
                predicted = kicks.predict_threshold(coeffs, mag)
                assert abs(t_p - predicted) / predicted <= 0.20, (mag, phase, t_p, predicted)
                results[phase] = t_p
                kp = kicks.pi_pulse(t_p, eta, omega_z, dim)
                deviation = kick_deviation(alpha, kp)
                assert deviation <= 3.0 * kicks.error_bound(alpha, omega_z, t_p)
            assert results["real"] > results["imag"]
        assert abs(kicks.predict_threshold(kicks.CENTER_KICK_COEFFS, 200.0) - 0.21e-9) <= 0.01e-9
        assert abs(kicks.predict_threshold(kicks.TURNING_KICK_COEFFS, 200.0) - 2.18e-9) <= 0.01e-9


def test_criterion_10_lattice_vs_fock_oracle():
    with criterion(10, "lattice vs Fock-space oracle", 60.0):
        dim = 256
        for step_size in (1.0, 2.0):
            d_up = fock.displacement_matrix(step_size, dim)
            d_dn = fock.displacement_matrix(-step_size, dim)
            for n_steps in (3, 4):
                psi_t = np.zeros(dim, complex)
                psi_t[0] = 1.0
                psi_h = np.zeros(dim, complex)
                c = s = math.cos(math.pi / 4.0)
                for _ in range(n_steps):
                    new_h = c * psi_h + s * psi_t
                    new_t = -s * psi_h + c * psi_t
                    psi_t, psi_h = d_up @ new_t, d_dn @ new_h
                *_, state = lattice.walk_states(lattice.WalkSpec(n_steps, step_size))
                ks, probs = lattice.position_probabilities(state, normalize=False)
                for k, p_lattice in zip(ks, probs):
                    site = fock.coherent_state(float(k) * step_size, dim)
                    p_fock = (
                        abs(np.vdot(site, psi_t)) ** 2
                        + abs(np.vdot(site, psi_h)) ** 2
                    )
                    assert abs(p_lattice - p_fock) < 1e-6
