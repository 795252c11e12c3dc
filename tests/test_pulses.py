import cmath
import dataclasses
import math

import numpy as np
import pytest

from ionwalk import dynamics as dyn
from ionwalk import fock, lattice, pulses
from ionwalk.errors import ConfigError


def lda_params(dim=96):
    return fock.experimental_params(level="LDA", dim=dim)


def run_combined(params, t_d=None, m=2.0, initial=None):
    t_d = t_d if t_d is not None else params.t_half_turn
    program = pulses.PulseProgram(pulses.combined_pulse(t_d, m), params)
    if initial is None:
        initial = dyn.ground_hybrid(params.dim, "TH")
    return pulses.run_program(program, initial)


class TestCombinedPulse:
    def test_branches_land_on_opposite_coherent_states(self):
        p = lda_params()
        final = run_combined(p)
        step = pulses.combined_pulse_step(p)
        target_t = fock.coherent_state(step, p.dim)
        target_h = fock.coherent_state(-step, p.dim)
        f_t = abs(np.vdot(target_t, final.amps[0])) ** 2 / np.linalg.norm(final.amps[0]) ** 2
        f_h = abs(np.vdot(target_h, final.amps[1])) ** 2 / np.linalg.norm(final.amps[1]) ** 2
        assert f_t >= 0.999
        assert f_h >= 0.999

    def test_step_distances_equal(self):
        p = lda_params()
        final = run_combined(p)
        assert abs(abs(fock.mean_a(final.amps[0])) - abs(fock.mean_a(final.amps[1]))) < 1e-3

    def test_coin_phases_cancel_into_global_phase(self):
        p = lda_params()
        final = run_combined(p)
        step = pulses.combined_pulse_step(p)
        target_t = fock.coherent_state(step, p.dim)
        target_h = fock.coherent_state(-step, p.dim)
        rel = np.angle(np.vdot(target_t, final.amps[0])) - np.angle(
            np.vdot(target_h, final.amps[1])
        )
        assert abs(rel) < 1e-3

    def test_vanishing_duration_reduces_to_double_pi_rotation(self):
        p = lda_params(dim=32)
        final = run_combined(p, t_d=1e-12)
        initial = dyn.ground_hybrid(32, "TH")
        # R(pi,0)^2 = -identity on the coin, motion untouched
        assert np.vdot(initial.amps[0], final.amps[0]) == pytest.approx(-0.5, abs=1e-6)
        assert np.vdot(initial.amps[1], final.amps[1]) == pytest.approx(-0.5, abs=1e-6)

    def test_reverse_timing_inverts_the_shift(self):
        p = lda_params()
        forward = run_combined(p)
        m = 2.0
        t_d = p.t_half_turn
        reverse = pulses.PulseProgram(
            tuple([pulses.wait(t_d)] + pulses.combined_pulse(t_d, m)), p
        )
        back = pulses.run_program(reverse, initial=forward)
        initial = dyn.ground_hybrid(p.dim, "TH")
        f_t = abs(np.vdot(initial.amps[0], back.amps[0])) ** 2 / np.linalg.norm(back.amps[0]) ** 2 / 0.5
        f_h = abs(np.vdot(initial.amps[1], back.amps[1])) ** 2 / np.linalg.norm(back.amps[1]) ** 2 / 0.5
        assert f_t >= 0.999
        assert f_h >= 0.999

    def test_wait_rotates_next_displacement(self):
        p = lda_params(dim=64)
        t_d = p.t_half_turn
        for tau in (0.37 * t_d, 1.4 * t_d):
            program = pulses.PulseProgram(
                (pulses.wait(tau), pulses.dipole(t_d)), p
            )
            moved = pulses.run_program(program, dyn.ground_hybrid(64))
            reference = pulses.run_program(
                pulses.PulseProgram((pulses.dipole(t_d),), p), dyn.ground_hybrid(64)
            )
            expected = fock.mean_a(reference.amps[0]) * np.exp(1j * p.delta * tau)
            assert fock.mean_a(moved.amps[0]) == pytest.approx(expected, abs=1e-9)


class TestWalkProgram:
    def test_single_step_splits_evenly(self):
        p = lda_params()
        final = pulses.run_program(pulses.walk_program(1, p.t_half_turn, p))
        p_t, p_h = final.coin_probabilities()
        assert p_t == pytest.approx(0.5, abs=1e-6)
        assert p_h == pytest.approx(0.5, abs=1e-6)

    def test_three_steps_reproduce_walk_asymmetry(self):
        p = lda_params()
        final = pulses.run_program(pulses.walk_program(3, p.t_half_turn, p))
        p_t, p_h = final.coin_probabilities()
        assert p_t == pytest.approx(0.75, abs=1e-3)
        assert p_h == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("phi_rf", [0.0, 0.7])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
    def test_lattice_amplitudes_match_ideal_walk(self, n_steps, symmetric, phi_rf):
        # complex coefficients on the sites k * step of both coin rows, up to
        # one global phase, to criterion 10's bound
        p = lda_params()
        program = pulses.walk_program(n_steps, p.t_half_turn, p, symmetric=symmetric, phi_rf=phi_rf)
        final = pulses.run_program(program)
        step = pulses.combined_pulse_step(p)
        sites = [fock.coherent_state(k * step, p.dim) for k in range(-n_steps, n_steps + 1)]
        gram = np.array([[np.vdot(a, b) for b in sites] for a in sites])
        coeffs = np.array([np.linalg.solve(gram, [np.vdot(site, amps) for site in sites])
                           for amps in final.amps])
        *_, ideal = lattice.walk_states(lattice.WalkSpec(n_steps, abs(step), phi_rf, symmetric))
        overlap = np.vdot(ideal.amps, coeffs)
        assert np.max(np.abs(coeffs - overlap / abs(overlap) * ideal.amps)) <= 1e-6

    def test_symmetric_variant_offsets_first_coin(self):
        p = lda_params(dim=32)
        program = pulses.walk_program(2, p.t_half_turn, p, symmetric=True, phi_rf=0.1)
        coins = [e for e in program.events if e.kind == pulses.RF and e.theta == math.pi / 2.0]
        assert coins[0].phi == pytest.approx(0.1 + math.pi / 2.0)
        assert coins[1].phi == pytest.approx(0.1)

    def test_program_serialization_includes_start_times(self):
        p = lda_params(dim=32)
        program = pulses.walk_program(1, 5e-6, p, wait_multiplier=4.0)
        data = program.to_dict()
        assert list(data) == ["params", "events"]
        starts = [e["start_time"] for e in data["events"]]
        assert starts == sorted(starts)
        assert data["events"][1]["kind"] == "dipole"
        assert data["events"][1]["start_time"] == pytest.approx(0.0)
        # coin, dipole, rf, wait(4 t_d), dipole at 5 t_d
        assert data["events"][4]["start_time"] == pytest.approx(25e-6)
        assert data["params"]["level"] == "LDA"

    def test_program_params_round_trip(self):
        p = fock.experimental_params(level="RWA", dim=40, z0=12e-9, force_ratio=0.5)
        program = pulses.walk_program(1, 5e-6, p)
        data = program.to_dict()
        assert list(data["params"]) == [f.name for f in dataclasses.fields(fock.SimParams)]
        assert fock.SimParams(**data["params"]) == program.params


class TestScan:
    def test_scan_window_precondition(self):
        p = lda_params(dim=32)
        with pytest.raises(ValueError):
            pulses.scan_td(p, [0.5 * p.t_half_turn])

    def test_scan_rows_and_ratio_peak_at_nominal_duration(self):
        p = lda_params()
        t_half = p.t_half_turn
        rows = pulses.scan_td(p, [0.9 * t_half, t_half, 1.1 * t_half])
        ratios = [r[1] / r[2] for r in rows]
        assert ratios[1] > ratios[0]
        assert ratios[1] > ratios[2]
        assert ratios[1] == pytest.approx(3.0, abs=0.01)

    def test_detuned_durations_lose_interference(self):
        p = lda_params()
        t_half = p.t_half_turn
        rows = pulses.scan_td(
            p, [0.96 * t_half, 1.04 * t_half], wait_multiplier=4.0
        )
        for _, p_t, p_h in rows:
            assert p_t / p_h == pytest.approx(1.0, abs=0.1)


class TestCalibration:
    def test_short_ladder_spacing_and_fidelity(self):
        p = fock.experimental_params(level="3SB", dim=96)
        cal = pulses.calibrate_positions(2, p)
        assert cal.mean_n[0] == pytest.approx(0.0, abs=1e-9)
        assert cal.mean_n[1] == pytest.approx(1.33, rel=0.10)
        assert cal.mean_n[2] == pytest.approx(4.71, rel=0.10)
        assert cal.coherent_fidelities[0] == pytest.approx(1.0, abs=1e-6)
        assert all(f > 0.95 for f in cal.coherent_fidelities[:2])
        assert cal.neighbor_overlaps[0] == pytest.approx(0.24, abs=0.05)


class TestForceAmplitude:
    def test_reference_value(self):
        # quoted inputs are rounded, so the published 2.54e-21 N is matched
        # only to a few percent
        p = fock.experimental_params()
        assert pulses.force_amplitude(p) == pytest.approx(2.54e-21, rel=0.04)

    def test_zero_drive_means_zero_force(self):
        p = fock.experimental_params(omega_d=0.0)
        assert pulses.force_amplitude(p) == 0.0

    def test_linear_in_drive(self):
        p = fock.experimental_params()
        doubled = fock.experimental_params(omega_d=2 * p.omega_d)
        assert pulses.force_amplitude(doubled) == pytest.approx(
            2 * pulses.force_amplitude(p), rel=1e-12
        )


def test_rf_event_and_lattice_coin_rotate_rows_bit_for_bit():
    # the lattice coin (once written in the (H, T) order) and the RF event of
    # a pulse program (once its own function) share one rotation: same bits
    rng = np.random.default_rng(31)
    rows = rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33))
    rows /= np.linalg.norm(rows)
    walker = lattice.LatticeState(rows, 1.0, 16)
    hybrid = dyn.HybridState(rows, 0.0)
    params = fock.experimental_params(dim=33)
    for theta, phi in ((math.pi / 2.0, 0.0), (math.pi, 0.3), (0.7, -2.1)):
        c, s, eip = math.cos(theta / 2.0), math.sin(theta / 2.0), cmath.exp(1j * phi)
        t, h = rows
        old_lattice = [-np.conj(eip) * s * h + c * t, c * h + eip * s * t]
        old_rf = [-eip.conjugate() * s * h + c * t, c * h + eip * s * t]
        coin = lattice.apply_coin(walker, theta, phi).amps
        program = pulses.PulseProgram((pulses.rf(theta, phi),), params)
        event = pulses.run_program(program, hybrid).amps
        bits = {np.stack(a).tobytes() for a in (coin, event, old_lattice, old_rf)}
        assert bits == {lattice.rotate_coin(rows, theta, phi).tobytes()}


def test_event_validation():
    with pytest.raises(ValueError):
        pulses.PulseEvent("laser")
    with pytest.raises(ValueError):
        pulses.dipole(-1e-6)
    for duration in (math.nan, math.inf):  # each would fail only inside propagate
        for event in (pulses.dipole, pulses.wait):
            with pytest.raises(ValueError, match="finite"):
                event(duration)
        with pytest.raises(ConfigError, match="t_d"):
            pulses.combined_pulse(duration)
    with pytest.raises(ValueError):
        pulses.PulseProgram((), fock.experimental_params())
    with pytest.raises(ValueError, match="wait_multiplier"):
        pulses.combined_pulse(1e-6, 3.0)
    with pytest.raises(ValueError, match="wait_multiplier"):
        pulses.walk_program(1, 1e-6, fock.experimental_params(), wait_multiplier=3.0)
