import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from ionwalk import dynamics as dyn
from ionwalk import cli, fock, pulses
from ionwalk.errors import StepError, TruncationError
from oracles import (
    hamiltonian,
    lda_radius,
    lowering_op,
    raising_op,
    sequential_stepwise,
    stencil_offsets,
)

TWO_PI = 2.0 * math.pi


def fig5_params(level, dim=128):
    return fock.SimParams(
        omega_z=TWO_PI * 2.13e6,
        delta=TWO_PI * 0.1e6,
        omega_d=TWO_PI * 1.2e6,
        eta=0.31,
        dim=dim,
        level=level,
    )


def branch_fidelity(reference, state, branch="T"):
    a = reference.amps[dyn.COINS.index(branch)]
    b = state.amps[dyn.COINS.index(branch)]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return abs(np.vdot(a, b)) ** 2 / (na * nb) ** 2


class TestHamiltonianStructure:
    def test_lda_block_at_time_zero(self):
        p = fock.experimental_params(level="LDA", dim=32)
        h = hamiltonian(p, 0.0)
        dim = p.dim
        ladder = 1j * p.eta * (raising_op(dim) - lowering_op(dim))
        t_block = h[:dim, :dim]
        assert np.max(np.abs(t_block - (p.omega_d / 2.0) * ladder)) < 1e-9
        h_block = h[dim:, dim:]
        assert np.max(np.abs(h_block - p.force_ratio * t_block)) < 1e-9

    def test_rwa_elements_proportional_to_sideband(self):
        p = fock.experimental_params(level="RWA", dim=32)
        h = hamiltonian(p, 0.0)
        dim = p.dim
        for n in range(0, 12):
            expected = (p.omega_d / 2.0) * complex(fock.ladder_elements(1j * p.eta, 1, n))
            assert h[n + 1, n] == pytest.approx(expected, abs=1e-12)

    def test_band_structure_per_level(self):
        dim = 32
        h_rwa = hamiltonian(fock.experimental_params(level="RWA", dim=dim), 0.7e-6)
        h_3sb = hamiltonian(fock.experimental_params(level="3SB", dim=dim), 0.7e-6)
        t = slice(0, dim)
        assert abs(h_rwa[t, t][7, 5]) == 0.0
        assert abs(h_3sb[t, t][7, 5]) > 0.0
        assert abs(h_3sb[t, t][8, 5]) > 0.0
        assert abs(h_3sb[t, t][9, 5]) == 0.0  # offsets beyond the third band absent

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_hermitian_at_sampled_times(self, level):
        p = fock.experimental_params(level=level, dim=24)
        for t in (0.0, 3.3e-7, 1.1e-6, 4.9e-6):
            h = hamiltonian(p, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestLinearRegime:
    def test_propagate_matches_analytic_solution(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        for fraction in (0.3, 0.65, 1.0):
            duration = fraction * 2.0 * p.t_half_turn
            numeric = dyn.propagate(initial, p, duration)
            analytic = dyn.lda_propagate(initial, p, duration)
            assert branch_fidelity(analytic, numeric, "T") >= 1.0 - 1e-6
            assert branch_fidelity(analytic, numeric, "H") >= 1.0 - 1e-6

    def test_half_turn_radius(self):
        p = fock.experimental_params(level="LDA", dim=64)
        state = dyn.propagate(dyn.ground_hybrid(64), p, p.t_half_turn)
        # half-turn displacement spans the drive-circle diameter
        assert abs(fock.mean_a(state.amps[0])) == pytest.approx(
            p.eta * p.omega_d / p.delta, rel=1e-6
        )

    def test_full_turn_returns_with_global_phase(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        final = dyn.propagate(initial, p, 2.0 * p.t_half_turn)
        assert branch_fidelity(initial, final, "T") >= 1.0 - 1e-6
        phase = np.angle(np.vdot(initial.amps[0], final.amps[0]))
        full_turn_phase = dyn.lda_pulse_phase(p, 2.0 * p.t_half_turn)
        assert full_turn_phase == pytest.approx(2.0 * math.pi * lda_radius(p) ** 2, rel=1e-12)
        assert phase == pytest.approx(full_turn_phase, abs=1e-6)

    def test_measured_pulse_phases_and_ratio(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        final = dyn.propagate(initial, p, p.t_half_turn)
        disp = dyn.lda_pulse_displacement(p, 0.0, p.t_half_turn)
        tgt_t = fock.displacement_matrix(disp, 64)[:, 0] / math.sqrt(2.0)
        tgt_h = fock.displacement_matrix(p.force_ratio * disp, 64)[:, 0] / math.sqrt(2.0)
        phi_t = np.angle(np.vdot(tgt_t, final.amps[0]))
        phi_h = np.angle(np.vdot(tgt_h, final.amps[1]))
        assert phi_t == pytest.approx(math.pi * lda_radius(p) ** 2, abs=1e-6)
        assert phi_h / phi_t == pytest.approx(4.0 / 9.0, abs=1e-6)

    def test_derived_phases_defaults(self):
        p = fock.experimental_params(level="LDA")
        phi_t = dyn.lda_pulse_phase(p, p.t_half_turn)
        phi_h = p.force_ratio**2 * phi_t
        assert phi_h / phi_t == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert phi_t == pytest.approx(math.pi * lda_radius(p) ** 2, rel=1e-12)
        assert fock.coupling_thresholds(p.eta) == (8, 37)


class TestTrajectories:
    def test_ground_state_sits_at_origin(self):
        tab = dyn.trajectory_table([0.0], dyn.ground_hybrid(32).amps[None])
        assert tab["re_alpha_t"][0] == 0.0 and tab["im_alpha_t"][0] == 0.0

    @pytest.mark.parametrize("coin", ["TH", "T"])
    def test_table_matches_per_branch_motional_states(self, coin):
        p = fig5_params("3SB", dim=48)
        # more samples than one block of the moment evaluation
        _, times, amps = dyn.propagate(dyn.ground_hybrid(48, coin), p, 1e-6, sample_interval=3e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = dyn.trajectory_table(times, amps)
        assert np.array_equal(tab["t"], times)
        for row, c in enumerate("th"):
            alpha = np.array([complex(fock.mean_a(psi[row])) for psi in amps])
            assert np.array_equal(tab[f"re_alpha_{c}"], alpha.real)
            assert np.array_equal(tab[f"im_alpha_{c}"], alpha.imag)
            assert np.array_equal(tab[f"n_{c}"], [float(fock.mean_n(psi[row])) for psi in amps])
        assert len(amps) > dyn._BLOCK and tab["n_t"][-1] > 0.1
        if coin == "T":  # the empty H branch sits at 0
            assert not np.any(tab["re_alpha_h"]) and not np.any(tab["im_alpha_h"])
            assert not np.any(tab["n_h"])

    def test_undriven_coherent_state_is_static(self):
        amps = fock.coherent_state(2.0, 64)
        state = dyn.HybridState(np.stack([amps, np.zeros(64)]))
        p = fock.experimental_params(level="LDA", dim=64, omega_d=0.0)
        later = dyn.propagate(state, p, 5e-6)
        assert fock.mean_a(later.amps[0]) == pytest.approx(2.0, abs=1e-9)

    def test_driven_ground_state_traces_drive_circle(self):
        p = fock.experimental_params(level="LDA", dim=64)
        full_turn = 2.0 * p.t_half_turn
        _, _, amps = dyn.propagate(
            dyn.ground_hybrid(64), p, full_turn, sample_interval=full_turn / 40
        )
        a = lda_radius(p)
        center = 1j * a * math.copysign(1.0, p.delta)
        for psi in amps:
            alpha = fock.mean_a(psi[0])
            assert abs(abs(alpha - center) - a) < 1e-6

    def test_exact_trajectories_stay_near_linear_prediction_at_low_drive(self):
        # the walk's operating drive keeps the arc well inside the coupling
        # peak; the residual offset is the second-order element reduction
        for level in ("RWA", "3SB"):
            p = fock.experimental_params(level=level, dim=64)
            full_turn = 2.0 * p.t_half_turn
            _, times, amps = dyn.propagate(
                dyn.ground_hybrid(64), p, full_turn, sample_interval=full_turn / 60
            )
            a = lda_radius(p)
            devs = [
                abs(fock.mean_a(psi[0]) - (-1j * a * (np.exp(1j * p.delta * t) - 1.0)))
                for t, psi in zip(times, amps)
            ]
            quarter = len(devs) // 4
            assert max(devs[:quarter]) < 0.05
            assert max(devs) < 0.15 * (2.0 * a)


def scanned_return_time(params, duration=12e-6):
    """``return_time`` of a history sampled as the trajectory scenario samples it,
    checked against the argmax/argmin of a per-state <n> loop."""
    _, times, amps = dyn.propagate(dyn.ground_hybrid(params.dim), params, duration,
                                   duration / dyn.RETURN_TIME_SAMPLES)
    n = np.array([float(fock.mean_n(psi[0])) for psi in amps])
    peak = int(np.argmax(n))
    idx = peak + int(np.argmin(n[peak:]))
    found = dyn.return_time(times, amps)
    assert len(amps) > dyn._BLOCK and found == (times[idx], n[idx])
    return found


class TestRegimeDeparture:
    def test_return_times_exact_vs_linear(self):
        t_rwa, n_rwa = scanned_return_time(fig5_params("RWA"))
        t_lda, _ = scanned_return_time(fig5_params("LDA"))
        assert t_rwa < 10e-6
        assert t_lda == pytest.approx(10e-6, rel=0.01)
        assert n_rwa < 0.5

    def test_sampled_histories_of_an_empty_pulse(self):
        start = dyn.ground_hybrid(32)
        for interval in (1e-7, 1e-8):
            times, amps = dyn.propagate(start, fig5_params("RWA", dim=32), 0.0, interval)[1:]
            assert list(times) == [0.0, 0.0]
            assert np.array_equal(amps, [start.amps, start.amps])

    def test_undriven_sampled_pulse_holds_the_sample_grid(self):
        start = dyn.ground_hybrid(32)
        for level in ("LDA", "RWA", "3SB"):
            driven = fock.experimental_params(level=level, dim=32, omega_d=1e-3)
            grid = dyn.propagate(start, driven, 1e-6, 1e-8)[1]
            final, times, amps = dyn.propagate(start, driven.replace(omega_d=0.0), 1e-6, 1e-8)
            assert len(grid) > 2 and np.array_equal(times, grid)
            assert all(np.array_equal(psi, start.amps) for psi in amps)
            assert np.array_equal(final.amps, start.amps) and final.time == times[-1]

    def test_3sb_trajectory_carries_high_frequency_bands(self):
        spectra = {}
        for level in ("3SB", "RWA"):
            p = fig5_params(level)
            _, *history = dyn.propagate(dyn.ground_hybrid(128), p, 4e-6, sample_interval=8e-9)
            # the samples before the end are evenly spaced; the end need not be
            tab = dyn.trajectory_table(*(column[:-1] for column in history))
            x = tab["re_alpha_t"] - tab["re_alpha_t"].mean()
            freqs = np.fft.rfftfreq(x.size, tab["t"][1] - tab["t"][0])
            spectra[level] = (freqs, np.abs(np.fft.rfft(x * np.hanning(x.size))))
        wz, dl = 2.13e6, 0.1e6
        for target in (2 * wz + dl, 3 * wz + dl):
            freqs, amp = spectra["3SB"]
            band = (freqs > target - 3 * dl) & (freqs < target + 3 * dl)
            background = np.median(amp[(freqs > 1.3e6) & (freqs < 1.7e6)])
            freqs_r, amp_r = spectra["RWA"]
            band_r = (freqs_r > target - 3 * dl) & (freqs_r < target + 3 * dl)
            assert amp[band].max() > 5.0 * background
            assert amp[band].max() > 50.0 * amp_r[band_r].max()

    def test_norm_conserved_per_microsecond(self):
        p = fig5_params("3SB")
        initial = dyn.ground_hybrid(128)
        final = dyn.propagate(initial, p, 6e-6)
        drift = abs(np.linalg.norm(final.amps) - 1.0)
        assert drift < 1e-8 * 6.0

    def test_leakage_raises_truncation_error(self):
        p = fig5_params("RWA", dim=16)
        with pytest.raises(TruncationError):
            dyn.propagate(dyn.ground_hybrid(16), p, 6e-6)


class TestSampledHistory:
    def test_guard_band_between_samples_raises_truncation_error(self):
        # dim 24 is too small for the trajectory scenario's RWA run: samples
        # between start and end reach the guard band, the end state does not
        p, start = fig5_params("RWA", dim=24), dyn.ground_hybrid(24)
        final = dyn.propagate(start, p, 1e-5)
        assert fock.leakage(final.amps).max() < fock.LEAK_TOL
        with pytest.raises(TruncationError, match="propagate"):
            dyn.propagate(start, p, 1e-5, 1e-5 / 600)

    def test_norm_drift_between_samples_raises_step_error(self, monkeypatch):
        exact, rk4 = dyn._exact, dyn._rk4

        def drifting_exact(*args, **kwargs):
            run = exact(*args, **kwargs)
            run[len(run) // 2] *= 1.0 + 1e-5
            return run

        def drifting_rk4(*args, record=None, **kwargs):
            # every row the stacked 3SB run records drifts
            def drifted(step, rows):
                record(step, rows * (1.0 + 1e-5))
            return rk4(*args, record=drifted if record else None, **kwargs)

        # the single-rate drive's exact run and the 3SB drive's stacked RK4 run
        monkeypatch.setattr(dyn, "_exact", drifting_exact)
        monkeypatch.setattr(dyn, "_rk4", drifting_rk4)
        for level in ("RWA", "3SB"):
            p = fig5_params(level, dim=32)
            with pytest.raises(StepError, match="norm drift"):
                dyn.propagate(dyn.ground_hybrid(32), p, 1e-6, 1e-7)

    @pytest.mark.parametrize("interval", [math.inf, math.nan, 0.0, -1e-7])
    @pytest.mark.parametrize("duration", [0.0, 1e-6])
    def test_sample_interval_must_be_finite_and_positive(self, interval, duration):
        p = fig5_params("RWA", dim=32)
        start = dyn.ground_hybrid(32)
        with pytest.raises(ValueError, match="sample_interval"):
            dyn.propagate(start, p, duration, interval)
        program = pulses.PulseProgram([pulses.dipole(duration)], p)
        with pytest.raises(ValueError, match="sample_interval"):
            pulses.run_program(program, start, interval)

    def test_one_read_only_array_and_one_state_object(self, monkeypatch):
        # the samples are rows of one array; only the end becomes a HybridState
        built = []
        post_init = dyn.HybridState.__post_init__

        def counting(self):
            built.append(None)
            post_init(self)

        p = fig5_params("3SB", dim=32)
        start = dyn.ground_hybrid(32)
        # the period grid: 1.5 us holds three whole periods of T = n_T h,
        # enough that the stacked run takes its period starts from the table
        n_steps, h = dyn._sample_grid(p, 1.5e-6)
        assert n_steps > 3 * dyn.drive_period(p) / h and dyn._tabled(p, 1.5e-6, 2)
        monkeypatch.setattr(dyn.HybridState, "__post_init__", counting)
        result = dyn.propagate(start, p, 1.5e-6, 5 * h)
        final, times, amps = result
        assert len(built) == 1
        # perfbench's tracer counts len(result[1]) as the sampled states
        assert len(result[1]) == len(amps) == (n_steps - 1) // 5 + 2
        assert np.array_equal(times[:-1], np.arange(len(times) - 1) * 5 * h)
        assert amps.shape == (len(times), 2, 32)
        assert not amps.flags.writeable
        assert times[0] == start.time and times[-1] == final.time == 1.5e-6
        assert np.array_equal(amps[0], start.amps) and np.array_equal(amps[-1], final.amps)
        # the end is the unsampled result, bit for bit
        monkeypatch.undo()
        assert np.array_equal(final.amps, dyn.propagate(start, p, 1.5e-6).amps)

    @pytest.mark.parametrize("periods", [0, 0.37, 2])
    def test_stacked_period_run_equals_plain_rk4_on_the_period_grid(self, periods):
        # samples k n_T + r come from one RK4 run over a period on the period
        # starts, which the map gives; one plain run takes every step instead
        p = fig5_params("3SB", dim=48)
        period = dyn.drive_period(p)
        start = random_hybrid(np.random.default_rng(31), p.dim, time=periods * period)
        duration = 4.3 * period
        n_steps, h = dyn._sample_grid(p, duration)
        assert h == dyn._snapshot_steps(p)[1] and dyn._tabled(p, duration, 2)
        final, times, amps = dyn.propagate(start, p, duration, 3 * h)
        last = len(times) - 1
        assert last == (n_steps - 1) // 3 + 1
        plain = dyn._rk4(p, start.amps, start.time, (last - 1) * 3 * h, every=3, h=h)
        assert len(plain) == last
        error = np.max(np.abs(amps[:-1] - plain), axis=(1, 2))
        first = times[:-1] < start.time + period  # the rows that start at t0 itself
        assert np.max(error[first]) <= 1e-12
        # later period starts come from the table: on a boundary they are
        # the plain run's to rounding; off it, a head to the nearest anchor
        # and one run back from there add RK4 error (3.2e-10 at 0.37 T)
        assert np.max(error[~first]) <= (1e-12 if periods == round(periods) else 1e-9)
        assert np.max(np.abs(final.amps - plain_rk4(start, p, duration))) <= 1e-9

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_sampled_histories_are_rows_of_separate_runs(self, level):
        p = fig5_params(level, dim=32)
        start = dyn.ground_hybrid(32)
        duration = 1e-6
        n_steps, h = dyn._sample_grid(p, duration)  # the period grid of every level
        strides = (1, 2, 3, 7, 200)
        # the end lies on some strides and off others
        assert {n_steps % k == 0 for k in strides} == {True, False}
        # an exact run's samples between start and end, in blocks of
        # _EXACT_BLOCK: stride 200 leaves a block of one sample
        assert {(n_steps - 1) // k % dyn._EXACT_BLOCK for k in strides} >= {1}
        intervals = tuple(k * h for k in strides)
        histories = [dyn.propagate(start, p, duration, interval)[1:] for interval in intervals]
        run = histories[0][1]  # stride 1
        for k, interval, (times, amps) in zip(strides, intervals, histories, strict=True):
            _, expected_times, expected_amps = dyn.propagate(start, p, duration, interval)
            assert np.array_equal(times, expected_times)
            assert np.array_equal(amps, expected_amps)
            # every interval runs on its own
            assert np.shares_memory(amps, run) == (k == 1)


class TestResonantExcitation:
    @pytest.fixture(scope="class")
    @staticmethod
    def resonant():
        params = fock.SimParams(
            omega_z=TWO_PI * 2.0e6, delta=0.0, omega_d=TWO_PI * 2.0e6,
            eta=0.3, dim=128, level="3SB",
        )
        return params, dyn.resonant_excitation(params, 8e-6)

    def test_saturates_below_collapse_index(self, resonant):
        params, result = resonant
        g1, g2 = fock.coupling_thresholds(params.eta)
        assert result.mean_n.max() < g2
        probs = np.abs(result.final.amps[0]) ** 2
        probs = probs / probs.sum()
        assert probs[g2 + 15 :].sum() < 1e-3

    def test_number_distribution_squeezes_past_peak(self, resonant):
        params, result = resonant
        g1, _ = fock.coupling_thresholds(params.eta)
        past = result.mean_n > g1
        assert np.nanmin(result.fano[past]) < 1.0

    def test_linear_level_grows_unbounded(self):
        params = fock.SimParams(
            omega_z=TWO_PI * 2.0e6, delta=0.0, omega_d=TWO_PI * 0.2e6,
            eta=0.3, dim=64, level="LDA",
        )
        _, times, amps = dyn.propagate(dyn.ground_hybrid(64), params, 3e-6, sample_interval=1e-6)
        rate = params.eta * params.omega_d / 2.0
        for t, psi in zip(times, amps):
            assert abs(fock.mean_a(psi[0])) == pytest.approx(rate * t, abs=1e-6)

    def test_resonant_rejects_linear_level(self):
        params = fock.experimental_params(level="LDA")
        with pytest.raises(ValueError):
            dyn.resonant_excitation(params, 1e-6)


class TestStepwiseExcitation:
    @pytest.fixture(scope="class")
    @staticmethod
    def fig7_params():
        return fock.SimParams(
            omega_z=TWO_PI * 2.0e6, delta=TWO_PI * 0.1e6, omega_d=TWO_PI * 0.4e6,
            eta=0.3, dim=128, level="RWA",
        )

    def test_zero_pulses_leave_ground_state(self, fig7_params):
        result = dyn.stepwise_excitation(fig7_params, 0)
        assert result.final.amps[0, 0] == pytest.approx(1.0)

    def test_two_pulses_reach_second_site(self, fig7_params):
        p = fig7_params
        result = dyn.stepwise_excitation(p, 2)
        alpha = fock.mean_a(result.final.amps[0])
        target = 4.0 * lda_radius(p)
        assert abs(alpha) == pytest.approx(target, rel=0.2)
        # both displacements along the same line (+imaginary axis here)
        assert abs(math.sin(np.angle(alpha) - math.pi / 2.0)) < 0.2

    def test_rotation_sense_reverses_past_coupling_peak(self, fig7_params):
        p = fig7_params
        result = dyn.stepwise_excitation(p, 8)
        g1, _ = fock.coupling_thresholds(p.eta)
        assert fock.mean_n(result.final.amps[0]) > g1

        def turn(segment):
            alphas = np.array([fock.mean_a(psi[0]) for psi in segment[1]])
            steps = np.diff(alphas)
            return float(np.sum(np.imag(np.conj(steps[:-1]) * steps[1:])))

        assert turn(result.segments[0]) > 0.0
        assert turn(result.segments[-1]) < 0.0

    # -- 3SB: pulse + wait spanning whole drive periods run as one batch

    @staticmethod
    def three_sb(params, omega_z_over_delta):
        return params.replace(level="3SB", dim=64, omega_z=omega_z_over_delta * params.delta)

    # pulse + wait = 2 pi/delta = 19 T, where P^19 = I
    @pytest.mark.parametrize("wait_periods", [9.5])
    def test_batched_pulses_equal_the_sequential_loop(self, fig7_params, wait_periods):
        p = self.three_sb(fig7_params, 20.0)  # pulse = wait = pi/delta = 9.5 T
        assert 2.0 * p.t_half_turn / dyn.drive_period(p) == pytest.approx(9.5 + wait_periods, abs=1e-9)
        result = dyn.stepwise_excitation(p, 3)
        oracle = sequential_stepwise(p, 3)
        assert len(result.segments) == len(oracle.segments) == 3
        for (times, amps), (expected_times, expected_amps) in zip(result.segments, oracle.segments):
            assert np.array_equal(times, expected_times)
            assert amps.shape == expected_amps.shape
            assert np.max(np.abs(amps - expected_amps)) <= 1e-8
        # the sequential loop starts each pulse where the last one ended
        for (_, before), (_, after) in zip(result.segments, result.segments[1:]):
            assert np.max(np.abs(after[0] - before[-1])) <= 1e-8
        assert result.final.time == oracle.final.time
        assert np.max(np.abs(result.final.amps - oracle.final.amps)) <= 1e-8

    def test_pulses_off_the_period_grid_keep_the_sequential_loop(self, fig7_params):
        p = self.three_sb(fig7_params, 20.5)  # pulse + wait = 19.5 T
        assert 2 * p.t_half_turn / dyn.drive_period(p) == pytest.approx(19.5, abs=1e-9)
        # so do RWA pulses, whose exact runs stack nothing, and a lone pulse
        for params, n_pulses in ((p, 3), (fig7_params, 3), (p, 1)):
            result = dyn.stepwise_excitation(params, n_pulses)
            oracle = sequential_stepwise(params, n_pulses)
            assert len(result.segments) == len(oracle.segments) == n_pulses
            for (times, amps), (expected_times, expected_amps) in zip(result.segments, oracle.segments):
                assert np.array_equal(times, expected_times)
                assert np.array_equal(amps, expected_amps)
            assert result.final.time == oracle.final.time
            assert np.array_equal(result.final.amps, oracle.final.amps)

    def test_batched_pulses_integrate_one_period_of_rk4(self, fig7_params, monkeypatch):
        p = self.three_sb(fig7_params, 20.0)
        calls = []
        apply_drive = dyn.apply_drive

        def counting(*args):
            calls.append(None)
            return apply_drive(*args)

        monkeypatch.setattr(dyn, "apply_drive", counting)
        dyn._MAPS.clear()
        dyn.stepwise_excitation(p, 3)
        steps, _ = dyn._snapshot_steps(p)
        map_build = 4 * steps[len(steps) // 2]  # one RK4 run over half a period
        # pulses start on boundaries and end on the half-period snapshot
        period = 4 * dyn.SNAPSHOTS_PER_PERIOD * steps[0]
        assert len(calls) <= period + map_build


class TestHybridState:
    @pytest.mark.parametrize("amps", [
        np.ones(16) / 4.0,  # one branch, not (2, dim)
        np.ones((3, 16)) / math.sqrt(48.0),  # three coin rows
        np.zeros((2, 0)),  # empty basis
        [np.ones(4) / 2.0, np.zeros(5)],  # branch dimensions differ
        np.array([[1.0, np.nan], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [np.inf, 0.0]]),
        np.array([[math.sqrt(1.0 + 3e-6), 0.0], [0.0, 0.0]]),  # a branch norm above 1
        np.array([[0.5, 0.5], [0.0, 0.0]]),  # total norm deviates from 1
    ])
    def test_rejects_bad_input(self, amps):
        with pytest.raises(ValueError):
            dyn.HybridState(amps)

    def test_amps_is_a_read_only_copy(self):
        amps = np.zeros((2, 16), dtype=complex)
        amps[1, 0] = 1.0
        state = dyn.HybridState(amps, 0.5)
        amps[1, 0] = 0.0
        assert state.amps[1, 0] == 1.0
        with pytest.raises(ValueError):
            state.amps[0, 0] = 1.0

    def test_with_time_shares_amps(self):
        state = dyn.ground_hybrid(32, "TH")
        later = state.with_time(1e-6)
        assert later.time == 1e-6 and later.amps is state.amps
        assert state.time == 0.0

    def test_product_states(self):
        for coin, rows in (("T", [1.0, 0.0]), ("H", [0.0, 1.0]), ("TH", [1.0 / math.sqrt(2.0)] * 2)):
            assert np.array_equal(dyn.ground_hybrid(16, coin).amps[:, 0], rows)
        with pytest.raises(ValueError, match="coin"):
            dyn.ground_hybrid(16, "X")


def test_wait_advances_drive_clock_exactly():
    p = fock.experimental_params(level="LDA", dim=64)
    start = dyn.ground_hybrid(64)
    reference = fock.mean_a(dyn.propagate(start, p, 1e-6).amps[0])
    for tau in (0.8e-6, 2.3e-6):
        delayed = fock.mean_a(dyn.propagate(start.with_time(tau), p, 1e-6).amps[0])
        assert delayed == pytest.approx(reference * np.exp(1j * p.delta * tau), abs=1e-12)


@pytest.mark.parametrize("duration", [-1e-6, math.inf, math.nan])
@pytest.mark.parametrize("sampled", [False, True])
def test_propagate_rejects_negative_or_non_finite_durations(duration, sampled):
    # unchecked, an infinite duration reaches math.ceil in the RK4 grid (OverflowError)
    p = fock.experimental_params(level="3SB", dim=32)
    interval = 1e-7 if sampled else None
    with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
        dyn.propagate(dyn.ground_hybrid(p.dim), p, duration, interval)


# ---------------------------------------------------------------------------
# Reference integrator: one band at a time, each with a scalar time factor
# and a shifted-slice update. The stacked stencil must reproduce it.


@dataclass(frozen=True)
class ReferenceBand:
    offset: int
    elements: np.ndarray
    amps: tuple
    rates: tuple

    def factor(self, t):
        total = 0.0 + 0.0j
        for a, r in zip(self.amps, self.rates):
            total += a * cmath.exp(1j * r * t)
        return total


def reference_band_elements(eta, s, dim, linearized):
    """<j+s| exp(i eta (a+a^dag)) |j> over valid j, one Laguerre formula per
    offset (linearized: i eta sqrt(n) on the s = +-1 bands)."""
    if linearized:
        if s == 1:
            j = np.arange(dim - 1)
            return 1j * eta * np.sqrt(j + 1.0)
        if s == -1:
            j = np.arange(1, dim)
            return 1j * eta * np.sqrt(j.astype(float))
        raise ValueError("linearized bands exist only for offset +-1")
    x = eta * eta
    if s >= 0:
        j = np.arange(dim - s)
        col, row = j, j + s
    else:
        j = np.arange(-s, dim)
        col, row = j, j + s
    low = np.minimum(row, col)
    high = np.maximum(row, col)
    log_fac = 0.5 * (gammaln(low + 1) - gammaln(high + 1))
    lag = eval_genlaguerre(low, abs(s), x)
    return (1j * eta) ** abs(s) * np.exp(log_fac - x / 2.0) * lag


def reference_bands(params, phi0=0.0):
    """Bands of the drive of phase phi0; the library drives at phi0 = 0."""
    eta, dim = params.eta, params.dim
    wz, delta = params.omega_z, params.delta
    eip = cmath.exp(1j * phi0)
    if params.level in ("LDA", "RWA"):
        linear = params.level == "LDA"
        return (
            ReferenceBand(1, reference_band_elements(eta, 1, dim, linear), (eip,), (delta,)),
            ReferenceBand(-1, reference_band_elements(eta, -1, dim, linear),
                          (-eip.conjugate(),), (-delta,)),
        )
    return tuple(
        ReferenceBand(
            s, reference_band_elements(eta, s, dim, False),
            (eip, (-1) ** abs(s) * eip.conjugate()),
            ((s - 1) * wz + delta, (s + 1) * wz - delta),
        )
        for s in range(-3, 4)
    )


def reference_apply(bands, t, psi):
    """W(t) @ psi for psi of shape (dim, 2)."""
    out = np.zeros_like(psi)
    dim = psi.shape[0]
    for band in bands:
        f = band.factor(t)
        s = band.offset
        if s >= 0:
            out[s:] += (f * band.elements)[:, None] * psi[: dim - s]
        else:
            out[:s] += (f * band.elements)[:, None] * psi[-s:]
    return out


def reference_norm_weight(params):
    return sum(
        float(np.max(np.abs(b.elements))) * sum(abs(a) for a in b.amps)
        for b in reference_bands(params)
    )


def reference_norm_bound(params):
    return 0.5 * params.omega_d * reference_norm_weight(params)


def reference_propagate(state, params, duration, sample_interval=None):
    """RK4 states of ``propagate``: the end from a run on the fewest equal
    steps no longer than ``rk4_step_size``; with ``sample_interval``, the
    start and samples before the end from a run on the period grid h =
    T/n_T, T = 2 pi/|omega_z - delta|, with n_T that step count for T rounded
    up to a multiple of the 8 snapshots."""
    bands = reference_bands(params)
    scale = np.array([1.0, params.force_ratio]) * (params.omega_d / 2.0)

    def deriv(t, y):
        return -1j * scale[None, :] * reference_apply(bands, t, y)

    def run(n_steps, h, stride):
        samples = [state]
        psi = state.amps.T
        t = state.time
        for step in range(n_steps):
            k1 = deriv(t, psi)
            k2 = deriv(t + h / 2.0, psi + (h / 2.0) * k1)
            k3 = deriv(t + h / 2.0, psi + (h / 2.0) * k2)
            k4 = deriv(t + h, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = state.time + (step + 1) * h
            if (step + 1) % stride == 0:
                samples.append(dyn.HybridState(psi.T, t))
        return samples

    h_max = dyn.rk4_step_size(params)
    n_steps = max(1, math.ceil(duration / h_max))
    end = run(n_steps, duration / n_steps, n_steps)[-1].amps
    samples = [state]
    if sample_interval is not None:
        period = 2.0 * math.pi / abs(params.omega_z - params.delta)
        h = period / (-(-math.ceil(period / h_max) // 8) * 8)
        stride = max(1, round(sample_interval / h))
        n_grid = math.ceil(duration / h - 1e-9)
        samples = run((n_grid - 1) // stride * stride, h, stride)
    return [*samples, dyn.HybridState(end, state.time + duration)]


def random_hybrid(rng, dim, time=0.0):
    psi = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psi[:, dim // 2 :] = 0.0  # clear of the guard band
    return dyn.HybridState(psi / np.linalg.norm(psi), time)


class TestDriveStencil:
    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_apply_drive_matches_dense_hamiltonian(self, level):
        p = fock.experimental_params(level=level, dim=40)
        stencil = dyn.drive_stencil(p)
        rng = np.random.default_rng(7)
        stage, windows = stencil.window_buffer()
        out = np.empty_like(stage)
        for t in (0.0, 3.3e-7, 1.1e-6, 4.9e-6, 37.3e-6):
            psi = rng.normal(size=(2, p.dim)) + 1j * rng.normal(size=(2, p.dim))
            stage[:] = psi.T  # level-major: columns T, H
            dyn.apply_drive(stencil, stencil.factors(t), windows, out)
            dense = (hamiltonian(p, t) @ psi.ravel()).reshape(2, p.dim)
            expected = dense / (np.array([[1.0], [p.force_ratio]]) * (p.omega_d / 2.0))
            assert np.linalg.norm(out.T - expected) <= 1e-12 * np.linalg.norm(expected)
            reference = reference_apply(reference_bands(p), t, psi.T).T
            assert np.linalg.norm(out.T - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    @pytest.mark.parametrize("rows", [16, "2dim"])  # the stepwise batch, the period-map basis
    def test_apply_drive_matches_dense_hamiltonian_on_many_rows(self, level, rows):
        p = fock.experimental_params(level=level, dim=40)
        rows = 2 * p.dim if rows == "2dim" else rows
        stencil = dyn.drive_stencil(p)
        rng = np.random.default_rng(11)
        stage, windows = stencil.window_buffer(rows)
        out = np.empty_like(stage)
        for t in (0.0, 1.1e-6, 37.3e-6):
            psi = rng.normal(size=(p.dim, rows)) + 1j * rng.normal(size=(p.dim, rows))
            stage[:] = psi
            dyn.apply_drive(stencil, stencil.factors(t), windows, out)
            # the T block of the dense Hamiltonian, over the drive scale
            expected = hamiltonian(p, t)[: p.dim, : p.dim] @ psi / (p.omega_d / 2.0)
            assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
            reference = reference_apply(reference_bands(p), t, psi)
            assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_batched_rk4_equals_each_state_alone(self, level):
        p = fock.experimental_params(level=level, dim=40)
        rng = np.random.default_rng(5)
        states = [random_hybrid(rng, p.dim).amps for _ in range(3)]
        # stacked as the batch runs them: the T branches, then the H branches
        batch = np.stack(states, axis=1).reshape(6, p.dim)
        duration = 0.3 * p.t_half_turn
        # the exact runner evaluates only the single-rate drives
        for runner in (dyn._rk4, dyn._exact) if level != "3SB" else (dyn._rk4,):
            run = runner(p, batch, 1.3e-6, duration, every=7)
            assert len(run) > 2  # start, samples and end
            for k, amps in enumerate(states):
                alone = runner(p, amps, 1.3e-6, duration, every=7)
                assert alone.shape == (len(run), 2, p.dim)
                assert np.max(np.abs(run[:, k::3] - alone)) <= 1e-13

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_step_size_norm_bound_unchanged(self, level):
        # bit-identical, so every pulse keeps its RK4 step count
        p = fock.experimental_params(level=level, dim=96)
        assert 0.5 * p.omega_d * dyn.drive_stencil(p).norm_weight == reference_norm_bound(p)

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    @pytest.mark.parametrize("dim", [16, 17, 96, 256])
    @pytest.mark.parametrize("eta", [0.05, 0.31, 1.7])
    def test_stencil_elements_equal_reference_formula(self, level, dim, eta):
        # value-equal, and norm_weight bit-equal: RK4 step counts depend on it
        p = fock.experimental_params(level=level, dim=dim, eta=eta)
        stencil = dyn.drive_stencil(p)
        bands = {b.offset: b.elements for b in reference_bands(p)}
        for s, row in zip(stencil_offsets(stencil), stencil.elements.T):
            lo, hi = max(0, s), dim + min(0, s)
            expected = bands.get(s, np.zeros(hi - lo))
            assert np.array_equal(row[lo:hi], expected)
            assert not np.any(row[:lo]) and not np.any(row[hi:])
        assert stencil.norm_weight == reference_norm_weight(p)

    @pytest.mark.parametrize("level, evaluated", [("LDA", []), ("RWA", [1]), ("3SB", [0, 1, 2, 3])])
    def test_each_band_magnitude_is_evaluated_once(self, level, evaluated, monkeypatch):
        # the -s band of the symmetric D(i eta) equals the +s band element for element
        offsets = []
        evaluate = fock.ladder_elements

        def counting(alpha, offset, n):
            offsets.append(offset)
            return evaluate(alpha, offset, n)

        monkeypatch.setattr(dyn, "ladder_elements", counting)
        dyn._stencil.cache_clear()
        dyn.drive_stencil(fock.experimental_params(level=level, dim=40))
        assert sorted(offsets) == evaluated

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_propagate_matches_reference_rk4(self, level, sampled, monkeypatch):
        # propagate evaluates the single-rate drives exactly
        # (TestExactSingleRate); here it runs them through the RK4 kernel
        monkeypatch.setattr(dyn, "_exact", dyn._rk4)
        p = fig5_params(level, dim=48)
        start = random_hybrid(np.random.default_rng(3), p.dim, time=0.37e-6)
        # 3SB: from inside a period (T = 0.49 us) to 4.3 periods on, through
        # the period map, sampled or not; the LDA branch of a random state
        # reaches the guard band of dim 48 over that span
        period = 2.0 * math.pi / abs(p.omega_z - p.delta)
        duration = 4.3 * period if level == "3SB" else 0.6e-6
        interval = duration / 7 if sampled else None
        expected = reference_propagate(start, p, duration, interval)
        if sampled:
            final, times, amps = dyn.propagate(start, p, duration, interval)
            assert final.time == times[-1] and np.array_equal(final.amps, amps[-1])
        else:
            final = dyn.propagate(start, p, duration)
            times, amps, expected = [final.time], [final.amps], expected[-1:]
        assert len(times) == len(amps) == len(expected)
        for t, psi, want in zip(times, amps, expected):
            assert t == want.time
            # the samples of the first 3SB period are rows of one run from the
            # start; later states come through the table (measured 6.2e-10)
            tol = 1e-12 if level != "3SB" or t - start.time < period else 1e-9
            assert np.max(np.abs(psi - want.amps)) <= tol

    def test_three_step_walk_coin_probabilities_pinned(self):
        p = fock.experimental_params(level="3SB", dim=96)
        program = pulses.walk_program(3, p.t_half_turn, p, wait_multiplier=4.0)
        p_t, p_h = pulses.run_program(program).coin_probabilities()
        assert abs(p_t - 0.7399464039676478) <= 1e-12
        assert abs(p_h - 0.26005359603235234) <= 1e-12


# ---------------------------------------------------------------------------
# Single-rate drives: exact propagation in the frame exp(i delta n t)


class TestExactSingleRate:
    @pytest.mark.parametrize("level", ["LDA", "RWA"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frame_makes_the_drive_time_independent(self, level, sign):
        # psi = exp(i delta n t) phi turns i psi' = H(t) psi into i phi' = K phi,
        # K = exp(-i delta n t) H(t) exp(i delta n t) + delta n, the same K at every t;
        # the generator holds Q^dag K Q, Q = diag(i^n), per coin row
        p = fock.experimental_params(level=level, dim=40)
        p = p.replace(delta=sign * p.delta)
        generator = dyn._generator(p)
        assert generator.dtype == float
        q = np.tile(1j ** np.arange(p.dim), 2)
        expected = np.zeros((2 * p.dim, 2 * p.dim), dtype=complex)
        expected[: p.dim, : p.dim], expected[p.dim :, p.dim :] = generator
        expected = q[:, None] * expected * q.conj()[None, :]  # K, Hermitian and tridiagonal
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(expected - expected.conj().T) <= 1e-15 * scale
        levels = np.tile(np.arange(p.dim), 2)
        for t in (0.0, 3.3e-7, 1.1e-6, 4.9e-6, 37.3e-6):
            frame = np.exp(1j * p.delta * levels * t)
            framed = frame.conj()[:, None] * hamiltonian(p, t) * frame[None, :] + np.diag(p.delta * levels)
            assert np.linalg.norm(framed - expected) <= 1e-12 * scale
        assert np.array_equal(generator, generator.transpose(0, 2, 1))
        assert not np.any(np.triu(generator, 2)) and not np.any(np.tril(generator, -2))
        # the cached eigenpairs are those of the generator, row by row
        values, vectors = dyn._eigen(p)
        rebuilt = (vectors * values[:, None, :]) @ vectors.transpose(0, 2, 1)
        assert np.linalg.norm(rebuilt - generator) <= 1e-12 * scale

    def test_exact_run_matches_closed_form(self):
        # criterion 04's setting and durations, from two start times
        p = fock.experimental_params(level="LDA", dim=128)
        for t0 in (0.0, 0.37e-6):
            initial = dyn.ground_hybrid(128, "TH").with_time(t0)
            for fraction in (0.25, 0.5, 0.75, 1.0):
                duration = fraction * 2.0 * p.t_half_turn
                final = dyn.propagate(initial, p, duration)
                analytic = dyn.lda_propagate(initial, p, duration)
                assert final.time == analytic.time
                assert np.max(np.abs(final.amps - analytic.amps)) <= 1e-12

    @pytest.mark.parametrize("level", ["LDA", "RWA"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fine_rk4_matches_the_exact_run(self, level, sign, monkeypatch):
        # RK4 at 4x the production steps per period against the exact run,
        # sample by sample on one grid, from a start time off 0
        p = fig5_params(level, dim=64)
        p = p.replace(delta=sign * p.delta)
        # random amplitudes on levels 0-15 of dim 64
        psi = np.pad(random_hybrid(np.random.default_rng(13), 32).amps, ((0, 0), (0, 32)))
        monkeypatch.setattr(dyn, "STEPS_PER_PERIOD", 200)
        exact = dyn._exact(p, psi, 0.37e-6, 3.1e-6, every=25)
        fine = dyn._rk4(p, psi, 0.37e-6, 3.1e-6, every=25)
        assert len(exact) == len(fine) > 2
        assert np.max(np.abs(exact - fine)) <= 1e-8


# ---------------------------------------------------------------------------
# Stroboscopic propagation: whole drive periods through the cached period map


def plain_run(state, params, duration, **kwargs):
    """One RK4 run over the whole pulse, no period map, on the coin rows of
    ``state`` that hold amplitude; the other rows stay zero."""
    live = [b for b in range(2) if np.any(state.amps[b])]
    coins = "".join(dyn.COINS[b] for b in live)
    run = dyn._rk4(params, state.amps[live], state.time, duration, coins=coins, **kwargs)
    full = np.zeros((len(run), *state.amps.shape), dtype=complex)
    full[:, live] = run
    return full


def plain_rk4(state, params, duration):
    """The end of ``plain_run``."""
    return plain_run(state, params, duration)[-1]


def plain_rk4_walk(program):
    """Run a program with every RK4 step taken: with no drive period, no
    pulse goes through the period map."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyn, "drive_period", lambda params: None)
        return pulses.run_program(program)


class TestStroboscopic:
    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_hamiltonian_is_periodic_up_to_diagonal_phase(self, level):
        # H(t + T) = P H(t) P^dag, P = I_2 (x) diag exp(i omega_z T n)
        p = fock.experimental_params(level=level, dim=40)
        period = 2.0 * math.pi / abs(p.omega_z - p.delta)
        phase = np.tile(np.exp(1j * p.omega_z * period * np.arange(p.dim)), 2)
        for t in (0.0, 1.7e-7, 2.9e-6, 11.3e-6):
            h_t = hamiltonian(p, t)
            expected = phase[:, None] * h_t * phase.conj()[None, :]
            got = hamiltonian(p, t + period)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(h_t)

    def test_only_two_rate_drives_have_a_period(self):
        assert dyn.drive_period(fock.experimental_params(level="LDA")) is None
        assert dyn.drive_period(fock.experimental_params(level="RWA")) is None
        p = fock.experimental_params(level="3SB")
        assert dyn.drive_period(p) == 2.0 * math.pi / (p.omega_z - p.delta)

    def test_period_map_cache(self, monkeypatch):
        dyn._MAPS.clear()
        p = fock.experimental_params(level="3SB", dim=32)
        base, snapshots = dyn.period_map(p)
        assert base.shape == (2, 32, 32)
        assert snapshots.shape == (dyn.SNAPSHOTS_PER_PERIOD - 1, 2, 32, 32)
        assert list(dyn._MAPS) == [p] and dyn._MAPS[p][0] == "TH"

        def unused(*args, **kwargs):
            raise AssertionError("resident coin tables rebuilt")

        # a resident coin is served from its table, both coins or one
        with monkeypatch.context() as patch:
            patch.setattr(dyn, "_rk4", unused)
            entry = dyn.period_map(p)
            assert np.shares_memory(entry[0], base) and np.shares_memory(entry[1], snapshots)
            assert np.array_equal(entry[0], base) and np.array_equal(entry[1], snapshots)
            for row, coin in enumerate(dyn.COINS):
                maps, coin_snapshots = dyn.period_map(p, coin)
                assert np.shares_memory(maps, base) and np.array_equal(maps, base[row : row + 1])
                assert np.array_equal(coin_snapshots, snapshots[:, row : row + 1])
        for table in (base, snapshots, *dyn.period_map(p, "H")):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0.0
        for changed in (p.replace(omega_d=1.5 * p.omega_d), p.replace(force_ratio=-0.5)):
            other, other_snapshots = dyn.period_map(changed)
            assert not other.flags.writeable and not other_snapshots.flags.writeable
            assert np.max(np.abs(other[1] - base[1])) > 1e-3
            assert np.max(np.abs(other_snapshots[:, 1] - snapshots[:, 1])) > 1e-3
        # one parameter set stays resident; an evicted one is rebuilt element for element
        assert list(dyn._MAPS) == [changed]
        rebuilt, rebuilt_snapshots = dyn.period_map(p)
        assert list(dyn._MAPS) == [p]
        assert not np.shares_memory(rebuilt, base)
        assert np.array_equal(rebuilt, base) and np.array_equal(rebuilt_snapshots, snapshots)

    @pytest.mark.parametrize("first", ["T", "H"])
    def test_a_second_coin_grows_the_resident_table(self, first):
        # the coin built first is copied into the two-coin table, the other
        # is built alone on its dim basis columns and goes in its own row
        p = fig5_params("3SB", dim=32)
        alone = {}
        for coin in dyn.COINS:
            dyn._MAPS.clear()
            alone[coin] = dyn.period_map(p, coin)
        dyn._MAPS.clear()
        dyn.period_map(p, first)
        maps, snapshots = dyn.period_map(p)
        assert list(dyn._MAPS) == [p] and dyn._MAPS[p][0] == "TH"
        assert maps.shape == (2, 32, 32) and snapshots.shape[1:] == (2, 32, 32)
        for row, coin in enumerate(dyn.COINS):
            assert np.array_equal(maps[row : row + 1], alone[coin][0])
            assert np.array_equal(snapshots[:, row : row + 1], alone[coin][1])

    def test_a_new_period_map_is_built_with_none_resident(self, monkeypatch):
        p = fock.experimental_params(level="3SB", dim=32)
        dyn.period_map(p)
        resident = []
        snapshot_steps = dyn._snapshot_steps

        def recording(params):  # the first call of a map build
            resident.append(len(dyn._MAPS))
            return snapshot_steps(params)

        monkeypatch.setattr(dyn, "_snapshot_steps", recording)
        dyn.period_map(p.replace(omega_d=1.5 * p.omega_d))
        assert resident and resident[0] == 0

    def test_td_scan_builds_one_period_map(self, tmp_path, monkeypatch):
        # the walks hold both coins: one two-coin build, two-row ends
        dyn._MAPS.clear()
        builds, two_row_steps = [], []
        rk4 = dyn._rk4

        def recording(params, psi, t0, duration, *args, **kwargs):
            if len(psi) == 2 * params.dim:  # the map build's RK4 on all basis columns
                assert kwargs["coins"] == "TH"
                builds.append(params)
            elif duration != 0.0:  # a pulse end's RK4 on the two coin rows
                assert len(psi) == 2 and not args and kwargs == {"coins": "TH"}
                two_row_steps.append(dyn._rk4_grid(params, duration)[0])
            return rk4(params, psi, t0, duration, *args, **kwargs)

        monkeypatch.setattr(dyn, "_rk4", recording)
        # the perfbench td-scan workload: 19 three-step walks at dim 96
        cli.run_scenario("scan-td", {"mode": "near", "points": 5, "dim": 96, "level": "3SB",
                                     "n_steps": 3, "wait_multiplier": 4.0}, out_dir=str(tmp_path))
        assert [coins for coins, *_ in dyn._MAPS.values()] == ["TH"]
        assert len(builds) == 1
        # each end integrates to its nearest anchor: 1,068 steps (2,223 when
        # every end ran forward to the next one)
        assert sum(two_row_steps) <= 1100

    @staticmethod
    def record_rk4(monkeypatch):
        """(rows, steps, coins) of every RK4 run that takes a step, from here on."""
        dyn._MAPS.clear()
        runs = []
        rk4 = dyn._rk4

        def recording(params, psi, t0, duration, every=None, h=None, record=None, coins=dyn.COINS):
            if duration != 0.0:
                n_steps = dyn._rk4_grid(params, duration)[0] if h is None else round(duration / h)
                runs.append((len(psi), n_steps, coins))
            return rk4(params, psi, t0, duration, every, h, record, coins)

        monkeypatch.setattr(dyn, "_rk4", recording)
        return runs

    def test_trajectory_3sb_integrates_one_period(self, tmp_path, monkeypatch):
        # the default trajectory's 3SB histories from |T>|0>, one per sample
        # interval: each takes one RK4 run of under one period on the T
        # branches of its 25 period starts and the end's tail, after one map
        # build on the T coin's dim basis columns; the start lies on a
        # boundary, so no head runs
        runs = self.record_rk4(monkeypatch)
        cli.run_scenario("trajectory", {"levels": ["3SB"]}, out_dir=str(tmp_path))
        options = cli.SCENARIOS["trajectory"][1]
        p = cli._params_from_options(options)
        steps, _ = dyn._snapshot_steps(p)
        n_period = dyn.SNAPSHOTS_PER_PERIOD * steps[0]
        build, *histories = runs
        assert build == (p.dim, steps[len(steps) // 2], "T")
        whole = math.floor(options["duration"] / dyn.drive_period(p))
        assert whole + 1 == 25
        assert len(histories) == 4  # the CSV's and the return time's
        for stacked, tail in zip(histories[::2], histories[1::2]):
            assert stacked[0] == whole + 1 and stacked[1] < n_period and stacked[2] == "T"
            assert tail[0] == 1 and tail[1] <= n_period / 16 + 1 and tail[2] == "T"
        assert [coins for coins, *_ in dyn._MAPS.values()] == ["T"]

    def test_stepwise_3sb_builds_the_t_coin_only(self, tmp_path, monkeypatch):
        # the default stepwise scenario from |T>|0>: pulse + wait spans 19
        # periods, so its 8 pulses of 9.5 periods stack their 10 period
        # starts each: one map build on the T coin's dim basis columns, then
        # one RK4 run of under one period on 80 T branches.  Every pulse
        # starts on a boundary and ends on the half-period snapshot, so no
        # head or tail runs
        runs = self.record_rk4(monkeypatch)
        cli.run_scenario("stepwise", {}, out_dir=str(tmp_path))
        options = cli.SCENARIOS["stepwise"][1]
        p = cli._params_from_options(options)
        assert p.level == "3SB" and options["n_pulses"] == 8
        steps, _ = dyn._snapshot_steps(p)
        n_period = dyn.SNAPSHOTS_PER_PERIOD * steps[0]
        build, stacked = runs
        assert build == (p.dim, steps[len(steps) // 2], "T")
        assert stacked[0] == 80 and stacked[1] < n_period and stacked[2] == "T"
        assert [coins for coins, *_ in dyn._MAPS.values()] == ["T"]

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_paths_that_keep_plain_rk4(self, level, monkeypatch):
        # 3SB pulses holding no whole period take every RK4 step, and the
        # single-rate drives no RK4 step: the end is bit-equal to the
        # sampled run's, and no map is built
        def unused(*args, **kwargs):
            raise AssertionError("period map or RK4 used")

        monkeypatch.setattr(dyn, "period_map", unused)
        if level != "3SB":
            monkeypatch.setattr(dyn, "_rk4", unused)
        p = fock.experimental_params(level=level, dim=48)
        start = random_hybrid(np.random.default_rng(5), p.dim, time=0.37e-6)
        duration = 0.6e-6 if level == "3SB" else 3.1e-6  # 3SB: T = 0.49 us
        final = dyn.propagate(start, p, duration)
        sampled, *_ = dyn.propagate(start, p, duration, duration / 5)
        assert np.array_equal(final.amps, sampled.amps)
        assert final.time == sampled.time

    def test_short_pulse_at_large_dim_builds_no_map(self, monkeypatch):
        # 2.2 periods of two-row RK4 at dim 512 cost a fraction of the map
        # build on 1,024 rows: sampled or not, such a pulse runs plain RK4,
        # here on the T row alone, the one that holds amplitude
        def unused(*args, **kwargs):
            raise AssertionError("period map used")

        monkeypatch.setattr(dyn, "period_map", unused)
        p = fig5_params("3SB", dim=512)
        period = dyn.drive_period(p)
        start = dyn.ground_hybrid(p.dim).with_time(0.37 * period)
        duration = 2.2 * period
        assert dyn._tabled(p, 40 * period, 2) and not dyn._tabled(p, duration, 2)
        _, h = dyn._sample_grid(p, duration)
        final, times, amps = dyn.propagate(start, p, duration, 5 * h)
        assert np.array_equal(final.amps, dyn.propagate(start, p, duration).amps)
        assert np.array_equal(final.amps, plain_rk4(start, p, duration))
        plain = plain_run(start, p, (len(times) - 2) * 5 * h, every=5, h=h)
        assert np.array_equal(amps[:-1], plain)

    def test_long_pulse_matches_plain_rk4(self):
        p = fig5_params("3SB", dim=48)
        start = random_hybrid(np.random.default_rng(11), p.dim, time=1.234e-6)
        duration = 2.9e-6  # from inside one period to inside a later one
        period = dyn.drive_period(p)
        assert math.ceil(start.time / period) > start.time / period
        assert math.floor((start.time + duration) / period) - math.ceil(start.time / period) >= 4
        final = dyn.propagate(start, p, duration)
        assert final.time == start.time + duration
        assert np.max(np.abs(final.amps - plain_rk4(start, p, duration))) <= 1e-9

    @pytest.mark.parametrize("case", [
        *(pytest.param(j, id=f"inside-{j}") for j in range(8)),
        "on-snapshot", "start-on-boundary", "end-on-boundary", "start-before-zero",
        "head-to-previous-boundary", "tail-to-next-boundary", "tail-to-next-snapshot",
    ])
    def test_snapshot_paths_match_plain_rk4(self, case):
        p = fig5_params("3SB", dim=48)
        period = dyn.drive_period(p)
        steps, h = dyn._snapshot_steps(p)
        if isinstance(case, int):
            # in sub-interval j, nearest its start: the head runs back to t_j,
            # and the tail, 4.6 periods on, back to t_(j+5 mod 8)
            t0 = 2 * period + (case + 0.37) / 8 * period
            t1 = t0 + 4.6 * period
        else:
            t0, t1 = {
                "on-snapshot": (steps[2] * h, None),  # in the first period: tau0 = t_3 exactly
                "start-on-boundary": (2 * period, None),  # tau0 = T
                "end-on-boundary": (2.3 * period, 7 * period),
                "start-before-zero": (-0.3 * period, None),
                # 0.03 T past 2 T: the head runs back to the boundary 2 T
                "head-to-previous-boundary": (2.03 * period, None),
                # 0.03 T before 7 T: the tail runs back from the boundary 7 T
                "tail-to-next-boundary": (2.3 * period, 6.97 * period),
                # 0.015 T before t_3 of its period: the tail runs back from t_3
                "tail-to-next-snapshot": (2.3 * period, 6.36 * period),
            }[case]
            t1 = t0 + 4.6 * period if t1 is None else t1
        state = random_hybrid(np.random.default_rng(17), p.dim, time=t0)
        final = dyn.propagate(state, p, t1 - t0)
        assert final.time == t0 + (t1 - t0)
        assert np.max(np.abs(final.amps - plain_rk4(state, p, t1 - t0))) <= 1e-9

    def test_rk4_spans_at_most_half_a_snapshot_interval_per_end(self, monkeypatch):
        # each end of a pulse holding whole periods integrates only to its
        # nearest snapshot or boundary, ahead or behind: at most T/16 of
        # two-row RK4 per end, signed
        p = fig5_params("3SB", dim=48)
        period = dyn.drive_period(p)
        spans = []
        rk4 = dyn._rk4

        def recording(params, psi, t0, duration, *args, **kwargs):
            if len(psi) == 2:  # not the period map's RK4 on all basis columns
                spans.append(duration)
            return rk4(params, psi, t0, duration, *args, **kwargs)

        monkeypatch.setattr(dyn, "_rk4", recording)
        h = dyn._rk4_grid(p, period)[1]
        rng = np.random.default_rng(23)
        for t0 in 0.2e-6 + period * rng.random(12):
            spans.clear()  # 5.3 periods from t0 hold at least 4 whole ones
            dyn.propagate(random_hybrid(rng, p.dim, time=t0), p, 5.3 * period)
            assert len(spans) == 2  # head and tail
            assert all(abs(span) <= period / 16 + h for span in spans)
        assert min(spans) < 0.0  # some ends run backward

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_ends_on_snapshots_of_later_periods_run_no_rk4(self, k, monkeypatch):
        # k T + t_j misses the snapshot time t_j of period k by a few ulps of
        # k T; those ends must count as on it, as they do in the first period.
        # Five periods: at dim 64 the map pays for itself from four on
        p = fock.experimental_params(level="3SB", dim=64)
        period = dyn.drive_period(p)
        assert dyn._tabled(p, 5 * period, 2) and not dyn._tabled(p, 3.9 * period, 2)
        steps, h = dyn._snapshot_steps(p)
        dyn.period_map(p)
        calls = []
        apply_drive = dyn.apply_drive

        def counting(*args):
            calls.append(None)
            return apply_drive(*args)

        monkeypatch.setattr(dyn, "apply_drive", counting)
        counts = []
        for periods in (0, k):
            state = random_hybrid(np.random.default_rng(29), p.dim, time=periods * period + steps[2] * h)
            calls.clear()
            final = dyn.propagate(state, p, 5 * period)
            counts.append(len(calls))
        assert counts == [0, 0]
        assert np.max(np.abs(final.amps - plain_rk4(state, p, 5 * period))) <= 1e-9

    @pytest.mark.parametrize("ratio", [0.97, 1.00, 1.03])
    def test_three_step_walk_against_converged_reference(self, ratio, monkeypatch):
        p = fock.experimental_params(level="3SB", dim=96)
        program = pulses.walk_program(3, ratio * p.t_half_turn, p, wait_multiplier=4.0)
        p_strobo = pulses.run_program(program).coin_probabilities()[0]
        p_plain = plain_rk4_walk(program).coin_probabilities()[0]
        monkeypatch.setattr(dyn, "STEPS_PER_PERIOD", 100)
        p_ref = plain_rk4_walk(program).coin_probabilities()[0]
        assert abs(p_strobo - p_plain) <= 1e-9
        assert abs(p_strobo - p_ref) <= abs(p_plain - p_ref) + 1e-10

    # -- time reversal: the half-period map build and the solve-free head

    @staticmethod
    def parity(dim):
        return (-1.0) ** np.arange(dim)

    @pytest.mark.parametrize("phi0", [0.0, 0.7, -2.0])
    def test_drive_is_a_time_reversed_shift_of_the_phi0_zero_drive(self, phi0):
        # H(-t) = Pi H(t)* Pi, Pi = (-1)^n; the drive of phase phi0 is the
        # shifted clock of README Conventions: H_phi0(t) = R H(t - t_s) R^dag
        # with t_s = phi0/(omega_z - delta) and R = exp(i omega_z t_s n)
        p = fock.experimental_params(level="3SB", dim=40)
        t_s = phi0 / (p.omega_z - p.delta)
        parity = np.tile(self.parity(p.dim), 2)
        rot = np.tile(np.exp(1j * p.omega_z * t_s * np.arange(p.dim)), 2)
        bands = reference_bands(p, phi0)
        coin = np.diag([1.0, p.force_ratio]) * (p.omega_d / 2.0)
        identity = np.eye(p.dim, dtype=complex)
        for t in (0.0, 1.7e-7, 2.9e-6, 11.3e-6):
            h_t = hamiltonian(p, t)
            reversed_ = parity[:, None] * h_t.conj() * parity[None, :]
            assert np.linalg.norm(hamiltonian(p, -t) - reversed_) <= 1e-12 * np.linalg.norm(h_t)
            h_phi0 = np.kron(coin, reference_apply(bands, t, identity))
            shifted = rot[:, None] * hamiltonian(p, t - t_s) * rot.conj()[None, :]
            assert np.linalg.norm(h_phi0 - shifted) <= 1e-12 * np.linalg.norm(h_t)

    @pytest.mark.parametrize("j", [1, 3, 4])
    def test_rk4_grid_map_is_reflected_by_time_reversal(self, j):
        # the RK4 step shares the symmetry: U_grid(0, -tau) = Pi F_tau^T Pi
        p = fig5_params("3SB", dim=32)
        steps, h = dyn._snapshot_steps(p)
        n, tau = steps[j - 1], steps[j - 1] * h
        basis = np.tile(np.eye(p.dim, dtype=complex), (2, 1))
        forward = dyn._rk4(p, basis, 0.0, tau, h=h)[-1].reshape(2, p.dim, p.dim)
        backward = dyn._rk4(p, basis, -tau, tau, h=h)[-1].reshape(2, p.dim, p.dim)
        parity = self.parity(p.dim)
        # rows hold transposes: backward = (Pi F^T Pi)^T = Pi F Pi
        reflected = parity[:, None] * forward.transpose(0, 2, 1) * parity[None, :]
        assert np.max(np.abs(backward - reflected)) <= 1e-14

    @pytest.mark.parametrize("dim", [32, 48])
    @pytest.mark.parametrize("setting", ["trap", "fig5"])
    def test_period_map_matches_full_period_rk4(self, setting, dim):
        dyn._MAPS.clear()
        p = fock.experimental_params(level="3SB", dim=dim) if setting == "trap" else fig5_params("3SB", dim)
        maps, snapshots = dyn.period_map(p)
        # one RK4 run over the whole period, every snapshot recorded
        steps, h = dyn._snapshot_steps(p)
        n_period = dyn.SNAPSHOTS_PER_PERIOD * steps[0]
        assert steps == [j * n_period // dyn.SNAPSHOTS_PER_PERIOD for j in range(1, dyn.SNAPSHOTS_PER_PERIOD)]
        assert n_period * h == pytest.approx(dyn.drive_period(p), rel=1e-15)
        run = dyn._rk4(p, np.tile(np.eye(dim, dtype=complex), (2, 1)), 0.0,
                       n_period * h, every=steps[0], h=h)
        full = run[1:-1].reshape(snapshots.shape)
        full_maps = run[-1].reshape(2, dim, dim) * dyn._period_phase(p, -1)
        assert np.max(np.abs(maps - full_maps)) <= 1e-14
        for j in range(len(steps)):
            assert np.max(np.abs(snapshots[j] - full[j])) <= 1e-14

    def test_head_inside_a_period_makes_no_solve(self, monkeypatch):
        p = fig5_params("3SB", dim=48)
        period = dyn.drive_period(p)
        dyn.period_map(p)
        solves = []
        solve = np.linalg.solve

        def counting(*args):
            solves.append(None)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for j in range(8):
            t0 = 2 * period + (j + 0.37) / 8 * period
            dyn.propagate(random_hybrid(np.random.default_rng(j), p.dim, time=t0), p, 3.2 * period)
        assert solves == []


# ---------------------------------------------------------------------------
# Coin rows: H = sum_b |b><b| (x) c_b W(t), so the rows evolve apart


class TestCoinRows:
    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("periods", [2, 2.37])  # a start on and off the 3SB period grid
    @pytest.mark.parametrize("coin", ["T", "H"])
    def test_a_zero_coin_row_is_not_integrated_and_stays_zero(self, level, sampled, periods, coin,
                                                             monkeypatch):
        # the run on the one row that holds amplitude against the two-row
        # run, which also builds the period map of both coins at once
        p = fig5_params(level, dim=48)
        period = dyn.drive_period(fig5_params("3SB", dim=48))
        motion = random_hybrid(np.random.default_rng(37), p.dim).amps[0]
        start = dyn.HybridState.product(coin, motion / np.linalg.norm(motion)).with_time(periods * period)
        # 3SB: 4.3 periods at dim 48 go through the table, sampled or not
        duration = 4.3 * period if level == "3SB" else 0.6e-6
        assert level != "3SB" or dyn._tabled(p, duration, 2)

        def run():
            dyn._MAPS.clear()
            if sampled:
                return dyn.propagate(start, p, duration, duration / 7)[1:]
            final = dyn.propagate(start, p, duration)
            return np.array([final.time]), final.amps[None]

        held = []

        def recording(runner):
            def recorded(params, psi, *args, coins=dyn.COINS, **kwargs):
                held.append(coins)
                return runner(params, psi, *args, coins=coins, **kwargs)
            return recorded

        for name in ("_rk4", "_exact"):
            monkeypatch.setattr(dyn, name, recording(getattr(dyn, name)))
        times, amps = run()
        assert held and set(held) == {coin}
        monkeypatch.setattr(dyn, "_live", lambda amps: dyn.COINS)  # every run on both rows
        two_row_times, two_row = run()
        zero = 1 - dyn.COINS.index(coin)
        assert np.array_equal(times, two_row_times) and len(amps) == len(times)
        assert not np.any(amps[:, zero]) and not np.any(two_row[:, zero])
        assert np.max(np.abs(amps - two_row)) <= 1e-15

    @pytest.mark.parametrize("dim", [32, 48, 96, 128])
    def test_each_coin_built_alone_matches_the_joint_build(self, dim):
        p = fig5_params("3SB", dim)
        dyn._MAPS.clear()
        maps, snapshots = dyn.period_map(p)
        for row, coin in enumerate(dyn.COINS):
            dyn._MAPS.clear()
            alone, alone_snapshots = dyn.period_map(p, coin)
            assert alone.shape == (1, dim, dim) and alone_snapshots.shape[1:] == (1, dim, dim)
            assert np.max(np.abs(alone - maps[row : row + 1])) <= 1e-15
            assert np.max(np.abs(alone_snapshots - snapshots[:, row : row + 1])) <= 1e-15
