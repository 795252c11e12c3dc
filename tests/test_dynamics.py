import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ionwalk import dynamics as dyn
from ionwalk import fock, pulses
from ionwalk.errors import TruncationError

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
    a = getattr(reference, f"{branch.lower()}_part").amps
    b = getattr(state, f"{branch.lower()}_part").amps
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return abs(np.vdot(a, b)) ** 2 / (na * nb) ** 2


class TestHamiltonianStructure:
    def test_lda_block_at_time_zero(self):
        p = fock.experimental_params(level="LDA", dim=32)
        h = dyn.hamiltonian(p, 0.0)
        dim = p.dim
        ladder = 1j * p.eta * (fock.raising_op(dim) - fock.lowering_op(dim))
        t_block = h[:dim, :dim]
        assert np.max(np.abs(t_block - (p.omega_d / 2.0) * ladder)) < 1e-9
        h_block = h[dim:, dim:]
        assert np.max(np.abs(h_block - p.force_ratio * t_block)) < 1e-9

    def test_rwa_elements_proportional_to_sideband(self):
        p = fock.experimental_params(level="RWA", dim=32)
        h = dyn.hamiltonian(p, 0.0)
        dim = p.dim
        for n in range(0, 12):
            expected = (p.omega_d / 2.0) * fock.sideband_element(n, p.eta)
            assert h[n + 1, n] == pytest.approx(expected, abs=1e-12)

    def test_band_structure_per_level(self):
        dim = 32
        h_rwa = dyn.hamiltonian(fock.experimental_params(level="RWA", dim=dim), 0.7e-6)
        h_3sb = dyn.hamiltonian(fock.experimental_params(level="3SB", dim=dim), 0.7e-6)
        t = slice(0, dim)
        assert abs(h_rwa[t, t][7, 5]) == 0.0
        assert abs(h_3sb[t, t][7, 5]) > 0.0
        assert abs(h_3sb[t, t][8, 5]) > 0.0
        assert abs(h_3sb[t, t][9, 5]) == 0.0  # offsets beyond the third band absent

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_hermitian_at_sampled_times(self, level):
        p = fock.experimental_params(level=level, dim=24)
        for t in (0.0, 3.3e-7, 1.1e-6, 4.9e-6):
            h = dyn.hamiltonian(p, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestLinearRegime:
    def test_propagate_matches_analytic_solution(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        for fraction in (0.3, 0.65, 1.0):
            duration = fraction * p.t_full_turn
            numeric = dyn.propagate(initial, p, duration)
            analytic = dyn.lda_propagate(initial, p, duration)
            assert branch_fidelity(analytic, numeric, "T") >= 1.0 - 1e-6
            assert branch_fidelity(analytic, numeric, "H") >= 1.0 - 1e-6

    def test_half_turn_radius(self):
        p = fock.experimental_params(level="LDA", dim=64)
        state = dyn.propagate(dyn.ground_hybrid(64), p, p.t_half_turn)
        # half-turn displacement spans the drive-circle diameter
        assert abs(state.t_part.mean_a()) == pytest.approx(
            p.eta * p.omega_d / p.delta, rel=1e-6
        )

    def test_full_turn_returns_with_global_phase(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        final = dyn.propagate(initial, p, p.t_full_turn)
        assert branch_fidelity(initial, final, "T") >= 1.0 - 1e-6
        phase = np.angle(np.vdot(initial.t_part.amps, final.t_part.amps))
        full_turn_phase = dyn.lda_pulse_phase(p, p.t_full_turn)
        assert full_turn_phase == pytest.approx(2.0 * math.pi * p.lda_radius**2, rel=1e-12)
        assert phase == pytest.approx(full_turn_phase, abs=1e-6)

    def test_measured_pulse_phases_and_ratio(self):
        p = fock.experimental_params(level="LDA", dim=64)
        initial = dyn.ground_hybrid(64, "TH")
        final = dyn.propagate(initial, p, p.t_half_turn)
        disp = dyn.lda_pulse_displacement(p, 0.0, p.t_half_turn)
        tgt_t = fock.displacement_matrix(disp, 64)[:, 0] / math.sqrt(2.0)
        tgt_h = fock.displacement_matrix(p.force_ratio * disp, 64)[:, 0] / math.sqrt(2.0)
        phi_t = np.angle(np.vdot(tgt_t, final.t_part.amps))
        phi_h = np.angle(np.vdot(tgt_h, final.h_part.amps))
        assert phi_t == pytest.approx(math.pi * p.lda_radius**2, abs=1e-6)
        assert phi_h / phi_t == pytest.approx(4.0 / 9.0, abs=1e-6)

    def test_derived_phases_defaults(self):
        p = fock.experimental_params(level="LDA")
        derived = dyn.derived_phases(p)
        assert derived.phi_h / derived.phi_t == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert derived.phi_t == pytest.approx(math.pi * p.lda_radius**2, rel=1e-12)
        assert (derived.g1, derived.g2) == (8, 37)


class TestTrajectories:
    def test_ground_state_sits_at_origin(self):
        points = dyn.trajectory([dyn.ground_hybrid(32)])
        assert points[0].re == 0.0 and points[0].im == 0.0

    def test_undriven_coherent_state_is_static(self):
        amps = fock.coherent_state(2.0, 64).amps
        state = dyn.HybridState(fock.MotionalState(amps), fock.MotionalState(np.zeros(64)))
        p = fock.experimental_params(level="LDA", dim=64, omega_d=0.0)
        later = dyn.propagate(state, p, 5e-6)
        assert later.t_part.mean_a() == pytest.approx(2.0, abs=1e-9)

    def test_driven_ground_state_traces_drive_circle(self):
        p = fock.experimental_params(level="LDA", dim=64)
        _, history = dyn.propagate(
            dyn.ground_hybrid(64), p, p.t_full_turn, sample_interval=p.t_full_turn / 40
        )
        a = p.lda_radius
        center = 1j * a * math.copysign(1.0, p.delta)
        for state in history:
            alpha = state.t_part.mean_a()
            assert abs(abs(alpha - center) - a) < 1e-6

    def test_exact_trajectories_stay_near_linear_prediction_at_low_drive(self):
        # the walk's operating drive keeps the arc well inside the coupling
        # peak; the residual offset is the second-order element reduction
        for level in ("RWA", "3SB"):
            p = fock.experimental_params(level=level, dim=64)
            _, history = dyn.propagate(
                dyn.ground_hybrid(64), p, p.t_full_turn, sample_interval=p.t_full_turn / 60
            )
            a = p.lda_radius
            devs = [
                abs(s.t_part.mean_a() - (-1j * a * (np.exp(1j * p.delta * s.time) - 1.0)))
                for s in history
            ]
            quarter = len(devs) // 4
            assert max(devs[:quarter]) < 0.05
            assert max(devs) < 0.15 * (2.0 * a)


class TestRegimeDeparture:
    def test_return_times_exact_vs_linear(self):
        t_rwa, n_rwa, _ = dyn.return_time(fig5_params("RWA"), 12e-6)
        t_lda, _, _ = dyn.return_time(fig5_params("LDA"), 12e-6)
        assert t_rwa < 10e-6
        assert t_lda == pytest.approx(10e-6, rel=0.01)
        assert n_rwa < 0.5

    def test_3sb_trajectory_carries_high_frequency_bands(self):
        spectra = {}
        for level in ("3SB", "RWA"):
            p = fig5_params(level)
            _, history = dyn.propagate(dyn.ground_hybrid(128), p, 4e-6, sample_interval=8e-9)
            tab = dyn.trajectory_table(history)
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
        drift = abs(final.total_norm() - 1.0)
        assert drift < 1e-8 * 6.0

    def test_leakage_raises_truncation_error(self):
        p = fig5_params("RWA", dim=16)
        with pytest.raises(TruncationError):
            dyn.propagate(dyn.ground_hybrid(16), p, 6e-6)


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
        probs = result.final.t_part.fock_probs()
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
        _, history = dyn.propagate(dyn.ground_hybrid(64), params, 3e-6, sample_interval=1e-6)
        rate = params.eta * params.omega_d / 2.0
        for state in history:
            assert abs(state.t_part.mean_a()) == pytest.approx(rate * state.time, abs=1e-6)

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
        result = dyn.stepwise_excitation(fig7_params, 0, 1e-6, 1e-6)
        assert result.final.t_part.amps[0] == pytest.approx(1.0)

    def test_two_pulses_reach_second_site(self, fig7_params):
        p = fig7_params
        result = dyn.stepwise_excitation(p, 2, p.t_half_turn, p.t_half_turn)
        alpha = result.final.t_part.mean_a()
        target = 4.0 * p.lda_radius
        assert abs(alpha) == pytest.approx(target, rel=0.2)
        # both displacements along the same line (+imaginary axis here)
        assert abs(math.sin(np.angle(alpha) - math.pi / 2.0)) < 0.2

    def test_rotation_sense_reverses_past_coupling_peak(self, fig7_params):
        p = fig7_params
        result = dyn.stepwise_excitation(p, 8, p.t_half_turn, p.t_half_turn)
        g1, _ = fock.coupling_thresholds(p.eta)
        assert result.final.t_part.mean_n() > g1

        def turn(segment):
            alphas = np.array([s.t_part.mean_a() for s in segment])
            steps = np.diff(alphas)
            return float(np.sum(np.imag(np.conj(steps[:-1]) * steps[1:])))

        assert turn(result.segments[0]) > 0.0
        assert turn(result.segments[-1]) < 0.0


def test_wait_advances_drive_clock_exactly():
    p = fock.experimental_params(level="LDA", dim=64)
    start = dyn.ground_hybrid(64)
    reference = dyn.propagate(start, p, 1e-6).t_part.mean_a()
    for tau in (0.8e-6, 2.3e-6):
        delayed = dyn.propagate(start.with_time(tau), p, 1e-6).t_part.mean_a()
        assert delayed == pytest.approx(reference * np.exp(1j * p.delta * tau), abs=1e-12)


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


def reference_bands(params):
    eta, dim = params.eta, params.dim
    wz, delta = params.omega_z, params.delta
    eip = cmath.exp(1j * params.phi0)
    if params.level in ("LDA", "RWA"):
        linear = params.level == "LDA"
        return (
            ReferenceBand(1, dyn._band_elements(eta, 1, dim, linear), (eip,), (delta,)),
            ReferenceBand(-1, dyn._band_elements(eta, -1, dim, linear),
                          (-eip.conjugate(),), (-delta,)),
        )
    return tuple(
        ReferenceBand(
            s, dyn._band_elements(eta, s, dim, False),
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


def reference_norm_bound(params):
    return 0.5 * params.omega_d * sum(
        float(np.max(np.abs(b.elements))) * sum(abs(a) for a in b.amps)
        for b in reference_bands(params)
    )


def reference_propagate(state, params, duration, sample_interval=None):
    bands = reference_bands(params)
    h = dyn.rk4_step_size(params, duration)
    n_steps = max(1, math.ceil(duration / h))
    h = duration / n_steps
    stride = None if sample_interval is None else max(1, round(sample_interval / h))
    samples = [state]
    psi = state.packed().T
    scale = np.array([1.0, params.force_ratio]) * (params.omega_d / 2.0)

    def deriv(t, y):
        return -1j * scale[None, :] * reference_apply(bands, t, y)

    t = state.time
    for step in range(n_steps):
        k1 = deriv(t, psi)
        k2 = deriv(t + h / 2.0, psi + (h / 2.0) * k1)
        k3 = deriv(t + h / 2.0, psi + (h / 2.0) * k2)
        k4 = deriv(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = state.time + (step + 1) * h
        if stride is not None and (step + 1) % stride == 0 and step + 1 < n_steps:
            samples.append(dyn.HybridState.from_packed(psi.T, t))
    samples.append(dyn.HybridState.from_packed(psi.T, state.time + duration))
    return samples


def random_hybrid(rng, dim, time=0.0):
    psi = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psi[:, dim // 2 :] = 0.0  # clear of the guard band
    return dyn.HybridState.from_packed(psi / np.linalg.norm(psi), time)


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
            stage[:] = psi  # rows T, H
            dyn.apply_drive(stencil, stencil.factors(t), windows, out)
            dense = (dyn.hamiltonian(p, t) @ psi.ravel()).reshape(2, p.dim)
            expected = dense / (np.array([[1.0], [p.force_ratio]]) * (p.omega_d / 2.0))
            assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
            reference = reference_apply(reference_bands(p), t, psi.T).T
            assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    def test_step_size_norm_bound_unchanged(self, level):
        # bit-identical, so every pulse keeps its RK4 step count
        p = fock.experimental_params(level=level, dim=96)
        assert 0.5 * p.omega_d * dyn.drive_stencil(p).norm_weight == reference_norm_bound(p)

    @pytest.mark.parametrize("level", ["LDA", "RWA", "3SB"])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_propagate_matches_reference_rk4(self, level, sampled):
        p = fig5_params(level, dim=48)
        start = random_hybrid(np.random.default_rng(3), p.dim, time=0.37e-6)
        duration = 0.6e-6
        interval = duration / 7 if sampled else None
        expected = reference_propagate(start, p, duration, interval)
        if sampled:
            final, history = dyn.propagate(start, p, duration, interval)
        else:
            final = dyn.propagate(start, p, duration)
            history, expected = [final], expected[-1:]
        assert len(history) == len(expected)
        for got, want in zip(history, expected):
            assert got.time == want.time
            assert np.max(np.abs(got.packed() - want.packed())) <= 1e-12

    def test_three_step_walk_coin_probabilities_pinned(self):
        p = fock.experimental_params(level="3SB", dim=96)
        program = pulses.walk_program(3, p.t_half_turn, p, wait_multiplier=4.0)
        p_t, p_h = pulses.run_program(program).coin_probabilities()
        assert abs(p_t - 0.7399464039676478) <= 1e-12
        assert abs(p_h - 0.26005359603235234) <= 1e-12
