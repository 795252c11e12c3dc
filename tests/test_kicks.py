import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from ionwalk import fock, kicks
from ionwalk.dynamics import HybridState
from ionwalk.errors import ConfigError, NoThreshold, TruncationError
from oracles import kick_deviation, kick_train

WZ = 2 * math.pi * 2.13e6


def test_ideal_kick_flips_coin_and_displaces():
    kp = kicks.pi_pulse(1e-9, 0.25, WZ, 64)
    u = kicks.kick_ideal(kp, 1)
    initial = HybridState.product("H", fock.coherent_state(0.0, 64))
    out = u @ initial.amps.ravel()
    assert np.linalg.norm(out[64:]) < 1e-12  # H branch emptied
    target = fock.coherent_state(1j * 0.25, 64)
    assert np.vdot(target, out[:64]) == pytest.approx(-1j, abs=1e-12)


def test_ideal_kick_is_unitary():
    kp = kicks.pi_pulse(1e-9, 0.31, WZ, 48)
    u = kicks.kick_ideal(kp)
    gram = u.conj().T @ u
    low = np.r_[0:38, 48:86]
    assert np.max(np.abs(gram[np.ix_(low, low)] - np.eye(76))) < 1e-10


def test_same_direction_pair_cancels_motion():
    kp = kicks.pi_pulse(1e-9, 0.25, WZ, 64)
    u = kicks.kick_ideal(kp, 1)
    pair = u @ u
    assert np.max(np.abs(pair + np.eye(128))) < 1e-10


def test_alternating_pair_is_coin_diagonal_displacement():
    kp = kicks.pi_pulse(1e-9, 0.25, WZ, 64)
    pair = kicks.kick_ideal(kp, 1) @ kicks.kick_ideal(kp, -1)
    d2 = fock.displacement_matrix(2j * 0.25, 64)
    assert np.max(np.abs(pair[:64, :64] + d2)) < 1e-10
    assert np.max(np.abs(pair[64:, 64:] + d2.conj().T)) < 1e-10
    assert np.max(np.abs(pair[:64, 64:])) == 0.0


def test_full_kick_matches_ideal_without_trap():
    kp = kicks.KickParams(t_p=1e-9, eta=0.25, omega_z=0.0, dim=64)
    assert kicks.kick_fidelity(0.5 + 0.3j, kp) >= 1.0 - 1e-8


def test_short_pulse_fidelity_near_unity():
    kp = kicks.pi_pulse(1e-10, 0.31, WZ, 64)
    assert kicks.kick_fidelity(0.0, kp) >= 0.9999


def test_error_bound_values_and_monotonicity():
    assert kicks.error_bound(2.0, WZ, 1e-9) == pytest.approx(1e-9 * WZ * 4.0, rel=1e-12)
    # no pulse is too long at alpha = 0; elsewhere the longest pulse whose
    # first-order error stays below epsilon = 0.1 is epsilon / (omega_z |alpha|^2)
    assert kicks.error_bound(0.0, WZ, 1.0) == 0.0
    t200 = 0.1 / (WZ * 200.0**2)
    assert t200 == pytest.approx(1.87e-13, rel=0.01)
    assert kicks.error_bound(200.0, WZ, t200) == pytest.approx(0.1, rel=1e-12)
    mags = [1.0, 2.0, 5.0, 10.0]
    durations = [0.1 / (WZ * m**2) for m in mags]
    assert all(a > b for a, b in zip(durations, durations[1:]))


def test_threshold_against_reference_curve():
    t_p, f_val, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=96)
    reference = kicks.predict_threshold(kicks.CENTER_KICK_COEFFS, 2.0)
    assert abs(t_p - reference) / reference < 0.20
    assert f_val >= 0.99
    ordered = sorted(samples)
    assert all(b[1] <= a[1] + 1e-4 for a, b in zip(ordered, ordered[1:]))


def test_turning_point_outlasts_center_kick():
    t_imag, _, _ = kicks.fidelity_threshold(1j, 0.99, 0.31, WZ, dim=64)
    t_real, _, _ = kicks.fidelity_threshold(1.0, 0.99, 0.31, WZ, dim=64)
    assert t_real > t_imag


def test_deviation_within_conservative_bound():
    for mag in (1.0, 2.0):
        t_p, _, _ = kicks.fidelity_threshold(1j * mag, 0.99, 0.31, WZ, dim=96)
        kp = kicks.pi_pulse(t_p, 0.31, WZ, 96)
        deviation = kick_deviation(1j * mag, kp)
        bound = kicks.error_bound(1j * mag, WZ, t_p)
        # from below too: a kick that ignores the trap deviates by 0
        assert 0.5 * bound <= deviation <= 3.0 * bound


def test_no_threshold_when_floor_already_fails():
    # an impossible fidelity target trips the floor check
    with pytest.raises(NoThreshold):
        kicks.fidelity_threshold(5j, 1.0 - 1e-15, 0.31, WZ, dim=160)


def test_search_past_the_ceiling_measures_the_ceiling():
    # every quadrupling passes f_min, so the search ends at the ceiling and
    # must return the fidelity sampled there (kick_fidelity at 1e-5 s)
    t_p, f_val, samples = kicks.fidelity_threshold(1j, 0.01, 0.31, WZ, dim=64)
    assert t_p == kicks.THRESHOLD_CEILING and (t_p, f_val) == samples[-1]
    assert f_val == pytest.approx(0.8294867206448532, rel=1e-9)


def test_fit_recovers_exact_quadratic():
    coeffs = (-17.0, -0.5, -0.08)
    mags = [1.0, 2.0, 3.0, 5.0, 8.0, 10.0]
    pairs = [(m, kicks.predict_threshold(coeffs, m)) for m in mags]
    fitted = kicks.fit_threshold_curve(pairs)
    assert np.max(np.abs(np.array(fitted) - coeffs)) < 1e-10


def test_reference_coefficients_at_walk_scale():
    assert kicks.predict_threshold(kicks.CENTER_KICK_COEFFS, 200.0) == pytest.approx(
        0.21e-9, abs=0.01e-9
    )
    assert kicks.predict_threshold(kicks.TURNING_KICK_COEFFS, 200.0) == pytest.approx(
        2.18e-9, abs=0.01e-9
    )


class TestKickTrain:
    def test_eight_alternating_kicks_build_full_step(self):
        kp = kicks.KickParams(t_p=1e-9, eta=0.25, omega_z=0.0, dim=64)
        final, fidelity = kick_train(8, True, kp)
        assert fidelity >= 1.0 - 1e-8
        # even kick count returns the coin; displacement magnitude 8 * eta
        row = 1 if np.linalg.norm(final.amps[1]) > 0.5 else 0
        assert abs(fock.mean_a(final.amps[row])) == pytest.approx(2.0, abs=1e-6)

    def test_same_direction_train_goes_nowhere(self):
        kp = kicks.KickParams(t_p=1e-9, eta=0.25, omega_z=0.0, dim=64)
        final, fidelity = kick_train(8, False, kp)
        assert fidelity >= 1.0 - 1e-8
        assert abs(fock.mean_a(final.amps[1])) < 1e-6

    def test_single_kick_train_equals_kick_full(self):
        kp = kicks.pi_pulse(2e-10, 0.25, WZ, 64)
        final, _ = kick_train(1, False, kp)
        direct = kicks.kick_full(HybridState.product("H", fock.coherent_state(0.0, 64)), kp, 1)
        assert np.max(np.abs(final.amps[0] - direct.amps[0])) < 1e-12

    def test_train_with_trap_on_tracks_ideal_composition(self):
        kp = kicks.pi_pulse(5e-11, 0.25, WZ, 64)
        _, fidelity = kick_train(4, True, kp)
        assert fidelity > 0.999


def test_kick_params_validation():
    with pytest.raises(ValueError):
        kicks.pi_pulse(1e-12, 0.25, WZ, 64)
    with pytest.raises(ValueError):
        kicks.pi_pulse(1e-9, -0.25, WZ, 64)
    with pytest.raises(ValueError, match="direction"):
        kicks.kick_fidelity(0.0, kicks.pi_pulse(1e-9, 0.25, WZ, 64), direction=0)


@pytest.mark.parametrize("field, value", [
    ("t_p", math.nan), ("t_p", math.inf), ("eta", math.nan), ("eta", math.inf),
    ("omega_z", math.nan), ("omega_z", math.inf), ("dim", 32.5),
])
def test_kick_params_reject_non_finite_values(field, value):
    with pytest.raises(ConfigError, match=field):
        kicks.KickParams(**{"t_p": 1e-9, "eta": 0.25, "omega_z": WZ, "dim": 64, field: value})


def reference_kick_rk4(state, kp, direction=1):
    """Fixed-step RK4 of the kick Hamiltonian (the integrator ``kick_full``
    used before it became exact); returns rows (T, H) as in ``HybridState.amps``."""
    dim = kp.dim
    d_up = fock.displacement_matrix(1j * direction * kp.eta, dim)
    d_dn = d_up.conj().T
    n_diag = np.arange(dim)
    half_omega = math.pi / kp.t_p / 2.0
    fast = max(math.pi / kp.t_p, kp.omega_z * dim)
    n_steps = max(1, math.ceil(max(200.0, kp.t_p * fast * 100.0 / (2.0 * math.pi))))
    h = kp.t_p / n_steps
    psi_t, psi_h = state.amps

    def deriv(y_t, y_h):
        d_t = -1j * (half_omega * (d_up @ y_h) + kp.omega_z * n_diag * y_t)
        d_h = -1j * (half_omega * (d_dn @ y_t) + kp.omega_z * n_diag * y_h)
        return d_t, d_h

    for _ in range(n_steps):
        k1t, k1h = deriv(psi_t, psi_h)
        k2t, k2h = deriv(psi_t + 0.5 * h * k1t, psi_h + 0.5 * h * k1h)
        k3t, k3h = deriv(psi_t + 0.5 * h * k2t, psi_h + 0.5 * h * k2h)
        k4t, k4h = deriv(psi_t + h * k3t, psi_h + h * k3h)
        psi_t = psi_t + (h / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)
        psi_h = psi_h + (h / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
    return np.stack([psi_t, psi_h])


def dense_kick_propagator(kp, direction):
    """expm(-i t_p H) of the kick Hamiltonian on coin (x) motion, (T, H) blocks."""
    dim = kp.dim
    d_up = fock.displacement_matrix(1j * direction * kp.eta, dim)
    rotation = np.diag(kp.omega_z * np.arange(dim).astype(complex))
    ham = np.block([
        [rotation, (math.pi / kp.t_p / 2.0) * d_up],
        [(math.pi / kp.t_p / 2.0) * d_up.conj().T, rotation],
    ])
    return expm(-1j * kp.t_p * ham)


ALL_KICKS = ((1, "real"), (1, "imag"), (-1, "real"), (-1, "imag"))


class TestExactKick:
    @pytest.mark.parametrize("dim, mag, t_p, kicks_run", [
        (64, 1.0, 2e-8, ALL_KICKS),
        (64, 1.0, 1e-5, ALL_KICKS),
        (256, 1.0, 2e-8, ALL_KICKS),
        (256, 10.0, 2e-8, ALL_KICKS),
        # 17,335 Chebyshev terms at the pulse ceiling: one kick
        (256, 10.0, 1e-5, ((-1, "imag"),)),
    ])
    def test_kick_full_matches_dense_expm(self, dim, mag, t_p, kicks_run):
        kp = kicks.pi_pulse(t_p, 0.31, WZ, dim)
        propagators = {}
        for direction, phase in kicks_run:
            if direction not in propagators:
                propagators[direction] = dense_kick_propagator(kp, direction)
            alpha = mag if phase == "real" else 1j * mag
            initial = HybridState.product("H", fock.coherent_state(alpha, dim))
            got = kicks.kick_full(initial, kp, direction)
            expected = (propagators[direction] @ initial.amps.ravel()).reshape(2, dim)
            assert np.max(np.abs(got.amps - expected)) <= 1e-10, (direction, phase)
            assert got.time == initial.time + t_p

    @pytest.mark.parametrize("alpha, dim, t_p", [
        (1j, 64, 2.58e-8),
        (1.0, 64, 4.07e-8),
        (5j, 121, 7.23e-9),
        (10.0, 256, 2.29e-8),
    ])
    def test_kick_fidelity_matches_rk4_reference(self, alpha, dim, t_p):
        kp = kicks.pi_pulse(t_p, 0.31, WZ, dim)
        initial = HybridState.product("H", fock.coherent_state(alpha, dim))
        psi = reference_kick_rk4(initial, kp)
        psi *= np.exp(1j * kp.omega_z * np.arange(dim) * t_p)  # undo the free rotation
        ideal = kicks.kick_ideal(kp) @ initial.amps.ravel()
        reference = abs(np.vdot(ideal, psi.ravel())) ** 2
        assert abs(kicks.kick_fidelity(alpha, kp) - reference) <= 1e-7

    def test_threshold_search_builds_displacement_once(self, monkeypatch):
        # one real R = Q^dag D(i eta) Q = D(eta) per (eta, dim) serves both directions
        calls = []
        build = fock.displacement_matrix

        def counting(alpha, dim):
            calls.append((alpha, dim))
            return build(alpha, dim)

        kicks._real_kick_displacement.cache_clear()
        monkeypatch.setattr(fock, "displacement_matrix", counting)
        monkeypatch.setattr(kicks, "displacement_matrix", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert len(samples) > 5
        assert calls == [(0.31, 64)]
        initial = HybridState.product("H", fock.coherent_state(2j, 64))
        kicks.kick_full(initial, kicks.pi_pulse(1e-9, 0.31, WZ, 64), direction=-1)
        assert calls == [(0.31, 64)]
        assert kicks._real_kick_displacement.cache_info().currsize == 1
        cached = kicks._real_kick_displacement(0.31, 64)
        assert len(calls) == 1
        assert cached.dtype == np.float64
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    def test_threshold_search_builds_start_state_once(self, monkeypatch):
        calls = []
        build = kicks.coherent_state

        def counting(alpha, dim):
            calls.append((alpha, dim))
            return build(alpha, dim)

        kicks._ideal_pair.cache_clear()
        monkeypatch.setattr(kicks, "coherent_state", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert calls == [(2j, 64)]
        monkeypatch.undo()
        for t_p, f in samples:
            assert f == kicks.kick_fidelity(2j, kicks.pi_pulse(t_p, 0.31, WZ, 64))

    def test_threshold_search_samples_through_kick_fidelity(self, monkeypatch):
        # one fidelity path: every sample is a kick_fidelity call
        calls = []
        evaluate = kicks.kick_fidelity

        def counting(alpha, kp, direction=1):
            calls.append((alpha, kp.t_p, direction))
            return evaluate(alpha, kp, direction)

        monkeypatch.setattr(kicks, "kick_fidelity", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert calls == [(2j, t_p, 1) for t_p, _ in samples]

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("dim, alpha", [(16, 0.1 + 0.2j), (64, 2.0 - 1.0j), (256, 6.0 + 5.0j)])
    def test_kick_full_without_trap_is_the_ideal_kick(self, dim, alpha, direction):
        # at omega_z = 0, t_p H = (pi/2) K with K^2 = 1, so exp(-i t_p H) = -i K
        kp = kicks.KickParams(t_p=1e-9, eta=0.31, omega_z=0.0, dim=dim)
        rows = np.stack([fock.coherent_state(alpha, dim), fock.coherent_state(-1j * alpha, dim)])
        initial = HybridState(rows / math.sqrt(2.0), 0.0)
        got = kicks.kick_full(initial, kp, direction)
        expected = kicks.kick_ideal(kp, direction) @ initial.amps.ravel()
        assert np.max(np.abs(got.amps.ravel() - expected)) <= 1e-13

    @pytest.mark.parametrize("eta", [0.25, 0.31])
    @pytest.mark.parametrize("dim", [16, 64, 256, 512])
    def test_cached_kick_displacement_is_unitary(self, dim, eta):
        # ||K|| = 1, the spectral interval kick_full expands on, needs this; the
        # kernel runs on the real R and drops D(eta)'s rounding-level imaginary part
        built = fock.displacement_matrix(eta, dim)
        assert np.max(np.abs(built.imag)) <= 1e-14
        r = kicks._real_kick_displacement(eta, dim)
        assert np.array_equal(r, built.real)
        assert np.max(np.abs(r.T @ r - np.eye(dim))) <= 1e-13
        q = fock.quarter_turns(dim)
        for direction in (1, -1):
            d = q[:, None] * (r if direction == 1 else r.T) * q.conj()
            assert np.max(np.abs(d.conj().T @ d - np.eye(dim))) <= 1e-13
            # Q R Q^dag is D(i eta direction) itself
            expected = fock.displacement_matrix(1j * direction * eta, dim)
            assert np.max(np.abs(d - expected)) <= 1e-13

    def test_kick_is_bit_reproducible_and_leaves_global_rng_alone(self):
        kp = kicks.pi_pulse(1e-8, 0.31, WZ, 256)
        initial = HybridState.product("H", fock.coherent_state(10j, 256))
        np.random.seed(1)
        first = kicks.kick_full(initial, kp).amps
        after_first = np.random.random()
        np.random.seed(2)
        second = kicks.kick_full(initial, kp).amps
        np.random.seed(1)
        assert np.random.random() == after_first
        assert np.array_equal(first, second)

    def test_guard_band_population_raises(self):
        # clear of the guard band before the kick, not after it: the kick
        # displaces |0.5i> to |0.81i>
        kp = kicks.pi_pulse(1e-9, 0.31, WZ, 16)
        initial = HybridState.product("H", fock.coherent_state(0.5j, 16))
        assert fock.leakage(initial.amps[1]) < fock.LEAK_TOL
        with pytest.raises(TruncationError, match="kick: guard-band population"):
            kicks.kick_full(initial, kp)


def _cheb_terms(r):
    """kick_full's Bessel orders for radius r, and its term count on given values."""
    k = np.arange(int(r + 20.0 * np.cbrt(r)) + 30)
    return k, lambda values: k[(k > r) & (np.abs(values) < 1e-16)][0]


@pytest.mark.parametrize("radii,bound", [
    (np.linspace(math.pi / 2, 30.0, 300), 1e-15),
    ([8700.0], 1e-12),
])
def test_miller_bessel_matches_jv(radii, bound):
    for r in radii:
        k, _ = _cheb_terms(r)
        assert np.max(np.abs(kicks._bessel_j(k.size, r) - jv(k, r))) <= bound, r


def test_miller_bessel_keeps_the_term_count_of_jv():
    for r in np.geomspace(math.pi / 2, 2e4, 200):
        k, n_terms = _cheb_terms(r)
        assert n_terms(kicks._bessel_j(k.size, r)) == n_terms(jv(k, r)), r


def test_miller_bessel_rescales_a_start_far_above_the_radius():
    # J_399(2) ~ 1e-800: the recurrence grows past 1e250 on its way down
    k = np.arange(400)
    assert np.max(np.abs(kicks._bessel_j(k.size, 2.0) - jv(k, 2.0))) <= 1e-15
