import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from ionwalk import cli, fock, kicks
from ionwalk.dynamics import HybridState
from ionwalk.errors import ConfigError, NoThreshold, StepError, TruncationError
from oracles import fock_kick_dim, fock_kick_fidelity, kick_deviation, kick_train

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
        # one real R = Q^dag D(i eta) Q = D(eta) per (eta, dim) serves both
        # directions' blocks [[0, R_d], [R_d^T, 0]]; the frames re-centre with
        # fock.displace, not a matrix
        calls = []
        build = fock.displacement_matrix

        def counting(alpha, dim):
            calls.append((alpha, dim))
            return build(alpha, dim)

        kicks._kick_block.cache_clear()
        monkeypatch.setattr(fock, "displacement_matrix", counting)
        monkeypatch.setattr(kicks, "displacement_matrix", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert len(samples) > 5
        assert calls == [(0.31, 64)]
        initial = HybridState.product("H", fock.coherent_state(2j, 64))
        kicks.kick_full(initial, kicks.pi_pulse(1e-9, 0.31, WZ, 64), direction=-1)
        assert calls == [(0.31, 64)]
        assert kicks._kick_block.cache_info().currsize == 2
        r = build(0.31, 64).real
        for direction, blocks in ((1, (r, r.T)), (-1, (r.T, r))):
            cached = kicks._kick_block(0.31, 64, direction)
            assert cached.dtype == np.float64
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0
            assert np.array_equal(cached[:64, 64:], blocks[0])
            assert np.array_equal(cached[64:, :64], blocks[1])
            assert not cached[:64, :64].any() and not cached[64:, 64:].any()
        assert len(calls) == 1

    def test_threshold_search_builds_start_state_once(self, monkeypatch):
        # every evaluation starts from the one cached |H>|0> of the frame alpha
        calls = []
        build = kicks.coherent_state

        def counting(alpha, dim):
            calls.append((alpha, dim))
            return build(alpha, dim)

        kicks._vacuum_pair.cache_clear()
        monkeypatch.setattr(kicks, "coherent_state", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert calls == [(0.0, 64)]
        monkeypatch.undo()
        for t_p, f in samples:
            assert f == kicks.kick_fidelity(2j, kicks.pi_pulse(t_p, 0.31, WZ, 64))

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("dim", [16, 32, 256])
    def test_fidelity_reference_is_the_ideal_kick_of_the_vacuum(self, dim, direction):
        # kick_fidelity compares against kick_ideal's |H>|0> column, taken
        # from the cached block without building the dense operator
        start, ideal = kicks._vacuum_pair(0.31, dim, direction)
        assert np.array_equal(start.amps, HybridState.product("H", fock.coherent_state(0.0, dim)).amps)
        expected = kicks.kick_ideal(kicks.pi_pulse(1e-9, 0.31, WZ, dim), direction) @ start.amps.ravel()
        assert np.array_equal(ideal.ravel(), expected)
        assert not ideal.flags.writeable

    def test_threshold_search_samples_through_the_stacked_fidelity(self, monkeypatch):
        # one fidelity path: every sample of a one-alpha search, and every
        # kick_fidelity, is a stack of one of _fidelities
        calls = []
        evaluate = kicks._fidelities

        def counting(alphas, kps, direction=1):
            calls.append((list(alphas), [kp.t_p for kp in kps], direction))
            return evaluate(alphas, kps, direction)

        monkeypatch.setattr(kicks, "_fidelities", counting)
        _, _, samples = kicks.fidelity_threshold(2j, 0.99, 0.31, WZ, dim=64)
        assert calls == [([2j], [t_p], 1) for t_p, _ in samples]
        kicks.kick_fidelity(2j, kicks.pi_pulse(1e-9, 0.31, WZ, 64), -1)
        assert calls[-1] == ([2j], [1e-9], -1)

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
        r = kicks._kick_block(eta, dim, 1)[:dim, dim:]
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

    def test_the_leaking_kick_of_a_stack_raises_its_own_message(self):
        # the pattern above as the middle of five kicks whose others stay
        # clear of the guard band: the stack raises what that kick raises alone
        kp = kicks.pi_pulse(1e-9, 0.31, WZ, 16)
        starts = [0.1, -0.2j, 0.5j, 0.15 + 0.1j, 0j]
        states = [HybridState.product("H", fock.coherent_state(a, 16)) for a in starts]
        for k, state in enumerate(states):
            if k != 2:
                assert fock.leakage(kicks.kick_full(state, kp).amps).sum() < fock.LEAK_TOL
        with pytest.raises(TruncationError) as alone:
            kicks.kick_full(states[2], kp)
        with pytest.raises(TruncationError) as stacked:
            kicks._kick_stack(np.stack([state.amps for state in states]), [kp] * 5, 1, [0j] * 5)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("kick: guard-band population")

    def test_a_kick_that_drifts_in_norm_raises_for_the_stack(self, monkeypatch):
        # the pattern above for the norm rule: the middle of five kicks has its
        # Chebyshev coefficients scaled by 1 + 1e-5, so its norm grows by 1e-5
        kps = [kicks.pi_pulse(t_p, 0.31, WZ, 32) for t_p in (1e-9, 2e-9, 3e-9, 4e-9, 5e-9)]
        starts = np.stack([HybridState.product("H", fock.coherent_state(a, 32)).amps
                           for a in (0.1, -0.2j, 0.3j, 0.15 + 0.1j, 0j)])
        kicked = kicks._kick_stack(starts, kps, 1, [0j] * 5)
        assert np.max(np.abs(np.linalg.norm(kicked, axis=(1, 2)) - 1.0)) <= 1e-12
        _drifting(monkeypatch, lambda kp, mag: kp.t_p == 3e-9)
        with pytest.raises(StepError, match=r"^kick: norm drift 1\.0\d\de-05 in kick 2 of the stack$"):
            kicks._kick_stack(starts, kps, 1, [0j] * 5)
        with pytest.raises(StepError, match="kick: norm drift"):
            kicks.kick_full(HybridState(starts[2]), kps[2])

    def test_a_drifting_kick_fails_the_cli_with_exit_3(self, tmp_path, monkeypatch, capsys):
        # the largest default |alpha|'s kicks drift: the run stops at its first stack
        top = max(cli.SCENARIOS["kick-threshold"][1]["alphas"])
        _drifting(monkeypatch, lambda kp, mag: mag == top)
        assert cli.main(["kick-threshold", "--out", str(tmp_path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "StepError"

    def test_a_nan_amplitude_fails_the_norm_rule(self):
        # NaN passes the guard-band comparison, so the norm rule must catch it
        kp = kicks.pi_pulse(1e-9, 0.31, WZ, 16)
        starts = np.stack([HybridState.product("H", fock.coherent_state(0.0, 16)).amps] * 3)
        starts[1, 0, 3] = np.nan
        with pytest.raises(StepError, match="^kick: norm drift nan in kick 1 of the stack$"):
            kicks._kick_stack(starts, [kp] * 3, 1, [0j, 2j, 2j])


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


def _counted(monkeypatch, *names):
    """Count the calls of each named ``kicks`` function, in a dict by name."""
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(kicks, name, counting(name, getattr(kicks, name)))
    return calls


def _drifting(monkeypatch, chosen):
    """Scale the Chebyshev coefficients of each plan (kp, |alpha|) that ``chosen`` picks by 1 + 1e-5."""
    plan = kicks._expansion

    def drifting(kp, mag):
        *head, coeffs = plan(kp, mag)
        return (*head, coeffs * (1.0 + 1e-5) if chosen(kp, mag) else coeffs)

    monkeypatch.setattr(kicks, "_expansion", drifting)


DEFAULT_ALPHAS = [m * phase for m in cli.SCENARIOS["kick-threshold"][1]["alphas"]
                  for phase in (1j, 1.0)]


class TestFrames:
    def test_frame_kick_is_the_fock_kick_up_to_a_phase(self):
        # psi = D(alpha) chi in: psi' = D(alpha e^{-i omega_z t_p}) chi' out, for
        # a state on both coin rows, over two frames (J = 2)
        d, dim, alpha, t_p = 32, 196, 5.0 + 3.0j, 6e-8
        chi = np.stack([fock.coherent_state(0.4 - 0.2j, d), fock.coherent_state(-0.3j, d)])
        chi /= math.sqrt(2.0)
        out = kicks.kick_full(HybridState(chi, 0.0), kicks.pi_pulse(t_p, 0.31, WZ, d), -1, alpha)
        embed = np.zeros((2, dim), dtype=complex)
        embed[:, :d] = chi
        psi = embed @ fock.displacement_matrix(alpha, dim).T
        fock_out = kicks.kick_full(HybridState(psi, 0.0), kicks.pi_pulse(t_p, 0.31, WZ, dim), -1)
        embed[:, :d] = out.amps
        expected = embed @ fock.displacement_matrix(alpha * np.exp(-1j * WZ * t_p), dim).T
        overlap = np.vdot(expected.ravel(), fock_out.amps.ravel())
        assert abs(abs(overlap) - 1.0) <= 1e-12
        assert np.max(np.abs(fock_out.amps - overlap * expected)) <= 1e-12
        assert out.time == t_p

    def test_frame_fidelity_matches_fock_space_at_every_default_sample(self):
        # every sample of the default kick-threshold searches, both kick
        # directions, against kick_full at beta = 0 on (|alpha| + 6)^2 levels
        worst = 0.0
        for alpha in DEFAULT_ALPHAS:
            _, _, samples = kicks.fidelity_threshold(alpha, 0.99, 0.31, WZ)
            for t_p, f in samples:
                for direction in (1, -1):
                    kp = kicks.pi_pulse(t_p, 0.31, WZ, kicks.FRAME_DIM)
                    frame = kicks.kick_fidelity(alpha, kp, direction)
                    if direction == 1:
                        assert frame == f
                    worst = max(worst, abs(frame - fock_kick_fidelity(alpha, kp, direction)))
        assert worst <= 1e-12

    def test_lockstep_searches_equal_lone_searches_and_kicks(self):
        # every sample of the lockstep searches is a lone kick_fidelity at its
        # (alpha, t_p), bit for bit, and each alpha's result is its one-alpha search
        found = kicks.fidelity_thresholds(DEFAULT_ALPHAS, 0.99, 0.31, WZ)
        assert sum(len(samples) for _, _, samples in found) == 123
        for alpha, result in zip(DEFAULT_ALPHAS, found):
            assert result == kicks.fidelity_threshold(alpha, 0.99, 0.31, WZ), alpha
            for t_p, f in result[2]:
                assert f == kicks.kick_fidelity(alpha, kicks.pi_pulse(t_p, 0.31, WZ, kicks.FRAME_DIM))

    @pytest.mark.parametrize("direction", [1, -1])
    def test_mixed_stack_equals_its_kicks_alone(self, direction):
        # alpha = 0 next to alpha != 0, 1, 7 and 34 segments, 17 to 2,212 terms,
        # states on both coin rows at different times
        d = kicks.FRAME_DIM
        members = [(0j, 1e-8), (3.0 + 4.0j, 3e-8), (10j, 1e-6), (0j, 1e-5), (2.0, 1e-6), (0.5, 6e-12)]
        states, kps, alphas = [], [], []
        for k, (alpha, t_p) in enumerate(members):
            chi = np.stack([fock.coherent_state(0.3 - 0.1j * k, d), fock.coherent_state(0.2j + 0.1 * k, d)])
            states.append(HybridState(chi / math.sqrt(2.0), 1e-6 * k))
            kps.append(kicks.pi_pulse(t_p, 0.31, WZ, d))
            alphas.append(alpha)
        plans = [kicks._expansion(kp, alpha) for kp, alpha in zip(kps, alphas)]
        assert len({plan[1] for plan in plans}) >= 3 and len({len(plan[-1]) for plan in plans}) == 6
        stacked = kicks._kick_stack(np.stack([state.amps for state in states]), kps, direction, alphas)
        for state, kp, alpha, got in zip(states, kps, alphas, stacked):
            alone = kicks.kick_full(state, kp, direction, alpha)
            assert np.array_equal(got, alone.amps), (alpha, kp.t_p)
            assert alone.time == state.time + kp.t_p

    @pytest.mark.parametrize("t_p", [1e-11, 1e-9])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_walk_stack_equals_its_kicks_alone(self, t_p, direction, monkeypatch):
        # a kick of a 201-site walk, frames alpha = i eta j (j = -100..100): one
        # plan per distinct |alpha| and one displace per moving segment boundary
        d, sites = kicks.FRAME_DIM, range(-100, 101)
        states = [HybridState(np.stack([fock.coherent_state(0.3 - 0.05j * (j % 7), d),
                                        fock.coherent_state(0.2j + 0.03 * (j % 5), d)]) / math.sqrt(2.0), 1e-7)
                  for j in sites]
        kp, alphas = kicks.pi_pulse(t_p, 0.31, WZ, d), [0.31j * j for j in sites]
        assert kicks._expansion(kp, 100 * 0.31)[1] == 1
        calls = _counted(monkeypatch, "_expansion", "displace")
        stacked = kicks._kick_stack(np.stack([state.amps for state in states]), [kp] * len(alphas), direction, alphas)
        assert calls == {"_expansion": 101, "displace": 2}
        monkeypatch.undo()
        for j in (-100, -1, 0, 1, 57, 100):
            alone = kicks.kick_full(states[j + 100], kp, direction, alphas[j + 100])
            assert stacked[j + 100].tobytes() == alone.amps.tobytes(), j
            assert alone.time == 1e-7 + t_p

    @pytest.mark.parametrize("t_p", [1e-11, 1e-9])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_walk_site_states_kick_as_their_amplitudes_times_unit_states(self, t_p, direction):
        # a walk holds c_j chi_j at site j, of norm |c_j| with sum |c_j|^2 = 1: its
        # kick is c_j times the kick of chi_j, to rounding (c_j x rounds apart)
        d, sites = kicks.FRAME_DIM, np.arange(-100, 101)
        units = np.stack([np.stack([fock.coherent_state(0.3 - 0.05j * (j % 7), d),
                                    fock.coherent_state(0.2j + 0.03 * (j % 5), d)]) / math.sqrt(2.0)
                          for j in sites])
        c = np.exp(-((sites / 30.0) ** 2) + 0.4j * sites)
        c /= np.linalg.norm(c)
        kp, alphas = kicks.pi_pulse(t_p, 0.31, WZ, d), [0.31j * j for j in sites]
        unit = kicks._kick_stack(units, [kp] * len(sites), direction, alphas)
        scaled = kicks._kick_stack(c[:, None, None] * units, [kp] * len(sites), direction, alphas)
        error = np.max(np.abs(scaled - c[:, None, None] * unit), axis=(1, 2)) / np.abs(c)
        assert np.max(error) <= 1e-14

    def test_alpha_20_matches_fock_space_at_dim_676(self):
        assert fock_kick_dim(20j) == 676
        kp = kicks.pi_pulse(1.8768e-9, 0.31, WZ, kicks.FRAME_DIM)
        assert abs(kicks.kick_fidelity(20j, kp) - fock_kick_fidelity(20j, kp)) <= 1e-12

    @pytest.mark.parametrize("alpha", [10j, 10.0, 200j, 200.0])
    def test_frames_converge_in_basis_and_arc(self, alpha, monkeypatch):
        for t_p in (1e-9, 1e-8, 1e-7):
            kp = kicks.pi_pulse(t_p, 0.31, WZ, kicks.FRAME_DIM)
            f = kicks.kick_fidelity(alpha, kp)
            wider = kicks.kick_fidelity(alpha, kicks.pi_pulse(t_p, 0.31, WZ, kicks.FRAME_DIM + 16))
            monkeypatch.setattr(kicks, "FRAME_ARC", kicks.FRAME_ARC / 2.0)
            shorter = kicks.kick_fidelity(alpha, kp)
            monkeypatch.undo()
            assert abs(wider - f) <= 1e-12 and abs(shorter - f) <= 1e-12, t_p

    @pytest.mark.parametrize("alpha, threshold", [
        (20j, 1.8768e-9), (20.0, 1.6641e-8),
        (50j, 7.5562e-10), (50.0, 1.0674e-8),
        (200j, 1.8891e-10), (200.0, 5.3371e-9),
    ])
    def test_paper_regime_thresholds(self, alpha, threshold):
        t_p, f_val, _ = kicks.fidelity_threshold(alpha, 0.99, 0.31, WZ)
        assert t_p == pytest.approx(threshold, rel=1e-3)
        assert f_val >= 0.99

    def test_segment_too_long_for_the_basis_raises(self, monkeypatch):
        # |alpha| omega_z t_p = 26.8 at |alpha| = 200, t_p = 10 ns: 7 segments of
        # FRAME_ARC leave 16 levels, 4 segments of twice FRAME_ARC leave FRAME_DIM
        kp = kicks.pi_pulse(1e-8, 0.31, WZ, kicks.FRAME_DIM)
        assert kicks.kick_fidelity(200.0, kp) == pytest.approx(0.8841087824268, abs=1e-12)
        with pytest.raises(TruncationError, match="kick: guard-band population"):
            kicks.kick_fidelity(200.0, kicks.pi_pulse(1e-8, 0.31, WZ, 16))
        monkeypatch.setattr(kicks, "FRAME_ARC", 2.0 * kicks.FRAME_ARC)
        with pytest.raises(TruncationError, match="kick: guard-band population"):
            kicks.kick_fidelity(200.0, kp)

    def test_default_kick_threshold_stays_in_the_frame_basis(self, tmp_path, monkeypatch):
        # the perfbench kick-thresholds workload: every state, displacement and
        # spectral bound is built on FRAME_DIM levels, and each fidelity sample
        # is one kick of a stacked kick
        for cached in (kicks._kick_block, kicks._vacuum_pair, kicks._frame_spectrum,
                       fock._displacement_eig):
            cached.cache_clear()
        dims, kicks_run = [], []

        def recording(module, name, dim_of):
            original = getattr(module, name)

            def wrapper(*args):
                dims.append(dim_of(*args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        recording(kicks, "displacement_matrix", lambda alpha, dim: dim)
        recording(kicks, "coherent_state", lambda alpha, dim: dim)
        recording(kicks, "_frame_spectrum", lambda mag, dim: dim)
        recording(fock, "_displacement_eig", lambda dim: dim)
        stack = kicks._kick_stack

        def counting(amps, kps, direction, alphas):
            kicks_run.extend((chi.shape, kp.dim) for chi, kp in zip(amps, kps))
            return stack(amps, kps, direction, alphas)

        monkeypatch.setattr(kicks, "_kick_stack", counting)
        cli.run_scenario("kick-threshold", {}, out_dir=str(tmp_path))
        assert kicks_run == [((2, kicks.FRAME_DIM), kicks.FRAME_DIM)] * 123
        assert dims and set(dims) == {kicks.FRAME_DIM}

    def test_default_kick_threshold_runs_its_searches_in_lockstep(self, tmp_path, monkeypatch):
        # the perfbench kick-thresholds workload: the 8 searches' 123 samples
        # take one stacked kick per round, 16 rounds, and each alpha samples
        # the t_p of its search alone, in the same order
        stacks, sampled = [], {alpha: [] for alpha in DEFAULT_ALPHAS}
        stack = kicks._kick_stack

        def recording(states, kps, direction, alphas):
            stacks.append(len(kps))
            for alpha, kp in zip(alphas, kps):
                sampled[alpha].append(kp.t_p)
            return stack(states, kps, direction, alphas)

        monkeypatch.setattr(kicks, "_kick_stack", recording)
        cli.run_scenario("kick-threshold", {}, out_dir=str(tmp_path))
        assert len(stacks) <= 16 and sum(stacks) == 123
        monkeypatch.undo()
        for alpha in DEFAULT_ALPHAS:
            _, _, samples = kicks.fidelity_threshold(alpha, 0.99, 0.31, WZ)
            assert sampled[alpha] == [t_p for t_p, _ in samples], alpha

    def test_default_kick_threshold_plans_and_rehomes_once_per_stack(self, tmp_path, monkeypatch):
        # the perfbench kick-thresholds workload: 123 samples in 16 stacks, one
        # plan per distinct (t_p, |alpha|) of a stack, at most J + 1 displace calls
        calls, stacks = _counted(monkeypatch, "_expansion", "displace"), []
        stack = kicks._kick_stack

        def recording(states, kps, direction, alphas):
            before = dict(calls)
            out = stack(states, kps, direction, alphas)
            segments = max(math.ceil(abs(a) * kp.omega_z * kp.t_p / kicks.FRAME_ARC) for a, kp in zip(alphas, kps))
            stacks.append((len(kps), len({(kp.t_p, abs(a)) for a, kp in zip(alphas, kps)}),
                           calls["_expansion"] - before["_expansion"], calls["displace"] - before["displace"],
                           max(segments, 1)))
            return out

        monkeypatch.setattr(kicks, "_kick_stack", recording)
        cli.run_scenario("kick-threshold", {}, out_dir=str(tmp_path))
        assert len(stacks) == 16 and sum(n for n, *_ in stacks) == 123
        assert all(plans == distinct for _, distinct, plans, _, _ in stacks)
        assert sum(plans for _, _, plans, _, _ in stacks) == calls["_expansion"] == 93  # of 123 samples
        assert all(moves <= segments + 1 for *_, moves, segments in stacks)
