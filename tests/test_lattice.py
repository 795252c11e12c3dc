import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionwalk import cli, lattice
from ionwalk.errors import ConfigError


def three_step_state(step_size=1.0):
    *_, state = lattice.walk_states(lattice.WalkSpec(3, step_size))
    return state


def test_coin_identity_at_zero_angle():
    state = lattice.initial_state(1.0)
    rotated = lattice.apply_coin(state, 0.0, 0.4)
    assert np.allclose(rotated.amps[0], state.amps[0])
    assert np.allclose(rotated.amps[1], state.amps[1])


def test_coin_half_angle_from_tails():
    state = lattice.initial_state(1.0)
    rotated = lattice.apply_coin(state, math.pi / 2.0, 0.0)
    c_t, c_h = rotated.amps[:, 0 + rotated.n_steps]
    assert c_h == pytest.approx(1.0 / math.sqrt(2.0))
    assert c_t == pytest.approx(1.0 / math.sqrt(2.0))


def test_double_pi_coin_is_minus_identity():
    state = lattice.apply_coin(lattice.initial_state(1.0), math.pi / 2, 0.3)
    twice = lattice.apply_coin(lattice.apply_coin(state, math.pi, 0.0), math.pi, 0.0)
    assert np.allclose(twice.amps[0], -state.amps[0])
    assert np.allclose(twice.amps[1], -state.amps[1])


@pytest.mark.parametrize("amps, step_size, n_steps", [
    (np.array([1.0, 0.0]), 1.0, 0),  # one coin row
    (np.array([[1.0], [0.0], [0.0]]), 1.0, 0),  # three coin rows
    (np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0, 0),  # length is not 2*n_steps + 1
    (np.array([[1.0], [0.0]]), 0.0, 0),
    (np.array([[1.0], [0.5]]), 1.0, 0),  # norm deviates from 1
    (np.array([[np.nan], [0.0]]), 1.0, 0),
    (np.array([[1.0], [0.0]]), math.inf, 0),
    (np.array([[1.0], [0.0]]), math.nan, 0),
    (np.ones((2, 6)) / math.sqrt(12.0), 1.0, 2.5),  # (2, 6) == (2, 2 * 2.5 + 1)
])
def test_lattice_state_rejects_bad_input(amps, step_size, n_steps):
    with pytest.raises(ValueError):
        lattice.LatticeState(amps, step_size, n_steps)


@pytest.mark.parametrize("n_steps, step_size", [
    (3, math.inf),  # walks, then gives NaN probabilities
    (3, math.nan),
    (2.5, 1.0),  # not a whole number of steps
])
def test_walk_spec_rejects_bad_input(n_steps, step_size):
    with pytest.raises(ConfigError):
        lattice.WalkSpec(n_steps, step_size)


def test_lattice_amps_is_a_read_only_copy():
    amps = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    state = lattice.LatticeState(amps, 1.0, 1)
    amps[0, 1] = 0.0
    assert tuple(state.amps[:, 0 + state.n_steps]) == (1.0, 0.0)
    with pytest.raises(ValueError):
        state.amps[0, 1] = 0.0


def test_shift_moves_tails_up():
    state = lattice.apply_shift(lattice.initial_state(1.0))
    c_t, _ = state.amps[:, 1 + state.n_steps]
    assert c_t == pytest.approx(1.0)


def test_three_step_amplitudes():
    state = three_step_state()
    inv8 = 1.0 / math.sqrt(8.0)
    expected = {
        1: (-2 * inv8, inv8),
        3: (inv8, 0.0),
        -1: (-inv8, 0.0),
        -3: (0.0, inv8),
    }
    for k, (e_t, e_h) in expected.items():
        c_t, c_h = state.amps[:, k + state.n_steps]
        assert c_t == pytest.approx(e_t, abs=1e-12)
        assert c_h == pytest.approx(e_h, abs=1e-12)


def test_norm_preserved_over_hundred_steps():
    *_, state = lattice.walk_states(lattice.WalkSpec(100, 2.0))
    assert state.lattice_norm() == pytest.approx(1.0, abs=1e-12)


def test_coin_state_ratio_matches_closed_form():
    state = three_step_state(1.0)
    p_t, p_h = lattice.coin_probabilities(state)
    expected = (1.0 + math.exp(-8.0)) / (3.0 - math.exp(-8.0))
    assert p_h / p_t == pytest.approx(expected, abs=1e-10)


def test_coin_state_ratio_orthogonal_limit():
    state = three_step_state(4.0)
    p_t, p_h = lattice.coin_probabilities(state)
    assert p_h / p_t == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_orthogonal_limit_probabilities_match_coefficients():
    state = three_step_state(4.5)
    ks, probs = lattice.position_probabilities(state, normalize=False)
    for k, p in zip(ks, probs):
        c_t, c_h = state.amps[:, int(k) + state.n_steps]
        assert p == pytest.approx(abs(c_t) ** 2 + abs(c_h) ** 2, abs=1e-6)


def test_odd_positions_suppressed_at_wide_spacing():
    # residual odd-site weight comes from neighboring-state overlap and
    # shrinks with the spacing; at |step| = 4 it is numerically gone
    *_, state = lattice.walk_states(lattice.WalkSpec(100, 2.0))
    ks, probs = lattice.position_probabilities(state)
    odd = probs[ks % 2 != 0]
    even_peak = probs[ks % 2 == 0].max()
    assert odd.max() < 2e-3
    assert odd.max() < 0.05 * even_peak

    *_, state4 = lattice.walk_states(lattice.WalkSpec(100, 4.0))
    ks4, probs4 = lattice.position_probabilities(state4)
    assert probs4[ks4 % 2 != 0].max() < 1e-6


def test_std_dev_trivial_cases():
    # at spacing 2 the neighbor overlap e^{-4} still contributes ~0.19 of
    # index spread; it is numerically gone by spacing 4
    assert lattice.std_dev(lattice.initial_state(2.0)) < 0.2
    assert lattice.std_dev(lattice.initial_state(4.0)) < 0.05
    *_, one = lattice.walk_states(lattice.WalkSpec(1, 4.0))
    assert lattice.std_dev(one) == pytest.approx(1.0, abs=1e-3)


def test_small_spacing_spread_and_late_linearity():
    sigmas = np.array([lattice.std_dev(s) for s in lattice.walk_states(lattice.WalkSpec(100, 0.1))])
    assert sigmas[0] > 0.5  # initial state already spread over many sites
    late = sigmas[60:]
    n = np.arange(60, 101)
    slope, intercept = np.polyfit(n, late, 1)
    fit = slope * n + intercept
    assert np.max(np.abs(fit - late)) / late.mean() < 0.01


def test_scaling_factor_reference_values():
    v4 = lattice.scaling_factor(4.0, 100)
    v2 = lattice.scaling_factor(2.0, 100)
    v1 = lattice.scaling_factor(1.0, 100)
    assert v4 == pytest.approx(0.457, abs=0.005)
    assert v1 == pytest.approx(0.89 * 0.457, abs=0.01)
    assert v2 / v4 >= 0.99


def test_scaling_factor_requires_enough_steps():
    with pytest.raises(ValueError):
        lattice.scaling_factor(2.0, 30)


def test_symmetric_walk_is_symmetric():
    *_, state = lattice.walk_states(lattice.WalkSpec(15, 2.0, phi=0.7, symmetric=True))
    _, probs = lattice.position_probabilities(state)
    assert np.max(np.abs(probs - probs[::-1])) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(0.4, 4.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.1, math.pi),
)
def test_walk_preserves_lattice_norm(n_steps, step_size, phi, theta):
    state = lattice.initial_state(step_size)
    for _ in range(n_steps):
        state = lattice.apply_shift(lattice.apply_coin(state, theta, phi))
    assert state.lattice_norm() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.floats(0.5, 3.0))
def test_unnormalized_probabilities_bounded_by_one(n_steps, step_size):
    *_, state = lattice.walk_states(lattice.WalkSpec(n_steps, step_size))
    _, probs = lattice.position_probabilities(state, normalize=False)
    assert np.all(probs <= 1.0 + 1e-9)
    assert np.all(probs >= 0.0)


def dense_amplitudes(state, l_values):
    """Overlap-weighted amplitudes from the dense kernel over every (l, k)."""
    offsets = state.positions[None, :] - np.asarray(l_values, dtype=int)[:, None]
    kernel = np.exp(-(offsets.astype(float) ** 2) * state.step_size**2 / 2.0)
    return kernel @ state.amps[0], kernel @ state.amps[1]


def dense_position_probabilities(state, l_values, normalize):
    amp_t, amp_h = dense_amplitudes(state, l_values)
    probs = np.abs(amp_t) ** 2 + np.abs(amp_h) ** 2
    if normalize and probs.sum() > 0.0:
        probs = probs / probs.sum()
    return probs


def dense_coin_probabilities(state):
    gram_t, gram_h = dense_amplitudes(state, state.positions)
    return (float(np.real(np.vdot(state.amps[0], gram_t))),
            float(np.real(np.vdot(state.amps[1], gram_h))))


def l_value_sets(state, rng):
    n = state.n_steps
    pad = int(math.ceil(6.0 / state.step_size))
    far = rng.integers(-(n + 5000), n + 5000, 30)
    near = rng.integers(-(3 * n + 20), 3 * n + 20, 30)
    return {
        "default": None,
        "wide": np.arange(-(n + pad + 7), n + pad + 8),
        "random": rng.permutation(np.concatenate([far, near, [n + 5001, -(n + 5001)]])),
        "empty": np.array([], dtype=int),
    }


@pytest.mark.parametrize("n_steps", [0, 1, 4, 17, 60])
@pytest.mark.parametrize("step_size", [0.01, 0.1, 0.5, 1.0, 2.0, 4.5, 10.0, 40.0])
def test_banded_overlap_matches_dense_kernel(step_size, n_steps):
    *_, state = lattice.walk_states(lattice.WalkSpec(n_steps, step_size, phi=0.4, symmetric=True))
    rng = np.random.default_rng(n_steps + int(100 * step_size))
    for name, l_values in l_value_sets(state, rng).items():
        for normalize in (False, True):
            ks, probs = lattice.position_probabilities(state, l_values, normalize=normalize)
            expected = dense_position_probabilities(state, ks, normalize)
            assert probs.shape == expected.shape, name
            assert np.max(np.abs(probs - expected), initial=0.0) <= 1e-13, name
            assert np.array_equal(probs == 0.0, expected == 0.0), name
    p_t, p_h = lattice.coin_probabilities(state)
    e_t, e_h = dense_coin_probabilities(state)
    assert abs(p_t - e_t) <= 1e-13 and abs(p_h - e_h) <= 1e-13


def test_tiny_step_kernel_is_capped_by_requested_offsets(monkeypatch):
    # at step 1e-4 the kernel underflows only past |d| ~ 3.9e5; the band
    # must stop at the largest offset the call needs instead
    band = lattice._overlap_band
    sizes = []

    def spy(step_size, reach):
        kernel = band(step_size, reach)
        sizes.append(kernel.size)
        return kernel

    monkeypatch.setattr(lattice, "_overlap_band", spy)
    *_, state = lattice.walk_states(lattice.WalkSpec(5, 1e-4))
    _, probs = lattice.position_probabilities(state)
    _, wide = lattice.position_probabilities(state, np.array([30, -7]), normalize=False)
    p_t, _ = lattice.coin_probabilities(state)
    assert sizes == [2 * 10 + 1, 2 * 35 + 1, 2 * 10 + 1]
    assert np.max(np.abs(probs - dense_position_probabilities(state, state.positions, True))) <= 1e-13
    assert np.max(np.abs(wide - dense_position_probabilities(state, [30, -7], False))) <= 1e-13
    assert abs(p_t - dense_coin_probabilities(state)[0]) <= 1e-13


def test_walk_ideal_csvs_follow_walk_states(tmp_path):
    options = {"steps": 40, "step_size": 1.5, "phi": 0.3, "scaling_step_sizes": [4.0]}
    cli.run_scenario("walk-ideal", options, out_dir=str(tmp_path))
    states = list(lattice.walk_states(lattice.WalkSpec(40, 1.5, 0.3)))
    sigma_rows = [f"{n},{lattice.std_dev(s):.12g}" for n, s in enumerate(states)]
    ks, probs = lattice.position_probabilities(states[-1])
    position_rows = [f"{k},{p:.12g}" for k, p in zip(ks, probs)]
    for name, rows in (("sigma.csv", ["n,sigma"] + sigma_rows),
                       ("positions.csv", ["k,p"] + position_rows)):
        assert (tmp_path / name).read_text().splitlines() == rows, name


@pytest.mark.parametrize("phi, walks", [(0.0, 1), (0.3, 2)])
def test_walk_ideal_scaling_takes_one_zero_phase_walk(tmp_path, monkeypatch, phi, walks):
    # walk_states never reads step_size: the main walk at phi = 0, or one more
    # walk at phase 0, relabelled, gives every scaling_factor bit for bit
    sizes = [0.5, 1.5, 4.0]
    specs = []
    walk = lattice.walk_states

    def counting(spec):
        specs.append(spec)
        return walk(spec)

    monkeypatch.setattr(lattice, "walk_states", counting)
    options = {"steps": 40, "step_size": 1.5, "phi": phi, "scaling_step_sizes": sizes}
    cli.run_scenario("walk-ideal", options, out_dir=str(tmp_path))
    assert len(specs) == walks and specs[-1].phi == 0.0
    monkeypatch.undo()
    rows = [f"{s:.12g},{lattice.scaling_factor(s, 40):.12g}" for s in sizes]
    assert (tmp_path / "scaling.csv").read_text().splitlines() == ["step_size,v"] + rows
