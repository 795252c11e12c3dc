import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from ionwalk import fock
from ionwalk.errors import ConfigError, TruncationError
from oracles import lowering_op, raising_op


def test_ground_state_is_trivial():
    state = fock.coherent_state(0.0, 32)
    assert state[0] == 1.0
    assert np.all(state[1:] == 0.0)


def test_neighbor_overlap_one_over_e():
    a = fock.coherent_state(1.0, 64)
    b = fock.coherent_state(2.0, 64)
    assert abs(np.vdot(a, b)) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_two_site_overlap_e_minus_four():
    a = fock.coherent_state(0.0, 64)
    b = fock.coherent_state(2.0, 64)
    assert abs(np.vdot(a, b)) ** 2 == pytest.approx(math.exp(-4.0), abs=1e-12)


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        fock.coherent_state(5.0, 24)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.05, 2.5),
    st.floats(0.0, 2 * math.pi),
)
def test_coherent_amplitudes_follow_poisson_weights(mag, angle):
    alpha = mag * complex(math.cos(angle), math.sin(angle))
    state = fock.coherent_state(alpha, 64)
    n = np.arange(10)
    poisson = np.exp(-mag**2) * mag ** (2 * n) / [math.factorial(int(k)) for k in n]
    assert np.max(np.abs((np.abs(state) ** 2)[:10] - poisson)) < 1e-10


@pytest.mark.parametrize("dim", [16, 64, 128, 256, 384])
@pytest.mark.parametrize("alpha", [0.0, 0.31j, -0.31j, 1.5 + 0.5j, -2.3 + 1.1j, 4.0])
def test_displacement_matrix_matches_expm(dim, alpha):
    gen = alpha * raising_op(dim) - np.conj(alpha) * lowering_op(dim)
    assert np.max(np.abs(fock.displacement_matrix(alpha, dim) - expm(gen))) <= 1e-12


def test_displacement_generates_coherent_state():
    alpha = 1.5 + 0.5j
    d = fock.displacement_matrix(alpha, 64)
    target = fock.coherent_state(alpha, 64)
    assert np.max(np.abs(d[:, 0] - target)) < 1e-10


def test_displacement_inverse():
    alpha = 0.8 - 1.1j
    d = fock.displacement_matrix(alpha, 48)
    d_inv = fock.displacement_matrix(-alpha, 48)
    prod = d @ d_inv
    low = prod[:38, :38]
    assert np.max(np.abs(low - np.eye(38))) < 1e-10


def test_collinear_displacements_compose_without_phase():
    direction = complex(math.cos(0.7), math.sin(0.7))
    a, b = 0.7 * direction, 1.1 * direction
    dim = 96
    lhs = fock.displacement_matrix(b, dim) @ fock.displacement_matrix(a, dim)
    rhs = fock.displacement_matrix(a + b, dim)
    assert np.max(np.abs((lhs - rhs)[:40, :40])) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.0, 2 * math.pi))
def test_displacement_unitary_on_low_block(mag, angle):
    alpha = mag * complex(math.cos(angle), math.sin(angle))
    dim = 48
    d = fock.displacement_matrix(alpha, dim)
    gram = d.conj().T @ d
    block = gram[: dim - 10, : dim - 10]
    assert np.max(np.abs(block - np.eye(dim - 10))) < 1e-9


def test_sideband_matches_displacement_matrix_elements():
    eta = 0.31
    dim = 64
    d = fock.displacement_matrix(1j * eta, dim)
    for n in range(dim - 10):
        assert abs(complex(fock.ladder_elements(1j * eta, 1, n)) - d[n + 1, n]) < 1e-8


@pytest.mark.parametrize("alpha", [0.4 - 0.7j, 1.3j, -1.1 + 0.2j, 2.0, 0.0])
def test_ladder_elements_match_dense_displacement(alpha):
    d = fock.displacement_matrix(alpha, 128)
    n = np.arange(40)
    for offset in range(-3, 4):
        source = n[n + offset >= 0]
        elements = fock.ladder_elements(alpha, offset, source)
        assert np.max(np.abs(elements - d[source + offset, source])) <= 1e-10
        for m in (0, 7, 39):
            if m + offset >= 0:
                assert complex(fock.ladder_elements(alpha, offset, m)) == elements[m - source[0]]


def test_log_factorial_equals_gammaln_bit_for_bit():
    n = np.arange(20003)
    table = fock._log_factorial(n)
    assert np.array_equal(table, gammaln(n + 1.0))  # gammaln of the integers 1..20,003
    assert fock._log_factorial(13) == table[13]


@pytest.mark.parametrize("x", [0.0, 0.01, 0.09, 0.0961, 1.0])
@pytest.mark.parametrize("order", range(4))
def test_laguerre_equals_eval_genlaguerre_bit_for_bit(order, x):
    n = np.arange(600)
    assert np.array_equal(fock._genlaguerre(n, order, x), eval_genlaguerre(n, order, x))


def test_order_19_laguerre_equals_eval_genlaguerre_past_the_binomial_rescale():
    # binom(n + 19, n) passes 1e50 mid-product from n ~ 400 on
    n = np.arange(600)
    assert np.array_equal(fock._genlaguerre(n, 19, 0.0961), eval_genlaguerre(n, 19, 0.0961))


def test_first_order_laguerre_equals_eval_genlaguerre_up_to_n_cap():
    # the sideband couplings coupling_thresholds searches
    n, x = np.arange(fock.N_CAP + 1), abs(1j * 0.31) ** 2
    assert np.array_equal(fock._genlaguerre(n, 1, x), eval_genlaguerre(n, 1, x))


@pytest.mark.parametrize("offset", [20, -20, 25])
def test_ladder_offsets_beyond_the_laguerre_port_raise(offset):
    with pytest.raises(ValueError, match="Laguerre orders"):
        fock.ladder_elements(0.3j, offset, np.arange(20, 30))


def test_experimental_params_are_the_trap_values_plus_field_defaults():
    trap = dict(omega_z=2 * math.pi * 2.13e6, delta=2 * math.pi * 100e3,
                omega_d=2 * math.pi * 0.24e6, eta=0.31)
    assert fock.experimental_params() == fock.SimParams(**trap)
    assert fock.experimental_params(eta=0.2, dim=64) == fock.SimParams(**{**trap, "eta": 0.2, "dim": 64})


def test_sideband_peak_and_collapse_indices():
    g1, g2 = fock.coupling_thresholds(0.31)
    assert g1 == 8
    assert g2 == 37
    mags = fock.sideband_magnitudes(0.31, 40)
    assert mags[37] / mags[0] < 0.02


def test_sideband_linear_regime_ratio():
    ratio = abs(fock.ladder_elements(0.001j, 1, 3)) / abs(fock.ladder_elements(0.001j, 1, 0))
    assert ratio == pytest.approx(2.0, abs=1e-3)


def test_threshold_scaling_with_smaller_eta():
    g1, _ = fock.coupling_thresholds(0.1)
    assert abs(g1 - 85) <= 1


def test_means_match_per_vector_loop():
    rng = np.random.default_rng(11)

    def stack(*shape):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return amps / (np.linalg.norm(amps, axis=-1, keepdims=True) * 2.0)

    amps = stack(5, 2, 40)
    amps[2, 1] = 0.0
    stacks = [
        amps,
        stack(20, 2, 40)[::3],  # a strided view
        stack(7, 2, 3, 40)[:, :, 1],  # one pulse of a batched (samples, 2, pulses, dim) run
        stack(6, 40),  # one branch of a history
        stack(300, 2, 40),
    ]
    n = np.arange(40)
    for amps in stacks:
        mean_n, mean_a = fock.mean_n(amps), fock.mean_a(amps)
        for idx in np.ndindex(amps.shape[:-1]):
            a = amps[idx]
            p = np.abs(a) ** 2
            total = float(np.vdot(a, a).real)
            want_n = float(n @ p / p.sum()) if total > 0.0 else 0.0
            want_a = complex(np.sum(np.conj(a[:-1]) * np.sqrt(n[1:]) * a[1:]) / total) if total > 0.0 else 0j
            assert mean_n[idx] == want_n and fock.mean_n(a) == want_n
            assert mean_a[idx] == want_a and fock.mean_a(a) == want_a


def test_states_are_immutable():
    state = fock.coherent_state(1.0, 32)
    with pytest.raises(ValueError):
        state[0] = 0.0


def test_sim_params_validation():
    with pytest.raises(ValueError):
        fock.SimParams(omega_z=1.0, delta=0.0, omega_d=1.0, eta=-0.1)
    with pytest.raises(ValueError):
        fock.SimParams(omega_z=1.0, delta=0.0, omega_d=1.0, eta=0.3, dim=8)
    with pytest.raises(ValueError):
        fock.SimParams(omega_z=1.0, delta=0.0, omega_d=1.0, eta=0.3, level="FULL")
    with pytest.raises(ValueError):
        fock.SimParams(omega_z=1.0, delta=0.0, omega_d=1.0, eta=0.3, force_ratio=-1.5)


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", math.inf), ("omega_z", math.nan), ("omega_z", math.inf),
    ("delta", math.nan), ("delta", math.inf), ("delta", -math.inf),
    ("omega_d", math.nan), ("omega_d", math.inf), ("force_ratio", math.nan),
    ("z0", math.nan), ("z0", math.inf), ("dim", 32.5),
])
def test_sim_params_reject_non_finite_values(field, value):
    with pytest.raises(ConfigError, match=field):
        fock.experimental_params(**{field: value})


def test_half_turn_needs_a_detuning():
    assert fock.experimental_params(delta=-2.0).t_half_turn == math.pi / 2.0
    with pytest.raises(ConfigError, match="delta"):
        fock.experimental_params(delta=0.0).t_half_turn
