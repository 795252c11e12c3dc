"""Reference forms the tests check the library against: the dense ladder
operators, the dense drive Hamiltonian, the linear-drive arc radius, the pulse-by-pulse stepwise
excitation, the kick deviation, the Fock-space kick fidelity and the Fock-space kick train."""

import dataclasses
import functools
import math

import numpy as np

from ionwalk import dynamics as dyn
from ionwalk import fock, kicks


def lowering_op(dim: int) -> np.ndarray:
    """The truncated annihilation operator a, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def raising_op(dim: int) -> np.ndarray:
    """The truncated creation operator a^dag."""
    return np.diag(np.sqrt(np.arange(1, dim)), -1).astype(complex)


def stencil_offsets(stencil: dyn.DriveStencil) -> np.ndarray:
    """Level offset s = P - j of each stencil column j."""
    return stencil.reach - np.arange(stencil.elements.shape[1])


def hamiltonian(params, t: float) -> np.ndarray:
    """Dense Hamiltonian on coin (x) motion at time t.

    Basis ordering is coin-major with |T> first, as in
    ``HybridState.amps``: index b*dim + n for coin block b in (T, H).
    """
    dim = params.dim
    stencil = dyn.drive_stencil(params)
    rows = np.broadcast_to(np.arange(dim)[:, None], stencil.elements.shape)
    cols = rows - stencil_offsets(stencil)
    inside = (cols >= 0) & (cols < dim)
    w = np.zeros((dim, dim), dtype=complex)
    w[rows[inside], cols[inside]] = (stencil.elements * stencil.factors(t))[inside]
    coin = np.diag([1.0, params.force_ratio]) * (params.omega_d / 2.0)
    return np.kron(coin, w)


def lda_radius(params) -> float:
    """Radius eta*omega_d/(2*delta) of the detuned-drive arc (full-force branch)."""
    if params.delta == 0.0:
        return math.inf
    return params.eta * params.omega_d / (2.0 * abs(params.delta))


def sequential_stepwise(params, n_pulses: int) -> dyn.StepwiseResult:
    """``stepwise_excitation`` one pulse at a time: a sampled ``propagate``
    from the end of the previous pulse, advanced by the wait; pulse and
    wait last ``t_half_turn``."""
    span = params.t_half_turn
    state = dyn.ground_hybrid(params.dim)
    segments = []
    for _ in range(n_pulses):
        state, times, amps = dyn.propagate(state, params, span, span / 50.0)
        segments.append((times, amps))
        state = state.with_time(state.time + span)
    return dyn.StepwiseResult(final=state, segments=segments)


def kick_deviation(alpha: complex, kp: kicks.KickParams, direction: int = 1) -> float:
    """Norm of (U - U0) applied to |H>|alpha>, U the full kick and U0 the ideal one."""
    initial = dyn.HybridState.product("H", fock.coherent_state(alpha, kp.dim))
    psi_ideal = kicks.kick_ideal(kp, direction) @ initial.amps.ravel()
    return float(np.linalg.norm(kicks.kick_full(initial, kp, direction).amps.ravel() - psi_ideal))


def fock_kick_dim(alpha: complex) -> int:
    """Fock levels that hold a kick of |alpha> without displaced frames."""
    return max(64, math.ceil((abs(alpha) + 6.0) ** 2))


def fock_kick_fidelity(alpha: complex, kp: kicks.KickParams, direction: int = 1) -> float:
    """``kick_fidelity`` without frames: ``kick_full`` at beta = 0 on |H>|alpha>
    in ``fock_kick_dim(alpha)`` levels (``kp.dim`` is ignored), against the
    dense ideal kick, with the free flight removed."""
    kp = dataclasses.replace(kp, dim=fock_kick_dim(alpha))
    initial, psi_ideal = _fock_kick_pair(alpha, kp.eta, kp.dim, direction)
    undo_rotation = np.exp(1j * kp.omega_z * kp.t_p * np.arange(kp.dim))
    psi = kicks.kick_full(initial, kp, direction).amps * undo_rotation
    return float(abs(np.vdot(psi_ideal, psi.ravel())) ** 2)


@functools.cache
def _fock_kick_pair(alpha: complex, eta: float, dim: int, direction: int):
    """|H>|alpha> on ``dim`` levels and its dense ideal kick (t_p and omega_z
    do not enter it)."""
    initial = dyn.HybridState.product("H", fock.coherent_state(alpha, dim))
    kp = kicks.KickParams(t_p=1e-9, eta=eta, omega_z=0.0, dim=dim)
    return initial, kicks.kick_ideal(kp, direction) @ initial.amps.ravel()


def kick_train(n_kicks: int, alternate: bool, kp: kicks.KickParams) -> tuple[dyn.HybridState, float]:
    """``n_kicks`` full kicks from |H>|0>, every other one reversed when
    ``alternate``: the final state and its fidelity against the product of
    dense ideal kicks, with the free flight removed as in ``kick_fidelity``.
    Alternating trains add up the per-kick displacement; same-direction
    pairs cancel."""
    state = dyn.HybridState.product("H", fock.coherent_state(0.0, kp.dim))
    psi_ideal = state.amps.ravel()
    for j in range(n_kicks):
        direction = (-1) ** (j + 1) if alternate else 1
        state = kicks.kick_full(state, kp, direction)
        psi_ideal = kicks.kick_ideal(kp, direction) @ psi_ideal
    undo_rotation = np.exp(1j * kp.omega_z * np.arange(kp.dim) * n_kicks * kp.t_p)
    return state, float(abs(np.vdot(psi_ideal, (state.amps * undo_rotation).ravel())) ** 2)
