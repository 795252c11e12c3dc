"""Short-pulse (photon-kick) shift protocol: exact kick operator, full
integration including the trap rotation, and fidelity-threshold analysis.

A kick is a coin pi pulse fast enough that the free harmonic motion during
the pulse is negligible; it then acts as a coin flip combined with a
momentum displacement.  The finite trap frequency makes the usable pulse
duration shrink with the motional amplitude, and the threshold depends on
the oscillation phase at the moment of the kick: kicks at the turning
point (real alpha) tolerate much longer pulses than kicks at the center
of the trap (imaginary alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoThreshold, TruncationError
from .dynamics import HybridState
from .fock import (
    MotionalState,
    coherent_state,
    coherent_truncated_norm_sq,
    displacement_matrix,
)

# Pulse durations below this violate the adiabatic elimination behind the
# two-photon kick Hamiltonian.
MIN_PULSE = 5e-12

# Reference threshold-curve coefficients (ln T = c0 + c1 ln|a| + c2 ln^2|a|)
# for f = 0.99 at the experimental trap frequency, fitted over |alpha| <= 10.
CENTER_KICK_COEFFS = (-17.55, -0.63, -0.05)   # kick at the trap center (imaginary alpha)
TURNING_KICK_COEFFS = (-17.03, -0.02, -0.1)   # kick at the turning point (real alpha)


@dataclass(frozen=True)
class KickParams:
    """Pi-pulse kick parameters; omega * t_p = pi is enforced."""

    omega: float
    t_p: float
    eta: float
    omega_z: float
    dim: int

    def __post_init__(self):
        if self.t_p <= MIN_PULSE:
            raise ValueError(f"t_p must exceed {MIN_PULSE:.0e} s")
        if abs(self.omega * self.t_p - math.pi) > 1e-9:
            raise ValueError("omega * t_p must equal pi")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.omega_z < 0.0:
            raise ValueError("omega_z must be nonnegative")
        if self.dim < 16:
            raise ValueError("dim must be at least 16")


def pi_pulse(t_p: float, eta: float, omega_z: float, dim: int) -> KickParams:
    return KickParams(omega=math.pi / t_p, t_p=t_p, eta=eta, omega_z=omega_z, dim=dim)


def kick_ideal(kp: KickParams, direction: int = 1) -> np.ndarray:
    """Instantaneous-kick operator on coin (x) motion (blocks (H, T)).

    Flips the coin and displaces the motion by +- i eta depending on the
    coin state; the trap rotation is neglected.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    dim = kp.dim
    d_up = displacement_matrix(1j * direction * kp.eta, dim)
    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    # sigma_plus = |T><H| carries D(i eta d); sigma_minus = |H><T| its inverse
    u[dim:, :dim] = -1j * d_up
    u[:dim, dim:] = -1j * d_up.conj().T
    return u


def _hybrid_to_vec(state: HybridState) -> np.ndarray:
    return np.concatenate([state.h_part.amps, state.t_part.amps])


def kick_full(state: HybridState, kp: KickParams, direction: int = 1) -> HybridState:
    """RK4 integration of the kick including the trap term omega_z a^dag a."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    dim = kp.dim
    if state.dim != dim:
        raise ValueError("state dim does not match kick dim")
    d_up = displacement_matrix(1j * direction * kp.eta, dim)
    d_dn = d_up.conj().T
    n_diag = np.arange(dim)
    half_omega = kp.omega / 2.0

    rates = [200.0]
    fast = max(kp.omega, kp.omega_z * dim)
    rates.append(kp.t_p * fast * 100.0 / (2.0 * math.pi))
    n_steps = max(1, math.ceil(max(rates)))
    h = kp.t_p / n_steps

    psi_h = state.h_part.amps.astype(complex)
    psi_t = state.t_part.amps.astype(complex)

    def deriv(y_h, y_t):
        d_h = -1j * (half_omega * (d_dn @ y_t) + kp.omega_z * n_diag * y_h)
        d_t = -1j * (half_omega * (d_up @ y_h) + kp.omega_z * n_diag * y_t)
        return d_h, d_t

    for _ in range(n_steps):
        k1h, k1t = deriv(psi_h, psi_t)
        k2h, k2t = deriv(psi_h + 0.5 * h * k1h, psi_t + 0.5 * h * k1t)
        k3h, k3t = deriv(psi_h + 0.5 * h * k2h, psi_t + 0.5 * h * k2t)
        k4h, k4t = deriv(psi_h + h * k3h, psi_t + h * k3t)
        psi_h = psi_h + (h / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
        psi_t = psi_t + (h / 6.0) * (k1t + 2 * k2t + 2 * k3t + k4t)

    leak = float(np.sum(np.abs(psi_h[-10:]) ** 2) + np.sum(np.abs(psi_t[-10:]) ** 2))
    if leak >= 1e-6:
        raise TruncationError(f"kick leaked {leak:.3e} into the guard band")
    return HybridState(MotionalState(psi_t), MotionalState(psi_h), state.time + kp.t_p)


def coherent_hybrid(alpha: complex, dim: int, coin: str = "H") -> HybridState:
    """|coin> (x) |alpha> on the truncated basis."""
    motional = coherent_state(alpha, dim)
    zero = MotionalState(np.zeros(dim, dtype=complex))
    if coin == "H":
        return HybridState(zero, motional)
    if coin == "T":
        return HybridState(motional, zero)
    raise ValueError("coin must be 'H' or 'T'")


def _undo_free_rotation(vec: np.ndarray, dim: int, omega_z: float, elapsed: float) -> np.ndarray:
    phases = np.exp(1j * omega_z * np.arange(dim) * elapsed)
    out = vec.copy()
    out[:dim] *= phases
    out[dim:] *= phases
    return out


def kick_fidelity(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Fidelity of the full kick against an instantaneous kick plus free flight.

    The harmonic rotation the ion undergoes during the pulse happens with
    or without the kick and is absorbed by the co-rotating frame, so the
    comparison removes it; what remains is the genuine interference of the
    trap evolution with the kick, which depends on the oscillation phase.
    """
    initial = coherent_hybrid(alpha, kp.dim, "H")
    full = kick_full(initial, kp, direction)
    vec_full = _undo_free_rotation(_hybrid_to_vec(full), kp.dim, kp.omega_z, kp.t_p)
    ideal_vec = kick_ideal(kp, direction) @ _hybrid_to_vec(initial)
    overlap = np.vdot(ideal_vec, vec_full)
    return float(abs(overlap) ** 2)


def kick_deviation(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Norm of (U - U0) applied to |H>|alpha>."""
    initial = coherent_hybrid(alpha, kp.dim, "H")
    full = _hybrid_to_vec(kick_full(initial, kp, direction))
    ideal = kick_ideal(kp, direction) @ _hybrid_to_vec(initial)
    return float(np.linalg.norm(full - ideal))


def error_bound(alpha: complex, omega_z: float, t_p: float) -> float:
    """First-order estimate of the kick error, t_p * omega_z * |alpha|^2."""
    return t_p * omega_z * abs(alpha) ** 2


def max_duration(alpha: complex, omega_z: float, epsilon: float) -> float:
    """Longest pulse with first-order error below epsilon (inf at alpha=0)."""
    a2 = abs(alpha) ** 2
    if a2 == 0.0 or omega_z == 0.0:
        return math.inf
    return epsilon / (omega_z * a2)


def required_dim(alpha: complex) -> int:
    """Truncation heuristic for kick studies at motional amplitude alpha."""
    return max(64, int(math.ceil((abs(alpha) + 6.0) ** 2)))


def fidelity_threshold(
    alpha: complex,
    f_min: float,
    eta: float,
    omega_z: float,
    dim: int | None = None,
    t_floor: float = 1.2 * MIN_PULSE,
    t_ceiling: float = 1e-5,
    max_iter: int = 20,
    rel_tol: float = 0.01,
) -> tuple[float, float, list[tuple[float, float]]]:
    """Largest pulse duration whose kick fidelity still reaches ``f_min``.

    Bisects on log t_p; returns (t_p, fidelity at t_p, sampled (t_p, f)
    pairs).  Raises NoThreshold when even the shortest valid pulse falls
    below ``f_min``.
    """
    if dim is None:
        dim = required_dim(alpha)
    if coherent_truncated_norm_sq(alpha, dim) < 1.0 - 1e-9:
        raise TruncationError(f"dim {dim} too small for |alpha|={abs(alpha):.1f}")

    samples: list[tuple[float, float]] = []

    def f_at(t_p: float) -> float:
        val = kick_fidelity(alpha, pi_pulse(t_p, eta, omega_z, dim))
        samples.append((t_p, val))
        return val

    lo = t_floor
    f_lo = f_at(lo)
    if f_lo < f_min:
        raise NoThreshold(
            f"fidelity {f_lo:.6f} < {f_min} already at the validity floor"
        )
    hi = lo * 4.0
    f_hi = f_at(hi)
    while f_hi >= f_min:
        lo, f_lo = hi, f_hi
        hi *= 4.0
        if hi > t_ceiling:
            return t_ceiling, f_hi, samples
        f_hi = f_at(hi)
    for _ in range(max_iter):
        if hi / lo < 1.0 + rel_tol:
            break
        mid = math.sqrt(lo * hi)
        f_mid = f_at(mid)
        if f_mid >= f_min:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, f_lo, samples


def fit_threshold_curve(pairs) -> tuple[float, float, float]:
    """Quadratic fit of ln T against ln|alpha|; returns (c0, c1, c2)."""
    pairs = list(pairs)
    if len(pairs) < 5:
        raise ValueError("need at least 5 (|alpha|, T) pairs")
    x = np.log([abs(a) for a, _ in pairs])
    y = np.log([t for _, t in pairs])
    c2, c1, c0 = np.polyfit(x, y, 2)
    return float(c0), float(c1), float(c2)


def predict_threshold(coeffs, alpha_mag: float) -> float:
    """Evaluate a threshold curve ln T = c0 + c1 ln|a| + c2 ln^2|a|."""
    c0, c1, c2 = coeffs
    la = math.log(alpha_mag)
    return math.exp(c0 + c1 * la + c2 * la * la)


def kick_train(
    n_kicks: int,
    alternate: bool,
    kp: KickParams,
    initial: HybridState | None = None,
) -> tuple[HybridState, float]:
    """Repeated kicks, optionally alternating the effective wave vector.

    Returns the final state and its fidelity against the composition of
    ideal kicks (free flight removed, as in :func:`kick_fidelity`).
    Alternating trains accumulate the per-kick displacement into a net
    shift; same-direction pairs cancel.
    """
    if n_kicks < 0:
        raise ValueError("n_kicks must be nonnegative")
    if initial is None:
        initial = coherent_hybrid(0.0, kp.dim, "H")
    state = initial
    ideal_vec = _hybrid_to_vec(initial)
    for j in range(n_kicks):
        direction = (-1) ** (j + 1) if alternate else 1
        state = kick_full(state, kp, direction)
        ideal_vec = kick_ideal(kp, direction) @ ideal_vec
    elapsed = n_kicks * kp.t_p
    vec_full = _undo_free_rotation(_hybrid_to_vec(state), kp.dim, kp.omega_z, elapsed)
    overlap = np.vdot(ideal_vec, vec_full)
    return state, float(abs(overlap) ** 2)
