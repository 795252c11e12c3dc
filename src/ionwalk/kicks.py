"""Short-pulse (photon-kick) shift protocol: exact kick operator, exact
propagation including the trap rotation, and fidelity-threshold analysis.

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
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .dynamics import HybridState
from .errors import ConfigError, NoThreshold
from .fock import (
    MotionalState,
    check_leakage,
    coherent_state,
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
            raise ConfigError(f"t_p must exceed {MIN_PULSE:.0e} s")
        if abs(self.omega * self.t_p - math.pi) > 1e-9:
            raise ConfigError("omega * t_p must equal pi")
        if self.eta <= 0.0:
            raise ConfigError("eta must be positive")
        if self.omega_z < 0.0:
            raise ConfigError("omega_z must be nonnegative")
        if self.dim < 16:
            raise ConfigError("dim must be at least 16")


def pi_pulse(t_p: float, eta: float, omega_z: float, dim: int) -> KickParams:
    return KickParams(omega=math.pi / t_p, t_p=t_p, eta=eta, omega_z=omega_z, dim=dim)


# D(i eta d) per (d * eta, dim), built once and kept read-only; shared by
# every kick, ideal kick and fidelity evaluation of a threshold search.
_KICK_DISP_CACHE: dict[tuple[float, int], np.ndarray] = {}


def _kick_displacement(kp: KickParams, direction: int) -> np.ndarray:
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    key = (direction * kp.eta, kp.dim)
    cached = _KICK_DISP_CACHE.get(key)
    if cached is None:
        cached = displacement_matrix(1j * key[0], kp.dim)
        cached.setflags(write=False)
        _KICK_DISP_CACHE[key] = cached
    return cached


def kick_ideal(kp: KickParams, direction: int = 1) -> np.ndarray:
    """Instantaneous-kick operator on coin (x) motion (blocks (T, H)).

    Flips the coin and displaces the motion by +- i eta depending on the
    coin state; the trap rotation is neglected.
    """
    n = 2 * kp.dim
    return _apply_ideal(np.eye(n, dtype=complex).reshape(2, kp.dim, n), kp, direction).reshape(n, n)


def _apply_ideal(psi: np.ndarray, kp: KickParams, direction: int) -> np.ndarray:
    """The ideal kick applied to packed rows (T, H) of ``psi``."""
    d_up = _kick_displacement(kp, direction)
    # sigma_plus = |T><H| carries D(i eta d); sigma_minus = |H><T| its inverse
    return -1j * np.stack([d_up @ psi[1], d_up.conj().T @ psi[0]])


def kick_full(state: HybridState, kp: KickParams, direction: int = 1) -> HybridState:
    """Exact kick including the trap term omega_z a^dag a.

    The kick Hamiltonian H = [[omega_z n, (omega/2) D], [(omega/2) D^dag,
    omega_z n]] on rows (T, H) is time independent, so the pulse is the
    action of exp(A), A = -i t_p H, on the state (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)).
    """
    dim = kp.dim
    if state.dim != dim:
        raise ValueError("state dim does not match kick dim")
    d_up = _kick_displacement(kp, direction)
    d_dn = np.ascontiguousarray(d_up.conj().T)
    rotation = -1j * kp.t_p * kp.omega_z * np.arange(dim)
    flip = -1j * kp.t_p * kp.omega / 2.0

    def apply_a(x: np.ndarray) -> np.ndarray:
        x = x.reshape(2, dim)
        out = rotation * x
        out[0] += flip * (d_up @ x[1])
        out[1] += flip * (d_dn @ x[0])
        return out.ravel()

    # H is Hermitian, so the adjoint of A is -A
    gen = LinearOperator((2 * dim, 2 * dim), matvec=apply_a, rmatvec=lambda x: -apply_a(x),
                         dtype=complex)
    # onenormest (it sizes the Taylor steps) draws sign vectors from NumPy's
    # global generator: seed it so a kick is bit-reproducible, then restore it.
    # Its overflow in divide at long pulses and large dim leaves the action
    # accurate; MotionalState and the guard band still check the result.
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            psi = expm_multiply(gen, state.packed().ravel(),
                                traceA=-1j * kp.t_p * kp.omega_z * dim * (dim - 1))
    finally:
        np.random.set_state(rng_state)
    psi = psi.reshape(2, dim)
    check_leakage(psi, "kick")
    return HybridState.from_packed(psi, state.time + kp.t_p)


def coherent_hybrid(alpha: complex, dim: int, coin: str = "H") -> HybridState:
    """|coin> (x) |alpha> on the truncated basis."""
    motional = coherent_state(alpha, dim)
    zero = MotionalState(np.zeros(dim, dtype=complex))
    if coin == "H":
        return HybridState(zero, motional)
    if coin == "T":
        return HybridState(motional, zero)
    raise ValueError("coin must be 'H' or 'T'")


def _undo_free_rotation(psi: np.ndarray, omega_z: float, elapsed: float) -> np.ndarray:
    return psi * np.exp(1j * omega_z * np.arange(psi.shape[1]) * elapsed)


def kick_fidelity(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Fidelity of the full kick against an instantaneous kick plus free flight.

    The harmonic rotation the ion undergoes during the pulse happens with
    or without the kick and is absorbed by the co-rotating frame, so the
    comparison removes it; what remains is the genuine interference of the
    trap evolution with the kick, which depends on the oscillation phase.
    """
    initial = coherent_hybrid(alpha, kp.dim, "H")
    full = kick_full(initial, kp, direction)
    psi_full = _undo_free_rotation(full.packed(), kp.omega_z, kp.t_p)
    psi_ideal = _apply_ideal(initial.packed(), kp, direction)
    return float(abs(np.vdot(psi_ideal, psi_full)) ** 2)


def kick_deviation(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Norm of (U - U0) applied to |H>|alpha>."""
    initial = coherent_hybrid(alpha, kp.dim, "H")
    full = kick_full(initial, kp, direction).packed()
    return float(np.linalg.norm(full - _apply_ideal(initial.packed(), kp, direction)))


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
    below ``f_min``, TruncationError when ``dim`` cannot hold |alpha>.
    """
    if dim is None:
        dim = required_dim(alpha)

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
    psi_ideal = initial.packed()
    for j in range(n_kicks):
        direction = (-1) ** (j + 1) if alternate else 1
        state = kick_full(state, kp, direction)
        psi_ideal = _apply_ideal(psi_ideal, kp, direction)
    psi_full = _undo_free_rotation(state.packed(), kp.omega_z, n_kicks * kp.t_p)
    return state, float(abs(np.vdot(psi_ideal, psi_full)) ** 2)
