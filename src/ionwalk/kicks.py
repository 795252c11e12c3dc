"""Short-pulse (photon-kick) shift protocol: exact kick operator, exact
propagation including the trap rotation (a Chebyshev expansion on the kick
Hamiltonian's known spectral interval), and fidelity-threshold analysis.

A kick is a coin pi pulse fast enough that the free harmonic motion during
the pulse is negligible; it then acts as a coin flip combined with a
momentum displacement.  The finite trap frequency makes the usable pulse
duration shrink with the motional amplitude, and the threshold depends on
the oscillation phase at the moment of the kick: kicks at the turning
point (real alpha) tolerate much longer pulses than kicks at the center
of the trap (imaginary alpha).  Kicks act on the coin rows (T, H) of
``HybridState.amps``.

Every kick runs on real arithmetic.  With Q = diag(i^n), Q a Q^dag = -i a, so
i(a^dag - a) = Q (a + a^dag) Q^dag and D(i eta) = exp(i eta (a + a^dag)) =
Q R Q^dag with R = D(eta) = exp(eta (a^dag - a)).  a^dag - a is a real
antisymmetric matrix, so R is real and orthogonal; D(-i eta) = Q R^T Q^dag.
The trap term omega_z n is real, diagonal and commutes with Q, so in the
basis Q^dag psi the kick Hamiltonian is real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HybridState
from .errors import ConfigError, NoThreshold
from .fock import (
    check_leakage,
    coherent_state,
    displacement_matrix,
    quarter_turns,
)

# Pulse durations below this violate the adiabatic elimination behind the
# two-photon kick Hamiltonian.
MIN_PULSE = 5e-12

# Reference threshold-curve coefficients (ln T = c0 + c1 ln|a| + c2 ln^2|a|)
# for f = 0.99 at the experimental trap frequency, fitted over |alpha| <= 10.
CENTER_KICK_COEFFS = (-17.55, -0.63, -0.05)   # kick at the trap center (imaginary alpha)
TURNING_KICK_COEFFS = (-17.03, -0.02, -0.1)   # kick at the turning point (real alpha)

# Threshold searches: validity floor to ceiling, 1% in t_p, at most 20 bisections.
THRESHOLD_FLOOR = 1.2 * MIN_PULSE
THRESHOLD_CEILING = 1e-5
THRESHOLD_REL_TOL = 0.01


@dataclass(frozen=True)
class KickParams:
    """Pi-pulse kick parameters: a pulse of length t_p at Rabi frequency pi/t_p."""

    t_p: float
    eta: float
    omega_z: float
    dim: int

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not MIN_PULSE < self.t_p < math.inf:
            raise ConfigError(f"t_p must be finite and exceed {MIN_PULSE:.0e} s")
        if not 0.0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")
        if not 0.0 <= self.omega_z < math.inf:
            raise ConfigError("omega_z must be finite and nonnegative")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 16:
            raise ConfigError("dim must be an integer >= 16")


def pi_pulse(t_p: float, eta: float, omega_z: float, dim: int) -> KickParams:
    return KickParams(t_p=t_p, eta=eta, omega_z=omega_z, dim=dim)


# R = Q^dag D(i eta) Q = D(eta) with Q = diag(i^n): real orthogonal, built once
# per (eta, dim) and kept read-only; D(i eta) = Q R Q^dag and D(-i eta) = Q R^T
# Q^dag, so both kick directions and every kick, ideal kick and fidelity
# evaluation of a threshold search share it.
@functools.cache
def _real_kick_displacement(eta: float, dim: int) -> np.ndarray:
    r = np.ascontiguousarray(displacement_matrix(eta, dim).real)
    r.setflags(write=False)
    return r


def _directed(eta: float, dim: int, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """(R_d, R_d^T) for the kick D(i eta d) = Q R_d Q^dag, d = ``direction``."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    r = _real_kick_displacement(eta, dim)
    return (r, r.T) if direction == 1 else (r.T, r)


def kick_ideal(kp: KickParams, direction: int = 1) -> np.ndarray:
    """Instantaneous-kick operator on coin (x) motion (blocks (T, H)).

    Flips the coin and displaces the motion by +- i eta depending on the
    coin state; the trap rotation is neglected.
    """
    up, down = _directed(kp.eta, kp.dim, direction)
    q = quarter_turns(kp.dim)
    u = np.zeros((2, kp.dim, 2, kp.dim), dtype=complex)
    # sigma_plus = |T><H| carries D(i eta d); sigma_minus = |H><T| its inverse
    u[0, :, 1] = -1j * q[:, None] * up * q.conj()
    u[1, :, 0] = -1j * q[:, None] * down * q.conj()
    return u.reshape(2 * kp.dim, 2 * kp.dim)


def _apply_ideal(psi: np.ndarray, eta: float, direction: int) -> np.ndarray:
    """The ideal kick applied to rows (T, H) of ``psi``, laid out as ``HybridState.amps``."""
    up, down = _directed(eta, psi.shape[1], direction)
    q = quarter_turns(psi.shape[1])
    y = (psi * q.conj()).view(float).reshape(2, -1, 2)  # (re, im) pairs
    return -1j * q * np.stack([up @ y[1], down @ y[0]]).view(complex)[..., 0]


def kick_full(state: HybridState, kp: KickParams, direction: int = 1) -> HybridState:
    """Exact kick including the trap term omega_z a^dag a.

    On rows (T, H), t_p H = t_p omega_z n + (pi/2) K with K = [[0, D], [D^dag, 0]]
    is Hermitian and time independent; D = D(i eta) is unitary, so ||K|| = 1 and
    the spectrum lies in [-pi/2, t_p omega_z (dim - 1) + pi/2] (Weyl).  With c, R
    that interval's centre and half-width and Ht = (t_p H - c) / R, the pulse is
    exp(-i t_p H) = e^{-ic} sum_k (2 - delta_k0) (-i)^k J_k(R) T_k(Ht), summed by
    the Chebyshev recurrence (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).
    J_k(R) falls monotonically once k > R: the sum stops at the first such k
    with |J_k(R)| < 1e-16.

    The recurrence runs in the basis Q^dag psi, Q = diag(i^n): i(a^dag - a) =
    Q (a + a^dag) Q^dag gives D(i eta) = Q D(eta) Q^dag, and D(eta), the
    exponential of the real antisymmetric eta (a^dag - a), is real; each term is
    two real products on the rows' (re, im) pairs.
    """
    if state.dim != kp.dim:
        raise ValueError("state dim does not match kick dim")
    up, down = _directed(kp.eta, kp.dim, direction)
    rotation = kp.t_p * kp.omega_z * np.arange(kp.dim)
    centre = rotation[-1] / 2.0
    radius = centre + math.pi / 2.0
    # |J_{R+m}(R)| < 1e-16 by m ~ 12 R^(1/3) (Airy tail), well inside this range
    k = np.arange(int(radius + 20.0 * np.cbrt(radius)) + 30)
    bessel = _bessel_j(len(k), radius)
    n_terms = k[(k > radius) & (np.abs(bessel) < 1e-16)][0]
    # (2 - delta_k0) (-i)^k J_k = w_k for even k and -i w_k for odd k
    weights = 2.0 * np.array([1.0, 1.0, -1.0, -1.0])[k[:n_terms] % 4] * bessel[:n_terms]
    weights[0] = bessel[0]
    # 2 Ht = diag + (pi / R) K in the Q basis, on real (re, im) pairs
    diag = (2.0 * (rotation - centre) / radius)[:, None]
    flip = math.pi / radius
    flipped = np.empty((2, kp.dim, 2))

    def double_scaled(y: np.ndarray) -> np.ndarray:
        np.matmul(up, y[1], out=flipped[0])
        np.matmul(down, y[0], out=flipped[1])
        out = diag * y
        out += flip * flipped
        return out

    q = quarter_turns(kp.dim)
    prev = (state.amps * q.conj()).view(float).reshape(2, kp.dim, 2)
    cur = 0.5 * double_scaled(prev)
    sums = [weights[0] * prev, weights[1] * cur]  # over even and odd k
    for j, weight in enumerate(weights[2:].tolist(), start=2):
        prev, cur = cur, double_scaled(cur) - prev
        sums[j % 2] += weight * cur
    psi = sums[0].view(complex)[..., 0] - 1j * sums[1].view(complex)[..., 0]
    psi *= np.exp(-1j * centre) * q
    check_leakage(psi, "kick")
    return HybridState(psi, state.time + kp.t_p)


def _bessel_j(count: int, r: float) -> np.ndarray:
    """J_0(r) .. J_{count-1}(r) by Miller's backward recurrence (Abramowitz &
    Stegun 9.12; Numerical Recipes 6.5) from J_count = 0, J_{count-1} = 1,
    rescaled past 1e250, normalised by J_0 + 2 sum_k J_2k = 1; accurate to
    rounding while J_{count-1}(r) is negligible (below 1e-41 at kick_full's count)."""
    vals = [0.0] * (count + 1)
    vals[count - 1] = 1.0
    for k in range(count - 1, 0, -1):
        vals[k - 1] = 2.0 * k / r * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals = [v * 1e-250 for v in vals]
    out = np.array(vals[:count])
    return out / (out[0] + 2.0 * out[2::2].sum())


def kick_fidelity(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Fidelity of the full kick against an instantaneous kick plus free flight.

    The harmonic rotation the ion undergoes during the pulse happens with
    or without the kick and is absorbed by the co-rotating frame, so the
    comparison removes it; what remains is the genuine interference of the
    trap evolution with the kick, which depends on the oscillation phase.
    """
    initial, psi_ideal = _ideal_pair(alpha, kp.eta, kp.dim, direction)
    undo_rotation = np.exp(1j * kp.omega_z * np.arange(kp.dim) * kp.t_p)
    psi_full = kick_full(initial, kp, direction).amps * undo_rotation
    return float(abs(np.vdot(psi_ideal, psi_full)) ** 2)


# |H>|alpha> and its ideal kick per (alpha, eta, dim, direction), kept
# read-only: neither depends on t_p or omega_z, so every fidelity evaluation
# of a threshold search shares one pair.
@functools.cache
def _ideal_pair(alpha: complex, eta: float, dim: int, direction: int) -> tuple[HybridState, np.ndarray]:
    initial = HybridState.product("H", coherent_state(alpha, dim))
    psi_ideal = _apply_ideal(initial.amps, eta, direction)
    psi_ideal.setflags(write=False)
    return initial, psi_ideal


def error_bound(alpha: complex, omega_z: float, t_p: float) -> float:
    """First-order estimate of the kick error, t_p * omega_z * |alpha|^2."""
    return t_p * omega_z * abs(alpha) ** 2


def required_dim(alpha: complex) -> int:
    """Truncation heuristic for kick studies at motional amplitude alpha."""
    return max(64, int(math.ceil((abs(alpha) + 6.0) ** 2)))


def fidelity_threshold(
    alpha: complex,
    f_min: float,
    eta: float,
    omega_z: float,
    dim: int | None = None,
) -> tuple[float, float, list[tuple[float, float]]]:
    """Largest pulse duration whose kick fidelity still reaches ``f_min``.

    Quadruples t_p from THRESHOLD_FLOOR, capped at THRESHOLD_CEILING, until
    the fidelity drops below ``f_min``, then bisects on log t_p; returns
    (t_p, fidelity at t_p, sampled (t_p, f) pairs), with (t_p, f) one of the
    samples (the ceiling if it still reaches ``f_min``).  Raises NoThreshold
    when even the shortest valid pulse falls below ``f_min``,
    TruncationError when ``dim`` cannot hold |alpha>.
    """
    if dim is None:
        dim = required_dim(alpha)

    samples: list[tuple[float, float]] = []

    def f_at(t_p: float) -> float:
        val = kick_fidelity(alpha, pi_pulse(t_p, eta, omega_z, dim))
        samples.append((t_p, val))
        return val

    lo = THRESHOLD_FLOOR
    f_lo = f_at(lo)
    if f_lo < f_min:
        raise NoThreshold(
            f"fidelity {f_lo:.6f} < {f_min} already at the validity floor"
        )
    hi, f_hi = lo, f_lo
    while f_hi >= f_min:
        if hi >= THRESHOLD_CEILING:
            return hi, f_hi, samples
        lo, f_lo = hi, f_hi
        hi = min(hi * 4.0, THRESHOLD_CEILING)
        f_hi = f_at(hi)
    for _ in range(20):
        if hi / lo < 1.0 + THRESHOLD_REL_TOL:
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

