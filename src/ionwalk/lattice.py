"""Exact simulation of the idealized walk on a coherent-state lattice.

The walker lives on integer positions k encoded as coherent states
``|k * step>`` along one line of phase space.  Because all displacements
are collinear, composing them picks up no extra phases and the walk is
represented exactly by one complex amplitude pair per lattice site,
independent of any Fock truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class WalkSpec:
    """Walk configuration: steps, lattice spacing, coin phase, symmetry."""

    n_steps: int
    step_size: float
    phi: float = 0.0
    symmetric: bool = False

    def __post_init__(self):
        if self.n_steps < 0:
            raise ConfigError("n_steps must be nonnegative")
        if self.step_size <= 0.0:
            raise ConfigError("step_size must be positive")


@dataclass(frozen=True)
class LatticeState:
    """Amplitude pairs (c_k^T, c_k^H) on positions k in [-n_steps, n_steps].

    Arrays are indexed by ``k + n_steps``.  The stored amplitudes are the
    lattice coefficients; position probabilities additionally weight them
    with the coherent-state overlaps.
    """

    c_t: np.ndarray
    c_h: np.ndarray
    step_size: float
    n_steps: int

    def __post_init__(self):
        c_t = np.asarray(self.c_t, dtype=complex)
        c_h = np.asarray(self.c_h, dtype=complex)
        size = 2 * self.n_steps + 1
        if c_t.shape != (size,) or c_h.shape != (size,):
            raise ValueError("coefficient arrays must have length 2*n_steps + 1")
        if self.step_size <= 0.0:
            raise ConfigError("step_size must be positive")
        total = float(np.sum(np.abs(c_t) ** 2 + np.abs(c_h) ** 2))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"lattice norm {total} deviates from 1")
        c_t = c_t.copy()
        c_h = c_h.copy()
        c_t.setflags(write=False)
        c_h.setflags(write=False)
        object.__setattr__(self, "c_t", c_t)
        object.__setattr__(self, "c_h", c_h)

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.n_steps, self.n_steps + 1)

    def coeff(self, k: int) -> tuple[complex, complex]:
        idx = k + self.n_steps
        if not 0 <= idx < self.c_t.size:
            return 0.0 + 0.0j, 0.0 + 0.0j
        return complex(self.c_t[idx]), complex(self.c_h[idx])

    def lattice_norm(self) -> float:
        return float(np.sum(np.abs(self.c_t) ** 2 + np.abs(self.c_h) ** 2))


def initial_state(step_size: float, coin: str = "T") -> LatticeState:
    """Walker at the origin in a definite coin state."""
    c_t = np.zeros(1, dtype=complex)
    c_h = np.zeros(1, dtype=complex)
    if coin == "T":
        c_t[0] = 1.0
    elif coin == "H":
        c_h[0] = 1.0
    else:
        raise ValueError("coin must be 'T' or 'H'")
    return LatticeState(c_t, c_h, step_size, 0)


def apply_coin(state: LatticeState, theta: float, phi: float) -> LatticeState:
    """Rotate every amplitude pair by R(theta, phi).

    In the (H, T) ordering the matrix is
    ``[[cos(t/2), e^{i phi} sin(t/2)], [-e^{-i phi} sin(t/2), cos(t/2)]]``.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    eip = cmath.exp(1j * phi)
    new_h = c * state.c_h + eip * s * state.c_t
    new_t = -np.conj(eip) * s * state.c_h + c * state.c_t
    return LatticeState(new_t, new_h, state.step_size, state.n_steps)


def apply_shift(state: LatticeState, direction: int = 1) -> LatticeState:
    """Move the T component one site up and the H component one site down.

    ``direction=-1`` applies the inverse shift.  Collinear displacements
    compose without extra phases, so the lattice bookkeeping is exact.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    n = state.n_steps + 1
    size = 2 * n + 1
    c_t = np.zeros(size, dtype=complex)
    c_h = np.zeros(size, dtype=complex)
    if direction == 1:
        c_t[2:] = state.c_t
        c_h[:-2] = state.c_h
    else:
        c_t[:-2] = state.c_t
        c_h[2:] = state.c_h
    return LatticeState(c_t, c_h, state.step_size, n)


def walk_step(state: LatticeState, theta: float, phi: float) -> LatticeState:
    return apply_shift(apply_coin(state, theta, phi))


def run_walk(spec: WalkSpec, coin: str = "T") -> LatticeState:
    """Run the full walk from ``|coin>|0>`` with the configured coin phases."""
    state = initial_state(spec.step_size, coin)
    for step in range(spec.n_steps):
        phi = spec.phi
        if spec.symmetric and step > 0:
            phi = spec.phi + math.pi / 2.0
        state = walk_step(state, math.pi / 2.0, phi)
    return state


def _overlap_kernel(step_size: float, offsets: np.ndarray) -> np.ndarray:
    return np.exp(-(offsets.astype(float) ** 2) * step_size**2 / 2.0)


def position_probabilities(
    state: LatticeState,
    l_values: np.ndarray | None = None,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of finding the walker at lattice positions.

    Returns ``(l_values, probs)``.  Non-orthogonality is included through
    the Gaussian overlap of neighboring coherent states; with ``normalize``
    the probabilities are rescaled to sum to one over ``l_values``.
    """
    if l_values is None:
        l_values = state.positions
    l_values = np.asarray(l_values, dtype=int)
    offsets = state.positions[None, :] - l_values[:, None]
    kernel = _overlap_kernel(state.step_size, offsets)
    amp_t = kernel @ state.c_t
    amp_h = kernel @ state.c_h
    probs = np.abs(amp_t) ** 2 + np.abs(amp_h) ** 2
    if normalize:
        total = probs.sum()
        if total > 0.0:
            probs = probs / total
    return l_values, probs


def coin_probabilities(state: LatticeState) -> tuple[float, float]:
    """Exact (P_T, P_H) including position-state overlaps (Gram weighting)."""
    pos = state.positions
    gram = _overlap_kernel(state.step_size, pos[None, :] - pos[:, None])
    p_t = float(np.real(np.conj(state.c_t) @ gram @ state.c_t))
    p_h = float(np.real(np.conj(state.c_h) @ gram @ state.c_h))
    return p_t, p_h


def std_dev(state: LatticeState) -> float:
    """Standard deviation of the position index under the renormalized P.

    The sampled positions extend past the amplitude support by the overlap
    width ~1/step_size; for small spacings even a single occupied site
    spreads its probability over many neighbors.
    """
    pad = int(math.ceil(6.0 / state.step_size))
    span = state.n_steps + pad
    l_values = np.arange(-span, span + 1)
    l_values, probs = position_probabilities(state, l_values, normalize=True)
    k = l_values.astype(float)
    mean = float(k @ probs)
    mean_sq = float((k**2) @ probs)
    var = max(mean_sq - mean**2, 0.0)
    return math.sqrt(var)


def sigma_series(
    step_size: float,
    n_max: int,
    phi: float = 0.0,
    symmetric: bool = False,
    coin: str = "T",
) -> np.ndarray:
    """sigma_N for N = 0..n_max of one walk, computed incrementally."""
    state = initial_state(step_size, coin)
    sigmas = [std_dev(state)]
    for step in range(n_max):
        use_phi = phi
        if symmetric and step > 0:
            use_phi = phi + math.pi / 2.0
        state = walk_step(state, math.pi / 2.0, use_phi)
        sigmas.append(std_dev(state))
    return np.asarray(sigmas)


def scaling_factor(step_size: float, n_max: int = 100, phi: float = 0.0) -> float:
    """Slope of sigma_N vs N fitted over the late half N in [n_max/2, n_max]."""
    if n_max < 40:
        raise ConfigError("n_max must be at least 40 for a stable slope fit")
    sigmas = sigma_series(step_size, n_max, phi=phi)
    lo = n_max // 2
    n = np.arange(lo, n_max + 1, dtype=float)
    slope, _ = np.polyfit(n, sigmas[lo:], 1)
    return float(slope)
