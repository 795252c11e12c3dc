"""Exact simulation of the idealized walk on a coherent-state lattice.

The walker lives on integer positions k encoded as coherent states
``|k * step>`` along one line of phase space.  Because all displacements
are collinear, composing them picks up no extra phases and the walk is
represented exactly by one complex amplitude pair per lattice site,
independent of any Fock truncation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterator
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
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ConfigError("n_steps must be a nonnegative integer")
        if not 0.0 < self.step_size < math.inf:  # NaN fails this test too
            raise ConfigError("step_size must be finite and positive")


@dataclass(frozen=True)
class LatticeState:
    """Amplitude pairs (c_k^T, c_k^H) on positions k in [-n_steps, n_steps].

    ``amps`` is a read-only (2, 2*n_steps + 1) array with coin rows (T, H),
    as ``HybridState.amps``, indexed by ``k + n_steps``.  The stored
    amplitudes are the lattice coefficients; position probabilities
    additionally weight them with the coherent-state overlaps.
    """

    amps: np.ndarray
    step_size: float
    n_steps: int

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ConfigError("n_steps must be a nonnegative integer")
        if amps.shape != (2, 2 * self.n_steps + 1):
            raise ValueError("amps must have shape (2, 2*n_steps + 1)")
        if not 0.0 < self.step_size < math.inf:
            raise ConfigError("step_size must be finite and positive")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        total = self.lattice_norm()
        if not abs(total - 1.0) <= 1e-9:  # NaN fails this test too
            raise ValueError(f"lattice norm {total} deviates from 1")

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.n_steps, self.n_steps + 1)

    def lattice_norm(self) -> float:
        return float(np.sum(np.abs(self.amps[0]) ** 2 + np.abs(self.amps[1]) ** 2))


def initial_state(step_size: float) -> LatticeState:
    """Walker at the origin in the coin state |T>."""
    amps = np.zeros((2, 1), dtype=complex)
    amps[0, 0] = 1.0
    return LatticeState(amps, step_size, 0)


def rotate_coin(rows: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) of ``apply_coin`` on the coin rows (T, H) of ``rows``."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    eip = cmath.exp(1j * phi)
    t, h = rows
    return np.stack([-eip.conjugate() * s * h + c * t, c * h + eip * s * t])


def apply_coin(state: LatticeState, theta: float, phi: float) -> LatticeState:
    """Rotate every amplitude pair by R(theta, phi).

    In the coin order (T, H) of ``HybridState.amps`` the matrix is
    ``[[cos(t/2), -e^{-i phi} sin(t/2)], [e^{i phi} sin(t/2), cos(t/2)]]``.
    """
    return LatticeState(rotate_coin(state.amps, theta, phi), state.step_size, state.n_steps)


def apply_shift(state: LatticeState) -> LatticeState:
    """Move the T component one site up and the H component one site down.

    Collinear displacements compose without extra phases, so the lattice
    bookkeeping is exact.
    """
    n = state.n_steps
    amps = np.zeros((2, 2 * n + 3), dtype=complex)
    amps[0, 2:] = state.amps[0]
    amps[1, :-2] = state.amps[1]
    return LatticeState(amps, state.step_size, n + 1)


def coin_phases(n_steps: int, phi: float, symmetric: bool) -> list[float]:
    """Phase of each step's pi/2 coin: ``phi`` throughout, except that a
    symmetric walk adds pi/2 to the first coin, so its first shift starts
    from (|T> + i e^{i phi}|H>)/sqrt(2)."""
    return [phi + math.pi / 2.0 if symmetric and step == 0 else phi for step in range(n_steps)]


def walk_states(spec: WalkSpec) -> Iterator[LatticeState]:
    """States after 0..n_steps steps from |T>|0>, coins by ``coin_phases``."""
    state = initial_state(spec.step_size)
    yield state
    for phi in coin_phases(spec.n_steps, spec.phi, spec.symmetric):
        state = apply_shift(apply_coin(state, math.pi / 2.0, phi))
        yield state


def _overlap_band(step_size: float, reach: int) -> np.ndarray:
    """Overlap kernel exp(-d^2 s^2 / 2) for |d| <= ``reach``, cut where it
    underflows: exp(-x) is exactly 0.0 in float64 for x > 745.14."""
    reach = min(reach, int(math.sqrt(2.0 * 746.0) / step_size))
    offsets = np.arange(-reach, reach + 1)
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
    n = state.n_steps
    kernel = _overlap_band(state.step_size, int(np.max(np.abs(l_values), initial=0)) + n)
    # convolution index of position l; beyond n + R every overlap is 0.0
    idx = l_values + (kernel.size - 1) // 2 + n
    inside = (idx >= 0) & (idx < kernel.size + 2 * n)
    probs = np.zeros(l_values.size)
    probs[inside] = sum(np.abs(np.convolve(c, kernel)[idx[inside]]) ** 2
                        for c in state.amps)
    if normalize:
        total = probs.sum()
        if total > 0.0:
            probs = probs / total
    return l_values, probs


def coin_probabilities(state: LatticeState) -> tuple[float, float]:
    """Exact (P_T, P_H) including position-state overlaps (Gram weighting)."""
    kernel = _overlap_band(state.step_size, 2 * state.n_steps)
    lo = (kernel.size - 1) // 2
    p_t, p_h = (float(np.real(np.vdot(c, np.convolve(c, kernel)[lo:lo + c.size])))
                for c in state.amps)
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


def late_slope(late_sigmas: list[float], n_max: int) -> float:
    """Slope of sigma_N vs N fitted over the late half N in [n_max/2, n_max],
    given ``late_sigmas`` = sigma_N on that range."""
    if n_max < 40:
        raise ConfigError("n_max must be at least 40 for a stable slope fit")
    slope, _ = np.polyfit(np.arange(n_max // 2, n_max + 1, dtype=float), late_sigmas, 1)
    return float(slope)


def scaling_factor(step_size: float, n_max: int = 100) -> float:
    """``late_slope`` of the walk of ``step_size`` at coin phase 0."""
    late = itertools.islice(walk_states(WalkSpec(n_max, step_size)), n_max // 2, None)
    return late_slope([std_dev(state) for state in late], n_max)
