"""Blue-sideband readout model and its inversion to Fock/position weights.

The readout signal is a sum of cosines, one per Fock level, at the
level-dependent sideband Rabi frequencies.  Those frequencies are not
harmonically spaced, so inversion fits the known frequency dictionary by
non-negative least squares instead of a plain Fourier transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import ConfigError, IllConditioned
from .fock import sideband_magnitudes

MAX_CONDITION = 1e8


@dataclass(frozen=True)
class ReadoutConfig:
    """Sampling grid and model constants of the sideband readout.

    ``base_rabi`` scales the dimensionless sideband matrix elements to
    physical Rabi frequencies; ``gamma`` damps the oscillation contrast.
    """

    t_grid: np.ndarray
    n_max: int
    gamma: float = 0.0
    base_rabi: float = 2 * math.pi * 100e3

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
            raise ConfigError("t_grid must be strictly increasing with >= 2 samples")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be nonnegative")
        if self.n_max < 0:
            raise ConfigError("n_max must be nonnegative")
        if self.base_rabi <= 0.0:
            raise ConfigError("base_rabi must be positive")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "t_grid", t)


def rabi_frequencies(eta: float, n_max: int, base_rabi: float) -> np.ndarray:
    """Sideband Rabi frequency per Fock level, n = 0..n_max."""
    return base_rabi * sideband_magnitudes(eta, n_max)


def default_config(
    eta: float,
    n_max: int,
    gamma: float = 0.0,
) -> ReadoutConfig:
    """200 times over 5 periods of the slowest dictionary frequency."""
    if eta <= 0.0 or n_max < 0:
        raise ConfigError("eta must be positive and n_max nonnegative")
    omega = rabi_frequencies(eta, n_max, ReadoutConfig.base_rabi)
    slowest = float(np.min(omega[omega > 0.0]))
    t_end = 5.0 * 2.0 * math.pi / slowest
    t = np.linspace(0.0, t_end, 200)
    return ReadoutConfig(t_grid=t, n_max=n_max, gamma=gamma)


def bsb_signal(fock_probs: np.ndarray, cfg: ReadoutConfig, eta: float) -> np.ndarray:
    """Coin-state signal 0.5*(1 + sum_n p_n cos(Omega_n t) e^{-gamma t})."""
    p = np.asarray(fock_probs, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("fock_probs must sum to 1")
    return 0.5 * (1.0 + _dictionary(cfg, eta, p.size - 1)[0] @ p)


_DICTIONARY_CACHE: dict[tuple, tuple[np.ndarray, float, float]] = {}


def _dictionary(cfg: ReadoutConfig, eta: float, n_max: int) -> tuple[np.ndarray, float, float]:
    """(cos(Omega_n t) e^{-gamma t}, its condition number, the slowest Omega_n > 0),
    built once per grid and model; the matrix is read-only."""
    key = (cfg.t_grid.tobytes(), n_max, cfg.gamma, cfg.base_rabi, eta)
    cached = _DICTIONARY_CACHE.get(key)
    if cached is None:
        omega = rabi_frequencies(eta, n_max, cfg.base_rabi)
        damp = np.exp(-cfg.gamma * cfg.t_grid)[:, None]
        a = np.cos(np.outer(cfg.t_grid, omega)) * damp
        a.setflags(write=False)
        cached = (a, float(np.linalg.cond(a)), float(np.min(omega[omega > 0.0], initial=np.inf)))
        _DICTIONARY_CACHE[key] = cached
    return cached


def invert_bsb(
    signal: np.ndarray,
    cfg: ReadoutConfig,
    eta: float,
) -> np.ndarray:
    """Fock probabilities from a readout signal by non-negative LS fitting.

    The grid must span at least three periods of the slowest dictionary
    frequency.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.shape != cfg.t_grid.shape:
        raise ValueError("signal and t_grid sizes differ")
    a, cond, slowest = _dictionary(cfg, eta, cfg.n_max)
    span = cfg.t_grid[-1] - cfg.t_grid[0]
    if span < 3.0 * 2.0 * math.pi / slowest:
        raise ValueError(
            "t_grid spans less than 3 periods of the slowest sideband frequency"
        )
    if cond > MAX_CONDITION:
        raise IllConditioned(f"dictionary condition number {cond:.3e}")
    coeffs, _ = nnls(a, 2.0 * signal - 1.0)
    coeffs = np.clip(coeffs, 0.0, None)
    total = coeffs.sum()
    if total <= 0.0:
        raise IllConditioned("fit collapsed to the zero distribution")
    return coeffs / total


def disambiguate_positions(
    probs_unshifted: np.ndarray,
    probs_up: np.ndarray,
    probs_down: np.ndarray,
    profiles: dict[int, np.ndarray],
    k_values: list[int],
    shift_sign: int = 1,
) -> tuple[dict[int, float], float]:
    """Position weights from Fock distributions of a state and its shifts.

    ``profiles[|k|]`` holds the Fock profile of position state k (mirror
    positions share one profile).  ``probs_up``/``probs_down`` belong to
    the state shifted by one position; ``shift_sign`` is +1 for a branch
    whose shift raises k and -1 for the opposite branch.  Solves one joint
    non-negative least-squares system; returns (weights, rms residual).
    """
    if shift_sign not in (1, -1):
        raise ValueError("shift_sign must be +1 or -1")
    q0 = np.asarray(probs_unshifted, dtype=float)
    qp = np.asarray(probs_up, dtype=float)
    qm = np.asarray(probs_down, dtype=float)
    n_levels = q0.size
    if qp.size != n_levels or qm.size != n_levels:
        raise ValueError("all Fock distributions need the same length")

    def profile(k: int) -> np.ndarray:
        prof = profiles[abs(k)]
        if prof.size < n_levels:
            prof = np.pad(prof, (0, n_levels - prof.size))
        return prof[:n_levels]

    blocks = []
    for shift in (0, shift_sign, -shift_sign):
        blocks.append(np.column_stack([profile(k + shift) for k in k_values]))
    a = np.vstack(blocks)
    cond = float(np.linalg.cond(a))
    if cond > MAX_CONDITION:
        raise IllConditioned(f"position dictionary condition number {cond:.3e}")
    y = np.concatenate([q0, qp, qm])
    weights, _ = nnls(a, y)
    residual = float(np.linalg.norm(a @ weights - y) / math.sqrt(y.size))
    total = weights.sum()
    if total <= 0.0:
        raise IllConditioned("no position weight recovered")
    weights = weights / total
    return {k: float(w) for k, w in zip(k_values, weights)}, residual
