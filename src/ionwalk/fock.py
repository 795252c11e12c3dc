"""Truncated Fock-space linear algebra for a single trapped-ion motional mode.

States are complex amplitude vectors over ``{|0>, ..., |dim-1>}``.  The top
``GUARD_LEVELS`` levels act as a guard band: any evolution that pushes more
than ``LEAK_TOL`` of population into it raises :class:`TruncationError`
instead of silently wrapping truncation artifacts into the physics.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .errors import ConfigError, TruncationError

# Approximation levels for the dipole-force interaction.
LDA = "LDA"
RWA = "RWA"
THREE_SB = "3SB"
LEVELS = (LDA, RWA, THREE_SB)

GUARD_LEVELS = 10
LEAK_TOL = 1e-6
N_CAP = 10000  # highest Fock level ``coupling_thresholds`` searches


def mean_n(amps: np.ndarray) -> np.ndarray:
    """<n> of each amplitude vector along the last axis of ``amps``,
    normalized to its weight (0 for a zero vector)."""
    p = np.abs(amps) ** 2
    levels = np.arange(p.shape[-1])
    # a 1-d dot per vector: a batched matmul sums in another order
    num = np.array([levels @ row for row in p.reshape(-1, p.shape[-1])]).reshape(p.shape[:-1])
    total = p.sum(axis=-1)
    return np.divide(num, total, out=np.zeros_like(num), where=total > 0.0)


def mean_a(amps: np.ndarray) -> np.ndarray:
    """<a> of each amplitude vector along the last axis of ``amps``,
    normalized to its weight (0 for a zero vector)."""
    total = np.array([np.vdot(row, row).real for row in amps.reshape(-1, amps.shape[-1])])
    total = total.reshape(amps.shape[:-1])
    n = np.arange(1, amps.shape[-1])
    num = np.sum(np.conj(amps[..., :-1]) * np.sqrt(n) * amps[..., 1:], axis=-1)
    return np.divide(num, total, out=np.zeros_like(num), where=total > 0.0)


@dataclass(frozen=True)
class SimParams:
    """Physical parameters of the driven ion.

    All frequencies are angular (rad/s).  ``force_ratio`` is the ratio of
    the dipole forces on the two coin states; ``level`` selects the
    approximation used for the interaction Hamiltonian.
    """

    omega_z: float
    delta: float
    omega_d: float
    eta: float
    z0: float = 10e-9
    dim: int = 128
    level: str = THREE_SB
    force_ratio: float = -2.0 / 3.0

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not 0.0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 16:
            raise ConfigError("dim must be an integer >= 16")
        if not 0.0 < self.omega_z < math.inf:
            raise ConfigError("omega_z must be finite and positive")
        if not abs(self.delta) < math.inf:
            raise ConfigError("delta must be finite")
        if not abs(self.force_ratio) <= 1.0:
            raise ConfigError("|force_ratio| must not exceed 1")
        if self.level not in LEVELS:
            raise ConfigError(f"level must be one of {LEVELS}")
        if not 0.0 <= self.omega_d < math.inf:
            raise ConfigError("omega_d must be finite and nonnegative")
        if not 0.0 < self.z0 < math.inf:
            raise ConfigError("z0 must be finite and positive")

    def replace(self, **changes) -> "SimParams":
        return dataclasses.replace(self, **changes)

    @property
    def t_half_turn(self) -> float:
        """Drive duration pi/delta after which the detuned force reverses."""
        if self.delta == 0.0:
            raise ConfigError("delta = 0: a resonant force never reverses (no half turn pi/delta)")
        return math.pi / abs(self.delta)


def experimental_params(**overrides) -> SimParams:
    """Default parameter set of the trap used throughout the scenarios: the
    trap values below plus the ``SimParams`` field defaults."""
    trap = dict(
        omega_z=2 * math.pi * 2.13e6,
        delta=2 * math.pi * 100e3,
        omega_d=2 * math.pi * 0.24e6,
        eta=0.31,
    )
    return SimParams(**{**trap, **overrides})


def leakage(amps: np.ndarray) -> float:
    """Population inside the guard band at the top of the basis, summed
    over the rows of a (T, H) array laid out as ``HybridState.amps``."""
    guard = np.asarray(amps)[..., -GUARD_LEVELS:]
    return float(np.sum(np.abs(guard) ** 2))


def check_leakage(amps: np.ndarray, context: str = "evolution") -> None:
    leak = leakage(amps)
    if leak >= LEAK_TOL:
        raise TruncationError(
            f"{context}: guard-band population {leak:.3e} >= {LEAK_TOL:.0e}; "
            "increase dim"
        )


def lowering_op(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def raising_op(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), -1).astype(complex)


def coherent_truncated_norm_sq(alpha: complex, dim: int) -> float:
    """Weight of |alpha> on the first ``dim`` Fock levels (Poisson partial sum)."""
    x = abs(complex(alpha)) ** 2
    if x == 0.0:
        return 1.0
    n = np.arange(dim)
    log_p = -x + n * math.log(x) - gammaln(n + 1)
    return float(np.sum(np.exp(log_p)))


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Read-only amplitudes of the coherent state |alpha> on the truncated
    basis, renormalized to one.

    Raises :class:`TruncationError` when the basis captures less than
    ``1 - 1e-9`` of the untruncated norm.
    """
    alpha = complex(alpha)
    if dim < 1:
        raise ValueError("dim must be positive")
    norm_sq = coherent_truncated_norm_sq(alpha, dim)
    if norm_sq < 1.0 - 1e-9:
        raise TruncationError(
            f"coherent_state(|alpha|={abs(alpha):.3f}, dim={dim}) keeps only "
            f"{norm_sq:.12f} of the norm"
        )
    amps = np.zeros(dim, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
    else:
        n = np.arange(dim)
        log_mag = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)
        phase = n * np.angle(alpha)
        amps = np.exp(log_mag + 1j * phase)
        amps /= math.sqrt(norm_sq)
    amps.setflags(write=False)
    return amps


def ladder_elements(alpha: complex, offset: int, n) -> np.ndarray:
    """Matrix elements <n+offset|D(alpha)|n> over an array of source levels n
    (with n + offset >= 0).

    Associated-Laguerre closed form with log-space factorials; valid for
    arbitrary levels without building or exponentiating a matrix.
    """
    alpha = complex(alpha)
    k = abs(offset)
    low = np.asarray(n) + min(offset, 0)
    x = abs(alpha) ** 2
    power = alpha**k if offset >= 0 else (-alpha.conjugate()) ** k
    log_fac = 0.5 * (gammaln(low + 1) - gammaln(low + k + 1))
    return power * np.exp(log_fac - x / 2.0) * eval_genlaguerre(low, k, x)


def sideband_magnitudes(eta: float, n_max: int) -> np.ndarray:
    """|<n+1|exp(i eta (a+a^dag))|n>| for n = 0..n_max (vectorized)."""
    return np.abs(ladder_elements(1j * eta, 1, np.arange(n_max + 1)))


def coupling_thresholds(eta: float) -> tuple[int, int]:
    """Fock indices (g1, g2) where the sideband coupling peaks and collapses.

    g1 is the argmax of ``|<n+1|exp(i eta (a+a^dag))|n>|``; g2 the first
    local minimum above it (the coupling nearly vanishes there, bounding
    displacement-based excitation).
    """
    mags = sideband_magnitudes(eta, N_CAP)
    g1 = int(np.argmax(mags))
    if g1 >= N_CAP:
        raise ValueError(f"no coupling maximum below N_CAP={N_CAP}")
    n = g1
    while n + 1 <= N_CAP and mags[n + 1] < mags[n]:
        n += 1
    if n >= N_CAP:
        raise ValueError(f"no coupling minimum below N_CAP={N_CAP}")
    return g1, n


# The Hermitian tridiagonal i(a^dag - a) diagonalized once per dim, shared by
# every D(alpha) build.
@functools.cache
def _displacement_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    herm = 1j * (raising_op(dim) - lowering_op(dim))
    return np.linalg.eigh(herm)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated basis, as
    e^{i theta n} V e^{-i r lambda} V^dag e^{-i theta n} for alpha = r e^{i theta}."""
    alpha = complex(alpha)
    vals, vecs = _displacement_eig(dim)
    phase = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(dim))
    left = phase[:, None] * vecs
    return (left * np.exp(-1j * abs(alpha) * vals)) @ left.conj().T
