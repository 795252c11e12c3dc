"""Truncated Fock-space linear algebra for a single trapped-ion motional mode.

States are complex amplitude vectors over ``{|0>, ..., |dim-1>}``.  The top
``GUARD_LEVELS`` levels act as a guard band: any evolution that pushes more
than ``LEAK_TOL`` of population into it raises :class:`TruncationError`
instead of silently wrapping truncation artifacts into the physics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from .errors import ConfigError, TruncationError

# Approximation levels for the dipole-force interaction.
LDA = "LDA"
RWA = "RWA"
THREE_SB = "3SB"
LEVELS = (LDA, RWA, THREE_SB)

GUARD_LEVELS = 10
LEAK_TOL = 1e-6


@dataclass(frozen=True)
class MotionalState:
    """Amplitudes over the truncated Fock basis.

    Sub-normalized vectors are allowed (branches of a hybrid state carry
    less than unit weight); the norm may never exceed one.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amps must be a nonempty 1-d vector")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amps must be finite")
        # Constructors produce unit norm; integrator snapshots may carry a
        # small positive drift before readout renormalization.
        norm_sq = float(np.vdot(amps, amps).real)
        if norm_sq > 1.0 + 1e-6:
            raise ValueError(f"state norm {math.sqrt(norm_sq)} exceeds 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "MotionalState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fock_probs(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def mean_n(self) -> float:
        p = self.fock_probs()
        total = p.sum()
        if total <= 0.0:
            return 0.0
        return float(np.arange(self.dim) @ p / total)

    def mean_a(self) -> complex:
        """Expectation of the lowering operator, normalized to the branch weight."""
        a = self.amps
        total = float(np.vdot(a, a).real)
        if total <= 0.0:
            return 0.0 + 0.0j
        n = np.arange(1, self.dim)
        return complex(np.sum(np.conj(a[:-1]) * np.sqrt(n) * a[1:]) / total)

    def renormalized(self) -> "MotionalState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return MotionalState(self.amps / n)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.amps.real.tolist(),
            "im": self.amps.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotionalState":
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.size != data["dim"] or im.size != data["dim"]:
            raise ValueError("dim does not match amplitude arrays")
        return cls(re + 1j * im)


@dataclass(frozen=True)
class PhasePoint:
    """A point (Re alpha, Im alpha) in the co-rotating phase space."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("phase-space coordinates must be finite")

    @classmethod
    def from_complex(cls, alpha: complex) -> "PhasePoint":
        return cls(float(alpha.real), float(alpha.imag))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


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
    phi0: float = 0.0
    z0: float = 10e-9
    dim: int = 128
    level: str = THREE_SB
    force_ratio: float = -2.0 / 3.0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ConfigError("eta must be positive")
        if self.dim < 16:
            raise ConfigError("dim must be at least 16")
        if self.omega_z <= 0.0:
            raise ConfigError("omega_z must be positive")
        if abs(self.force_ratio) > 1.0:
            raise ConfigError("|force_ratio| must not exceed 1")
        if self.level not in LEVELS:
            raise ConfigError(f"level must be one of {LEVELS}")
        if self.omega_d < 0.0:
            raise ConfigError("omega_d must be nonnegative")
        if self.z0 <= 0.0:
            raise ConfigError("z0 must be positive")

    def replace(self, **changes) -> "SimParams":
        return dataclasses.replace(self, **changes)

    @property
    def lda_radius(self) -> float:
        """Radius eta*omega_d/(2*delta) of the detuned-drive arc (full-force branch)."""
        if self.delta == 0.0:
            return math.inf
        return self.eta * self.omega_d / (2.0 * abs(self.delta))

    @property
    def t_half_turn(self) -> float:
        """Drive duration pi/delta after which the detuned force reverses."""
        if self.delta == 0.0:
            return math.inf
        return math.pi / abs(self.delta)

    @property
    def t_full_turn(self) -> float:
        return 2.0 * self.t_half_turn


def experimental_params(**overrides) -> SimParams:
    """Default parameter set of the trap used throughout the scenarios."""
    base = dict(
        omega_z=2 * math.pi * 2.13e6,
        delta=2 * math.pi * 100e3,
        omega_d=2 * math.pi * 0.24e6,
        eta=0.31,
        phi0=0.0,
        z0=10e-9,
        dim=128,
        level=THREE_SB,
        force_ratio=-2.0 / 3.0,
    )
    base.update(overrides)
    return SimParams(**base)


def leakage(amps: np.ndarray) -> float:
    """Population inside the guard band at the top of the basis, summed
    over the rows of a packed (T, H) array."""
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


def parity_signs(dim: int) -> np.ndarray:
    signs = np.ones(dim)
    signs[1::2] = -1.0
    return signs


def coherent_truncated_norm_sq(alpha: complex, dim: int) -> float:
    """Weight of |alpha> on the first ``dim`` Fock levels (Poisson partial sum)."""
    x = abs(complex(alpha)) ** 2
    if x == 0.0:
        return 1.0
    n = np.arange(dim)
    log_p = -x + n * math.log(x) - gammaln(n + 1)
    return float(np.sum(np.exp(log_p)))


def coherent_state(alpha: complex, dim: int) -> MotionalState:
    """Coherent state |alpha> on the truncated basis, renormalized to one.

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
    return MotionalState(amps)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Matrix exponential of ``alpha a^dag - alpha* a`` on the truncated basis."""
    alpha = complex(alpha)
    gen = alpha * raising_op(dim) - np.conj(alpha) * lowering_op(dim)
    return expm(gen)


def displacement_element(m: int, n: int, alpha: complex) -> complex:
    """Closed-form matrix element <m|D(alpha)|n> (log-space factorials).

    Uses the associated-Laguerre expression; valid for arbitrary indices
    without building or exponentiating a matrix.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be nonnegative")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    if m >= n:
        power = alpha ** (m - n)
        log_fac = 0.5 * (gammaln(n + 1) - gammaln(m + 1))
        lag = eval_genlaguerre(n, m - n, x)
    else:
        power = (-np.conj(alpha)) ** (n - m)
        log_fac = 0.5 * (gammaln(m + 1) - gammaln(n + 1))
        lag = eval_genlaguerre(m, n - m, x)
    return complex(power * math.exp(log_fac - x / 2.0) * lag)


def sideband_element(n: int, eta: float) -> complex:
    """First-sideband element <n+1| exp(i eta (a + a^dag)) |n>."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return displacement_element(n + 1, n, 1j * eta)


def sideband_magnitudes(eta: float, n_max: int) -> np.ndarray:
    """|<n+1|exp(i eta (a+a^dag))|n>| for n = 0..n_max (vectorized)."""
    n = np.arange(n_max + 1)
    log_fac = 0.5 * (gammaln(n + 1) - gammaln(n + 2))
    lag = eval_genlaguerre(n, 1, eta**2)
    return eta * np.exp(log_fac - eta**2 / 2.0) * np.abs(lag)


def coupling_thresholds(eta: float, n_cap: int = 10000) -> tuple[int, int]:
    """Fock indices (g1, g2) where the sideband coupling peaks and collapses.

    g1 is the argmax of ``|<n+1|exp(i eta (a+a^dag))|n>|``; g2 the first
    local minimum above it (the coupling nearly vanishes there, bounding
    displacement-based excitation).
    """
    mags = sideband_magnitudes(eta, n_cap)
    g1 = int(np.argmax(mags))
    if g1 >= n_cap:
        raise ValueError(f"no coupling maximum below n_cap={n_cap}")
    n = g1
    while n + 1 <= n_cap and mags[n + 1] < mags[n]:
        n += 1
    if n >= n_cap:
        raise ValueError(f"no coupling minimum below n_cap={n_cap}")
    return g1, n


# Cache: the Hermitian tridiagonal i(a^dag - a) diagonalized once per dim,
# shared by all Wigner evaluations.
_DISP_EIG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _displacement_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _DISP_EIG_CACHE.get(dim)
    if cached is None:
        herm = 1j * (raising_op(dim) - lowering_op(dim))
        vals, vecs = np.linalg.eigh(herm)
        cached = (vals, vecs)
        _DISP_EIG_CACHE[dim] = cached
    return cached


def displaced_states(state: MotionalState, alphas: np.ndarray) -> np.ndarray:
    """Columns D(alpha_g)|state> for a batch of displacements.

    Factorizes D(r e^{i theta}) = e^{i theta n} V e^{-i r lambda} V^dag
    e^{-i theta n}, so the whole batch costs two dense matmuls.
    """
    amps = state.amps
    dim = state.dim
    alphas = np.asarray(alphas, dtype=complex).ravel()
    r = np.abs(alphas)
    theta = np.angle(alphas)
    n = np.arange(dim)
    vals, vecs = _displacement_eig(dim)
    block = np.exp(-1j * np.outer(n, theta)) * amps[:, None]
    block = vecs.conj().T @ block
    block *= np.exp(-1j * np.outer(vals, r))
    block = vecs @ block
    block *= np.exp(1j * np.outer(n, theta))
    return block


def wigner(state: MotionalState, grid: Sequence[PhasePoint]) -> np.ndarray:
    """Wigner function at the given phase-space points.

    Convention: displaced-parity expectation scaled by 2/pi, so the ground
    state peaks at W(0) = 2/pi.
    """
    points = np.array([p.value for p in grid], dtype=complex)
    displaced = displaced_states(state, -points)
    probs = np.abs(displaced) ** 2
    worst_leak = float(np.max(np.sum(probs[-GUARD_LEVELS:, :], axis=0)))
    if worst_leak >= LEAK_TOL:
        raise TruncationError(
            f"wigner: displaced support leaks {worst_leak:.3e} into the guard band"
        )
    signs = parity_signs(state.dim)
    return (2.0 / math.pi) * (signs @ probs)


def wigner_map(state: MotionalState, re_vals: np.ndarray, im_vals: np.ndarray) -> np.ndarray:
    """Wigner function on a rectangular grid; rows follow ``im_vals``."""
    rr, ii = np.meshgrid(np.asarray(re_vals, float), np.asarray(im_vals, float))
    pts = [PhasePoint(float(a), float(b)) for a, b in zip(rr.ravel(), ii.ravel())]
    return wigner(state, pts).reshape(rr.shape)
