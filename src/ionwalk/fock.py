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

from .errors import ConfigError, TruncationError

# Approximation levels for the dipole-force interaction.
LDA = "LDA"
RWA = "RWA"
THREE_SB = "3SB"
LEVELS = (LDA, RWA, THREE_SB)

GUARD_LEVELS = 10
LEAK_TOL = 1e-6
N_CAP = 10000  # highest Fock level ``coupling_thresholds`` searches

# cephes lgam: its Stirling series in 1/x^2
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(n) -> np.ndarray:
    """ln n! for integers n >= 0, bit for bit cephes lgam(n + 1) (S. L. Moshier)."""
    return _log_factorial_table(1 << max(8, int(np.max(n, initial=0)).bit_length()))[n]


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    # lgam(x), x = n + 1: the log of the exact product (x-1)! below 13, else Stirling plus
    # the series (cephes's shorter series from x = 1000 on gives the same bits at every
    # integer up to 2e6); math.log is libm's log, as in cephes (np.log differs)
    x = np.arange(1.0, size + 1.0)
    p = 1.0 / (x * x)
    series = functools.reduce(lambda acc, c: acc * p + c, _LGAM_A[1:], _LGAM_A[0])
    table = (x - 0.5) * np.array([math.log(v) for v in x.tolist()]) - x + 0.91893853320467274178
    table += series / x
    table[:12] = [math.log(math.factorial(m)) for m in range(12)]
    return table


def _genlaguerre(n, k: int, x: float) -> np.ndarray:
    """L_n^(k)(x) for integers n >= 0 and 0 <= k < 20, bit for bit the integer-order
    eval_genlaguerre: one forward recurrence up to max(n), p after step j being
    L_{j+2} / binom(j+2+k, j+2), times binom by its integer-branch product."""
    if not 0 <= k < 20:
        raise ValueError(f"ladder offset {k}: Laguerre orders 0..19 only")
    values = [1.0, -x + k + 1]
    d = -x / (k + 1)
    p = d + 1
    for m in range(2, int(np.max(n, initial=0)) + 1):
        d = -x / (m + k) * p + (m - 1) / (m + k) * d
        p += d
        # binom(m + k, m): symmetry-reduced to min(m, k) factors, rescaled past 1e50
        num = den = 1.0
        for i in range(1, min(m, k) + 1):
            num, den = num * (i + max(m, k)), den * i
            if abs(num) > 1e50:
                num, den = num / den, 1.0
        values.append(num / den * p)
    return np.array(values)[n]


def mean_n(amps: np.ndarray) -> np.ndarray:
    """<n> of each amplitude vector along the last axis of ``amps``,
    normalized to its weight (0 for a zero vector)."""
    p = np.abs(amps) ** 2
    num = np.vecdot(p, np.arange(p.shape[-1]))
    total = p.sum(axis=-1)
    return np.divide(num, total, out=np.zeros_like(num), where=total > 0.0)


def mean_a(amps: np.ndarray) -> np.ndarray:
    """<a> of each amplitude vector along the last axis of ``amps``,
    normalized to its weight (0 for a zero vector)."""
    total = np.vecdot(amps, amps).real
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


def leakage(amps: np.ndarray) -> np.ndarray:
    """Population inside the guard band at the top of the basis of each
    amplitude vector along the last axis of ``amps``."""
    return np.sum(np.abs(amps[..., -GUARD_LEVELS:]) ** 2, axis=-1)


def check_leakage(amps: np.ndarray, context: str = "evolution") -> None:
    """TruncationError if the guard-band population of ``amps``, summed over
    its vectors, reaches LEAK_TOL."""
    leak = float(np.sum(leakage(amps)))
    if leak >= LEAK_TOL:
        raise TruncationError(
            f"{context}: guard-band population {leak:.3e} >= {LEAK_TOL:.0e}; "
            "increase dim"
        )


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Read-only amplitudes of the coherent state |alpha> on the truncated
    basis, renormalized to one.

    Raises :class:`TruncationError` when the basis captures less than
    ``1 - 1e-9`` of the untruncated norm (a Poisson partial sum).
    """
    alpha = complex(alpha)
    if dim < 1:
        raise ValueError("dim must be positive")
    n, x = np.arange(dim), abs(alpha) ** 2
    norm_sq = float(np.sum(np.exp(-x + n * math.log(x) - _log_factorial(n)))) if x else 1.0
    if norm_sq < 1.0 - 1e-9:
        raise TruncationError(
            f"coherent_state(|alpha|={abs(alpha):.3f}, dim={dim}) keeps only "
            f"{norm_sq:.12f} of the norm"
        )
    amps = np.zeros(dim, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
    else:
        log_mag = -x / 2.0 + n * math.log(abs(alpha)) - 0.5 * _log_factorial(n)
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
    log_fac = 0.5 * (_log_factorial(low) - _log_factorial(low + k))
    return power * np.exp(log_fac - x / 2.0) * _genlaguerre(low, k, x)


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


def quarter_turns(dim: int) -> np.ndarray:
    """The diagonal of Q = diag(i^n), n < dim, exactly (no rounded cos or sin)."""
    return np.array([1.0, 1j, -1.0, -1j])[np.arange(dim) % 4]


# The real symmetric tridiagonal a + a^dag diagonalized once per dim, shared by
# every D(alpha) build.
@functools.cache
def _displacement_eig(dim: int) -> tuple[np.ndarray, np.ndarray]:
    off = np.sqrt(np.arange(1.0, dim))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated basis.

    With alpha = r e^{i theta} and P = diag(e^{i theta n} i^n), P a P^dag =
    -i e^{-i theta} a, so alpha a^dag - alpha* a = -i r P (a + a^dag) P^dag and
    D(alpha) = P W e^{-i r mu} W^T P^dag for the real eigenpairs (mu, W) of
    a + a^dag: two real products, W cos(r mu) W^T and W sin(r mu) W^T."""
    alpha = complex(alpha)
    vals, vecs = _displacement_eig(dim)
    r = abs(alpha)
    phase = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(dim)) * quarter_turns(dim)
    out = np.empty((dim, dim), dtype=complex)
    out.real = (vecs * np.cos(r * vals)) @ vecs.T
    out.imag = (vecs * -np.sin(r * vals)) @ vecs.T
    out *= phase[:, None]
    out *= phase.conj()
    return out
