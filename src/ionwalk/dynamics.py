"""Time-dependent propagation of the coin (x) motion state under the drive.

The interaction-picture Hamiltonian of the coin-state-dependent dipole
force is represented as a sum of Fock-ladder bands, one per level offset
``s = m - n``, each multiplied by a scalar time factor.  Three
approximation levels are supported:

* ``LDA``  - linearized force, bands s = +-1 with elements i*eta*sqrt(n+1);
* ``RWA``  - bands s = +-1 with exact sideband matrix elements;
* ``3SB``  - all bands |s| <= 3 with both rotating terms retained.

The free evolution (drive off) is the identity in this frame, so waits
only advance the drive clock.  The single-rate LDA and RWA drives do not
depend on time in the frame exp(i delta n t): coin row b evolves exactly
as exp(i delta n t) exp(-i K_b (t - t0)) exp(-i delta n t0), with K_b
tridiagonal (real symmetric in the basis diag(i^n)), from one cached
eigendecomposition per parameter set.  The two-rate 3SB drive is
integrated by fixed-step RK4 on the Schrodinger equation.  The RK4 step,
``rk4_step_size``, depends on the trap only, and every level samples its
history on that one grid.  RK4 holds its rows level-major, as a
(dim, rows) array, so that one batched matmul over target levels applies
the band stencil to every row at once.  Each row is labelled by its coin:
H = sum_b |b><b| (x) c_b W(t), so the coin rows evolve apart, a zero row
stays zero, and only the rows that hold amplitude are integrated.

The 3SB drive (two rates per band, s*omega_z +- (delta - omega_z))
repeats after T = 2 pi/|omega_z - delta| up to a diagonal phase,
H(t + T) = P H(t) P^dag with P = exp(i omega_z T n) = exp(i delta T n),
so every whole period is the one-period propagator M = U(T, 0)
conjugated by a power of P (Shirley, Phys. Rev. 138, B979 (1965)).  The
drive is also time-reversal symmetric, H(-t) = Pi H(t)* Pi
with Pi = (-1)^n, and so is the RK4 step: one RK4 run over half a period
on all basis columns gives M = P Pi F^T Pi P^dag F, F = U(T/2, 0), and the
snapshot table F_j = U(t_j, 0) at the SNAPSHOTS_PER_PERIOD - 1 interior
points t_j = j T/8 of the grid, cached with M.  Each end of a 3SB pulse
holding whole periods runs RK4 to its nearest anchor, a t_j or a period
boundary, ahead of it or behind it (RK4 runs backward too): at most T/16
of RK4 per end.  The table carries the rest: the transposed snapshot
P^-1 U(T, t_j) = Pi F_(8-j)^T Pi P^-1 to the next boundary, P^-1 M once
per period and F_i after the last one.  Every level samples on the period
grid T/n_T of the trap's 3SB drive.  A sampled 3SB pulse gets its period
starts psi(t0 + k T) from one head, the table and one RK4 run of at most
T/16 back from the anchors, and stacks P^-k psi(t0 + k T) as the rows of
one RK4 run over at most one period; each sample is P^k times its row.
The table serves a pulse only where its plain RK4 would cost more than
the map build; such pulses, and those holding no whole period, take every
step.  One parameter set's period map is kept, with a table per coin
built the first time a run needs that coin.
"""

from __future__ import annotations

import cmath
import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, StepError
from .fock import (
    LDA,
    LEAK_TOL,
    RWA,
    THREE_SB,
    SimParams,
    check_leakage,
    displacement_matrix,
    ladder_elements,
    leakage,
    mean_a,
    mean_n,
    quarter_turns,
)

STEPS_PER_PERIOD = 50
RETURN_TIME_SAMPLES = 2000
SNAPSHOTS_PER_PERIOD = 8
# times that miss a snapshot time or a period boundary by at most this
# fraction of the snapshot grid's step (a few ulps of k T) count as on it
_SNAP = 1e-9
COINS = "TH"  # the coin state of each row of HybridState.amps


@dataclass(frozen=True)
class HybridState:
    """Coin (x) motion wavefunction: a read-only (2, dim) array ``amps``
    whose rows are the motional branches of the coin states (T, H)."""

    amps: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != 2 or amps.shape[1] == 0:
            raise ValueError("amps must have shape (2, dim) with dim >= 1")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amps must be finite")
        norms_sq = np.vecdot(amps, amps).real.tolist()
        if max(norms_sq) > 1.0 + 1e-6:
            raise ValueError(f"branch norm^2 {max(norms_sq)} exceeds 1")
        if abs(sum(norms_sq) - 1.0) > 5e-6:
            raise ValueError(f"total norm^2 {sum(norms_sq)} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def product(cls, coin: str, motion: np.ndarray) -> "HybridState":
        """|coin> (x) motion at time 0, coin 'T', 'H' or 'TH' = (|T> + |H>)/sqrt 2."""
        if coin not in ("T", "H", "TH"):
            raise ValueError("coin must be 'T', 'H' or 'TH'")
        amps = np.zeros((2, len(motion)), dtype=complex)
        amps[[COINS.index(c) for c in coin]] = motion
        if coin == "TH":
            amps /= math.sqrt(2.0)
        return cls(amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[1]

    def coin_probabilities(self) -> tuple[float, float]:
        """(P_T, P_H), renormalized at readout."""
        p_t, p_h = (float(np.linalg.norm(row)) ** 2 for row in self.amps)
        total = p_t + p_h
        return p_t / total, p_h / total

    def with_time(self, time: float) -> "HybridState":
        # shares the validated read-only amps
        moved = copy.copy(self)
        object.__setattr__(moved, "time", time)
        return moved


def ground_hybrid(dim: int, coin: str = "T") -> HybridState:
    vacuum = np.zeros(dim, dtype=complex)
    vacuum[0] = 1.0
    return HybridState.product(coin, vacuum)


@dataclass(frozen=True)
class DriveStencil:
    """The drive's ladder bands |n+s><n|, s = P..-P, stored level-major.

    Column ``j`` holds offset ``s = P - j``: ``elements[m, j]`` couples
    source level ``m - s`` to target ``m`` (zero where the source lies
    outside the basis), and its time factor is
    sum_k amps[j, k] * exp(i * rates[j, k] * t).
    ``norm_weight`` is sum over bands of max|element| * sum|amps|.
    """

    elements: np.ndarray
    amps: np.ndarray
    rates: np.ndarray
    norm_weight: float

    @property
    def reach(self) -> int:
        return (self.elements.shape[1] - 1) // 2

    def factors(self, times) -> np.ndarray:
        """Band time factors at every time: shape ``times.shape + (2P+1,)``."""
        terms = 1j * np.multiply.outer(np.asarray(times, dtype=float), self.rates)
        np.exp(terms, out=terms)  # in place: a pulse's table is the transient peak
        terms *= self.amps
        return terms.sum(axis=-1)

    def window_buffer(self, rows: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """(interior, windows) of a zeroed level-major (dim + 2P, rows)
        padded buffer.

        States written into the columns of ``interior`` (dim, rows) show in
        ``windows[m, :, j]`` (shape (dim, rows, 2P+1)) as the source
        amplitudes psi[m - s] that stencil column j couples to target m.
        """
        reach, dim = self.reach, self.elements.shape[0]
        padded = np.zeros((dim + 2 * reach, rows), dtype=complex)
        return padded[reach : reach + dim], sliding_window_view(padded, 2 * reach + 1, axis=0)


def _band_elements(eta: float, offset: int, dim: int, linearized: bool) -> np.ndarray:
    """Matrix elements <j+offset| exp(i eta (a+a^dag)) |j>, j = 0..dim-1-offset,
    for offset >= 0; the symmetric operator has the same elements at -offset,
    <j|...|j+offset>."""
    if not linearized:
        return ladder_elements(1j * eta, offset, np.arange(dim - offset))
    if offset != 1:
        raise ValueError("linearized bands exist only for offset +-1")
    return 1j * eta * np.sqrt(np.arange(1.0, dim))


def drive_stencil(params: SimParams) -> DriveStencil:
    return _stencil(params.level, params.eta, params.dim, params.omega_z, params.delta)


@functools.cache
def _stencil(level: str, eta: float, dim: int, wz: float, delta: float) -> DriveStencil:
    """Band decomposition of the interaction Hamiltonian at ``level``."""
    linear = level == LDA
    if level in (LDA, RWA):
        bands = {1: ((1,), (delta,)), -1: ((-1,), (-delta,))}
    else:
        bands = {
            s: ((1, (-1) ** abs(s)), ((s - 1) * wz + delta, (s + 1) * wz - delta))
            for s in range(-3, 4)
        }
    reach = max(bands)
    n_terms = len(bands[reach][0])
    elements = np.zeros((dim, 2 * reach + 1), dtype=complex)
    amps = np.zeros((2 * reach + 1, n_terms), dtype=complex)
    rates = np.zeros((2 * reach + 1, n_terms))
    norm_weight = 0.0
    # the -s band equals the +s band element for element: one evaluation per |s|
    band_values = {k: _band_elements(eta, k, dim, linear) for k in {abs(s) for s in bands}}
    # bands in insertion order: the RK4 step size depends on this sum bitwise
    for s, (band_amps, band_rates) in bands.items():
        values = band_values[abs(s)]
        elements[max(0, s) : dim + min(0, s), reach - s] = values
        amps[reach - s] = band_amps
        rates[reach - s] = band_rates
        norm_weight += float(np.max(np.abs(values))) * sum(abs(a) for a in band_amps)
    return DriveStencil(elements, amps, rates, norm_weight)


def apply_drive(
    stencil: DriveStencil, factors: np.ndarray, windows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[:, b] = W(t) @ psi[:, b] for each column b of the level-major
    (dim, rows) psi, given the band ``factors`` at t and the stencil
    ``windows`` of psi (see ``DriveStencil.window_buffer``): one batched
    matmul over target levels, (rows, 2P+1) @ (2P+1, 1) per level."""
    np.matmul(windows, (stencil.elements * factors)[:, :, None], out=out[:, :, None])
    return out


def drive_period(params: SimParams) -> float | None:
    """Period T = 2 pi/|omega_z - delta| after which a two-rate (3SB) drive
    repeats up to the phase exp(i delta T n); None for single-rate drives."""
    if params.level != THREE_SB or params.omega_z == params.delta:
        return None
    return 2.0 * math.pi / abs(params.omega_z - params.delta)


def _snapshot_steps(params: SimParams) -> tuple[list[int], float]:
    """The RK4 step counts j n_T / SNAPSHOTS_PER_PERIOD, j = 1..7, of the
    interior snapshots on the one-period grid (n_T, h), and h.  n_T is the
    ``_rk4_grid`` count of one period rounded up to a multiple of
    SNAPSHOTS_PER_PERIOD, so every snapshot (the half period among them)
    lies on the grid; as h <= 2 pi/(50 (3 omega_z + |delta|)), n_T >= 56."""
    period = drive_period(params)
    n_steps = -(-_rk4_grid(params, period)[0] // SNAPSHOTS_PER_PERIOD) * SNAPSHOTS_PER_PERIOD
    return [j * n_steps // SNAPSHOTS_PER_PERIOD for j in range(1, SNAPSHOTS_PER_PERIOD)], period / n_steps


def _live(amps: np.ndarray) -> str:
    """The coins, in COINS order, whose rows of ``amps`` (..., 2, dim) hold any amplitude."""
    held = np.flatnonzero(amps.reshape(-1, 2, amps.shape[-1]).any(axis=(0, 2)))
    return COINS[held[0] : held[-1] + 1]


def _rows(coins: str, of: str = COINS) -> slice:
    """The rows of ``coins``, a run of the coins ``of`` that label a table's rows."""
    return slice(of.index(coins[0]), of.index(coins[0]) + len(coins))


# {params: (coins, maps, snapshots)} of one set, as a scenario drives one; ~4 MB at dim 128
_MAPS: dict[SimParams, tuple[str, np.ndarray, np.ndarray]] = {}


def period_map(params: SimParams, coins: str = COINS) -> tuple[np.ndarray, np.ndarray]:
    """Read-only one-period maps (c, dim, dim) and snapshot table
    (SNAPSHOTS_PER_PERIOD - 1, c, dim, dim) of the c coin rows ``coins``.

    ``psi[b] @ maps[b]`` is P^-1 U_b(T, 0) applied to coin row b,
    P = diag exp(i delta T n), and ``psi[b] @ snapshots[j, b]`` is
    F_j = U_b(steps[j] h, 0) with (steps, h) = ``_snapshot_steps(params)``.
    One parameter set stays resident, with a table per coin built on first
    use: one RK4 run on the new coins' basis columns covers the half period;
    the time reversal H(-t) = Pi H(t)* Pi, Pi = (-1)^n, which the RK4 step
    shares, gives U(T, T - t) = P Pi F(t)^T Pi P^dag for the rest.
    """
    held, maps, snapshots = _MAPS.pop(params, ("", None, None))
    _MAPS.clear()  # the resident set is not held through the build of another
    grown = COINS if {*held, *coins} == {*COINS} else held or coins  # held + coins, in order
    if grown != held:
        build, dim = grown.replace(held, ""), params.dim
        steps, h = _snapshot_steps(params)
        half, new = len(steps) // 2, _rows(build, grown)  # snapshots[half] = U(T/2, 0)
        # the top basis columns reach the guard band by construction: no leakage check
        run = _rk4(params, np.tile(np.eye(dim, dtype=complex), (len(build), 1)), 0.0,
                   drive_period(params) / 2.0, every=steps[0], h=h, coins=build)
        # the table is allocated once the run has freed its stage buffers
        table = np.empty((len(steps), len(grown), dim, dim), dtype=complex)
        table[: half + 1, new] = run[1:].reshape(half + 1, len(build), dim, dim)
        del run  # copied into the table
        if held:  # the coin built before is copied over
            table[:, _rows(held, grown)] = snapshots
        # the tables hold transposes: snapshots[j, b] = F^T, maps[b] = (P^-1 M)^T
        parity = (-1.0) ** np.arange(dim)
        reflect = _period_phase(params, -1) * parity  # P^-1 Pi
        built = (table[half, new] * reflect) @ table[half, new].transpose(0, 2, 1) * parity
        rhs = parity[:, None] * built.transpose(0, 2, 1)
        for j in range(1, half + 1):  # F(T - t_j) = P Pi (F_j^T)^-1 Pi P^-1 M
            table[-j, new] = np.linalg.solve(table[j - 1, new], rhs).transpose(0, 2, 1) * reflect.conj()
        maps = np.concatenate([built, maps] if new.start == 0 else [maps, built]) if held else built
        held, snapshots = grown, table
        for done in (maps, snapshots):
            done.setflags(write=False)
    _MAPS[params] = held, maps, snapshots
    return maps[_rows(coins, held)], snapshots[:, _rows(coins, held)]


def _period_phase(params: SimParams, k: int | np.ndarray) -> np.ndarray:
    """The diagonal of P^k: exp(i k delta T n), which equals exp(i k omega_z T n)
    because (omega_z - delta) T = +-2 pi, but is rounded from a small phase."""
    return np.exp(1j * params.delta * drive_period(params) * (k * np.arange(params.dim)))


def rk4_step_size(params: SimParams) -> float:
    """Fixed step of the 3SB RK4 run and of every level's sample grid:
    STEPS_PER_PERIOD steps per period of the fastest of 3 omega_z + |delta|,
    the drive rate and the 3SB coupling's spectral-radius bound
    (omega_d/2) norm_weight.  It depends on the trap, not on the level, so
    LDA, RWA and 3SB histories share their sample times; LDA and RWA take
    no RK4 step (``_exact``).  The 3SB rate is not the stencil's fastest:
    its s = +-3 bands rotate at 4 omega_z - delta, which gets 38.5 steps per
    period at the trap values.  ROADMAP.md item 9 measures what that costs
    before the rule changes."""
    norm_weight = _stencil(THREE_SB, params.eta, params.dim, params.omega_z, params.delta).norm_weight
    rate = max(3.0 * params.omega_z + abs(params.delta), params.omega_d, 0.5 * params.omega_d * norm_weight)
    return 2.0 * math.pi / (STEPS_PER_PERIOD * rate)


def _rk4_grid(params: SimParams, duration: float) -> tuple[int, float]:
    """(n_steps, h): the fewest equal steps no longer than ``rk4_step_size``, signed as ``duration``."""
    n_steps = max(1, math.ceil(abs(duration) / rk4_step_size(params)))
    return n_steps, duration / n_steps


def _sample_grid(params: SimParams, duration: float) -> tuple[int, float]:
    """(n_steps, h): every level's sample step, the period grid T/n_T of the
    trap's 3SB drive (``rk4_step_size`` without a period), and the fewest
    steps of it that reach ``duration`` up to the snapshot tolerance."""
    trap = params.replace(level=THREE_SB)
    h = _snapshot_steps(trap)[1] if drive_period(trap) else rk4_step_size(params)
    return max(1, math.ceil(duration / h - _SNAP)), h


def _rk4(params: SimParams, psi: np.ndarray, t0: float, duration: float,
         every: int | None = None, h: float | None = None, record=None, coins: str = COINS) -> np.ndarray:
    """RK4 under -i H(t) on the ``_rk4_grid`` of ``duration`` (or on the
    whole number of steps ``h`` in it) from ``t0``, backward if negative,
    for rows psi that stack equally many branches of each of ``coins`` in turn.

    Returns one (samples, rows, dim) array: the rows at the start, after
    every ``every``-th step before the last (none without ``every``), and
    at the end.  In between, one level-major (dim, rows) copy of the rows
    is updated in place, and ``record(step, rows)`` sees it after each step.
    """
    if duration == 0.0:
        return psi[None]
    stencil = drive_stencil(params)
    n_steps, h = _rk4_grid(params, duration) if h is None else (round(duration / h), h)
    # band factors at each step's stage times t, t + h/2 and t + h
    starts = t0 + np.arange(n_steps) * h
    factors = stencil.factors(np.stack([starts, starts + h / 2.0, starts + h], axis=1))
    scale = np.array([1.0, params.force_ratio])[_rows(coins)] * (params.omega_d / 2.0)
    coef = np.repeat(-1j * scale, len(psi) // len(coins))
    every = every or n_steps
    run = np.empty(((n_steps - 1) // every + 2, *psi.shape), dtype=complex)
    run[0] = psi
    stage, windows = stencil.window_buffer(len(psi))
    psi = psi.T.copy()
    k1, k2, k3, k4 = (np.empty_like(psi) for _ in range(4))

    def deriv(f: np.ndarray, k: np.ndarray) -> None:
        # k = -i H(t) @ (the rows written into ``stage``)
        apply_drive(stencil, f, windows, k)
        k *= coef

    for step in range(n_steps):
        f = factors[step]
        stage[:] = psi
        deriv(f[0], k1)
        np.multiply(k1, h / 2.0, out=stage)
        stage += psi
        deriv(f[1], k2)
        np.multiply(k2, h / 2.0, out=stage)
        stage += psi
        deriv(f[1], k3)
        np.multiply(k3, h, out=stage)
        stage += psi
        deriv(f[2], k4)
        # psi += h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order, in place
        k1 += np.multiply(k2, 2.0, out=k2)
        k1 += np.multiply(k3, 2.0, out=k3)
        k1 += k4
        psi += np.multiply(k1, h / 6.0, out=k1)
        if (step + 1) % every == 0 and step + 1 < n_steps:
            run[(step + 1) // every] = psi.T
        if record is not None:
            record(step + 1, psi)
    run[-1] = psi.T
    return run


def _generator(params: SimParams) -> np.ndarray:
    """Q^dag K_b Q, (2, dim, dim), in the basis Q = diag(i^n), where
    K_b = c_b W(0) + delta n, c_b = (omega_d/2) (1, force_ratio), is coin
    row b's single-rate (LDA, RWA) Hamiltonian in the frame exp(i delta n t),
    as exp(-i delta n t) W(t) exp(i delta n t) = W(0).  The elements of the
    bands s = +-1 are imaginary, so Q^dag K_b Q is real symmetric tridiagonal."""
    stencil = drive_stencil(params)
    w0 = stencil.elements * stencil.factors(0.0)  # bands s = +1, 0, -1
    # <n+1|Q^dag W(0) Q|n> = -i W(0)[n+1, n] and <n|Q^dag W(0) Q|n+1> = i W(0)[n, n+1]
    w = np.diag((-1j * w0[1:, 0]).real, -1) + np.diag((1j * w0[:-1, 2]).real, 1)
    scale = np.array([1.0, params.force_ratio]) * (params.omega_d / 2.0)
    return scale[:, None, None] * w + np.diag(params.delta * np.arange(params.dim))


# one entry: a scenario drives one single-rate parameter set at a time
@functools.lru_cache(maxsize=1)
def _eigen(params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues (2, dim) and real eigenvectors (2, dim, dim) of ``_generator``."""
    values, vectors = np.linalg.eigh(_generator(params))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


# samples per block of ``_exact``: its temporaries stay small
_EXACT_BLOCK = 32


def _exact(params: SimParams, psi: np.ndarray, t0: float, duration: float,
           every: int | None = None, h: float | None = None, coins: str = COINS) -> np.ndarray:
    """``_rk4``'s run, on its sample grid and coin-labelled rows, for a
    single-rate drive from the exact U_b(t, t0) = exp(i delta n t) Q V_b
    exp(-i lambda_b (t - t0)) V_b^T Q^dag exp(-i delta n t0), with
    (lambda_b, V_b) = ``_eigen`` of each coin b of ``coins``.  The phases at
    sample lo + j of each _EXACT_BLOCK are those at lo times those at j; the
    end is evaluated on its own, so it does not depend on ``every``."""
    if duration <= 0.0:
        return psi[None]
    n_steps, h = _rk4_grid(params, duration) if h is None else (round(duration / h), h)
    every = every or n_steps
    values, vectors = (table[_rows(coins)] for table in _eigen(params))
    dim, rows, levels = params.dim, len(psi) // len(coins), np.arange(params.dim)
    q = quarter_turns(params.dim)
    coef = (psi * (q.conj() * np.exp(-1j * params.delta * t0 * levels))).reshape(-1, rows, dim) @ vectors
    run = np.empty(((n_steps - 1) // every + 2, *psi.shape), dtype=complex)
    run[0] = psi

    def phases(tau: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # exp(-i lambda_b tau) (2, samples, dim) and exp(i delta n t) (samples, dim)
        return (np.exp(-1j * tau[:, None] * values[:, None]),
                np.exp(1j * params.delta * np.multiply.outer(t, levels)))

    def evaluate(k: int, spectral: np.ndarray, frame: np.ndarray) -> None:
        # run[k : k + len(frame)], one matmul by V_b per coin row b
        left = (frame * q)[:, None]
        for b in range(len(coins)):
            out = (coef[b] * spectral[b][:, None]).reshape(-1, dim) @ vectors[b].T
            run[k : k + len(frame), b * rows : (b + 1) * rows] = out.reshape(len(frame), rows, dim) * left

    last, step = len(run) - 1, every * h
    offsets = np.arange(min(_EXACT_BLOCK, last - 1)) * step
    spectral, frame = phases(offsets, offsets)
    for lo in range(1, last, _EXACT_BLOCK):
        n = min(_EXACT_BLOCK, last - lo)
        at_lo = phases(np.array([lo * step]), np.array([t0 + lo * step]))
        evaluate(lo, at_lo[0] * spectral[:, :n], at_lo[1] * frame[:n])
    evaluate(last, *phases(np.array([duration]), np.array([t0 + duration])))
    return run


def _runner(params: SimParams):
    """``_rk4`` for the two-rate 3SB drive, ``_exact`` for the single-rate ones."""
    return _rk4 if params.level == THREE_SB else _exact


def _stride(sample_interval: float, h: float) -> int:
    """The grid steps of size h between samples about ``sample_interval``
    apart; ValueError unless the interval is finite and positive."""
    if not 0.0 < sample_interval < math.inf:
        raise ValueError(f"sample_interval must be finite and positive, got {sample_interval!r}")
    return max(1, round(sample_interval / h))


def _sampled_runs(params: SimParams, starts: list[HybridState], duration: float,
                  sample_interval: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``propagate`` history (times, amps) of each of ``starts`` over
    ``duration`` on the ``_sample_grid``, each amps a view of one read-only
    array whose end is the unsampled result, bit for bit.  An undriven or
    zero-length pulse holds its start on every grid point.  A coin row that
    no start holds stays exact zeros.  Starts that lie whole 3SB periods
    m_i T after t0 = ``starts[0].time`` share one RK4 run, as H(t + m T) =
    P^m H(t) P^-m: one run from t0 on the stacked rows P^-m_i psi_i takes
    every 3SB sample, copying out only the rows that own one at a step.
    Where the period map pays (``_tabled``), the rows are the
    ``_period_starts`` P^-n psi(t0 + n T), n = m_i + k, the run spans at
    most a period, and sample k n_T + r is P^n times its row at step r.
    Any other set of starts, and every single-rate run, goes one start at
    a time."""
    t0, period = starts[0].time, drive_period(params)
    if len(starts) > 1 and (period is None or any(
            abs(math.remainder(s.time - t0, period)) > _SNAP * _snapshot_steps(params)[1] for s in starts)):
        return [run for s in starts for run in _sampled_runs(params, [s], duration, sample_interval)]
    n, dim = len(starts), params.dim
    coins = _live(np.array([s.amps for s in starts]))
    rows = _rows(coins)
    n_steps, h = _sample_grid(params, duration)
    every = _stride(sample_interval, h)
    last = (n_steps - 1) // every + 1  # the index of the end
    if duration == 0.0 or params.omega_d == 0.0:
        amps = np.repeat(np.array([s.amps for s in starts])[:, None], last + 1, axis=1)
    elif period is None:
        amps = np.zeros((1, last + 1, 2, dim), dtype=complex)
        amps[0, :, rows] = _runner(params)(params, starts[0].amps[rows], t0, n_steps * h, every, h, coins=coins)
    else:
        amps = np.zeros((n, last + 1, 2, dim), dtype=complex)
        fold = round(period / h) if _tabled(params, duration, 2 * n) else n_steps
        periods, steps = np.divmod(np.arange(last) * every, fold)
        count = int(periods[-1]) + 1
        shifts = [round((s.time - t0) / period) for s in starts]  # m_i
        phase = _period_phase(params, np.add.outer(shifts, np.arange(count))[..., None])  # P^n
        # P^-n psi(t0 + n T), (n, count, 2, dim)
        firsts = np.array([_period_starts(s, params, count, coins) * _period_phase(params, -m)
                           for s, m in zip(starts, shifts)])

        def record(step: int, run: np.ndarray) -> None:  # run: level-major (dim, c n count)
            owned = np.flatnonzero(steps == step)
            k = periods[owned]
            picked = run.reshape(dim, len(coins), n, count)[..., k].transpose(2, 3, 1, 0)
            amps[:, owned, rows] = picked * phase[:, k, None]

        # row (b n + i) count + k: the branches of each coin b of coins
        psi = firsts.transpose(2, 0, 1, 3).reshape(-1, dim)
        record(0, psi.T)  # the samples on period starts
        _rk4(params, psi, t0, int(steps.max()) * h, h=h, record=record, coins=coins)
    if duration and params.omega_d:  # a held end is the start already
        amps[:, -1] = [_evolve(s, params, duration) for s in starts]
    amps.setflags(write=False)
    offsets = np.arange(last + 1) * every * h
    offsets[-1] = duration
    histories = [(start.time + offsets, amps[i]) for i, start in enumerate(starts)]
    for start, (times, history) in zip(starts, histories):
        _check_states(history, start, times)
    return histories


def propagate(
    state: HybridState,
    params: SimParams,
    duration: float,
    sample_interval: float | None = None,
) -> HybridState | tuple[HybridState, np.ndarray, np.ndarray]:
    """Evolve under the drive for ``duration`` starting at ``state.time``.

    With ``sample_interval`` (finite and positive) set, returns (final,
    times, amps): the states about that far apart on the ``_sample_grid``,
    start and end included, as one read-only (samples, 2, dim) array in
    ``HybridState.amps`` row order.  Samples are never closer than one grid
    step: ``_stride`` rounds a shorter interval up.  An undriven pulse
    holds its start on every grid point.  The end is the unsampled
    result, bit for bit.  Only the coin rows that hold amplitude are
    integrated, and whole periods of a 3SB pulse go through the per-coin
    ``period_map`` where it pays (``_tabled``).  Every state a run hands
    back, each sample and the end, passes ``_check_states``.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError("duration must be finite and nonnegative")
    if state.dim != params.dim:
        raise ValueError("state dim does not match params.dim")
    if sample_interval is not None:
        [(times, amps)] = _sampled_runs(params, [state], duration, sample_interval)
        return HybridState(amps[-1], float(times[-1])), times, amps
    if duration == 0.0 or params.omega_d == 0.0:
        return state.with_time(state.time + duration)
    return HybridState(_evolve(state, params, duration), state.time + duration)


def _evolve(state: HybridState, params: SimParams, duration: float) -> np.ndarray:
    """The checked amps of ``state`` after ``duration``; whole 3SB periods go
    through ``period_map`` where it pays (``_tabled``); a zero coin row stays 0."""
    coins = _live(state.amps)
    psi = state.amps[_rows(coins)]
    t0, t1 = state.time, state.time + duration
    period = drive_period(params)
    k0 = k1 = 0
    if period:
        snap = _SNAP * _snapshot_steps(params)[1]
        # t0 - (k0 - 1) T and t1 - k1 T miss a snapshot time by a few ulps of k T
        k0, k1 = math.ceil((t0 - snap) / period), math.floor((t1 + snap) / period)
    if k0 < k1 and _tabled(params, duration, len(state.amps)):
        # with k1 T + t_i the anchor nearest t1, ahead or behind (F_0 = I):
        # U(t1, t0) = U(t1, k1 T + t_i) P^k1 F_i P^-k1 U(k1 T, t0)
        k1, i, start = _nearest_anchor(params, t1)
        psi = _boundary_states(params, psi, t0, k1, coins)[-1][-1]
        if i:
            psi = np.matmul(psi[:, None], period_map(params, coins)[1][i - 1])[:, 0]
        tail = t1 - start if abs(t1 - start) > snap else 0.0
        psi = _rk4(params, psi * _period_phase(params, k1), start, tail, coins=coins)[-1]
    else:
        psi = _runner(params)(params, psi, t0, duration, coins=coins)[-1]
    amps = np.zeros_like(state.amps)
    amps[_rows(coins)] = psi
    _check_states(amps[None], state, [t1])
    return amps


# the fixed cost of an RK4 step (band factors, windows, Python) in rows: on
# one core a step on 2 dim rows costs 10 and 15 two-row steps at dim 96 and
# 128, and (2 dim + 16)/(2 + 16) gives 12 and 15
_STEP_ROWS = 16


def _tabled(params: SimParams, duration: float, rows: int) -> bool:
    """Whether ``duration`` of RK4 on ``rows`` rows costs at least the map
    build, half a period on 2 dim rows.  It sees no cache, so a pulse takes
    one path in every run."""
    return 2.0 * duration / drive_period(params) * (rows + _STEP_ROWS) >= 2 * params.dim + _STEP_ROWS


def _nearest_anchor(params: SimParams, t: float) -> tuple[int, int, float]:
    """(q, j, q T + t_j): the anchor nearest t, t_j = j T/8 on the snapshot grid (t_0 = 0)."""
    period, (steps, h) = drive_period(params), _snapshot_steps(params)
    q, j = divmod(round(t * SNAPSHOTS_PER_PERIOD / period), SNAPSHOTS_PER_PERIOD)
    return q, j, q * period + (steps[j - 1] * h if j else 0.0)


def _boundary_states(params: SimParams, psi: np.ndarray, t0: float, last: int,
                     coins: str) -> tuple[int, int, float, np.ndarray]:
    """(q, j, head, chis): RK4 takes the rows psi of ``coins`` the signed span ``head``
    from t0 to its nearest anchor q T + t_j, and the table on to every
    period boundary from k0 = q + (j > 0) to ``last``, chis[m - k0] =
    P^-m psi(m T): first P^-1 U(T, t_j) = Pi F_(8-j)^T Pi P^-1 (see
    ``period_map``), then P^-1 M per period."""
    maps, snapshots = period_map(params, coins)
    q, j, anchor = _nearest_anchor(params, t0)
    head = anchor - t0 if abs(anchor - t0) > _SNAP * _snapshot_steps(params)[1] else 0.0
    psi = _rk4(params, psi, t0, head, coins=coins)[-1] * _period_phase(params, -q - (j > 0))
    if j:  # rows hold transposes: F^T psi is snapshots @ psi
        parity = (-1.0) ** np.arange(params.dim)
        psi = np.matmul(snapshots[-j], (psi * parity)[:, :, None])[:, :, 0] * parity
    chis = [psi]
    for _ in range(last - q - (j > 0)):
        chis.append(np.matmul(chis[-1][:, None], maps)[:, 0])
    return q, j, head, np.array(chis)


def _period_starts(state: HybridState, params: SimParams, count: int, coins: str) -> np.ndarray:
    """(count, c, dim): P^-k psi(t + k T) on the c rows ``coins``, t = ``state.time``.  At t's
    nearest anchor a = q T + t_j, P^-k psi(a + k T) = P^q F_j chi_(q+k) from
    the ``_boundary_states``, and one RK4 run takes them all back to t, as
    U(t + k T, a + k T) = P^k U(t, a) P^-k."""
    psi = state.amps[_rows(coins)]
    if count == 1:
        return psi[None]
    q = _nearest_anchor(params, state.time)[0]
    q, j, head, chis = _boundary_states(params, psi, state.time, q + count - 1, coins)
    ahead = chis[1 - count:]  # chi_(q + k), k = 1..count - 1
    if j:
        ahead = np.matmul(ahead[:, :, None], period_map(params, coins)[1][j - 1])[:, :, 0]
    rows = (ahead * _period_phase(params, q)).transpose(1, 0, 2).reshape(-1, params.dim)  # by coin
    back = _rk4(params, rows, state.time + head, -head, coins=coins)[-1].reshape(len(coins), count - 1, -1)
    return np.concatenate([psi[None], back.transpose(1, 0, 2)])


def _check_states(amps: np.ndarray, start: HybridState, times) -> None:
    """The one rule for every state a run hands back, at ``times`` from
    ``start``: a norm drift beyond 1e-6 (or NaN) raises StepError, and
    guard-band population reaching LEAK_TOL in a branch TruncationError."""
    norm = math.sqrt(float(np.vdot(start.amps, start.amps).real))
    flat = amps.reshape(len(amps), -1)  # one sum over both rows of each state
    drift = np.abs(np.sqrt(np.vecdot(flat, flat).real) - norm)
    bad = ~(drift <= 1e-6) | np.any(leakage(amps) >= LEAK_TOL, axis=-1)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not drift[i] <= 1e-6:
            raise StepError(f"norm drift {drift[i]:.3e} at t = {times[i]:.3e} s")
        for coin, row in zip(COINS, amps[i]):
            check_leakage(row, f"propagate ({coin} branch, t = {times[i]:.3e} s)")


# states per moment evaluation: mean_a's temporaries for a whole history
# would copy it twice over and become the run's memory peak
_BLOCK = 256


def _blockwise(moment, amps: np.ndarray) -> np.ndarray:
    """``moment`` (``mean_a`` or ``mean_n``) of each state of a history, _BLOCK at a time."""
    return np.concatenate([moment(amps[i : i + _BLOCK]) for i in range(0, len(amps), _BLOCK)])


def trajectory_table(times: np.ndarray, amps: np.ndarray) -> dict[str, np.ndarray]:
    """Arrays (t, re/im alpha per branch, mean n per branch) for export of
    the history ``times``, ``amps`` (samples, 2, dim).

    The simulation frame co-rotates at the trap frequency, so a branch's
    <a> is already its co-rotating phase-space alpha.
    """
    alpha, n = _blockwise(mean_a, amps), _blockwise(mean_n, amps)
    table = {"t": np.asarray(times, dtype=float)}
    for row, coin in enumerate(COINS.lower()):
        table[f"re_alpha_{coin}"], table[f"im_alpha_{coin}"] = alpha[:, row].real, alpha[:, row].imag
    for row, coin in enumerate(COINS.lower()):
        table[f"n_{coin}"] = n[:, row]
    return table


# ---------------------------------------------------------------------------
# Analytic linear-regime (LDA) solution


def lda_pulse_displacement(params: SimParams, t_start: float, duration: float) -> complex:
    """Full-force displacement of a drive pulse starting at ``t_start``."""
    g0 = params.eta * params.omega_d / 2.0
    if params.delta == 0.0:
        return complex(g0 * duration)
    return (
        (-1j * g0 / params.delta)
        * (cmath.exp(1j * params.delta * (t_start + duration)) - cmath.exp(1j * params.delta * t_start))
    )


def lda_pulse_phase(params: SimParams, duration: float) -> float:
    """Full-force geometric phase Im int alpha* dalpha of one drive pulse.

    Independent of the pulse start time; equals pi*(eta*omega_d/(2 delta))^2
    for a half-turn pulse and twice that for a full turn.
    """
    if params.delta == 0.0:
        return 0.0
    a = params.eta * params.omega_d / (2.0 * params.delta)
    x = params.delta * duration
    return a * a * (x - math.sin(x))


def lda_propagate(state: HybridState, params: SimParams, duration: float) -> HybridState:
    """Closed-form evolution: branch displacement times a phase factor."""
    disp = lda_pulse_displacement(params, state.time, duration)
    phi = lda_pulse_phase(params, duration)
    r = params.force_ratio
    d_t = displacement_matrix(disp, params.dim)
    d_h = displacement_matrix(r * disp, params.dim)
    amps_t = cmath.exp(1j * phi) * (d_t @ state.amps[0])
    amps_h = cmath.exp(1j * r * r * phi) * (d_h @ state.amps[1])
    return HybridState(np.stack([amps_t, amps_h]), state.time + duration)


# ---------------------------------------------------------------------------
# Excitation studies


@dataclass(frozen=True)
class ExcitationResult:
    final: HybridState
    times: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray

    @property
    def fano(self) -> np.ndarray:
        out = np.full_like(self.mean_n, np.nan)
        mask = self.mean_n > 1e-12
        out[mask] = self.var_n[mask] / self.mean_n[mask]
        return out


def resonant_excitation(params: SimParams, duration: float) -> ExcitationResult:
    """Drive at delta = 0 from the ground state; report <n>(t) and its variance."""
    if params.level == LDA:
        raise ConfigError("resonant excitation requires level RWA or 3SB")
    run = params.replace(delta=0.0)
    final, times, amps = propagate(ground_hybrid(run.dim), run, duration, duration / 200.0)
    mean = mean_n(amps[:, 0])
    p = np.abs(amps[:, 0]) ** 2
    p /= p.sum(axis=-1, keepdims=True)
    var_n = np.vecdot((np.arange(run.dim) - mean[:, None]) ** 2, p)
    return ExcitationResult(final=final, times=times, mean_n=mean, var_n=var_n)


@dataclass(frozen=True)
class StepwiseResult:
    final: HybridState
    segments: list  # one (times, amps) history per drive pulse


def stepwise_excitation(params: SimParams, n_pulses: int) -> StepwiseResult:
    """Alternate drive pulses and free waits, each lasting ``t_half_turn``
    = pi/|delta|, from the ground state; each pulse is sampled about every
    1/50 of its length.

    The drive clock keeps running during the waits, so the direction of
    each displacement follows the accumulated drive phase.  The start
    states come from unsampled ``propagate``, and one ``_sampled_runs``
    call samples every pulse: stacked where pulse + wait spans whole 3SB
    drive periods, one start at a time otherwise.  An undriven pulse
    holds its start on the grid.
    """
    if params.level == LDA:
        raise ConfigError("stepwise excitation requires level RWA or 3SB")
    if n_pulses < 0:
        raise ConfigError(f"n_pulses must be nonnegative, got {n_pulses!r}")
    span = params.t_half_turn
    starts = [ground_hybrid(params.dim)]
    if n_pulses == 0:
        return StepwiseResult(final=starts[0], segments=[])
    for _ in range(n_pulses - 1):
        end = propagate(starts[-1], params, span)
        starts.append(end.with_time(end.time + span))
    segments = _sampled_runs(params, starts, span, span / 50.0)
    times, amps = segments[-1]
    return StepwiseResult(final=HybridState(amps[-1], float(times[-1]) + span), segments=segments)


def return_time(times: np.ndarray, amps: np.ndarray) -> tuple[float, float]:
    """(t, <n>) of the minimum <n> of the T branch after its excitation peak
    in the ``propagate`` history ``times``, ``amps`` from the ground state.
    ValueError if <n> never rises above its start (an undriven history has no
    return) or still rises at the last sample."""
    n_vals = _blockwise(mean_n, amps[:, 0])
    peak = int(np.argmax(n_vals))
    if peak == 0:
        raise ValueError(f"T-branch <n> never rises above its start, t = {times[0]:.3e} s: "
                         "the history holds no excitation to return from")
    if peak >= len(n_vals) - 1:
        raise ValueError(f"T-branch <n> still rises at the last sample, t = {times[-1]:.3e} s: "
                         "the history must be longer (raise duration) to hold a post-peak window")
    idx = peak + int(np.argmin(n_vals[peak:]))
    return float(times[idx]), float(n_vals[idx])
