"""Time-dependent propagation of the coin (x) motion state under the drive.

The interaction-picture Hamiltonian of the coin-state-dependent dipole
force is represented as a sum of Fock-ladder bands, one per level offset
``s = m - n``, each multiplied by a scalar time factor.  Three
approximation levels are supported:

* ``LDA``  - linearized force, bands s = +-1 with elements i*eta*sqrt(n+1);
* ``RWA``  - bands s = +-1 with exact sideband matrix elements;
* ``3SB``  - all bands |s| <= 3 with both rotating terms retained.

Propagation is fixed-step RK4 on the Schrodinger equation; the free
evolution (drive off) is the identity in this frame, so waits only
advance the drive clock.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import eval_genlaguerre, gammaln

from .errors import StepError
from .fock import (
    LDA,
    RWA,
    THREE_SB,
    MotionalState,
    PhasePoint,
    SimParams,
    check_leakage,
    coupling_thresholds,
    displacement_matrix,
)

STEPS_PER_PERIOD = 50


@dataclass(frozen=True)
class HybridState:
    """Coin (x) motion wavefunction: one motional branch per coin state."""

    t_part: MotionalState
    h_part: MotionalState
    time: float = 0.0

    def __post_init__(self):
        if self.t_part.dim != self.h_part.dim:
            raise ValueError("branch dimensions differ")
        total = self.t_part.norm() ** 2 + self.h_part.norm() ** 2
        if abs(total - 1.0) > 5e-6:
            raise ValueError(f"total norm^2 {total} deviates from 1")

    @property
    def dim(self) -> int:
        return self.t_part.dim

    def total_norm(self) -> float:
        return math.sqrt(self.t_part.norm() ** 2 + self.h_part.norm() ** 2)

    def coin_probabilities(self) -> tuple[float, float]:
        """(P_T, P_H), renormalized at readout."""
        p_t = self.t_part.norm() ** 2
        p_h = self.h_part.norm() ** 2
        total = p_t + p_h
        return p_t / total, p_h / total

    def packed(self) -> np.ndarray:
        """(2, dim) array, row 0 = T branch, row 1 = H branch."""
        return np.stack([self.t_part.amps, self.h_part.amps])

    @classmethod
    def from_packed(cls, psi: np.ndarray, time: float) -> "HybridState":
        return cls(MotionalState(psi[0]), MotionalState(psi[1]), time)

    def with_time(self, time: float) -> "HybridState":
        return HybridState(self.t_part, self.h_part, time)


@dataclass(frozen=True)
class DerivedPhases:
    """Per-pulse geometric phases and the sideband-coupling thresholds."""

    phi_t: float
    phi_h: float
    g1: int
    g2: int


def ground_hybrid(dim: int, coin: str = "T") -> HybridState:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    zero = np.zeros(dim, dtype=complex)
    if coin == "T":
        return HybridState(MotionalState(amps), MotionalState(zero))
    if coin == "H":
        return HybridState(MotionalState(zero), MotionalState(amps))
    if coin == "TH":
        w = amps / math.sqrt(2.0)
        return HybridState(MotionalState(w), MotionalState(w))
    raise ValueError("coin must be 'T', 'H' or 'TH'")


@dataclass(frozen=True)
class DriveStencil:
    """The drive's ladder bands |n+s><n|, s = P..-P, stacked by target level.

    Row ``j`` holds offset ``s = P - j``: ``elements[j, m]`` couples source
    level ``m - s`` to target ``m`` (zero where the source lies outside the
    basis), and its time factor is sum_k amps[j, k] * exp(i * rates[j, k] * t).
    ``norm_weight`` is sum over bands of max|element| * sum|amps|.
    """

    elements: np.ndarray
    amps: np.ndarray
    rates: np.ndarray
    norm_weight: float

    @property
    def reach(self) -> int:
        return (self.elements.shape[0] - 1) // 2

    @property
    def offsets(self) -> np.ndarray:
        return self.reach - np.arange(self.elements.shape[0])

    def factors(self, times) -> np.ndarray:
        """Band time factors at every time: shape ``times.shape + (2P+1,)``."""
        terms = 1j * np.multiply.outer(np.asarray(times, dtype=float), self.rates)
        np.exp(terms, out=terms)  # in place: a pulse's table is the transient peak
        terms *= self.amps
        return terms.sum(axis=-1)

    def window_buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """(interior, windows) of a zeroed (2, dim + 2P) padded buffer.

        Branch states written into the rows of ``interior`` show in
        ``windows[:, m, j]`` as the source amplitudes psi[m - s] that
        stencil row j couples to target level m.
        """
        reach, dim = self.reach, self.elements.shape[1]
        padded = np.zeros((2, dim + 2 * reach), dtype=complex)
        return padded[:, reach : reach + dim], sliding_window_view(padded, 2 * reach + 1, axis=1)


def _band_elements(eta: float, offset: int, dim: int, linearized: bool) -> np.ndarray:
    """Matrix elements <j+offset| exp(i eta (a+a^dag)) |j> over valid j."""
    s = offset
    if linearized:
        if s == 1:
            j = np.arange(dim - 1)
            return 1j * eta * np.sqrt(j + 1.0)
        if s == -1:
            j = np.arange(1, dim)
            return 1j * eta * np.sqrt(j.astype(float))
        raise ValueError("linearized bands exist only for offset +-1")
    x = eta * eta
    if s >= 0:
        j = np.arange(dim - s)
        col, row = j, j + s
    else:
        j = np.arange(-s, dim)
        col, row = j, j + s
    low = np.minimum(row, col)
    high = np.maximum(row, col)
    log_fac = 0.5 * (gammaln(low + 1) - gammaln(high + 1))
    lag = eval_genlaguerre(low, abs(s), x)
    return (1j * eta) ** abs(s) * np.exp(log_fac - x / 2.0) * lag


def _build_stencil(params: SimParams) -> DriveStencil:
    """Band decomposition of the interaction Hamiltonian at params.level."""
    eta, dim = params.eta, params.dim
    wz, delta, phi0 = params.omega_z, params.delta, params.phi0
    eip = cmath.exp(1j * phi0)
    linear = params.level == LDA
    if params.level in (LDA, RWA):
        bands = {1: ((eip,), (delta,)), -1: ((-eip.conjugate(),), (-delta,))}
    else:
        bands = {
            s: ((eip, (-1) ** abs(s) * eip.conjugate()), ((s - 1) * wz + delta, (s + 1) * wz - delta))
            for s in range(-3, 4)
        }
    reach = max(bands)
    n_terms = len(bands[reach][0])
    elements = np.zeros((2 * reach + 1, dim), dtype=complex)
    amps = np.zeros((2 * reach + 1, n_terms), dtype=complex)
    rates = np.zeros((2 * reach + 1, n_terms))
    norm_weight = 0.0
    # bands in insertion order: the RK4 step size depends on this sum bitwise
    for s, (band_amps, band_rates) in bands.items():
        values = _band_elements(eta, s, dim, linear)
        elements[reach - s, max(0, s) : dim + min(0, s)] = values
        amps[reach - s] = band_amps
        rates[reach - s] = band_rates
        norm_weight += float(np.max(np.abs(values))) * sum(abs(a) for a in band_amps)
    return DriveStencil(elements, amps, rates, norm_weight)


def apply_drive(
    stencil: DriveStencil, factors: np.ndarray, windows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[b] = W(t) @ psi[b] for each row b of psi, given the band
    ``factors`` at t and the stencil ``windows`` of psi (see
    ``DriveStencil.window_buffer``)."""
    return np.einsum("jm,bmj->bm", factors[:, None] * stencil.elements, windows, out=out)


def hamiltonian(params: SimParams, t: float) -> np.ndarray:
    """Dense Hamiltonian on coin (x) motion at time t.

    Basis ordering is coin-major with |T> first, as in
    ``HybridState.packed``: index b*dim + n for coin block b in (T, H).
    """
    dim = params.dim
    stencil = drive_stencil(params)
    rows = np.broadcast_to(np.arange(dim), stencil.elements.shape)
    cols = rows - stencil.offsets[:, None]
    inside = (cols >= 0) & (cols < dim)
    w = np.zeros((dim, dim), dtype=complex)
    w[rows[inside], cols[inside]] = (stencil.factors(t)[:, None] * stencil.elements)[inside]
    coin = np.diag([1.0, params.force_ratio]) * (params.omega_d / 2.0)
    return np.kron(coin, w)


_STENCIL_CACHE: dict[tuple, DriveStencil] = {}


def drive_stencil(params: SimParams) -> DriveStencil:
    key = (params.level, params.eta, params.dim, params.omega_z, params.delta, params.phi0)
    stencil = _STENCIL_CACHE.get(key)
    if stencil is None:
        stencil = _build_stencil(params)
        _STENCIL_CACHE[key] = stencil
    return stencil


def rk4_step_size(params: SimParams, duration: float) -> float:
    """Fixed RK4 step: resolve the fastest rotating term, the drive rate,
    and the coupling's spectral radius (the linearized elements grow with
    sqrt(n), so the drive rate alone under-resolves large bases)."""
    if params.level == THREE_SB:
        omega_fast = 3.0 * params.omega_z + abs(params.delta)
    else:
        omega_fast = abs(params.delta)
    candidates = [duration]
    if omega_fast > 0.0:
        candidates.append(2.0 * math.pi / (STEPS_PER_PERIOD * omega_fast))
    if params.omega_d > 0.0:
        candidates.append(2.0 * math.pi / (STEPS_PER_PERIOD * params.omega_d))
        norm_bound = 0.5 * params.omega_d * drive_stencil(params).norm_weight
        if norm_bound > 0.0:
            candidates.append(2.0 * math.pi / (STEPS_PER_PERIOD * norm_bound))
    return min(candidates)


def propagate(
    state: HybridState,
    params: SimParams,
    duration: float,
    sample_interval: float | None = None,
) -> HybridState | tuple[HybridState, list[HybridState]]:
    """Evolve under the drive for ``duration`` starting at ``state.time``.

    With ``sample_interval`` set, also returns snapshots roughly that far
    apart (always including start and end).  Norm drift beyond 1e-6 raises
    StepError; population reaching the guard band raises TruncationError.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    if state.dim != params.dim:
        raise ValueError("state dim does not match params.dim")
    samples: list[HybridState] = []
    if duration == 0.0 or params.omega_d == 0.0:
        final = state.with_time(state.time + duration)
        if sample_interval is not None:
            return final, [state, final]
        return final
    stencil = drive_stencil(params)
    h = rk4_step_size(params, duration)
    n_steps = max(1, math.ceil(duration / h))
    h = duration / n_steps
    sample_stride = None
    if sample_interval is not None:
        sample_stride = max(1, round(sample_interval / h))
        samples.append(state)

    psi = state.packed()
    norm0 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    scale = np.array([1.0, params.force_ratio]) * (params.omega_d / 2.0)
    coef = -1j * scale[:, None]
    # band factors at each step's stage times t, t + h/2 and t + h
    starts = state.time + np.arange(n_steps) * h
    factors = stencil.factors(np.stack([starts, starts + h / 2.0, starts + h], axis=1))
    stage, windows = stencil.window_buffer()
    k1, k2, k3, k4 = (np.empty_like(psi) for _ in range(4))

    def deriv(f: np.ndarray, k: np.ndarray) -> None:
        # k = -i H(t) @ (the state written into ``stage``)
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
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if sample_stride is not None and (step + 1) % sample_stride == 0 and step + 1 < n_steps:
            samples.append(HybridState.from_packed(psi, state.time + (step + 1) * h))

    norm1 = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    drift = abs(norm1 - norm0)
    if drift > 1e-6:
        raise StepError(f"norm drift {drift:.3e} over {duration:.3e} s")
    check_leakage(psi[0], "propagate (T branch)")
    check_leakage(psi[1], "propagate (H branch)")
    final = HybridState.from_packed(psi, state.time + duration)
    if sample_interval is not None:
        samples.append(final)
        return final, samples
    return final


def trajectory(history: list[HybridState], branch: str = "T") -> list[PhasePoint]:
    """Phase-space path <a>(t) of one branch over a state history.

    The simulation frame co-rotates at the trap frequency, so the branch
    expectation of the lowering operator is already the co-rotating alpha.
    """
    part = {"T": lambda s: s.t_part, "H": lambda s: s.h_part}[branch]
    points = []
    for state in history:
        branch_state = part(state)
        if branch_state.norm() <= 1e-6:
            points.append(PhasePoint(0.0, 0.0))
        else:
            points.append(PhasePoint.from_complex(branch_state.mean_a()))
    return points


def trajectory_table(history: list[HybridState]) -> dict[str, np.ndarray]:
    """Arrays (t, re/im alpha per branch, mean n per branch) for export."""
    t = np.array([s.time for s in history])
    a_t = np.array([s.t_part.mean_a() for s in history])
    a_h = np.array([s.h_part.mean_a() for s in history])
    n_t = np.array([s.t_part.mean_n() for s in history])
    n_h = np.array([s.h_part.mean_n() for s in history])
    return {
        "t": t,
        "re_alpha_t": a_t.real,
        "im_alpha_t": a_t.imag,
        "re_alpha_h": a_h.real,
        "im_alpha_h": a_h.imag,
        "n_t": n_t,
        "n_h": n_h,
    }


# ---------------------------------------------------------------------------
# Analytic linear-regime (LDA) solution


def lda_pulse_displacement(params: SimParams, t_start: float, duration: float) -> complex:
    """Full-force displacement of a drive pulse starting at ``t_start``."""
    g0 = params.eta * params.omega_d / 2.0
    phase = cmath.exp(1j * params.phi0)
    if params.delta == 0.0:
        return g0 * duration * phase * cmath.exp(1j * 0.0)
    return (
        phase
        * (-1j * g0 / params.delta)
        * (cmath.exp(1j * params.delta * (t_start + duration)) - cmath.exp(1j * params.delta * t_start))
    )


def lda_pulse_phase(params: SimParams, duration: float) -> float:
    """Full-force geometric phase Im int alpha* dalpha of one drive pulse.

    Independent of the pulse start time; equals pi*(eta*omega_d/(2 delta))^2
    for a half-turn pulse and twice that for a full turn.
    """
    if params.delta == 0.0:
        g0 = params.eta * params.omega_d / 2.0
        return 0.0 * g0
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
    amps_t = cmath.exp(1j * phi) * (d_t @ state.t_part.amps)
    amps_h = cmath.exp(1j * r * r * phi) * (d_h @ state.h_part.amps)
    return HybridState(MotionalState(amps_t), MotionalState(amps_h), state.time + duration)


def derived_phases(params: SimParams, duration: float | None = None) -> DerivedPhases:
    """Geometric phases of one drive pulse (default: half turn) plus g1, g2."""
    if duration is None:
        duration = params.t_half_turn
    phi_t = lda_pulse_phase(params, duration)
    phi_h = params.force_ratio**2 * phi_t
    g1, g2 = coupling_thresholds(params.eta)
    return DerivedPhases(phi_t=phi_t, phi_h=phi_h, g1=g1, g2=g2)


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


def _branch_number_stats(state: HybridState, branch: str = "T") -> tuple[float, float]:
    part = state.t_part if branch == "T" else state.h_part
    p = part.fock_probs()
    total = p.sum()
    if total <= 0.0:
        return 0.0, 0.0
    p = p / total
    n = np.arange(part.dim)
    mean = float(n @ p)
    var = float((n - mean) ** 2 @ p)
    return mean, var


def resonant_excitation(
    params: SimParams, duration: float, sample_interval: float | None = None
) -> ExcitationResult:
    """Drive at delta = 0 from the ground state; report <n>(t) and its variance."""
    if params.level == LDA:
        raise ValueError("resonant excitation requires RWA or 3SB")
    run = params.replace(delta=0.0)
    if sample_interval is None:
        sample_interval = duration / 200.0
    final, history = propagate(ground_hybrid(run.dim), run, duration, sample_interval)
    stats = [_branch_number_stats(s) for s in history]
    return ExcitationResult(
        final=final,
        times=np.array([s.time for s in history]),
        mean_n=np.array([m for m, _ in stats]),
        var_n=np.array([v for _, v in stats]),
    )


@dataclass(frozen=True)
class StepwiseResult:
    final: HybridState
    segments: list  # one state history per drive pulse


def stepwise_excitation(
    params: SimParams,
    n_pulses: int,
    pulse_duration: float,
    wait_duration: float,
    sample_interval: float | None = None,
) -> StepwiseResult:
    """Alternate drive pulses and free waits from the ground state.

    The drive clock keeps running during the waits, so the direction of
    each displacement follows the accumulated drive phase.
    """
    if params.level == LDA:
        raise ValueError("stepwise excitation requires RWA or 3SB")
    if n_pulses < 0:
        raise ValueError("n_pulses must be nonnegative")
    if sample_interval is None:
        sample_interval = pulse_duration / 50.0
    state = ground_hybrid(params.dim)
    segments = []
    for _ in range(n_pulses):
        state, history = propagate(state, params, pulse_duration, sample_interval)
        segments.append(history)
        state = state.with_time(state.time + wait_duration)
    return StepwiseResult(final=state, segments=segments)


def return_time(params: SimParams, scan_duration: float, sample_interval: float | None = None):
    """Time of minimum <n> after the excitation peak (single-branch drive).

    Returns (t_return, min_n, history).
    """
    if sample_interval is None:
        sample_interval = scan_duration / 2000.0
    final, history = propagate(ground_hybrid(params.dim), params, scan_duration, sample_interval)
    times = np.array([s.time for s in history])
    n_vals = np.array([_branch_number_stats(s)[0] for s in history])
    peak = int(np.argmax(n_vals))
    if peak >= len(n_vals) - 1:
        raise ValueError("no post-peak window inside scan_duration")
    rel = int(np.argmin(n_vals[peak:]))
    idx = peak + rel
    return float(times[idx]), float(n_vals[idx]), history
