"""Pulse programs composing coin rotations and dipole-force pulses.

The shift of the walk is a *combined pulse*: two dipole pulses, each
followed by an instantaneous RF pi rotation, with the intermediate wait
sized so the second displacement is collinear (opposite sense) with the
first.  The drive clock runs continuously, so every wait advances the
direction of the next displacement by delta * wait.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import HybridState, ground_hybrid, lda_pulse_displacement, propagate
from .errors import ConfigError
from .fock import SimParams, coherent_state, mean_a, mean_n
from .lattice import coin_phases, rotate_coin

HBAR = 1.054571817e-34  # J s

# the golden-section t_d search stops at a bracket of OPTIMUM_TOL s or after OPTIMUM_MAX_ITER cuts
OPTIMUM_TOL = 1e-9
OPTIMUM_MAX_ITER = 18

RF = "rf"
DIPOLE = "dipole"
WAIT = "wait"


@dataclass(frozen=True)
class PulseEvent:
    """One program event: an RF rotation, a dipole pulse, or a wait.

    RF rotations are instantaneous in this model; dipole and wait events
    carry a duration in seconds.
    """

    kind: str
    theta: float = 0.0
    phi: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in (RF, DIPOLE, WAIT):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not 0.0 <= self.duration < math.inf:
            raise ValueError("durations must be finite and nonnegative")


def rf(theta: float, phi: float) -> PulseEvent:
    return PulseEvent(RF, theta=theta, phi=phi)


def dipole(duration: float) -> PulseEvent:
    return PulseEvent(DIPOLE, duration=duration)


def wait(duration: float) -> PulseEvent:
    return PulseEvent(WAIT, duration=duration)


@dataclass(frozen=True)
class PulseProgram:
    events: tuple[PulseEvent, ...]
    params: SimParams

    def __post_init__(self):
        if not self.events:
            raise ValueError("a program needs at least one event")
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> dict:
        """``params`` (every SimParams field) and ``events`` with their
        absolute start times, for the JSON writer."""
        rows = []
        t = 0.0
        for e in self.events:
            row = {"kind": e.kind, "start_time": t}
            if e.kind == RF:
                row["theta"] = e.theta
                row["phi"] = e.phi
            else:
                row["duration"] = e.duration
            rows.append(row)
            t += e.duration
        return {"params": asdict(self.params), "events": rows}


def combined_pulse(
    t_d: float,
    wait_multiplier: float = 2.0,
    phi_rf: float = 0.0,
) -> list[PulseEvent]:
    """Shift-operation fragment: dipole, pi pulse, wait, dipole, pi pulse, wait.

    The first wait advances the drive phase so that at t_d = pi/delta the
    second displacement is antiparallel to the first, which turns the two
    coin-dependent phase factors into one global phase and gives equal
    step distances on both branches.  The trailing wait of the same length
    keeps consecutive shifts collinear at the nominal duration, so one step
    spans (2 + 2*wait_multiplier)*t_d.
    """
    if not 0.0 < t_d < math.inf:
        raise ConfigError(f"t_d must be finite and positive, got {t_d!r}")
    if wait_multiplier not in (2.0, 4.0):
        raise ConfigError(f"wait_multiplier must be 2 or 4, got {wait_multiplier!r}")
    return [
        dipole(t_d),
        rf(math.pi, phi_rf),
        wait(wait_multiplier * t_d),
        dipole(t_d),
        rf(math.pi, phi_rf),
        wait(wait_multiplier * t_d),
    ]


def walk_program(
    n_steps: int,
    t_d: float,
    params: SimParams,
    symmetric: bool = False,
    phi_rf: float = 0.0,
    wait_multiplier: float = 2.0,
) -> PulseProgram:
    """Coin-plus-shift sequence for an n-step walk; the coin phases are
    ``lattice.coin_phases``, as in the lattice walk."""
    if n_steps < 1:
        raise ConfigError(f"n_steps must be at least 1, got {n_steps!r}")
    events: list[PulseEvent] = []
    for coin_phi in coin_phases(n_steps, phi_rf, symmetric):
        events += [rf(math.pi / 2.0, coin_phi), *combined_pulse(t_d, wait_multiplier, phi_rf)]
    return PulseProgram(events, params)


def run_program(
    program: PulseProgram,
    initial: HybridState | None = None,
    sample_interval: float | None = None,
) -> HybridState | tuple[HybridState, np.ndarray, np.ndarray]:
    """Execute a program event by event from ``initial`` (default |T>|0>).

    With ``sample_interval``, returns (final, times, amps) as a sampled
    ``propagate`` does: the start, each dipole pulse's samples after its
    start and the state after each wait."""
    params = program.params
    state = initial if initial is not None else ground_hybrid(params.dim)
    history = [([state.time], state.amps[None])]
    for event in program.events:
        if event.kind == RF:
            state = HybridState(rotate_coin(state.amps, event.theta, event.phi), state.time)
        elif event.kind == WAIT:
            state = state.with_time(state.time + event.duration)
            history.append(([state.time], state.amps[None]))
        elif sample_interval is None:
            state = propagate(state, params, event.duration)
        else:
            state, times, amps = propagate(state, params, event.duration, sample_interval)
            history.append((times[1:], amps[1:]))
    if sample_interval is None:
        return state
    times, amps = (np.concatenate(parts) for parts in zip(*history))
    amps.setflags(write=False)
    return state, times, amps


def combined_pulse_step(params: SimParams, t_d: float | None = None,
                        wait_multiplier: float = 2.0) -> complex:
    """Net displacement of the T branch per combined pulse in the linear model."""
    if t_d is None:
        t_d = params.t_half_turn
    d1 = lda_pulse_displacement(params, 0.0, t_d)
    d2 = lda_pulse_displacement(params, (1.0 + wait_multiplier) * t_d, t_d)
    # branch starting in T feels the full force first, then the reduced
    # force after the pi pulse; the final pi pulse restores the label
    return d1 + params.force_ratio * d2


def _walk_coin_probs(params: SimParams, t_d: float, n_steps: int,
                     wait_multiplier: float) -> tuple[float, float, float]:
    program = walk_program(n_steps, t_d, params,
                           wait_multiplier=wait_multiplier)
    final = run_program(program)
    p_t, p_h = final.coin_probabilities()
    return t_d, p_t, p_h


def scan_td(
    params: SimParams,
    t_d_values,
    n_steps: int = 3,
    wait_multiplier: float = 2.0,
) -> list[tuple[float, float, float]]:
    """Coin probabilities (t_d, P_T, P_H) for a grid of dipole durations.

    The grid must stay within [0.8, 1.2] * pi/delta, the window in which
    the combined-pulse geometry remains a meaningful shift.
    """
    t_half = params.t_half_turn
    t_d_values = list(map(float, t_d_values))
    for t_d in t_d_values:
        if not 0.8 * t_half <= t_d <= 1.2 * t_half:
            raise ValueError(f"t_d {t_d} outside [0.8, 1.2]*pi/delta scan window")
    return [_walk_coin_probs(params, t_d, n_steps, wait_multiplier)
            for t_d in t_d_values]


def find_optimal_td(
    params: SimParams,
    window: tuple[float, float],
    n_steps: int = 3,
    wait_multiplier: float = 2.0,
) -> tuple[float, float, float]:
    """Golden-section maximum of P_T/P_H inside ``window``.

    Returns (t_d_opt, p_t, p_h).  The target function carries fast
    modulation on top of the interference envelope, so the window should
    bracket a single coarse-scan maximum.
    """

    def ratio(t_d: float) -> tuple[float, float, float]:
        _, p_t, p_h = _walk_coin_probs(params, t_d, n_steps, wait_multiplier)
        return p_t / p_h, p_t, p_h

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = window
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ratio(c), ratio(d)
    for _ in range(OPTIMUM_MAX_ITER):
        if b - a < OPTIMUM_TOL:
            break
        if fc[0] > fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = ratio(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = ratio(d)
    best = fc if fc[0] > fd[0] else fd
    t_best = c if fc[0] > fd[0] else d
    return t_best, best[1], best[2]


@dataclass(frozen=True)
class CalibrationResult:
    mean_n: list[float]
    neighbor_overlaps: list[float]
    coherent_fidelities: list[float]
    states: list[np.ndarray]


def calibrate_positions(
    k_max: int,
    params: SimParams,
    t_d: float | None = None,
    wait_multiplier: float = 2.0,
) -> CalibrationResult:
    """Ladder of position states from repeated shift operations (no coins).

    Reports <n> per position, the overlaps |<k|k+1>|^2 of neighboring
    position states, and each state's fidelity against an ideal coherent
    state of matched amplitude.
    """
    if t_d is None:
        t_d = params.t_half_turn
    shift = PulseProgram(combined_pulse(t_d, wait_multiplier), params)
    state = ground_hybrid(params.dim)
    ladder = [state]
    for _ in range(k_max):
        state = run_program(shift, initial=state)
        ladder.append(state)
    # the T branch carries the full weight throughout (no coins applied)
    branches = [s.amps[0] / float(np.linalg.norm(s.amps[0])) for s in ladder]
    stack = np.array(branches)
    n_values = mean_n(stack).tolist()
    # np.hypot rounds |z| as abs(complex) does (np.abs may differ in the last bit)
    overlap = np.vecdot(stack[:-1], stack[1:])
    overlaps = (np.hypot(overlap.real, overlap.imag) ** 2).tolist()
    fidelities = []
    for b, n, alpha in zip(branches, n_values, mean_a(stack).tolist()):
        direction = cmath.phase(alpha) if abs(alpha) > 1e-12 else 0.0
        target = coherent_state(math.sqrt(n) * cmath.exp(1j * direction), params.dim)
        fidelities.append(abs(complex(np.vdot(b, target))) ** 2)
    return CalibrationResult(n_values, overlaps, fidelities, branches)


def force_amplitude(params: SimParams) -> float:
    """Peak dipole force on the full-force branch, in newtons."""
    return HBAR * params.eta * params.omega_d / (2.0 * params.z0)
