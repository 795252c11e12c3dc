"""Pulse programs composing coin rotations and dipole-force pulses.

The shift of the walk is a *combined pulse*: two dipole pulses, each
followed by an instantaneous RF pi rotation, with the intermediate wait
sized so the second displacement is collinear (opposite sense) with the
first.  The drive clock runs continuously, so every wait advances the
direction of the next displacement by delta * wait.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .dynamics import HybridState, ground_hybrid, lda_pulse_displacement, propagate
from .fock import MotionalState, SimParams, coherent_state

HBAR = 1.054571817e-34  # J s

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
        if self.duration < 0.0:
            raise ValueError("durations must be nonnegative")


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
    wait_multiplier: float = 2.0

    def __post_init__(self):
        if not self.events:
            raise ValueError("a program needs at least one event")
        if self.wait_multiplier not in (2.0, 4.0):
            raise ValueError("wait_multiplier must be 2 or 4")
        object.__setattr__(self, "events", tuple(self.events))

    def duration(self) -> float:
        return sum(e.duration for e in self.events)

    def to_json_dict(self) -> dict:
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
        p = self.params
        return {
            "wait_multiplier": self.wait_multiplier,
            "params": {
                "omega_z": p.omega_z,
                "delta": p.delta,
                "omega_d": p.omega_d,
                "eta": p.eta,
                "phi0": p.phi0,
                "z0": p.z0,
                "dim": p.dim,
                "level": p.level,
                "force_ratio": p.force_ratio,
            },
            "events": rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def apply_rf(state: HybridState, theta: float, phi: float) -> HybridState:
    """Instantaneous coin rotation R(theta, phi) on both branches."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    eip = cmath.exp(1j * phi)
    new_h = c * state.h_part.amps + eip * s * state.t_part.amps
    new_t = -eip.conjugate() * s * state.h_part.amps + c * state.t_part.amps
    return HybridState(MotionalState(new_t), MotionalState(new_h), state.time)


def combined_pulse(
    t_d: float,
    wait_multiplier: float = 2.0,
    phi_rf: float = 0.0,
    trailing_wait: bool = True,
) -> list[PulseEvent]:
    """Shift-operation fragment: dipole, pi pulse, wait, dipole, pi pulse.

    The wait advances the drive phase so that at t_d = pi/delta the second
    displacement is antiparallel to the first, which turns the two
    coin-dependent phase factors into one global phase and gives equal
    step distances on both branches.  With ``trailing_wait`` a second wait
    of the same length follows, so consecutive shifts stay collinear at
    the nominal duration and one step spans (2 + 2*wait_multiplier)*t_d.
    """
    if t_d <= 0.0:
        raise ValueError("t_d must be positive")
    events = [
        dipole(t_d),
        rf(math.pi, phi_rf),
        wait(wait_multiplier * t_d),
        dipole(t_d),
        rf(math.pi, phi_rf),
    ]
    if trailing_wait:
        events.append(wait(wait_multiplier * t_d))
    return events


def walk_program(
    n_steps: int,
    t_d: float,
    params: SimParams,
    symmetric: bool = False,
    phi_rf: float = 0.0,
    wait_multiplier: float = 2.0,
) -> PulseProgram:
    """Coin-plus-shift sequence for an n-step walk.

    The symmetric variant offsets the first coin phase by pi/2 relative to
    all other RF pulses.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    events: list[PulseEvent] = []
    for step in range(n_steps):
        coin_phi = phi_rf
        if symmetric and step == 0:
            coin_phi = phi_rf + math.pi / 2.0
        events.append(rf(math.pi / 2.0, coin_phi))
        events.extend(combined_pulse(t_d, wait_multiplier, phi_rf))
    return PulseProgram(tuple(events), params, wait_multiplier)


def run_program(
    program: PulseProgram,
    initial: HybridState | None = None,
    sample_interval: float | None = None,
) -> HybridState | tuple[HybridState, list[HybridState]]:
    """Execute a program event by event from ``initial`` (default |T>|0>)."""
    params = program.params
    state = initial if initial is not None else ground_hybrid(params.dim)
    history: list[HybridState] = [state] if sample_interval is not None else []
    for event in program.events:
        if event.kind == RF:
            state = apply_rf(state, event.theta, event.phi)
        elif event.kind == DIPOLE:
            if sample_interval is not None:
                state, chunk = propagate(state, params, event.duration, sample_interval)
                history.extend(chunk[1:])
            else:
                state = propagate(state, params, event.duration)
        else:
            state = state.with_time(state.time + event.duration)
            if sample_interval is not None:
                history.append(state)
    if sample_interval is not None:
        return state, history
    return state


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


def _walk_coin_probs(args) -> tuple[float, float, float]:
    params, t_d, n_steps, wait_multiplier, symmetric = args
    program = walk_program(n_steps, t_d, params, symmetric=symmetric,
                           wait_multiplier=wait_multiplier)
    final = run_program(program)
    p_t, p_h = final.coin_probabilities()
    return t_d, p_t, p_h


def scan_td(
    params: SimParams,
    t_d_values,
    n_steps: int = 3,
    wait_multiplier: float = 2.0,
    symmetric: bool = False,
    workers: int = 1,
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
    jobs = [(params, t_d, n_steps, wait_multiplier, symmetric) for t_d in t_d_values]
    if workers <= 1:
        return [_walk_coin_probs(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_walk_coin_probs, jobs))


def find_optimal_td(
    params: SimParams,
    window: tuple[float, float],
    n_steps: int = 3,
    wait_multiplier: float = 2.0,
    tol: float = 1e-9,
    max_iter: int = 40,
) -> tuple[float, float, float]:
    """Golden-section maximum of P_T/P_H inside ``window``.

    Returns (t_d_opt, p_t, p_h).  The target function carries fast
    modulation on top of the interference envelope, so the window should
    bracket a single coarse-scan maximum.
    """

    def ratio(t_d: float) -> tuple[float, float, float]:
        _, p_t, p_h = _walk_coin_probs((params, t_d, n_steps, wait_multiplier, False))
        return p_t / p_h, p_t, p_h

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = window
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ratio(c), ratio(d)
    for _ in range(max_iter):
        if b - a < tol:
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
    states: list[MotionalState]


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
    state = ground_hybrid(params.dim)
    ladder = [state]
    for _ in range(k_max):
        program = PulseProgram(
            tuple(combined_pulse(t_d, wait_multiplier)), params, wait_multiplier
        )
        state = run_program(program, initial=state)
        ladder.append(state)
    # the T branch carries the full weight throughout (no coins applied)
    branches = [s.t_part.renormalized() for s in ladder]
    mean_n = [b.mean_n() for b in branches]
    overlaps = [
        abs(branches[k].overlap(branches[k + 1])) ** 2 for k in range(k_max)
    ]
    fidelities = []
    for b in branches:
        amp = math.sqrt(b.mean_n())
        direction = cmath.phase(b.mean_a()) if abs(b.mean_a()) > 1e-12 else 0.0
        target = coherent_state(amp * cmath.exp(1j * direction), params.dim)
        fidelities.append(abs(b.overlap(target)) ** 2)
    return CalibrationResult(mean_n, overlaps, fidelities, branches)


def force_amplitude(params: SimParams) -> float:
    """Peak dipole force on the full-force branch, in newtons."""
    return HBAR * params.eta * params.omega_d / (2.0 * params.z0)
