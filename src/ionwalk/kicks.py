"""Short-pulse (photon-kick) shift protocol: exact kick operator, exact
propagation including the trap rotation (a Chebyshev expansion on the kick
Hamiltonian's known spectral interval), and fidelity-threshold analysis.

A kick is a coin pi pulse fast enough that the free harmonic motion during
the pulse is negligible; it then acts as a coin flip combined with a
momentum displacement.  The finite trap frequency makes the usable pulse
duration shrink with the motional amplitude, and the threshold depends on
the oscillation phase at the moment of the kick: kicks at the turning
point (real alpha) tolerate much longer pulses than kicks at the center
of the trap (imaginary alpha).  Kicks act on the coin rows (T, H) of
``HybridState.amps``.

A kick runs in static frames displaced along the free orbit, psi = D(beta) chi,
so that chi stays near the vacuum and one small basis serves any |alpha|:
D(-beta) n D(beta) = n + beta* a + beta a^dag + |beta|^2 and D(-beta) D(i eta)
D(beta) = e^{i theta} D(i eta), theta = 2 eta Re beta, which the coin phase
diag(e^{i theta}, 1) takes out.  With Q = diag(i^n), Q a Q^dag = -i a, so
D(i eta) = exp(i eta (a + a^dag)) = Q R Q^dag with R = D(eta), real and
orthogonal as eta (a^dag - a) is real antisymmetric; D(-i eta) = Q R^T Q^dag.
In the basis Q^dag chi the kick Hamiltonian is real but for the frame term
Q^dag (beta* a + beta a^dag) Q = i beta* a - i beta a^dag, a tridiagonal.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HybridState
from .errors import ConfigError, NoThreshold, StepError
from .fock import (
    LEAK_TOL,
    check_leakage,
    coherent_state,
    displace,
    displacement_matrix,
    leakage,
    quarter_turns,
)

# Pulse durations below this violate the adiabatic elimination behind the
# two-photon kick Hamiltonian.
MIN_PULSE = 5e-12

# Reference threshold-curve coefficients (ln T = c0 + c1 ln|a| + c2 ln^2|a|)
# for f = 0.99 at the experimental trap frequency, fitted over |alpha| <= 10.
CENTER_KICK_COEFFS = (-17.55, -0.63, -0.05)   # kick at the trap center (imaginary alpha)
TURNING_KICK_COEFFS = (-17.03, -0.02, -0.1)   # kick at the turning point (real alpha)

# Threshold searches: validity floor to ceiling, 1% in t_p, at most 20 bisections.
THRESHOLD_FLOOR = 1.2 * MIN_PULSE
THRESHOLD_CEILING = 1e-5
THRESHOLD_REL_TOL = 0.01

# Displaced frames: the default basis of the threshold searches, and the
# longest stretch of the orbit one static frame serves.
FRAME_DIM = 32
FRAME_ARC = 4.0


@dataclass(frozen=True)
class KickParams:
    """Pi-pulse kick parameters: a pulse of length t_p at Rabi frequency pi/t_p."""

    t_p: float
    eta: float
    omega_z: float
    dim: int

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not MIN_PULSE < self.t_p < math.inf:
            raise ConfigError(f"t_p must be finite and exceed {MIN_PULSE:.0e} s")
        if not 0.0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")
        if not 0.0 <= self.omega_z < math.inf:
            raise ConfigError("omega_z must be finite and nonnegative")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 16:
            raise ConfigError("dim must be an integer >= 16")


def pi_pulse(t_p: float, eta: float, omega_z: float, dim: int) -> KickParams:
    return KickParams(t_p=t_p, eta=eta, omega_z=omega_z, dim=dim)


# K = [[0, D], [D^dag, 0]] on the rows (T, H), D = D(i eta d) for d = direction,
# in the basis Q^dag: the real symmetric [[0, R_d], [R_d^T, 0]], R_1 = R and
# R_-1 = R^T, from one R per (eta, dim) for both directions; read-only.
@functools.cache
def _kick_block(eta: float, dim: int, direction: int) -> np.ndarray:
    if direction == 1:
        r = displacement_matrix(eta, dim).real
        block = np.block([[np.zeros_like(r), r], [r.T, np.zeros_like(r)]])
    elif direction == -1:  # the coin blocks of direction 1, swapped
        block = np.roll(_kick_block(eta, dim, 1), dim, axis=(0, 1))
    else:
        raise ValueError("direction must be +1 or -1")
    block.setflags(write=False)
    return block


def kick_ideal(kp: KickParams, direction: int = 1) -> np.ndarray:
    """Instantaneous-kick operator on coin (x) motion (blocks (T, H)).

    Flips the coin and displaces the motion by +- i eta depending on the
    coin state; the trap rotation is neglected: at omega_z = 0 the pi pulse
    exp(-i (pi/2) K) is -i K, since K^2 = 1.
    """
    q = np.tile(quarter_turns(kp.dim), 2)
    return -1j * q[:, None] * _kick_block(kp.eta, kp.dim, direction) * q.conj()


def kick_full(state: HybridState, kp: KickParams, direction: int = 1, alpha: complex = 0j) -> HybridState:
    """Exact kick including the trap term omega_z a^dag a, in frames displaced
    along the free orbit alpha e^{-i omega_z t}.

    ``state`` holds chi of psi = D(alpha) chi, the result chi' of psi' =
    D(alpha e^{-i omega_z t_p}) chi' up to a global phase (none at alpha = 0,
    the kick in Fock space).  J = ceil(|alpha| omega_z t_p / FRAME_ARC)
    segments of tau = t_p / J each run in the static frame of their midpoint
    on the orbit, where tau H = tau omega_z (n + beta* a + beta a^dag) +
    (pi tau / 2 t_p) K up to a constant, K = [[0, D], [D^dag, 0]].  D = D(i eta)
    is unitary, ||K|| = 1, so the spectrum lies in tau omega_z [lo, hi] widened
    by pi tau / 2 t_p (Weyl), lo and hi the extreme eigenvalues of the
    truncated n + |alpha| (a + a^dag).  With c, R that interval's centre and
    half-width and Ht = (tau H - c) / R, exp(-i tau H) = e^{-ic} sum_k
    (2 - delta_k0) (-i)^k J_k(R) T_k(Ht) by the Chebyshev recurrence (Tal-Ezer
    & Kosloff, J. Chem. Phys. 81, 3967 (1984)), up to the first k > R with
    |J_k(R)| < 1e-16; in the basis Q^dag chi a term is one real symmetric
    product on the rows' (re, im) pairs plus the frame term.  TruncationError
    if a segment ends with guard-band population, StepError if the norm drifts.
    One kick of ``_kick_stack``, the one kick path that builds a HybridState.
    """
    if state.dim != kp.dim:
        raise ValueError("state dim does not match kick dim")
    return HybridState(_kick_stack(state.amps[None], [kp], direction, [alpha])[0], state.time + kp.t_p)


def _expansion(kp: KickParams, alpha: complex) -> tuple:
    """``kick_full``'s plan of a kick, which depends on alpha through |alpha| only:
    omega_z t_p, J, the frame term's and the generator's scale, the generator's
    diagonal and the Chebyshev coefficients."""
    turn = kp.omega_z * kp.t_p
    segments = max(1, math.ceil(abs(alpha) * turn / FRAME_ARC))
    scale, kick = turn / segments, math.pi / 2.0 / segments
    lo, hi = _frame_spectrum(abs(alpha), kp.dim)
    centre = scale * (lo + hi) / 2.0
    radius = scale * (hi - lo) / 2.0 + kick
    # |J_{R+m}(R)| < 1e-16 by m ~ 12 R^(1/3) (Airy tail), well inside this range
    k = np.arange(int(radius + 20.0 * np.cbrt(radius)) + 30)
    bessel = _bessel_j(len(k), radius)
    n_terms = int(k[(k > radius) & (np.abs(bessel) < 1e-16)][0])
    # e^{-ic} (2 - delta_k0) (-i)^k J_k(R)
    coeffs = cmath.exp(-1j * centre) * np.array([2.0, -2j, -2.0, 2j])[k[:n_terms] % 4] * bessel[:n_terms]
    coeffs[0] /= 2.0
    diagonal = np.tile(2.0 * (scale * np.arange(kp.dim) - centre) / radius, 2)
    return turn, segments, 2.0 * scale / radius, 2.0 * kick / radius, diagonal, coeffs


def _kick_stack(amps: np.ndarray, kps, direction: int, alphas) -> np.ndarray:
    """``kick_full``'s chi' of each (amps[i], kps[i], alphas[i]), (kicks, 2, dim) of any
    norm in and out, for kicks sharing eta, omega_z, dim and direction, each with its
    arithmetic alone: one plan per distinct (kp, |alpha|); segment j of every kick with
    J > j runs at once, longest expansion first, a term one batched product (its items
    equal lone products) on the prefix whose expansion has not ended.  A segment boundary
    re-homes every moved frame in one ``displace``; a segment ends in one coin multiply
    and guard-band reduction over the stack, raising as the first kick that leaks would
    alone.  Each kick must keep its input's norm to 1e-6: StepError names the first that does not (NaN too)."""
    dim, q, plan = kps[0].dim, quarter_turns(kps[0].dim), functools.cache(_expansion)
    plans = [plan(kp, abs(alpha)) for kp, alpha in zip(kps, alphas)]
    live = sorted(range(len(kps)), key=lambda i: -len(plans[i][-1]))
    gens = np.empty((len(kps), 2 * dim, 2 * dim))  # 2 Ht without the frame term: real symmetric
    for p, i in enumerate(live):
        np.multiply(plans[i][3], _kick_block(kps[i].eta, dim, direction), out=gens[p])
        gens[p].flat[:: 2 * dim + 1] = plans[i][4]
    # T_k(Ht) chi in a ring of <= 64 terms of flat (T, H) rows, also viewed as (re, im) pairs
    ring = min(len(plans[live[0]][-1]), 64)
    zs = np.empty((ring, len(kps), 2 * dim), dtype=complex)
    ys = zs.view(float).reshape(ring, len(kps), 2 * dim, 2)
    links, back = np.zeros((2, len(kps), 2 * dim - 1), dtype=complex)
    # what a term of the first a kicks takes, per ring slot for the rows, their heads and tails
    rows = functools.cache(lambda a: (gens[:a], links[:a], back[:a], list(ys[:, :a]),
                                      list(zs[:, :a, :-1]), list(zs[:, :a, 1:])))
    chis, here, ladder = amps * q.conj(), dict(enumerate(alphas)), np.sqrt(np.arange(1.0, dim))
    for j in itertools.count():  # segment j of each kick in the frame of its midpoint, then the end
        frames = {i: alphas[i] * cmath.exp(-1j * plans[i][0] * min(1.0, (j + 0.5) / plans[i][1])) for i in live}
        moved = [i for i in live if frames[i] != here[i]]
        if moved:  # chi <- D(here - beta) chi, and Q^dag D(g) Q = D(-i g)
            chis[moved] = displace(chis[moved], np.array([[1j * (frames[i] - here[i])] for i in moved]))
            here.update(frames)
        going = [(p, i) for p, i in enumerate(live) if j < plans[i][1]]
        if not going:  # every kick has left the stack
            drift = np.abs(np.linalg.norm(chis, axis=(1, 2)) - np.linalg.norm(amps, axis=(1, 2)))
            for i in np.flatnonzero(~(drift <= 1e-6))[:1]:
                raise StepError(f"kick: norm drift {drift[i]:.3e} in kick {i} of the stack")
            return chis * q
        for g, (p, _) in enumerate(going):  # the kicks past their last segment leave the stack
            if p > g:
                gens[g] = gens[p]
        live = [i for _, i in going]
        coeffs, g = [plans[i][-1] for i in live], len(live)
        ns, framed = [len(c) for c in coeffs], any(here[i] for i in live)  # none at alpha = 0
        coins = np.array([[[cmath.exp(2j * direction * kps[i].eta * here[i].real)], [1.0]] for i in live])
        zs[0, :g] = (chis[live] * coins.conj()).reshape(g, 2 * dim)
        # the frame term, links[m] coupling m and m + 1 within each row
        links[:g, : dim - 1] = np.array([[plans[i][2] * 1j * here[i].conjugate()] for i in live]) * ladder
        links[:g, dim:] = links[:g, : dim - 1]
        psis, start = np.zeros((g, 2 * dim), dtype=complex), 1
        np.conjugate(links, out=back)
        for a in range(g, 0, -1):  # terms up to ns[a - 1] - 1 run on the first a kicks
            if ns[a - 1] == start:  # none left for this prefix: build no rows for it
                continue
            gen, fwd, bwd, y, heads, tails = rows(a)
            for m in range(start, ns[a - 1]):
                src, dst = (m - 1) % ring, m % ring
                np.matmul(gen, y[src], out=y[dst])
                if framed:
                    heads[dst] += fwd * tails[src]
                    tails[dst] += bwd * heads[src]
                y[dst] -= y[(m - 2) % ring] if m > 1 else 0.5 * y[dst]  # T_1 = Ht T_0
                if dst == ring - 1 or m == ns[a - 1] - 1:  # each filled ring is summed into psi
                    for p in range(a) if dst == ring - 1 else range(ns.index(m + 1), a):
                        psis[p] += coeffs[p][m - dst : m + 1] @ zs[: dst + 1, p]
            start = ns[a - 1]
        chis[live] = coins * psis.reshape(g, 2, dim)
        for p in np.flatnonzero(np.sum(leakage(chis[live]), axis=-1) >= LEAK_TOL)[:1]:  # the first to leak
            check_leakage(chis[live[p]], "kick")


@functools.cache
def _frame_spectrum(mag: float, dim: int) -> tuple[float, float]:
    """Extreme eigenvalues of the truncated n + mag (a + a^dag), those of
    n + beta* a + beta a^dag at |beta| = mag (a phase rotation apart)."""
    off = mag * np.sqrt(np.arange(1.0, dim))
    vals = np.linalg.eigvalsh(np.diag(np.arange(float(dim))) + np.diag(off, 1) + np.diag(off, -1))
    return float(vals[0]), float(vals[-1])


def _bessel_j(count: int, r: float) -> np.ndarray:
    """J_0(r) .. J_{count-1}(r) by Miller's backward recurrence (Abramowitz &
    Stegun 9.12; Numerical Recipes 6.5) from J_count = 0, J_{count-1} = 1,
    rescaled past 1e250, normalised by J_0 + 2 sum_k J_2k = 1; accurate to
    rounding while J_{count-1}(r) is negligible (below 1e-41 at kick_full's count)."""
    vals = [0.0] * (count + 1)
    vals[count - 1] = 1.0
    for k in range(count - 1, 0, -1):
        vals[k - 1] = 2.0 * k / r * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals = [v * 1e-250 for v in vals]
    out = np.array(vals[:count])
    return out / (out[0] + 2.0 * out[2::2].sum())


def kick_fidelity(alpha: complex, kp: KickParams, direction: int = 1) -> float:
    """Fidelity of the full kick against an instantaneous kick plus free flight.

    The harmonic rotation the ion undergoes during the pulse happens with
    or without the kick and is absorbed by the co-rotating frame, so the
    comparison removes it; what remains is the genuine interference of the
    trap evolution with the kick, which depends on the oscillation phase.
    |H>|alpha> is |H>|0> in the frame alpha, and its ideal kick plus free
    flight is, in the frame alpha e^{-i omega_z t_p}, the rotated ideal kick of
    |H>|0>: the comparison runs on ``kp.dim`` levels at any |alpha|.
    """
    return _fidelities([alpha], [kp], direction)[0]


def _fidelities(alphas, kps, direction: int = 1) -> list[float]:
    """``kick_fidelity`` of each (alpha, kp) of one ``_kick_stack``."""
    start, ideal = _vacuum_pair(kps[0].eta, kps[0].dim, direction)
    kicked = _kick_stack(np.broadcast_to(start.amps, (len(kps), *start.amps.shape)), kps, direction, alphas)
    return [float(abs(np.vdot(ideal, out * np.exp(1j * kp.omega_z * kp.t_p * np.arange(kp.dim)))) ** 2)
            for kp, out in zip(kps, kicked)]


# |H>|0> and its ideal kick, kick_ideal's column -i Q K[:, |H>|0>] (Q^dag |0> = |0>), per
# (eta, dim, direction), read-only: every fidelity evaluation shares them at any alpha, t_p, omega_z.
@functools.cache
def _vacuum_pair(eta: float, dim: int, direction: int) -> tuple[HybridState, np.ndarray]:
    start = HybridState.product("H", coherent_state(0.0, dim))
    ideal = (-1j * np.tile(quarter_turns(dim), 2) * _kick_block(eta, dim, direction)[:, dim]).reshape(2, dim)
    ideal.setflags(write=False)
    return start, ideal


def error_bound(alpha: complex, omega_z: float, t_p: float) -> float:
    """First-order estimate of the kick error, t_p * omega_z * |alpha|^2."""
    return t_p * omega_z * abs(alpha) ** 2


def fidelity_threshold(alpha: complex, f_min: float, eta: float, omega_z: float,
                       dim: int | None = None) -> tuple[float, float, list[tuple[float, float]]]:
    """``fidelity_thresholds`` of one alpha."""
    return fidelity_thresholds([alpha], f_min, eta, omega_z, dim)[0]


def fidelity_thresholds(alphas, f_min: float, eta: float, omega_z: float,
                        dim: int | None = None) -> list[tuple[float, float, list[tuple[float, float]]]]:
    """Largest pulse duration whose kick fidelity still reaches ``f_min``, per alpha.

    Quadruples t_p from THRESHOLD_FLOOR, capped at THRESHOLD_CEILING, until the
    fidelity drops below ``f_min``, then bisects on log t_p; returns (t_p,
    fidelity at t_p, sampled (t_p, f) pairs) per alpha, (t_p, f) one of the
    samples (the ceiling if it still reaches ``f_min``).  NoThreshold when even
    the shortest valid pulse falls below ``f_min``, TruncationError when the
    ``dim``-level frame basis (FRAME_DIM by default) cannot hold the kick.  The
    searches run in lockstep, each round's samples one stacked kick, so each
    alpha samples the t_p it samples alone.
    """
    if dim is None:
        dim = FRAME_DIM
    searches = [_search(f_min) for _ in alphas]
    pending = {i: next(search) for i, search in enumerate(searches)}
    samples, results = [[] for _ in alphas], [None] * len(alphas)
    while pending:
        kps = [pi_pulse(t_p, eta, omega_z, dim) for t_p in pending.values()]
        for (i, t_p), f in zip(list(pending.items()), _fidelities([alphas[i] for i in pending], kps)):
            samples[i].append((t_p, f))
            try:
                pending[i] = searches[i].send(f)
            except StopIteration as done:  # the search returned (t_p, f)
                results[i] = (*done.value, samples[i])
                del pending[i]
    return results


def _search(f_min: float):
    # one threshold search: yields each t_p to sample and is sent its fidelity
    lo = THRESHOLD_FLOOR
    f_lo = yield lo
    if f_lo < f_min:
        raise NoThreshold(f"fidelity {f_lo:.6f} < {f_min} already at the validity floor")
    hi, f_hi = lo, f_lo
    while f_hi >= f_min:
        if hi >= THRESHOLD_CEILING:
            return hi, f_hi
        lo, f_lo = hi, f_hi
        hi = min(hi * 4.0, THRESHOLD_CEILING)
        f_hi = yield hi
    for _ in range(20):
        if hi / lo < 1.0 + THRESHOLD_REL_TOL:
            break
        mid = math.sqrt(lo * hi)
        f_mid = yield mid
        if f_mid >= f_min:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, f_lo


def fit_threshold_curve(pairs) -> tuple[float, float, float]:
    """Quadratic fit of ln T against ln|alpha|; returns (c0, c1, c2)."""
    pairs = list(pairs)
    if len(pairs) < 5:
        raise ValueError("need at least 5 (|alpha|, T) pairs")
    x = np.log([abs(a) for a, _ in pairs])
    y = np.log([t for _, t in pairs])
    c2, c1, c0 = np.polyfit(x, y, 2)
    return float(c0), float(c1), float(c2)


def predict_threshold(coeffs, alpha_mag: float) -> float:
    """Evaluate a threshold curve ln T = c0 + c1 ln|a| + c2 ln^2|a|."""
    c0, c1, c2 = coeffs
    la = math.log(alpha_mag)
    return math.exp(c0 + c1 * la + c2 * la * la)

