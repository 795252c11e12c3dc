"""Blue-sideband readout model and its inversion to Fock/position weights.

The readout signal is a sum of cosines, one per Fock level, at the
level-dependent sideband Rabi frequencies.  Those frequencies are not
harmonically spaced, so inversion fits the known frequency dictionary by
non-negative least squares (NNLS; Lawson & Hanson, *Solving Least Squares
Problems*, 1974) instead of a plain Fourier transform.

``_nnls`` reduces A = QR once and solves a whole stack of right-hand sides
by block principal pivoting with the backup rule of Kim & Park (SIAM J.
Sci. Comput. 33, 3261 (2011)).  Each passive-set subproblem is solved by
QR of the masked system [R F; I (1 - F)], never by normal equations, which
would square a condition number of up to ``MAX_CONDITION``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IllConditioned
from .fock import sideband_magnitudes

MAX_CONDITION = 1e8
# full exchanges allowed without fewer infeasible variables before the
# single-variable backup rule takes over (Kim & Park's p)
NNLS_FULL_EXCHANGES = 3
# the backup rule terminates in exact arithmetic; the cap guards against rounding
NNLS_MAX_ITER = 100


@dataclass(frozen=True)
class ReadoutConfig:
    """Model constants and sampling grid of the sideband readout.

    ``eta`` sets the sideband frequencies of levels 0..``n_max``;
    ``base_rabi`` scales the dimensionless sideband matrix elements to
    physical Rabi frequencies; ``gamma`` damps the oscillation contrast.
    Without ``t_grid`` the grid is 200 times over 5 periods of the slowest
    of those frequencies.
    """

    n_max: int
    eta: float
    gamma: float = 0.0
    base_rabi: float = 2 * math.pi * 100e3
    t_grid: np.ndarray | None = None

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not 0.0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ConfigError("n_max must be a nonnegative integer")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError("gamma must be finite and nonnegative")
        if not 0.0 < self.base_rabi < math.inf:
            raise ConfigError("base_rabi must be finite and positive")
        if self.t_grid is None:
            omega = rabi_frequencies(self.eta, self.n_max, self.base_rabi)
            slowest = float(np.min(omega[omega > 0.0], initial=np.inf))
            if slowest == math.inf:
                raise ConfigError(
                    f"eta={self.eta!r} leaves no nonzero sideband frequency for levels "
                    f"0..{self.n_max}, so there is no default grid: give a t_grid")
            t = np.linspace(0.0, 5.0 * 2.0 * math.pi / slowest, 200)
        else:
            t = np.array(self.t_grid, dtype=float)
        if t.ndim != 1 or t.size < 2 or not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
            raise ConfigError("t_grid must be finite and strictly increasing with >= 2 samples")
        t.setflags(write=False)
        object.__setattr__(self, "t_grid", t)


def rabi_frequencies(eta: float, n_max: int, base_rabi: float) -> np.ndarray:
    """Sideband Rabi frequency per Fock level, n = 0..n_max."""
    return base_rabi * sideband_magnitudes(eta, n_max)


def bsb_signal(fock_probs: np.ndarray, cfg: ReadoutConfig) -> np.ndarray:
    """Coin-state signal 0.5*(1 + sum_n p_n cos(Omega_n t) e^{-gamma t}) of
    levels n = 0..``cfg.n_max``."""
    p = np.asarray(fock_probs, dtype=float)
    if p.shape != (cfg.n_max + 1,):
        raise ValueError(f"fock_probs must hold n_max + 1 = {cfg.n_max + 1} levels")
    if not abs(p.sum() - 1.0) <= 1e-9:  # NaN fails this test too
        raise ValueError("fock_probs must sum to 1")
    return 0.5 * (1.0 + _dictionary(cfg)[0] @ p)


def _dictionary(cfg: ReadoutConfig) -> tuple:
    """(cos(Omega_n t) e^{-gamma t}, its condition number, the slowest
    Omega_n > 0, its QR factors in ``np.linalg.qr``'s raw form), built once
    per grid and model; the arrays are read-only."""
    return _dictionary_for(cfg.t_grid.tobytes(), cfg.n_max, cfg.gamma, cfg.base_rabi, cfg.eta)


@functools.cache
def _dictionary_for(t_bytes: bytes, n_max: int, gamma: float, base_rabi: float,
                    eta: float) -> tuple:
    t_grid = np.frombuffer(t_bytes)
    omega = rabi_frequencies(eta, n_max, base_rabi)
    damp = np.exp(-gamma * t_grid)[:, None]
    a = np.cos(np.outer(t_grid, omega)) * damp
    qr = np.linalg.qr(a, mode="raw")
    for m in (a, *qr):
        m.setflags(write=False)
    return a, float(np.linalg.cond(a)), float(np.min(omega[omega > 0.0], initial=np.inf)), qr


def _nnls(qr: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """argmin ||A x - b|| subject to x >= 0, for A of full column rank given
    as ``np.linalg.qr(A, mode="raw")`` and b of shape (..., m).

    Each row of b is its own problem, and its answer does not depend on the
    other rows: every product and factorization acts on one row's arrays.
    """
    h, tau = qr
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("array must not contain infs or NaNs")
    n = tau.size
    # d = Q^T b by the Householder reflectors: more accurate than a product with
    # the explicit Q (5e-11 against 2e-10 at n_max = 11, condition number 2.6e7)
    d = b.reshape(-1, h.shape[1]).copy()
    for v, t in zip(np.triu(h, 1) + np.eye(*h.shape), tau):
        d -= t * (d * v).sum(axis=1, keepdims=True) * v
    d, r = d[:, :n], np.triu(h[:, :n].T)
    x = np.zeros_like(d)
    passive = np.ones(d.shape, dtype=bool)  # start from unconstrained least squares
    fewest, exchanges = np.full(len(d), n + 1), np.full(len(d), NNLS_FULL_EXCHANGES)
    todo = np.arange(len(d))
    for _ in range(NNLS_MAX_ITER):
        f = passive[todo]
        # x_F = argmin ||R_F x_F - d||, x_G = 0, by QR of [R F; I (1 - F)]
        qs, rs = np.linalg.qr(np.concatenate([r * f[:, None], np.eye(n) * ~f[:, None]], axis=1))
        rhs = np.swapaxes(qs[:, :n], 1, 2) @ d[todo, :, None]
        x[todo] = xs = np.where(f, np.linalg.solve(rs, rhs)[..., 0], 0.0)
        grad = (((r @ xs[..., None])[..., 0] - d[todo])[:, None] @ r)[:, 0]
        # rounding bound of grad: n eps |R|^T (|R| |x| + |d|)
        size = (np.abs(r) @ np.abs(xs)[..., None])[..., 0] + np.abs(d[todo])
        tol = n * np.finfo(float).eps * (size[:, None] @ np.abs(r))[:, 0]
        bad = np.where(f, xs < 0.0, grad < -tol)
        count = bad.sum(axis=1)
        fewer = count < fewest[todo]
        full = fewer | (exchanges[todo] > 0)
        exchanges[todo] = np.where(fewer, NNLS_FULL_EXCHANGES, exchanges[todo] - 1)
        fewest[todo] = np.minimum(count, fewest[todo])
        # backup rule: flip only the infeasible variable of largest index
        last = (np.arange(n) == n - 1 - np.argmax(bad[:, ::-1], axis=1)[:, None]) & bad
        passive[todo] ^= np.where(full[:, None], bad, last)
        todo = todo[count > 0]
        if todo.size == 0:
            return x.reshape(b.shape[:-1] + (n,))
    raise IllConditioned(f"NNLS did not converge in {NNLS_MAX_ITER} iterations")


def invert_bsb(signal: np.ndarray, cfg: ReadoutConfig) -> np.ndarray:
    """Fock probabilities from a readout signal by non-negative LS fitting.

    ``signal`` may be a (k, n_t) stack; row i of the result is the
    inversion of row i alone.  The grid must span at least three periods
    of the slowest dictionary frequency.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.shape[-1:] != cfg.t_grid.shape:
        raise ValueError("signal and t_grid sizes differ")
    _, cond, slowest, qr = _dictionary(cfg)
    span = cfg.t_grid[-1] - cfg.t_grid[0]
    if span < 3.0 * 2.0 * math.pi / slowest:
        raise ValueError(
            "t_grid spans less than 3 periods of the slowest sideband frequency"
        )
    if cond > MAX_CONDITION:
        raise IllConditioned(f"dictionary condition number {cond:.3e}")
    coeffs = _nnls(qr, 2.0 * signal - 1.0)
    total = coeffs.sum(axis=-1, keepdims=True)
    if not np.all(total > 0.0):
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
    weights = _nnls(np.linalg.qr(a, mode="raw"), y)
    residual = float(np.linalg.norm(a @ weights - y) / math.sqrt(y.size))
    total = weights.sum()
    if total <= 0.0:
        raise IllConditioned("no position weight recovered")
    weights = weights / total
    return {k: float(w) for k, w in zip(k_values, weights)}, residual
