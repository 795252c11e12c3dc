"""Machine-speed probes, for timing on a host whose speed drifts.

On the 2-vCPU virtual machine (Xeon, shared host) this benchmark was tuned
on, the same td-scan pass took 29-48 s across ten runs, and set-up medians
moved by 25% between runs twenty minutes apart: other tenants change the
speed by up to 1.5x over minutes. There is no steal time (CPU time tracks
wall time) and no hardware counter to count work instead. Raw pass times
spread by 20-26% (IQR/median over ten runs), above the largest regression
bound allowed.

A ``Probe`` times a fixed kernel every ``period_s`` seconds, on SIGALRM in
the measured thread, so each sample runs at the speed the measured work
has at that moment. ``at_reference(seconds)`` rescales a measured time to
the speed at which the kernel takes its reference time; the samples are
uniform in time, so the mean of their speeds is the mean speed over the
interval. On the three workloads this cut the ten-run spread of pass times
to 2-7%. Callers subtract ``spent_s()``, the time spent in the kernel.
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time


class Probe:
    def __init__(self, kernel, period_s: float, reference_s: float):
        self.kernel = kernel
        self.period_s = period_s
        self.reference_s = reference_s
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent_s(self) -> float:
        return sum(self.samples)

    def at_reference(self, seconds: float) -> float:
        """``seconds`` at the speed where the kernel takes ``reference_s``;
        an interval shorter than one period is sampled once afterwards."""
        if not self.samples:
            self._tick(None, None)
        return seconds * statistics.fmean(self.reference_s / s for s in self.samples)


def setup_probe() -> Probe:
    """Pure-Python kernel, since numpy is not imported yet during set-up:
    the interpreter work that dominates importing modules."""

    def kernel() -> None:
        table = {}
        acc = 0j
        for i in range(1000):
            acc += cmath.exp(1e-3j * i)
            table[str(i % 31)] = acc

    # reference: the kernel's typical time on that virtual machine
    return Probe(kernel, period_s=0.05, reference_s=4.0e-4)


def pass_probe() -> Probe:
    """Kernel mixing the two kinds of work the workloads do: a Python loop
    over small complex arrays (like the banded drive) and dense complex
    matrix-vector products (like the kick RK4)."""
    import numpy as np

    rng = np.random.default_rng(0)
    band = rng.standard_normal(95) + 0j
    state = rng.standard_normal((96, 2)) + 0j
    unitary, _ = np.linalg.qr(rng.standard_normal((128, 128))
                              + 1j * rng.standard_normal((128, 128)))
    vector = rng.standard_normal(128) + 0j

    def kernel() -> None:
        out = np.empty_like(state)
        for i in range(300):
            f = 0.5 * cmath.exp(1e-3j * i) + 0.25 * cmath.exp(-2e-3j * i)
            out[:] = 0.0
            out[1:] += (f * band)[:, None] * state[:-1]
        v = vector
        for _ in range(100):
            v = unitary @ v

    # reference: the kernel's typical time on that virtual machine
    return Probe(kernel, period_s=0.25, reference_s=3.0e-3)
