"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """An input parameter is invalid (bad type, out of range or unknown)."""


class TruncationError(Exception):
    """Fock-space population reached the guard band below the basis edge."""


class StepError(Exception):
    """Integrator norm drift exceeded its tolerance."""


class IllConditioned(Exception):
    """A fitting dictionary is too close to singular to invert reliably."""


class NoThreshold(Exception):
    """No pulse duration attains the requested fidelity."""
