"""Simulator for discrete quantum walks on a trapped ion's motional states."""

__version__ = "0.1.0"

from .errors import ConfigError, IllConditioned, NoThreshold, StepError, TruncationError
from .fock import (
    LDA,
    LEVELS,
    RWA,
    THREE_SB,
    SimParams,
    coherent_state,
    coupling_thresholds,
    displacement_matrix,
    experimental_params,
)
from .lattice import (
    LatticeState,
    WalkSpec,
    apply_coin,
    apply_shift,
    coin_probabilities,
    position_probabilities,
    run_walk,
    scaling_factor,
    sigma_series,
    std_dev,
)
from .dynamics import (
    HybridState,
    ground_hybrid,
    lda_propagate,
    propagate,
    resonant_excitation,
    return_time,
    stepwise_excitation,
    trajectory_table,
)
from .pulses import (
    PulseEvent,
    PulseProgram,
    calibrate_positions,
    combined_pulse,
    find_optimal_td,
    force_amplitude,
    run_program,
    scan_td,
    walk_program,
)
from .readout import ReadoutConfig, bsb_signal, default_config, disambiguate_positions, invert_bsb
from .kicks import (
    KickParams,
    error_bound,
    fidelity_threshold,
    fit_threshold_curve,
    kick_full,
    kick_ideal,
    kick_train,
    pi_pulse,
    predict_threshold,
)
