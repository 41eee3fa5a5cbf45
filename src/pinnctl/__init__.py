"""Smooth pulse synthesis for small spin systems.

A feed-forward network maps time to control amplitudes; training differentiates
gate or state-transfer fidelity exactly through the piecewise-constant
propagation of the system's equation of motion.  Includes a segment-wise
(GRAPE-style) baseline and bandwidth/discretization/noise analyses.
"""

from .analysis import (
    SpectrumResult,
    SweepResult,
    amplitude_error_sweep,
    basis_trajectory,
    discretization_sweep,
    noise_sweep,
    pulse_spectrum,
    robust_width,
)
from .grape import GrapeConfig, GrapeRecord, grape_train
from .network import (
    NetworkParams,
    PulseTable,
    backprop_pulse,
    forward_batch,
    init_params,
    load_params,
    sample_pulse,
    save_params,
)
from .objectives import (
    ObjectiveSpec,
    evaluate_fidelity,
    gate_fidelity,
    loss_and_gradient,
    pulse_table_gradient,
    state_fidelity,
    transfer_bound,
)
from .optimizer import (
    OptimizerConfig,
    RunRecord,
    fit_network_to_table,
    multi_start,
    save_run_record,
    train,
)
from .propagation import (
    EvolutionResult,
    propagate_density,
    propagate_lindblad,
    propagate_unitary,
)
from .spins import (
    PRESETS,
    NoiseModel,
    SpinSystem,
    drift_hamiltonian,
    load_system,
    noise_operators,
    spin_half_operator,
)
from .targets import (
    cnot,
    cnot_objective,
    lls_objective,
    named_target,
    singlet_order_operator,
    singlet_triplet_basis,
    thermal_deviation,
)

__version__ = "0.1.0"
