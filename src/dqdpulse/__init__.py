"""Composite two-qubit gate pulse synthesis and verification for Si DQD spin qubits."""

from .algebra import (
    Quaternion,
    azimuths_to_quaternions,
    gate_infidelity,
    isoclinic_left,
    isoclinic_right,
    mat_exp_skew,
    phase_aligned_distance,
    simpson_integrate,
)
from .device import (
    DEFAULT_DEVICE,
    SCHEMES,
    DeviceParams,
    FrameSpec,
    Scheme,
    frame_hamiltonian,
    lab_hamiltonian,
    load_device_params,
    save_device_params,
)
from .dynamics import (
    EvolutionResult,
    lindblad_superoperator,
    propagate_lindblad,
    propagate_unitary,
)
from .fidelity import (
    FidelityReport,
    InitialStateGrid,
    analytic_rabi_fidelity,
    average_fidelity,
    build_grid,
)
from .kak import (
    CanonicalParams,
    b_factor,
    b_gate,
    beta_params,
    canonical_gate,
    local_invariants,
    synthesize_via_b,
)
from .pulses import (
    PulseSchedule,
    Segment,
    apply_detuning_error,
    apply_rabi_error,
    bgate_rectangular,
    error_sensitivity,
    fsim_geometric,
    fsim_polynomial,
    fsim_rectangular,
    optimize_eta,
)
from .trajectories import (
    AzimuthTrajectory,
    GateTarget,
    PhysicalControls,
    TimeFunction,
    const,
    fsim_matrix,
    linear,
    parameterized_hamiltonian,
    parameterized_propagator,
    solve_bgate_controls,
    solve_fsim_controls,
)

__version__ = "0.1.0"
