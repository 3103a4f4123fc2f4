"""Executable model of a layered quantum-computer architecture.

Covers surface-code sizing (logical error rates, code distances,
footprints), classical Pauli-frame tracking, pulse-level simulation of the
virtual-qubit control layer, magic-state distillation throughput, and
end-to-end resource budgets for integer factoring and first-quantized
molecular simulation.
"""

from .distillation import (
    DistillationSpec,
    FactorySpec,
    GateCost,
    GATE_COSTS,
    distillation_volume,
    factory_rate,
    required_factory_area,
    toffoli_time,
)
from .errors import InfeasibleInputError, NoFactoryCapacityError, UnreachableTargetError
from .estimates import (
    ResourceReport,
    ShorWorkload,
    SimWorkload,
    shor_estimate,
    shor_sweep,
    sim_estimate,
    sim_per_step_cycles,
    sweep_to_csv,
)
from .pauli_frame import (
    CliffordGate,
    CliffordInstruction,
    CircuitParseError,
    MeasureInstruction,
    PauliFrame,
    PauliInstruction,
    load_circuit,
    parse_circuit,
    run_circuit,
)
from .pulses import (
    NoiseModel,
    ProcessResult,
    PulseSegment,
    PulseSequence,
    approx_accuracy,
    bb1_virtual_gate,
    build_sequence,
    composite_x_gate,
    free_evolution,
    hadamard_pulse,
    process_infidelity,
    segment_unitary,
    sequence_unitary,
)
from .qec import (
    AlgorithmDemand,
    CodePoint,
    HardwareProfile,
    code_point,
    failure_probability,
    footprint,
    logical_error_rate,
    min_code_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmDemand",
    "CliffordGate",
    "CliffordInstruction",
    "CircuitParseError",
    "CodePoint",
    "DistillationSpec",
    "FactorySpec",
    "GateCost",
    "GATE_COSTS",
    "HardwareProfile",
    "InfeasibleInputError",
    "MeasureInstruction",
    "NoFactoryCapacityError",
    "NoiseModel",
    "PauliFrame",
    "PauliInstruction",
    "ProcessResult",
    "PulseSegment",
    "PulseSequence",
    "ResourceReport",
    "ShorWorkload",
    "SimWorkload",
    "UnreachableTargetError",
    "approx_accuracy",
    "bb1_virtual_gate",
    "build_sequence",
    "code_point",
    "composite_x_gate",
    "distillation_volume",
    "factory_rate",
    "failure_probability",
    "footprint",
    "free_evolution",
    "hadamard_pulse",
    "load_circuit",
    "logical_error_rate",
    "min_code_distance",
    "parse_circuit",
    "process_infidelity",
    "required_factory_area",
    "run_circuit",
    "segment_unitary",
    "sequence_unitary",
    "shor_estimate",
    "shor_sweep",
    "sim_estimate",
    "sim_per_step_cycles",
    "sweep_to_csv",
    "toffoli_time",
]
