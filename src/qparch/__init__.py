"""Executable model of a layered quantum-computer architecture.

Covers surface-code sizing (logical error rates, code distances,
footprints), classical Pauli-frame tracking, pulse-level simulation of the
virtual-qubit control layer, magic-state distillation throughput, and
end-to-end resource budgets for integer factoring and first-quantized
molecular simulation.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, space-separated.  Every name resolves on
# first use (PEP 562), so a command imports only the layers it runs and only
# the pulse layer's names load numpy.
_EXPORTS = {
    "distillation": "distillation_volume factory_rate required_factory_area toffoli_time",
    "errors": "InfeasibleInputError NoFactoryCapacityError UnreachableTargetError",
    "estimates": (
        "ResourceReport ShorWorkload SimWorkload shor_estimate shor_sweep sim_estimate sweep_to_csv"
    ),
    "pauli_frame": "CircuitParseError PauliFrame load_circuit parse_circuit run_circuit",
    "pulses": (
        "NoiseModel ProcessResult PulseSegment PulseSequence bb1_virtual_gate build_sequence "
        "composite_x_gate free_evolution process_infidelity sequence_unitary"
    ),
    "qec": (
        "CodePoint HardwareProfile code_point failure_probability footprint logical_error_rate "
        "min_code_distance"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
