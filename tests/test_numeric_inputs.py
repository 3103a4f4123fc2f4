"""Every public numeric parameter follows the one rule in ``errors.py``: a bool,
a non-finite or out-of-range number, a ``Decimal`` and a string are each a
``ValueError``, never a ``TypeError``, an ``OverflowError`` or a result."""

import math
from decimal import Decimal

import numpy as np
import pytest

from qparch import distillation, estimates, pauli_frame, pulses, qec
from qparch.errors import MAX_EXACT_INT, is_int, is_real

PROFILE = qec.HardwareProfile()
SEQUENCE = pulses.composite_x_gate(1.0)

# name -> (call with one parameter replaced by the value, whether it is an int)
PARAMETERS = {
    **{f"HardwareProfile.{name}": (lambda v, name=name: qec.HardwareProfile(**{name: v}), False)
       for name in ("larmor_period", "lattice_cycle_time", "logical_cycle_time",
                    "error_per_virtual_gate", "threshold", "c1", "c2")},
    "code_point.distance": (lambda v: qec.code_point(PROFILE, v), True),
    "footprint.distance": (qec.footprint, True),
    "min_code_distance.target": (lambda v: qec.min_code_distance(PROFILE, v), False),
    "failure_probability.rate": (lambda v: qec.failure_probability(v, 10, 10), False),
    "failure_probability.depth": (lambda v: qec.failure_probability(1e-9, v, 10), False),
    "failure_probability.qubits": (lambda v: qec.failure_probability(1e-9, 10, v), False),
    "distillation_volume.level": (distillation.distillation_volume, True),
    "factory_rate.area": (lambda v: distillation.factory_rate(v, 2), False),
    "factory_rate.level": (lambda v: distillation.factory_rate(100, v), True),
    "required_factory_area.consumption": (lambda v: distillation.required_factory_area(v, 2), False),
    "required_factory_area.level": (lambda v: distillation.required_factory_area(1.0, v), True),
    "ShorWorkload.bits": (lambda v: estimates.ShorWorkload(bits=v), True),
    "ShorWorkload.machine_logical_qubits":
        (lambda v: estimates.ShorWorkload(bits=1024, machine_logical_qubits=v), True),
    **{f"SimWorkload.{name}": (lambda v, name=name: estimates.SimWorkload(**{"particles": 61, name: v}),
                               True)
       for name in ("particles", "bits_precision", "timesteps")},
    "NoiseModel.t2_star": (lambda v: pulses.NoiseModel(t2_star=v), False),
    "NoiseModel.pulse_error": (lambda v: pulses.NoiseModel(pulse_error=v), False),
    "NoiseModel.samples": (lambda v: pulses.NoiseModel(samples=v), True),
    "NoiseModel.seed": (lambda v: pulses.NoiseModel(seed=v), True),
    "PulseSegment.axis": (lambda v: pulses.PulseSegment(1e-11, (v, 0.0, 0.0), 1.0), False),
    "PulseSegment.axis-whole": (lambda v: pulses.PulseSegment(1e-11, v, 1.0), False),
    "PulseSegment.nominal_angle": (lambda v: pulses.PulseSegment(1e-11, (1, 0, 0), v), False),
    "PulseSegment.duration-pulse": (lambda v: pulses.PulseSegment(v, (1, 0, 0), 1.0), False),
    "PulseSegment.duration": (pulses.PulseSegment, False),
    "PulseSequence.segments": (pulses.PulseSequence, False),
    "hadamard_pulse.larmor_period": (pulses.hadamard_pulse, False),
    "hadamard_pulse.polarity": (lambda v: pulses.hadamard_pulse(polarity=v), True),
    "z_axis_pulse.angle": (pulses.z_axis_pulse, False),
    "z_axis_pulse.larmor_period": (lambda v: pulses.z_axis_pulse(1.0, v), False),
    "composite_x_gate.theta": (pulses.composite_x_gate, False),
    "composite_x_gate.larmor_period": (lambda v: pulses.composite_x_gate(1.0, v), False),
    "build_sequence.tau": (lambda v: pulses.build_sequence("8H", v), False),
    "build_sequence.larmor_period": (lambda v: pulses.build_sequence("8H", 1e-9, v), False),
    "bb1_virtual_gate.theta": (pulses.bb1_virtual_gate, False),
    "bb1_virtual_gate.tau": (lambda v: pulses.bb1_virtual_gate(1.0, v), False),
    "bb1_virtual_gate.larmor_period": (lambda v: pulses.bb1_virtual_gate(1.0, 1e-9, v), False),
    "sequence_unitary.detuning": (lambda v: pulses.sequence_unitary(SEQUENCE, v), False),
    "sequence_unitary.pulse_error": (lambda v: pulses.sequence_unitary(SEQUENCE, 0.0, v), False),
    "PauliFrame.num_qubits": (pauli_frame.PauliFrame, True),
    "PauliFrame.letters": (lambda v: pauli_frame.PauliFrame(letters=v), False),
}

BAD = {"True": True, "nan": math.nan, "inf": math.inf, "10**400": 10 ** 400,
       "Decimal": Decimal("1"), "str": "1"}
CASES = [
    pytest.param(call, value, id=f"{name}-{label}")
    for name, (call, integral) in PARAMETERS.items()
    for label, value in [*BAD.items(), *[("2.0", 2.0)] * integral]
]


@pytest.mark.parametrize("call, value", CASES)
def test_a_value_outside_the_rule_is_a_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("value, integer, real", [
    (0, True, True), (-3, True, True), (MAX_EXACT_INT + 1, True, True), (10 ** 400, True, False),
    (2.5, False, True), (-0.0, False, True), (math.nan, False, False), (-math.inf, False, False),
    (True, False, False), (False, False, False), (Decimal("1"), False, False), ("1", False, False),
    (1j, False, False), (None, False, False),
    (np.float64(2.5), False, True), (np.float32(2.5), False, False), (np.int64(2), False, False),
])
def test_the_rule(value, integer, real):
    assert (is_int(value), is_real(value)) == (integer, real)
