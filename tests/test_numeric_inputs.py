"""Every public numeric parameter follows the one rule in ``errors.py``: a bool,
a non-finite or out-of-range number, a ``Decimal`` and a string are each a
``ValueError``, never a ``TypeError``, an ``OverflowError`` or a result; and a
count or real outside its range is refused by a message naming it and the value."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest

from qparch import cli, distillation, estimates, pauli_frame, pulses, qec
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
    "failure_probability.ancillas": (lambda v: qec.failure_probability(1e-9, 10, 10, v, 1e-9), False),
    "failure_probability.ancilla_error":
        (lambda v: qec.failure_probability(1e-9, 10, 10, 10, v), False),
    "distilled_error.level": (lambda v: distillation.distilled_error(v, 1e-3), True),
    "distilled_error.injected": (lambda v: distillation.distilled_error(2, v), False),
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


FLOAT_LIMIT = "2**53 (the largest integer a float holds exactly)"
# PARAMETERS name of each count -> (the name its message gives, low, high, how the message names high)
COUNTS = {
    "code_point.distance": ("code distance", 1, MAX_EXACT_INT, FLOAT_LIMIT),
    "footprint.distance": ("code distance", 1, MAX_EXACT_INT, FLOAT_LIMIT),
    **{name: ("distillation level", 1, 10, "10")
       for name in ("distillation_volume.level", "factory_rate.level", "required_factory_area.level",
                    "distilled_error.level")},
    "ShorWorkload.bits": ("bits", 4, MAX_EXACT_INT, FLOAT_LIMIT),
    "ShorWorkload.machine_logical_qubits": ("machine_logical_qubits", 0, MAX_EXACT_INT, FLOAT_LIMIT),
    **{f"SimWorkload.{name}": (name, 1, MAX_EXACT_INT, FLOAT_LIMIT)
       for name in ("particles", "bits_precision", "timesteps")},
    "NoiseModel.samples": ("samples", 1, 2 ** 20, "1048576 (the sample limit)"),
    "NoiseModel.seed": ("seed", 0, MAX_EXACT_INT, FLOAT_LIMIT),
    "PauliFrame.num_qubits": ("num_qubits", 0, 2 ** 20, "1048576 (the frame-size limit)"),
}


def test_every_count_has_a_range_row():
    """Every int parameter but ``polarity``, which is one of a set, not a range."""
    integral = {name for name, (_, is_count) in PARAMETERS.items() if is_count}
    assert set(COUNTS) == integral - {"hadamard_pulse.polarity"}


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{value}")
    for key, (_, low, high, _) in COUNTS.items() for value in (low - 1, high + 1)
])
def test_a_count_outside_its_range_names_itself_its_range_and_the_value(key, value):
    name, low, _, limit = COUNTS[key]
    message = f"{name} must be between {low} and {limit}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PARAMETERS[key][0](value)


@pytest.mark.parametrize("argv, line", [
    (["estimate", "sim", "--particles", "0"], f"particles must be between 1 and {FLOAT_LIMIT}, got 0"),
    (["estimate", "sim", "--particles", "61", "--timesteps", "0"],
     f"timesteps must be between 1 and {FLOAT_LIMIT}, got 0"),
    (["estimate", "sim", "--particles", "61", "--bits-precision", "0"],
     f"bits_precision must be between 1 and {FLOAT_LIMIT}, got 0"),
    (["estimate", "shor", "--bits", "3"], f"bits must be between 4 and {FLOAT_LIMIT}, got 3"),
    (["pulse", "sweep", "--seed", "-1"], f"seed must be between 0 and {FLOAT_LIMIT}, got -1"),
], ids=["particles", "timesteps", "bits-precision", "bits", "seed"])
def test_a_count_outside_its_range_is_one_usage_error_line(argv, line, tmp_path, capsys):
    output = tmp_path / "out"
    assert cli.main([*argv, "--output", str(output)]) == 2
    assert not output.exists()
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("call, message", [
    (lambda: qec.failure_probability(1e-9, 0.5, 10), "depth must be a finite number >= 1, got 0.5"),
    (lambda: qec.failure_probability(1e-9, 10, math.nan),
     "qubit count must be a finite number >= 1, got nan"),
    (lambda: qec.failure_probability(1e-9, 10, 10, -1.0, 1e-9),
     "ancilla count must be a finite number >= 0, got -1.0"),
    (lambda: qec.failure_probability(1e-9, 10, 10, 10, 1.5), "ancilla error must lie in [0, 1], got 1.5"),
    (lambda: distillation.distilled_error(1, -0.1), "injected ancilla error must lie in [0, 1], got -0.1"),
    (lambda: pulses.sequence_unitary(SEQUENCE, math.inf), "detuning must be a finite real number, got inf"),
    (lambda: pulses.sequence_unitary(SEQUENCE, 0.0, "0"),
     "pulse_error must be a finite real number, got '0'"),
    (lambda: pulses.z_axis_pulse(-1.0), "angle must lie in [0, 4*pi), got -1.0"),
    (lambda: pulses.composite_x_gate(13.0), "theta must lie in [0, 4*pi), got 13.0"),
    (lambda: pulses.bb1_virtual_gate(7.0), "theta must lie in [0, 2*pi), got 7.0"),
    (lambda: pulses.build_sequence("8H", 0), "tau must be positive and finite, got 0"),
    (lambda: pulses.NoiseModel(t2_star=math.inf),
     "t2_star must be positive and finite (or None to disable dephasing), got inf"),
    (lambda: pulses.NoiseModel(pulse_error=math.nan), "pulse_error must be finite, got nan"),
], ids=["depth", "qubits", "ancillas", "ancilla_error", "injected", "detuning", "pulse_error", "angle", "theta-4pi", "theta-2pi", "tau",
        "t2_star", "noise-pulse_error"])
def test_a_real_out_of_range_names_itself_and_the_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
