"""Error messages name their field, however large the offending value."""

import pytest

from qparch import distillation, estimates, pauli_frame, pulses, qec
from qparch.errors import MAX_EXACT_INT, check_count, shown

HUGE = 10 ** 5000  # more digits than the interpreter converts to a string


@pytest.mark.parametrize("call, field", [
    (lambda: distillation.factory_rate(HUGE, 2), "factory area"),
    (lambda: distillation.required_factory_area(HUGE, 2), "consumption rate"),
    (lambda: estimates.ShorWorkload(bits=HUGE), "bits"),
    (lambda: estimates.SimWorkload(particles=HUGE), "particles"),
    (lambda: qec.HardwareProfile(c1=HUGE), "c1"),
    (lambda: qec.code_point(qec.HardwareProfile(), HUGE), "code distance"),
    (lambda: qec.code_point(qec.HardwareProfile(), HUGE + 1), "code distance"),
    (lambda: pauli_frame.PauliFrame(HUGE), "num_qubits"),
    (lambda: qec.failure_probability(HUGE, 1, 1), "logical error rate"),
    (lambda: distillation.distillation_volume(HUGE), "distillation level"),
    (lambda: pulses.hadamard_pulse(polarity=HUGE), "polarity"),
], ids=["factory_rate", "required_factory_area", "shor-bits", "sim-particles", "profile-c1",
        "code_point-even", "code_point-odd", "frame-size", "failure_probability",
        "distillation-level", "polarity"])
def test_a_huge_int_is_named_by_its_field(call, field):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(field)
    assert message.endswith(f"got an integer of {HUGE.bit_length()} bits")


def test_a_count_takes_both_ends_of_its_range_and_nothing_else():
    for value in (1, 10):
        check_count("level", value, 1, 10, "10")
    check_count("seed", 0)
    check_count("seed", MAX_EXACT_INT)
    with pytest.raises(ValueError, match=r"^level must be between 1 and 10, got 11$"):
        check_count("level", 11, 1, 10, "10")
    with pytest.raises(ValueError, match=(r"^seed must be between 0 and 2\*\*53 \(the largest "
                                          r"integer a float holds exactly\), got -1$")):
        check_count("seed", -1)
    with pytest.raises(ValueError, match=r"^level must be an integer, got 1\.0$"):
        check_count("level", 1.0, 1, 10, "10")


def test_printable_values_keep_their_repr():
    assert shown(10 ** 400 + 1) == str(10 ** 400 + 1)
    assert shown(float("nan")) == "nan"
    assert shown("0.1") == "'0.1'"


def test_a_container_holding_a_huge_int_is_named_by_its_type():
    assert shown([HUGE]) == "a list holding an integer too long to print"
    for axis, problem in (((HUGE, 0, 0), "must be finite"),
                          ((HUGE,), "must have three components")):
        message = f"^pulse axis {problem}, got a tuple holding an integer too long to print$"
        with pytest.raises(ValueError, match=message):
            pulses.PulseSegment(1e-11, axis, 1.0)
    for call in (lambda: distillation.distillation_volume([HUGE]),
                 lambda: estimates.ShorWorkload(bits=[HUGE]),
                 lambda: pulses.hadamard_pulse(polarity=[HUGE]),
                 lambda: pulses.NoiseModel(seed=[HUGE]),
                 lambda: pauli_frame.PauliFrame([HUGE])):
        with pytest.raises(ValueError, match="got a list holding an integer too long to print$"):
            call()
