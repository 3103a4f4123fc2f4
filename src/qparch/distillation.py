"""Magic-state distillation volumes, factory throughput, output error, and the Toffoli cost.

Throughput uses the time-averaged fluid model: a factory of cross-section A
logical qubits produces A / V(level) ancillas per logical cycle, where the
circuit volume V grows by a factor of 16 per distillation level.  Each level
of 15-to-1 distillation maps an ancilla error p to 35 p**3.
"""

from __future__ import annotations

import math

from .errors import InfeasibleInputError, check_count, is_real, shown

LEVEL1_CROSS_SECTION = 12  # logical qubits occupied by one distillation circuit
LEVEL1_DEPTH = 6           # logical cycles per distillation round
LEVEL1_VOLUME = LEVEL1_CROSS_SECTION * LEVEL1_DEPTH  # 72 qubit*cycles
CIRCUITS_PER_LEVEL = 16    # 15 feeder circuits plus 1 consumer per extra level
# One 15-to-1 level maps an ancilla error p to 35 p**3 (Bravyi & Kitaev,
# PRA 71, 022316, 2005), which lowers it only while 35 p**2 < 1, that is
# below 1/sqrt(35), about 0.169.
ERROR_GAIN = 35
MAX_INJECTED_ERROR = ERROR_GAIN ** -0.5
# Deepest level modelled.  Each level cubes the ancilla error, so a few
# levels reach any useful fidelity, while the volume grows 16-fold per level.
# The bound keeps volumes, factory sizes and rates far inside the float
# range, which they leave near level 256.
MAX_DISTILLATION_LEVEL = 10
DEFAULT_DISTILLATION_LEVEL = 2
# A Toffoli consumes 7 distilled |A> states over 31 logical cycles; S gates
# reuse a single |Y> ancilla without consuming it.
TOFFOLI_DEPTH_CYCLES = 31
TOFFOLI_ANCILLAS = 7


def distillation_volume(level: int) -> int:
    """Circuit volume (qubit*cycles) to distill one ancilla at the given level."""
    check_count("distillation level", level, 1, MAX_DISTILLATION_LEVEL, str(MAX_DISTILLATION_LEVEL))
    return LEVEL1_VOLUME * CIRCUITS_PER_LEVEL ** (level - 1)


def distilled_error(level: int, injected: float) -> float:
    """Error of an ancilla after ``level`` rounds of p -> 35 p**3 from the
    ``injected`` error, which the estimators take to be the error per virtual
    gate.  Raises ``InfeasibleInputError`` at or above ``MAX_INJECTED_ERROR``,
    where distillation does not lower the error.  Underflows to an exact 0.0
    at high levels."""
    distillation_volume(level)  # checks the level
    if not (is_real(injected) and 0 <= injected <= 1):
        raise ValueError(f"injected ancilla error must lie in [0, 1], got {shown(injected)}")
    if injected >= MAX_INJECTED_ERROR:
        raise InfeasibleInputError(
            f"unreachable target: the injected ancilla error {injected!r} is at or above "
            f"1/sqrt({ERROR_GAIN}) = {MAX_INJECTED_ERROR:.4g}, where distillation does not lower it"
        )
    error = injected
    for _ in range(level):
        error = ERROR_GAIN * error ** 3
    return error


def _check_finite(name: str, value: float) -> None:
    """``value`` is a real number >= 0 (``errors.is_real``): not NaN, infinite or overflowing."""
    if not (is_real(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {shown(value)}")


def factory_rate(area: float, level: int) -> float:
    """Time-averaged ancillas produced per logical cycle by a factory region."""
    _check_finite("factory area", area)
    return area / distillation_volume(level)


def required_factory_area(consumption: float, level: int) -> int:
    """Smallest factory area whose production rate covers the consumption rate."""
    _check_finite("consumption rate", consumption)
    area = consumption * distillation_volume(level)
    _check_finite(f"consumption rate times the level-{level} volume", area)
    return math.ceil(area)


def toffoli_time(profile) -> float:
    """Wall-clock Toffoli execution time: 31 logical cycles."""
    return TOFFOLI_DEPTH_CYCLES * profile.logical_cycle_time
