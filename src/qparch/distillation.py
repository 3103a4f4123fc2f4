"""Magic-state distillation volumes, factory throughput, and the Toffoli cost.

Throughput uses the time-averaged fluid model: a factory of cross-section A
logical qubits produces A / V(level) ancillas per logical cycle, where the
circuit volume V grows by a factor of 16 per distillation level.
"""

from __future__ import annotations

import math
import sys

from .errors import shown

LEVEL1_CROSS_SECTION = 12  # logical qubits occupied by one distillation circuit
LEVEL1_DEPTH = 6           # logical cycles per distillation round
LEVEL1_VOLUME = LEVEL1_CROSS_SECTION * LEVEL1_DEPTH  # 72 qubit*cycles
CIRCUITS_PER_LEVEL = 16    # 15 feeder circuits plus 1 consumer per extra level
# Deepest level modelled.  Each level cubes the ancilla error (p -> 35 p**3),
# so a few levels reach any useful fidelity, while the volume grows 16-fold
# per level.  The bound keeps volumes, factory sizes and rates far inside the
# float range, which they leave near level 256.
MAX_DISTILLATION_LEVEL = 10
DEFAULT_DISTILLATION_LEVEL = 2
# A Toffoli consumes 7 distilled |A> states over 31 logical cycles; S gates
# reuse a single |Y> ancilla without consuming it.
TOFFOLI_DEPTH_CYCLES = 31
TOFFOLI_ANCILLAS = 7


def distillation_volume(level: int) -> int:
    """Circuit volume (qubit*cycles) to distill one ancilla at the given level."""
    if not 1 <= level <= MAX_DISTILLATION_LEVEL:
        raise ValueError(
            f"distillation level must be between 1 and {MAX_DISTILLATION_LEVEL}, got {level}"
        )
    return LEVEL1_VOLUME * CIRCUITS_PER_LEVEL ** (level - 1)


def _check_finite(name: str, value: float) -> None:
    """``value`` is a number in [0, the largest float]: not NaN, infinite or overflowing."""
    if not 0 <= value <= sys.float_info.max:
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
