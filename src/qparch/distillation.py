"""Magic-state distillation volumes, factory throughput, and gate costs.

Throughput uses the time-averaged fluid model: a factory of cross-section A
logical qubits produces A / V(level) ancillas per logical cycle, where the
circuit volume V grows by a factor of 16 per distillation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LEVEL1_CROSS_SECTION = 12  # logical qubits occupied by one distillation circuit
LEVEL1_DEPTH = 6           # logical cycles per distillation round
LEVEL1_VOLUME = LEVEL1_CROSS_SECTION * LEVEL1_DEPTH  # 72 qubit*cycles
CIRCUITS_PER_LEVEL = 16    # 15 feeder circuits plus 1 consumer per extra level
INPUTS_PER_CIRCUIT = 15    # lower-level ancillas consumed by one circuit
# Deepest level modelled.  Each level cubes the ancilla error (p -> 35 p**3),
# so a few levels reach any useful fidelity, while the volume grows 16-fold
# per level.  The bound keeps volumes, factory sizes and rates far inside the
# float range, which they leave near level 256.
MAX_DISTILLATION_LEVEL = 10


@dataclass(frozen=True)
class DistillationSpec:
    """Volume and shape of one distillation pipeline at a given level."""

    level: int
    volume_per_ancilla: int
    cross_section: int = LEVEL1_CROSS_SECTION
    depth: int = LEVEL1_DEPTH

    @classmethod
    def for_level(cls, level: int) -> "DistillationSpec":
        return cls(level=level, volume_per_ancilla=distillation_volume(level))


@dataclass(frozen=True)
class FactorySpec:
    """A dedicated factory region of the machine."""

    area: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("distillation level must be >= 1")
        if self.area < LEVEL1_CROSS_SECTION:
            raise ValueError(
                f"factory area must fit at least one circuit ({LEVEL1_CROSS_SECTION} "
                f"logical qubits), got {self.area}"
            )

    @property
    def rate(self) -> float:
        return factory_rate(self.area, self.level)


@dataclass(frozen=True)
class GateCost:
    """Logical-cycle depth and ancilla usage of a non-fundamental gate."""

    gate: str
    depth_cycles: int | None
    a_states_consumed: int
    y_states_used_not_consumed: int


# S gates reuse a single |Y> ancilla without consuming it; the Toffoli
# construction consumes 7 distilled |A> states.  The T-teleportation depth is
# not modeled on its own, only inside the Toffoli's 31 cycles.
GATE_COSTS = {
    "S": GateCost("S", depth_cycles=4, a_states_consumed=0, y_states_used_not_consumed=1),
    "S_dagger": GateCost("S_dagger", depth_cycles=4, a_states_consumed=0, y_states_used_not_consumed=1),
    "T": GateCost("T", depth_cycles=None, a_states_consumed=1, y_states_used_not_consumed=0),
    "Toffoli": GateCost("Toffoli", depth_cycles=31, a_states_consumed=7, y_states_used_not_consumed=0),
}

TOFFOLI_DEPTH_CYCLES = GATE_COSTS["Toffoli"].depth_cycles
TOFFOLI_ANCILLAS = GATE_COSTS["Toffoli"].a_states_consumed


def distillation_volume(level: int) -> int:
    """Circuit volume (qubit*cycles) to distill one ancilla at the given level."""
    if not 1 <= level <= MAX_DISTILLATION_LEVEL:
        raise ValueError(
            f"distillation level must be between 1 and {MAX_DISTILLATION_LEVEL}, got {level}"
        )
    return LEVEL1_VOLUME * CIRCUITS_PER_LEVEL ** (level - 1)


def factory_rate(area: float, level: int) -> float:
    """Time-averaged ancillas produced per logical cycle by a factory region."""
    if area < 0:
        raise ValueError("factory area must be non-negative")
    return area / distillation_volume(level)


def required_factory_area(consumption: float, level: int) -> int:
    """Smallest factory area whose production rate covers the consumption rate."""
    if consumption < 0:
        raise ValueError("consumption rate must be non-negative")
    return math.ceil(consumption * distillation_volume(level))


def toffoli_time(profile) -> float:
    """Wall-clock Toffoli execution time: 31 logical cycles."""
    return TOFFOLI_DEPTH_CYCLES * profile.logical_cycle_time
