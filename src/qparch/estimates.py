"""Application-layer resource estimators.

Produces full qubit/cycle/runtime budgets for integer factoring and
first-quantized molecular simulation, including distillation-factory sizing
and the throughput throttling that kicks in when ancilla consumption exceeds
factory production on a fixed-size machine.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import distillation, qec
from .errors import MAX_EXACT_INT, InfeasibleInputError, is_int, shown

SECONDS_PER_DAY = 86400.0
# Qubits sit on a 1 um pitch, so one virtual qubit occupies 1 um^2 = 1e-8 cm^2.
CM2_PER_VIRTUAL_QUBIT = 1e-8

# Factoring model constants (carry-lookahead adders, one modular
# exponentiation).  The sequential adder count 4*N^2 is calibrated so the
# total Toffoli depth matches the reference 1.68e8 at N = 1024.
SHOR_APP_QUBITS_PER_BIT = 6
SHOR_ADDER_ROUNDS_COEFF = 4.0      # sequential adders = coeff * N^2
SHOR_TOFFOLIS_PER_ADDER_COEFF = 10.0   # Toffolis per adder = coeff * N
SHOR_ADDER_DEPTH_COEFF = 4.0       # adder depth in Toffoli layers = coeff * log2(N)

# First-quantized simulation constants: per-operator circuit depths in
# logical cycles (kinetic and QFT fixed, potential linear in particle count)
# and per-particle qubit counts.  The application-register coefficient 109 is
# a single-point calibration (6650 qubits at 61 particles).
SIM_KINETIC_CYCLES = 1.55e5
SIM_POTENTIAL_CYCLES_PER_PARTICLE = 6.26e5
SIM_QFT_CYCLES = 2.57e4
SIM_APP_QUBITS_PER_PARTICLE = 109
SIM_DISTILL_QUBITS_PER_PARTICLE = 260
SIM_OPERATOR_MEMORY_PER_PARTICLE = {"kinetic": 334, "potential": 369, "qft": 272}

SWEEP_CSV_HEADER = (
    "N,app_qubits,distillation_qubits,production_rate,consumption_rate,"
    "throttle,toffoli_depth,runtime_s"
)


def _check_counts(workload) -> None:
    """Every count field of ``workload`` is None or an int in [0, ``MAX_EXACT_INT``]:
    counts meet floats (4 N**2, 6.26e5 * B, cycles * qubits)."""
    for name, value in workload._asdict().items():
        if value is None:
            continue
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {shown(value)}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {shown(value)}")
        if value > MAX_EXACT_INT:
            raise ValueError(
                f"{name} must be at most 2**53 (the largest integer a float holds "
                f"exactly), got {shown(value)}"
            )


class ShorWorkload(namedtuple("ShorWorkload", "bits machine_logical_qubits", defaults=(None,))):
    """Factoring an N-bit integer, optionally on a fixed-size machine."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_counts(self)
        if self.bits < 4:
            raise ValueError("bit size must be >= 4")
        if (
            self.machine_logical_qubits is not None
            and self.machine_logical_qubits - self.app_qubits < distillation.LEVEL1_CROSS_SECTION
        ):
            raise InfeasibleInputError(
                "no factory capacity: machine has "
                f"{self.machine_logical_qubits} logical qubits but the algorithm "
                f"needs {self.app_qubits} application qubits plus "
                f"{distillation.LEVEL1_CROSS_SECTION} for one distillation circuit"
            )
        return self

    @property
    def app_qubits(self) -> int:
        return SHOR_APP_QUBITS_PER_BIT * self.bits

    @property
    def adders_sequential(self) -> float:
        return SHOR_ADDER_ROUNDS_COEFF * self.bits ** 2

    @property
    def toffolis_per_adder(self) -> float:
        return SHOR_TOFFOLIS_PER_ADDER_COEFF * self.bits

    @property
    def adder_depth_toffoli(self) -> float:
        return SHOR_ADDER_DEPTH_COEFF * math.log2(self.bits)

    @property
    def consumption_rate(self) -> float:
        """Peak distilled-ancilla consumption per logical cycle.

        Each adder fires 10N Toffolis (7 ancillas each) over its 124*log2(N)
        cycle depth, giving 70N / (124*log2(N)).
        """
        adder_cycles = self.adder_depth_toffoli * distillation.TOFFOLI_DEPTH_CYCLES
        return self.toffolis_per_adder * distillation.TOFFOLI_ANCILLAS / adder_cycles


class SimWorkload(namedtuple(
    "SimWorkload", "particles bits_precision timesteps", defaults=(12, 2 ** 10)
)):
    """First-quantized molecular simulation of B particles on a position grid."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_counts(self)
        if self.particles < 1:
            raise ValueError("particle count must be >= 1")
        if self.bits_precision < 1 or self.timesteps < 1:
            raise ValueError("bits_precision and timesteps must be >= 1")
        return self

    @property
    def register_qubits_per_particle(self) -> int:
        return 3 * self.bits_precision

    @property
    def app_qubits(self) -> int:
        return SIM_APP_QUBITS_PER_PARTICLE * self.particles

    @property
    def distillation_qubits(self) -> int:
        return SIM_DISTILL_QUBITS_PER_PARTICLE * self.particles


class ResourceReport(namedtuple(
    "ResourceReport",
    "app_qubits distillation_qubits total_logical_qubits toffoli_depth logical_cycles "
    "code_distance virtual_qubits chip_area_cm2 runtime_seconds runtime_days production_rate "
    "consumption_rate throttle_factor failure_probability details",
)):
    """Qubit/cycle/runtime budget for one application run.

    A workload decides the arguments; the constructor derives every other
    field from them, the profile, the code point and the distillation level:
    the factory's production rate and the runtime at the profile's logical
    cycle time.  It raises ``InfeasibleInputError`` when the code's CNOT
    outlasts the logical cycle, and ``ValueError`` when the runtime overflows
    a float.  Fields are declared in the report's JSON key order.
    """

    __slots__ = ()

    def __new__(
        cls,
        app_qubits: int,
        distillation_qubits: int,
        toffoli_depth: float,
        logical_cycles: float,
        consumption_rate: float | None,
        profile: qec.HardwareProfile,
        code: qec.CodePoint,
        level: int,
        details: dict,
    ):
        production_rate = distillation.factory_rate(distillation_qubits, level)
        logical_cycle_time = profile.logical_cycle_time
        if code.cnot_time_s > logical_cycle_time:
            raise InfeasibleInputError(
                f"a CNOT at distance {code.distance} takes {code.cnot_time_s!r} s, longer than the "
                f"{logical_cycle_time!r} s logical cycle: raise logical_cycle_time or lower the distance"
            )
        total = app_qubits + distillation_qubits
        virtual = total * code.virtual_per_logical
        throttle = 1.0
        if consumption_rate is not None:
            throttle = max(1.0, consumption_rate / production_rate)
        runtime = logical_cycles * logical_cycle_time * throttle
        if not math.isfinite(runtime):
            raise ValueError(
                f"the runtime overflows a float: {logical_cycles!r} logical cycles of "
                f"logical_cycle_time {logical_cycle_time!r} s, throttled by {throttle!r}"
            )
        return super().__new__(
            cls,
            app_qubits=app_qubits,
            distillation_qubits=distillation_qubits,
            total_logical_qubits=total,
            toffoli_depth=toffoli_depth,
            logical_cycles=logical_cycles,
            code_distance=code.distance,
            virtual_qubits=virtual,
            chip_area_cm2=virtual * CM2_PER_VIRTUAL_QUBIT,
            runtime_seconds=runtime,
            runtime_days=runtime / SECONDS_PER_DAY,
            production_rate=production_rate,
            consumption_rate=consumption_rate,
            throttle_factor=throttle,
            failure_probability=qec.failure_probability(
                code.logical_error_rate, logical_cycles, total
            ),
            details=details,
        )

    def __reduce__(self):
        """Copies and pickles restore the stored fields: the inputs are gone."""
        return tuple.__new__, (type(self), tuple(self))


def shor_estimate(
    workload: ShorWorkload,
    profile: qec.HardwareProfile,
    code: qec.CodePoint,
    level: int = distillation.DEFAULT_DISTILLATION_LEVEL,
) -> ResourceReport:
    """Full resource budget for one run of the factoring algorithm.

    Without a machine size the factory is sized to match peak consumption
    (no throttling).  With a fixed machine, everything beyond the
    application qubits becomes factory area and the runtime stretches by
    max(1, consumption/production).
    """
    toffoli_depth = workload.adders_sequential * workload.adder_depth_toffoli
    logical_cycles = toffoli_depth * distillation.TOFFOLI_DEPTH_CYCLES
    consumption = workload.consumption_rate

    if workload.machine_logical_qubits is None:
        factory_area = distillation.required_factory_area(consumption, level)
    else:
        factory_area = workload.machine_logical_qubits - workload.app_qubits
    return ResourceReport(
        app_qubits=workload.app_qubits,
        distillation_qubits=factory_area,
        toffoli_depth=toffoli_depth,
        logical_cycles=logical_cycles,
        consumption_rate=consumption,
        profile=profile,
        code=code,
        level=level,
        details={
            "application": "shor",
            "bits": workload.bits,
            "distillation_level": level,
            "depth_units": "logical_cycles",
            "machine_logical_qubits": workload.machine_logical_qubits,
        },
    )


def sim_estimate(
    workload: SimWorkload,
    profile: qec.HardwareProfile,
    code: qec.CodePoint,
    level: int = distillation.DEFAULT_DISTILLATION_LEVEL,
) -> ResourceReport:
    """Resource budget for a first-quantized simulation run.

    One propagator step runs the potential, the kinetic operator and a QFT
    pair.  It repeats for every timestep; one extra QFT on the time register
    converts the evolution into an energy readout (a sub-0.1% addition,
    included for completeness).
    """
    potential = SIM_POTENTIAL_CYCLES_PER_PARTICLE * workload.particles
    per_step = potential + SIM_KINETIC_CYCLES + 2 * SIM_QFT_CYCLES
    logical_cycles = workload.timesteps * per_step + SIM_QFT_CYCLES
    return ResourceReport(
        app_qubits=workload.app_qubits,
        distillation_qubits=workload.distillation_qubits,
        toffoli_depth=logical_cycles / distillation.TOFFOLI_DEPTH_CYCLES,
        logical_cycles=logical_cycles,
        consumption_rate=None,
        profile=profile,
        code=code,
        level=level,
        details={
            "application": "molecular_simulation",
            "particles": workload.particles,
            "bits_precision": workload.bits_precision,
            "timesteps": workload.timesteps,
            "register_qubits_per_particle": workload.register_qubits_per_particle,
            "distillation_level": level,
            "depth_units": "logical_cycles",
            "operator_memory_logical_qubits": {
                name: per * workload.particles
                for name, per in SIM_OPERATOR_MEMORY_PER_PARTICLE.items()
            },
        },
    )


def sweep_to_csv(reports: list[ResourceReport]) -> str:
    """Serialize factoring sweep reports to CSV with the fixed sweep header."""
    rows = [SWEEP_CSV_HEADER]
    for report in reports:
        rows.append(
            f"{report.details['bits']},{report.app_qubits},{report.distillation_qubits},"
            f"{report.production_rate!r},{report.consumption_rate!r},{report.throttle_factor!r},"
            f"{report.toffoli_depth!r},{report.runtime_seconds!r}"
        )
    return "\n".join(rows) + "\n"
