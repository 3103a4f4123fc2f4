"""Surface-code sizing model.

Maps a hardware profile (cycle times and error rates) to logical-layer
quantities: the error rate of a logical gate at a given code distance, the
smallest distance meeting a target error rate, the virtual-qubit footprint of
a logical qubit, and the wall-clock duration of the fundamental logical gates.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter, namedtuple

from .errors import InfeasibleInputError, RateUnderflowError, check_count, is_real, shown

# Virtual qubits per logical qubit, modeled as round(coeff * d^2).  The
# coefficient is calibrated so that footprint(31) = 6240, the reference
# machine's value; the quadratic form follows from the area of the two
# lattice defects making up a logical qubit.
FOOTPRINT_COEFF = 6240 / 961

# Distance used by the reference resource reports.  The pure inversion of the
# error-scaling law yields d = 29 for the reference factoring workload; the
# reports pin d = 31, keeping a one-step safety margin and reproducing the
# published machine size.  Both values are surfaced by the CLI.
DEFAULT_REPORT_DISTANCE = 31

CNOT_STEP_COEFF = 13  # lattice steps per CNOT = 13 * ceil(d/4)  (defect braiding)
HADAMARD_DIVISOR = 8  # lattice steps per H = 13 * ceil(d/8)     (lattice shift)
CNOT_DIVISOR = 4


class HardwareProfile(namedtuple(
    "HardwareProfile",
    "larmor_period lattice_cycle_time logical_cycle_time error_per_virtual_gate threshold c1 c2",
    defaults=(40e-12, 256e-9, 30e-6, 1e-3, 9e-3, 0.13, 0.61),
)):
    """Physical, QEC and logical timing/error constants, each read by one formula.

    Defaults describe the optically controlled quantum-dot platform: 40 ps
    Larmor period, 256 ns lattice refresh, 30 us logical cycle, 1e-3 error
    per virtual gate against a 9e-3 threshold.  The pulse layer derives the
    times in between from the Larmor period: a 14 ps broadband pulse
    (``pulses.hadamard_pulse``, the period over sqrt(8)) and a 32 ns virtual
    gate (``pulses.bb1_virtual_gate(...).duration``).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in self._asdict().items():
            if not (is_real(value) and value > 0):
                raise ValueError(f"{name} must be a finite real number > 0, got {shown(value)}")
        if not self.threshold < 1:
            raise ValueError(f"threshold must be below 1, got {self.threshold}")
        if not self.error_per_virtual_gate < self.threshold:
            raise InfeasibleInputError(
                f"unreachable target: error_per_virtual_gate {self.error_per_virtual_gate} "
                f"is at or above the threshold {self.threshold}"
            )
        return self

    @property
    def suppression_base(self) -> float:
        """c2 * error_per_virtual_gate / threshold, the per-half-distance factor."""
        return self.c2 * self.error_per_virtual_gate / self.threshold

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "HardwareProfile":
        """Read a profile from a JSON object keyed by the field names.

        Missing fields take their defaults.  Unknown and duplicate fields raise,
        so typos fail fast instead of silently keeping a default, and no value
        silently replaces another.
        """
        import json  # loaded only by the commands given a profile file

        names = []  # the keys of the object read last: the top-level one, which ends the text

        def keep_names(pairs):
            names[:] = (name for name, _ in pairs)
            return dict(pairs)

        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle, object_pairs_hook=keep_names)
            except ValueError as exc:  # not JSON, or an int too long to convert
                raise ValueError(f"hardware profile {path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError("hardware profile JSON must be an object")
        unknown = sorted(set(data) - set(cls._fields))
        if unknown:
            raise ValueError(f"unknown hardware profile field(s): {', '.join(unknown)}")
        if len(names) > len(data):
            duplicate = sorted(name for name, count in Counter(names).items() if count > 1)
            raise ValueError(f"duplicate hardware profile field(s): {', '.join(duplicate)}")
        return cls(**data)


def _check_distance(distance) -> None:
    """``distance`` is an odd count from 1 to 2**53 (the gate-step and footprint
    formulas take it as a float)."""
    check_count("code distance", distance, 1)
    if distance % 2 == 0:
        raise ValueError(f"code distance must be odd, got {distance}")


class CodePoint(namedtuple(
    "CodePoint",
    "distance logical_error_rate virtual_per_logical cnot_lattice_steps "
    "hadamard_lattice_steps cnot_time_s hadamard_time_s measurement_time_s",
)):
    """A chosen code distance and the quantities derived from it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_distance(self.distance)
        return self


def failure_probability(logical_error_rate: float, depth: float, qubits: float,
                        ancillas: float = 0, ancilla_error: float = 0.0) -> float:
    """Worst-case algorithm failure probability 1 - (1 - eps)^(K*Q) (1 - p_A)^n_A:
    K*Q logical gates of error eps and n_A consumed ancillas of error p_A.

    Evaluated through log1p/expm1 so that tiny per-gate rates do not
    underflow: for K*Q*eps << 1 the result is K*Q*eps to first order.
    """
    for name, value in (("logical error rate", logical_error_rate), ("ancilla error", ancilla_error)):
        if not (is_real(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {shown(value)}")
    for name, value, low in (("depth", depth, 1), ("qubit count", qubits, 1), ("ancilla count", ancillas, 0)):
        if not (is_real(value) and value >= low):
            raise ValueError(f"{name} must be a finite number >= {low}, got {shown(value)}")
    if logical_error_rate == 1.0 or (ancillas and ancilla_error == 1.0):
        return 1.0
    # Exact zeros are skipped: no 0 * inf when depth * qubits overflows, and no -0.0.
    log_survival = 0.0
    if logical_error_rate:
        log_survival += depth * qubits * math.log1p(-logical_error_rate)
    if ancillas and ancilla_error:
        log_survival += ancillas * math.log1p(-ancilla_error)
    return -math.expm1(log_survival) if log_survival else 0.0


def _rate(c1: float, base: float, exponent: int) -> float:
    """``c1 * base ** exponent``.  A power below the smallest normal float has
    lost bits, or all of them, before the product, so then the product is
    taken in 34 digits and rounded once: within one ulp, subnormal ulps
    included, and 0.0 only when the exact rate rounds to it."""
    power = base ** exponent
    if power >= sys.float_info.min:
        return c1 * power
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal  # loaded only for a subnormal power

    context = Context(prec=34, Emin=MIN_EMIN, Emax=MAX_EMAX)
    return float(context.multiply(Decimal(c1), context.power(Decimal(base), exponent)))


def logical_error_rate(profile: HardwareProfile, distance: int) -> float:
    """Error per logical gate at code distance d.

    c1 * (c2 * eps_V / eps_thresh)^floor((d+1)/2), valid only below
    threshold, which every HardwareProfile guarantees.  Raises
    ``RateUnderflowError`` when the rate underflows to 0.0, and ``ValueError``
    when it overflows a float or is above 1, which no error rate can be.
    """
    _check_distance(distance)
    try:
        rate = _rate(profile.c1, profile.suppression_base, (distance + 1) // 2)
    except OverflowError:  # a base above 1 raised to a huge power
        rate = math.inf
    if rate == 0.0:
        raise RateUnderflowError(
            f"the logical error rate at code distance {distance} underflows to 0.0"
        )
    if rate == math.inf:
        raise ValueError(f"the logical error rate at code distance {distance} overflows a float")
    if rate > 1.0:
        raise ValueError(
            f"the logical error rate at code distance {distance} is {rate:.6g}, above 1 "
            f"(c1 = {profile.c1:.4g}, suppression base c2 * error_per_virtual_gate / threshold = "
            f"{profile.suppression_base:.4g})"
        )
    return rate


def footprint(distance: int) -> int:
    """Virtual qubits needed per logical qubit at code distance d (odd or even)."""
    check_count("code distance", distance, 1)
    return round(FOOTPRINT_COEFF * distance * distance)


def code_point(profile: HardwareProfile, distance: int = DEFAULT_REPORT_DISTANCE) -> CodePoint:
    """Assemble the CodePoint for a chosen distance, by default the pinned reporting one.

    A logical gate lasts its lattice steps times the lattice refresh time; a
    measurement takes one refresh.  Raises ``ValueError`` when the CNOT time
    overflows a float.
    """
    rate = logical_error_rate(profile, distance)  # checks the distance first
    cnot_steps = CNOT_STEP_COEFF * math.ceil(distance / CNOT_DIVISOR)
    hadamard_steps = CNOT_STEP_COEFF * math.ceil(distance / HADAMARD_DIVISOR)
    # The CNOT is the longest gate, so its time bounds the others.
    cnot_time = cnot_steps * profile.lattice_cycle_time
    if not math.isfinite(cnot_time):
        raise ValueError(
            f"the CNOT time at code distance {distance} overflows a float: {cnot_steps} "
            f"lattice steps of lattice_cycle_time {profile.lattice_cycle_time!r} s"
        )
    return CodePoint(
        distance=distance,
        logical_error_rate=rate,
        virtual_per_logical=footprint(distance),
        cnot_lattice_steps=cnot_steps,
        hadamard_lattice_steps=hadamard_steps,
        cnot_time_s=cnot_time,
        hadamard_time_s=hadamard_steps * profile.lattice_cycle_time,
        measurement_time_s=profile.lattice_cycle_time,
    )


def min_code_distance(profile: HardwareProfile, target_logical_error: float) -> CodePoint:
    """Smallest odd distance whose logical error rate meets the target.

    Raises InfeasibleInputError when the suppression base is >= 1, in which
    case increasing the distance never helps.
    """
    if not (is_real(target_logical_error) and 0 < target_logical_error <= 1):
        raise ValueError(
            f"target_logical_error must be a finite number in (0, 1], got {shown(target_logical_error)}"
        )
    base = profile.suppression_base
    if base >= 1.0:
        raise InfeasibleInputError(
            "unreachable target: c2 * error_per_virtual_gate / threshold = "
            f"{base:.4g} >= 1, so no finite distance reaches the target"
        )
    # Closed-form starting exponent, in the log domain so that target / c1 cannot
    # underflow, then a local walk to absorb rounding.
    log_ratio = math.log(target_logical_error) - math.log(profile.c1)
    exponent = max(1, math.ceil(log_ratio / math.log(base)))
    while exponent > 1 and _rate(profile.c1, base, exponent - 1) <= target_logical_error:
        exponent -= 1
    while _rate(profile.c1, base, exponent) > target_logical_error:
        exponent += 1
    return code_point(profile, 2 * exponent - 1)


def distance_report(profile: HardwareProfile, target_logical_error: float) -> dict:
    """The minimal code point for ``target_logical_error`` beside the one at the pinned
    reporting distance, as ``qec distance`` prints them.  The pinned point is None when
    only its rate underflows a float: the search itself succeeded."""
    minimal = min_code_distance(profile, target_logical_error)
    try:
        report = code_point(profile)._asdict()
    except RateUnderflowError:
        report = None
    return {"target_logical_error": target_logical_error, "minimal": minimal._asdict(),
            "report_distance": DEFAULT_REPORT_DISTANCE, "report": report}
