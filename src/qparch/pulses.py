"""Single-qubit pulse-level simulator for the virtual-qubit control layer.

The qubit precesses continuously about Z at the Larmor frequency; laser
pulses add a drive term along a programmable axis.  A segment's unitary is
the joint exponential of drive plus precession, so a "Hadamard pulse" is a
drive along X with amplitude equal to the Larmor angular frequency applied
for 1/sqrt(8) of a Larmor period: the net rotation axis tilts to
(X + Z)/sqrt(2) and the net angle is pi.  Composite X gates, the
eight-pulse decoupling block, Carr-Purcell and Uhrig reference sequences,
and the error-compensating virtual gate are all built from these pulses plus
timed free precession: a segment with no drive axis.

Noise model: a quasi-static per-shot detuning (Gaussian, sigma =
sqrt(2)/T2*, giving the Gaussian free-induction envelope) plus a systematic
relative error on every pulse's rotation angle.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sized

import numpy as np

from .errors import check_count, is_int, is_real, shown

DEFAULT_LARMOR_PERIOD = 40e-12
# A run holds one block of _BLOCK samples at a time, so its memory does not
# grow with the count; the limit bounds its time.  More is an input error.
MAX_SAMPLES = 2 ** 20

IDENTITY2 = np.eye(2, dtype=complex)

# A delay in float seconds is rounded to within 2**-53 of the 8*tau window it
# sits in, which turns the Larmor phase by up to 2*pi*8*tau/larmor_period *
# 2**-53 rad.  Past this bound the sequence built is not the one asked for.
# At the default Larmor period it admits tau up to about 7.17 ms.
PHASE_RESOLUTION = 1e-6  # rad

# Pulse-center fractions of the 8*tau window for 4 pulses: Carr-Purcell at
# (2j - 1)/8, so tau, 3 tau, 5 tau and 7 tau, and Uhrig at sin^2(j*pi/10), j = 1..4.
CP_FRACTIONS = (0.125, 0.375, 0.625, 0.875)
UDD_FRACTIONS = tuple(math.sin(j * math.pi / 10) ** 2 for j in range(1, 5))


class PulseSegment(namedtuple("PulseSegment", "duration axis nominal_angle")):
    """One timed element: a drive pulse, or free precession when ``axis`` is None.

    For a pulse, ``axis`` is the drive axis on the Bloch sphere and
    ``nominal_angle`` the rotation the drive alone would produce over the
    segment's duration; the background Z precession acts concurrently and is
    folded into the same exponential.
    """

    __slots__ = ()

    def __new__(cls, duration: float, axis: tuple[float, float, float] | None = None,
                nominal_angle: float | None = None):
        if not (is_real(duration) and duration >= 0):
            raise ValueError(
                f"segment duration must be finite and non-negative, got {shown(duration)}"
            )
        if (axis is None) != (nominal_angle is None):
            raise ValueError(
                "a segment takes an axis and a nominal angle together (a pulse) or neither "
                "(free precession)"
            )
        if axis is not None:
            if not isinstance(axis, Sized) or len(axis) != 3:
                raise ValueError(f"pulse axis must have three components, got {shown(axis)}")
            if not all(map(is_real, axis)):
                raise ValueError(f"pulse axis must be finite, got {shown(axis)}")
            axis = tuple(float(c) for c in axis)
            if not abs(math.sqrt(sum(c * c for c in axis)) - 1.0) <= 1e-12:
                raise ValueError(f"pulse axis must be a unit vector, got {axis}")
            if not (is_real(nominal_angle) and nominal_angle >= 0):
                raise ValueError(
                    "nominal_angle must be finite and non-negative (flip the axis instead), "
                    f"got {shown(nominal_angle)}"
                )
        return super().__new__(cls, duration, axis, nominal_angle)


def hadamard_pulse(larmor_period: float = DEFAULT_LARMOR_PERIOD, polarity: int = 1) -> PulseSegment:
    """Broadband pulse enacting a Hadamard: X drive at the Larmor rate for T_L/sqrt(8).

    With drive amplitude equal to the Larmor angular frequency, drive and
    precession combine into a pi rotation about (X + Z)/sqrt(2).  Negative
    polarity drives along -X, giving the mirror Hadamard-type pulse about
    (-X + Z)/sqrt(2); pairs of opposite polarity cancel systematic pulse
    errors to first order.
    """
    _check_larmor_period(larmor_period)
    if not is_int(polarity) or polarity not in (1, -1):
        raise ValueError(f"polarity must be the integer +1 or -1, got {shown(polarity)}")
    duration = larmor_period / math.sqrt(8)
    drive_angle = 2 * math.pi / math.sqrt(8)
    return PulseSegment(duration, (float(polarity), 0.0, 0.0), drive_angle)


def z_axis_pulse(angle: float, larmor_period: float = DEFAULT_LARMOR_PERIOD) -> PulseSegment:
    """Driven Z rotation lasting one full Larmor period.

    The background precession contributes a full turn (identity up to
    phase), so the net gate is R_Z(angle) and, unlike free precession, the
    angle is subject to the systematic pulse error.
    """
    _check_larmor_period(larmor_period)
    if not (is_real(angle) and 0 <= angle < 4 * math.pi):
        raise ValueError(f"angle must lie in [0, 4*pi), got {shown(angle)}")
    return PulseSegment(larmor_period, (0.0, 0.0, 1.0), angle)


class PulseSequence(namedtuple("PulseSequence", "segments larmor_period")):
    """Ordered pulse/precession schedule with the Larmor period it was built for."""

    __slots__ = ()

    def __new__(cls, segments, larmor_period: float = DEFAULT_LARMOR_PERIOD):
        if not isinstance(segments, Iterable):
            raise ValueError(f"segments must be an iterable of PulseSegment, got {shown(segments)}")
        self = super().__new__(cls, tuple(segments), larmor_period)
        for segment in self.segments:
            if not isinstance(segment, PulseSegment):
                raise ValueError(f"a sequence holds only PulseSegment records, got {shown(segment)}")
        _check_larmor_period(self.larmor_period)
        if self.segments and not self.duration > 0:
            raise ValueError(
                f"non-empty sequences must have positive total duration, got {self.duration!r} s"
            )
        return self

    @property
    def duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


def _chain(segments: tuple[PulseSegment, ...], pulse_error: float) -> list[tuple[PulseSegment, float]]:
    """Each segment with the scale of its rotation: 1 for free precession and
    ``1 + pulse_error`` for a pulse.  The systematic pulse error scales the
    whole rotation a pulse enacts (drive plus the precession it rides on), a
    relative deviation of the segment's net rotation angle."""
    scale = 1 + pulse_error
    return [(segment, 1.0 if segment.axis is None else scale) for segment in segments]


def _segment_rotation(
    segment: PulseSegment, larmor_period: float, scale: float
) -> Callable[[np.ndarray], tuple]:
    """The function from a block of detunings to the segment's Cayley-Klein pair
    (a, b) of exp(-i (v . sigma) / 2) = [[a, b], [-b*, a*]], where v = (vx, vy,
    c0 + c1 * detuning) is the segment's rotation times ``scale``.  Free
    precession is the case angle = 0.  (A segment of duration 0, the exact
    identity, never gets here: ``_pair_runs`` drops it.)
    """
    ax, ay, az = segment.axis or (0.0, 0.0, 0.0)
    angle = segment.nominal_angle or 0.0
    vx, vy = scale * angle * ax, scale * angle * ay
    c0 = scale * (angle * az + 2 * math.pi / larmor_period * segment.duration)
    c1 = scale * segment.duration
    # From 2**52 rad on a double holds no fractional radian, so a rotation
    # that large is unresolved: NaN, like a non-finite one, which
    # _compose_blocks reports.  The bound is on the half-angle at zero detuning.
    resolved = 0.5 * math.hypot(vx, vy, c0) < 2 ** 52
    if vx == 0 and vy == 0:
        # The Larmor phase exp(-i c0 / 2), up to about 300 rad, is one scalar.
        half = 0.5 * c0
        phase = complex(math.cos(half), -math.sin(half)) if resolved else math.nan
        return functools.partial(_z_rotation, phase, c1)
    return functools.partial(_tilted_rotation, vx, vy, c0 if resolved else math.nan, c1)


def _z_rotation(phase: complex, c1: float, detunings: np.ndarray) -> tuple:
    """a = phase * exp(-i c1 detuning / 2) of a rotation about Z alone: a small
    angle's cos and sin per sample.  b is None: its products are exact zeros."""
    x = (-0.5 * c1) * detunings
    a = np.empty(len(x), dtype=complex)
    np.cos(x, out=a.real)
    np.sin(x, out=a.imag)
    # Not in place: numpy's in-place product of a one-sample array rounds
    # differently from the same product over a longer one.
    return a * phase, None


def _tilted_rotation(vx: float, vy: float, c0: float, c1: float, detunings: np.ndarray) -> tuple:
    """a = cos(n/2) - i k vz and b = -k vy - i k vx, with n = |v| and
    k = sin(n/2)/n (1/2 where n = 0, a rotation whose squares underflow)."""
    vz = c0 + c1 * detunings
    n = np.sqrt((vx * vx + vy * vy) + vz * vz)
    half = 0.5 * n
    k = np.divide(np.sin(half), n, out=np.full_like(n, 0.5), where=n > 0)
    a = np.empty(len(n), dtype=complex)
    np.cos(half, out=a.real)
    np.multiply(k, -vz, out=a.imag)
    return a, k * complex(-vy, -vx)


# Samples composed at a time: each product makes fresh temporaries of this
# length, small enough to stay in cache, and a block's distinct pairs touch
# few fresh pages.
_BLOCK = 4096


def _step(u, u2) -> tuple:
    """The SU(2) product U2 U1 of u2 = U2 and u = U1, each as its pair (a, b).

    A rotation about Z has b = 0, given as None, and the terms with it are
    dropped: for b2 = 0 the product is (a2 a, a2 b), for b = 0 it is (a2 a,
    a* b2), and for both (a2 a, None).  The dropped terms are exact zeros, so
    every rounding is that of the full product (only the sign of a zero
    result can differ).  A complex product's rounding depends on its operand
    order, and numpy swaps the operands of ``x * temporary`` when it reuses a
    large temporary as the output, so each temporary comes first: a sample's
    result does not depend on the array length.
    """
    a, b = u
    a2, b2 = u2
    if b is None:
        return a2 * a, None if b2 is None else np.conj(a) * b2
    if b2 is None:
        return a2 * a, a2 * b
    return a2 * a - np.conj(b) * b2, a2 * b + np.conj(a) * b2


def _pair_runs(chains: list[list[tuple[PulseSegment, float]]]) -> tuple[list[tuple], list[int | None]]:
    """The product tree of each chain of ``(segment, scale)`` steps, as nodes of one table.

    A chain drops its zero-length steps, the exact identity, and is then
    compressed by Re-Pair: while some adjacent pair of items occurs at least
    twice without overlap, its occurrences, from left to right, become one
    new item.  The most frequent pair goes first; of equal counts, the one
    that occurs first.  The items left are folded from the left.  Each run
    made rescans the chain: O(L * R) time for L steps and R runs.  BB1's 91
    segments pair in 0.3 ms; a 4000-segment chain of 2000 distinct delays,
    twice, in 2.5 s (2-vCPU Xeon VM).  Returns the nodes, each a ``(segment,
    scale)`` step or a ``(left, right)`` pair of earlier nodes' indices (the
    product U_right U_left), and each chain's root, or None for a chain with
    no step.  A chain's tree depends on its steps alone, never on the chains
    beside it, and equal trees are one node, composed once for every chain
    that holds it.
    """
    index: dict[tuple, int] = {}

    def node(content: tuple) -> int:
        return index.setdefault(content, len(index))

    roots = []
    for chain in chains:
        items = [node(step) for step in chain if step[0].duration > 0]
        while True:
            counts: dict[tuple[int, int], int] = {}
            ends: dict[tuple[int, int], int] = {}
            for i, pair in enumerate(zip(items, items[1:])):
                if ends.get(pair, 0) <= i:  # x x x holds one x x without overlap
                    counts[pair] = counts.get(pair, 0) + 1
                    ends[pair] = i + 2
            # max keeps the first of equal counts, and counts is in order of first occurrence.
            pair = max(counts, key=counts.__getitem__, default=None)
            if pair is None or counts[pair] < 2:
                break
            run, paired, i = node(pair), [], 0
            while i < len(items):
                if items[i] == pair[0] and items[i + 1:i + 2] == [pair[1]]:
                    paired.append(run)
                    i += 2
                else:
                    paired.append(items[i])
                    i += 1
            items = paired
        roots.append(functools.reduce(lambda u, v: node((u, v)), items) if items else None)
    return list(index), roots


def _compose_blocks(
    chains: list[list[tuple[PulseSegment, float]]],
    larmor_period: float,
    blocks: Iterable[np.ndarray],
    consume: Callable[[int, tuple], np.ndarray],
) -> None:
    """Compose each chain of ``(segment, scale)`` steps (``_chain``) over each
    block of detunings in turn, as the tree ``_pair_runs`` gives it.

    Each distinct step's scalars are computed once per call.  Per block, each
    node of the chains' trees, a step's pair or a run's product, is made once
    at its first use and freed after its last, however often it repeats
    within a chain or across chains.  For chain i and each block,
    ``consume(i, (a, b))`` takes the product's pair, two arrays of the block's
    length, and returns an array that is not finite where the pair is not.
    Raises ``ValueError`` when a segment's rotation overflows a float (a
    detuning, pulse error or duration so large that the phase is not finite),
    or when a segment's Larmor phase or tilted rotation angle reaches 2**52
    rad, where it holds no fractional radian.
    """
    nodes, roots = _pair_runs(chains)
    rotations = [_segment_rotation(content[0], larmor_period, content[1])
                 if isinstance(content[0], PulseSegment) else None for content in nodes]
    uses = [0] * len(nodes)  # the runs that take each node, and the chains whose root it is
    for content, rotation in zip(nodes, rotations):
        if rotation is None:
            for child in content:
                uses[child] += 1
    for root in roots:
        if root is not None:
            uses[root] += 1
    # Each chain's nodes not made before it, children first (depth first, so
    # few pairs are held at once).
    orders, made = [], set()
    for root in roots:
        order, stack = [], [] if root is None else [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif node not in made:
                made.add(node)
                stack.append((node, True))
                if rotations[node] is None:
                    stack.extend(reversed([(child, False) for child in nodes[node]]))
        orders.append(order)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            held, left = {}, uses.copy()

            def take(node: int) -> tuple:
                left[node] -= 1
                return held[node] if left[node] else held.pop(node)

            for i, (root, order) in enumerate(zip(roots, orders)):
                for node in order:
                    rotation = rotations[node]
                    held[node] = rotation(block) if rotation else _step(*map(take, nodes[node]))
                if root is None:  # no step, or only zero-length ones
                    u = (np.ones(len(block), dtype=complex), np.zeros(len(block), dtype=complex))
                else:
                    u = take(root)
                    if u[1] is None:  # only rotations about Z
                        u = (u[0], np.zeros(len(block), dtype=complex))
                # A non-finite rotation or an unresolved Larmor phase turns its
                # pair into NaN, which every later product carries.
                if not np.isfinite(consume(i, u)).all():
                    raise ValueError(
                        "a segment's rotation overflows or is too large to resolve: the detuning "
                        "(t2_star), the pulse error, a segment's duration (tau) or the Larmor rate "
                        "(1 / larmor_period) is so large that the phase is not finite or holds no "
                        "fractional radian"
                    )


def _compose(
    segments: tuple[PulseSegment, ...],
    larmor_period: float,
    detunings: np.ndarray,
    pulse_error: float,
) -> np.ndarray:
    """Cayley-Klein rows (a, b) of the time-ordered product of segment
    unitaries, one column per detuning: ``_compose_blocks`` on one chain."""
    result = np.empty((2, len(detunings)), dtype=complex)
    starts = range(_BLOCK, len(detunings), _BLOCK)
    outputs = iter(np.split(result, starts, axis=1))

    def write(_, u: tuple) -> np.ndarray:
        out = next(outputs)
        out[0], out[1] = u
        return out

    _compose_blocks([_chain(segments, pulse_error)], larmor_period, np.split(detunings, starts), write)
    return result


def sequence_unitary(
    sequence: PulseSequence,
    detuning: float = 0.0,
    pulse_error: float = 0.0,
) -> np.ndarray:
    """Net unitary of a sequence (segments compose in time order).

    Raises ``ValueError`` when a segment's rotation overflows a float or is
    too large to resolve.
    """
    for name, value in (("detuning", detuning), ("pulse_error", pulse_error)):
        if not is_real(value):
            raise ValueError(f"{name} must be a finite real number, got {shown(value)}")
    (a,), (b,) = _compose(sequence.segments, sequence.larmor_period, np.array([detuning]), pulse_error)
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def composite_x_gate(theta: float, larmor_period: float = DEFAULT_LARMOR_PERIOD) -> PulseSequence:
    """R_X(theta) from two Hadamard pulses around a timed precession.

    Under zero noise the net unitary equals R_X(theta) up to global phase.
    """
    if not (is_real(theta) and 0 <= theta < 4 * math.pi):
        raise ValueError(f"theta must lie in [0, 4*pi), got {shown(theta)}")
    _check_larmor_period(larmor_period)
    return PulseSequence(tuple(_composite_x_segments(theta, larmor_period, 1)), larmor_period)


def _composite_x_segments(theta: float, larmor_period: float, polarity: int) -> list[PulseSegment]:
    delay = theta * larmor_period / (2 * math.pi)
    return [
        hadamard_pulse(larmor_period, polarity),
        PulseSegment(delay),
        hadamard_pulse(larmor_period, polarity),
    ]


def _check_larmor_period(larmor_period) -> None:
    if not (is_real(larmor_period) and larmor_period > 0):
        raise ValueError(f"larmor_period must be positive and finite, got {shown(larmor_period)}")


def _check_timing_resolution(window: float, larmor_period: float) -> None:
    """Refuse an 8*tau window whose rounding moves the Larmor phase past ``PHASE_RESOLUTION``."""
    phase_error = 2 * math.pi * window / larmor_period * 2 ** -53
    if phase_error > PHASE_RESOLUTION:
        largest = PHASE_RESOLUTION * 2 ** 53 * larmor_period / (16 * math.pi)
        raise ValueError(
            f"tau is too long to time: rounding the 8*tau window turns the Larmor phase by up to "
            f"{phase_error:.4g} rad, past the {PHASE_RESOLUTION:g} rad resolution bound; at "
            f"larmor_period {larmor_period!r} s, tau must be at most {largest:.3g} s"
        )


def _gate_delays(fractions: tuple[float, ...], tau: float, width: float) -> list[float]:
    """The free delays around composite gates of ``width`` centered at ``fractions`` of the 8*tau window."""
    window = 8 * tau
    centers = [window * f for f in fractions]
    delays = [centers[0] - width / 2]
    for previous, current in zip(centers, centers[1:]):
        delays.append(current - previous - width)
    delays.append(window - centers[-1] - width / 2)
    return delays


# Floats the search for the smallest tau steps through on either side of its
# analytic bound; rounding moves the boundary by a few (at most 4 over 3000
# sampled Larmor periods for each kind).
_TAU_STEPS = 64


def _smallest_tau(fractions: tuple[float, ...], width: float) -> float | None:
    """The smallest float tau whose delays around gates of ``width`` (``_gate_delays``)
    are all non-negative, or None when no finite 8*tau window holds the gates."""
    # Each delay is its share of the window less the pulse width (half of one at either end) it holds.
    edges, needs = (0.0, *fractions, 1.0), (width / 2, width, width, width, width / 2)
    tau = max(need / (8 * (end - start)) for need, start, end in zip(needs, edges, edges[1:]))

    def fits(tau: float) -> bool:
        return tau > 0 and math.isfinite(8 * tau) and min(_gate_delays(fractions, tau, width)) >= 0

    # Rounding moves the boundary by a few floats: step up to the first one that
    # fits, then down while the one below fits.  The steps are bounded, so a
    # bound whose window overflows ends the search at once.
    for _ in range(_TAU_STEPS):
        if fits(tau):
            break
        tau = math.nextafter(tau, math.inf)
    else:
        return None
    for _ in range(_TAU_STEPS):
        below = math.nextafter(tau, 0)
        if not fits(below):
            break
        tau = below
    return tau


def build_sequence(
    kind: str,
    tau: float,
    larmor_period: float = DEFAULT_LARMOR_PERIOD,
) -> PulseSequence:
    """Decoupling block over a window of 8*tau containing four composite X gates.

    CP places the gates at Carr-Purcell positions (tau, 3 tau, 5 tau, 7 tau)
    and UDD at the Uhrig positions 8*tau*sin^2(j*pi/10); both use uniform
    drive polarity.  The eight-pulse block ("8H") uses the CP placement with
    every inter-gate delay snapped to the nearest whole number of Larmor
    periods and the drive polarity flipped halfway through, canceling the
    first-order response to systematic pulse errors, which uniform-polarity
    CP and UDD retain.
    """
    name = kind.upper() if isinstance(kind, str) else None
    if name not in ("8H", "CP", "UDD"):
        raise ValueError(f"unknown sequence kind: {kind!r} (choose from 8H, CP, UDD)")
    if not (is_real(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {shown(tau)}")
    _check_larmor_period(larmor_period)

    # Every delay is at most the window, so this also keeps each delay a finite number of periods.
    _check_timing_resolution(8 * tau, larmor_period)
    width = sum(segment.duration for segment in _composite_x_segments(math.pi, larmor_period, 1))
    fractions = UDD_FRACTIONS if name == "UDD" else CP_FRACTIONS
    delays = _gate_delays(fractions, tau, width)
    if min(delays) < 0:
        smallest = _smallest_tau(fractions, width)
        needs = (f"needs tau of at least {smallest!r} s" if smallest is not None
                 else "fits no tau: its 8*tau window would overflow a float")
        raise ValueError(
            f"tau too small to fit pulses: got {tau!r} s, but {name} at larmor_period "
            f"{larmor_period!r} s {needs}"
        )

    if name == "8H":
        ticks = [round(d / larmor_period) for d in delays]
        delays = [t * larmor_period for t in ticks]
        # Two drive-polarity pairs: the sign flip halfway reverses the
        # first-order response to both pulse-angle error and the dephasing
        # accumulated inside the pulses, which uniform-polarity CP/UDD keep.
        polarities = (1, 1, -1, -1)
    else:
        polarities = (1, 1, 1, 1)

    segments: list[PulseSegment] = []
    for delay, polarity in zip(delays, polarities):
        segments.append(PulseSegment(delay))
        segments.extend(_composite_x_segments(math.pi, larmor_period, polarity))
    segments.append(PulseSegment(delays[4]))
    return PulseSequence(tuple(segments), larmor_period)


def free_evolution(duration: float, larmor_period: float = DEFAULT_LARMOR_PERIOD) -> PulseSequence:
    """Pulse-free baseline of the given duration, the 8*tau window of a sequence."""
    sequence = PulseSequence((PulseSegment(duration),), larmor_period)
    _check_timing_resolution(duration, larmor_period)
    return sequence


def _axis_rotation_segments(phi: float, theta: float, larmor_period: float) -> list[PulseSegment]:
    """R about the axis (cos phi, sin phi, 0) by theta, from three pulses.

    Euler form Z(phi) X(theta) Z(-phi): the X core is a Hadamard pulse pair
    around a driven Z rotation carrying the angle (so the systematic pulse
    error scales theta, as an error-compensation sequence assumes), and the
    axis phase comes from timed free precession on either side.
    """
    phi = phi % (2 * math.pi)
    omega = 2 * math.pi / larmor_period
    segments: list[PulseSegment] = []
    if phi > 0:
        segments.append(PulseSegment((2 * math.pi - phi) / omega))
    segments.append(hadamard_pulse(larmor_period))
    segments.append(z_axis_pulse(theta % (4 * math.pi), larmor_period))
    segments.append(hadamard_pulse(larmor_period))
    if phi > 0:
        segments.append(PulseSegment(phi / omega))
    return segments


def bb1_virtual_gate(
    theta: float,
    tau: float = 1e-9,
    larmor_period: float = DEFAULT_LARMOR_PERIOD,
) -> PulseSequence:
    """Error-compensated virtual R_X(theta): four decoupling blocks with the
    compensation rotations inserted between them.

    The target rotation is followed by R_phi(pi), R_3phi(2*pi), R_phi(pi)
    with phi = arccos(-theta / (4*pi)); the 2*pi rotation is realized as two
    pi rotations about the same axis so every inserted gate carries the
    angle-proportional error the compensation is designed to cancel.
    """
    if not (is_real(theta) and 0 <= theta < 2 * math.pi):
        raise ValueError(f"theta must lie in [0, 2*pi), got {shown(theta)}")
    phi = math.acos(-theta / (4 * math.pi))
    block = build_sequence("8H", tau, larmor_period).segments
    segments: list[PulseSegment] = []
    segments.extend(_axis_rotation_segments(0.0, theta, larmor_period))
    segments.extend(block)
    segments.extend(_axis_rotation_segments(phi, math.pi, larmor_period))
    segments.extend(block)
    segments.extend(_axis_rotation_segments(3 * phi, math.pi, larmor_period))
    segments.extend(_axis_rotation_segments(3 * phi, math.pi, larmor_period))
    segments.extend(block)
    segments.extend(_axis_rotation_segments(phi, math.pi, larmor_period))
    segments.extend(block)
    return PulseSequence(tuple(segments), larmor_period)


class NoiseModel(namedtuple(
    "NoiseModel", "t2_star pulse_error samples seed", defaults=(2e-9, 0.0, 1, 0)
)):
    """Quasi-static dephasing plus systematic pulse-angle error.

    ``t2_star`` sets the Gaussian detuning width sqrt(2)/T2* (None disables
    dephasing); ``pulse_error`` is the relative angle deviation applied to
    every pulse.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.t2_star is not None and not (is_real(self.t2_star) and self.t2_star > 0):
            raise ValueError(
                f"t2_star must be positive and finite (or None to disable dephasing), "
                f"got {shown(self.t2_star)}"
            )
        if not is_real(self.pulse_error):
            raise ValueError(f"pulse_error must be finite, got {shown(self.pulse_error)}")
        check_count("samples", self.samples, 1, MAX_SAMPLES, f"{MAX_SAMPLES} (the sample limit)")
        check_count("seed", self.seed)  # at most 2**53, so a CSV row's seed reads back as a float
        return self


class ProcessResult(namedtuple("ProcessResult", "infidelity std_error")):
    """Mean process infidelity 1 - chi_II and its Monte-Carlo standard error
    std(1 - F) / sqrt(samples)."""

    __slots__ = ()


def detuning_samples(noise: NoiseModel) -> Iterator[np.ndarray]:
    """Per-shot detunings, ``_BLOCK`` at a time: the values of
    ``np.random.default_rng(seed).standard_normal(samples)``, drawn block by
    block from the one generator, scaled by sqrt(2)/T2*.  Sample i is the
    i-th value of one stream on the seed, so a run of n samples is the first
    n values of any longer run on the same seed."""
    rng = None if noise.t2_star is None else np.random.default_rng(noise.seed)
    for start in range(0, noise.samples, _BLOCK):
        size = min(_BLOCK, noise.samples - start)
        yield np.zeros(size) if rng is None else math.sqrt(2) / noise.t2_star * rng.standard_normal(size)


def process_infidelity(
    sequence: PulseSequence,
    noise: NoiseModel,
    target: np.ndarray | None = None,
) -> ProcessResult:
    """Monte-Carlo process infidelity of a sequence against a target unitary:
    the one point of ``process_infidelities``.

    Each sample composes the segment unitaries under one detuning draw, as
    the product tree of the sequence's pairing (``_pair_runs``: each
    repeated run of segments is composed once); the per-sample fidelity is
    |tr(target^dag U)|^2 / 4 (``_fidelities``) and the result is the mean of
    1 - F.  Deterministic for a fixed seed and sample count.  Raises
    ``ValueError`` when a segment's rotation overflows a float (a detuning
    or pulse error so large that the phase is not finite) or its Larmor
    phase is too large to resolve.
    """
    return process_infidelities([(sequence, noise, target)])[0]


def process_infidelities(points: Iterable[tuple]) -> list[ProcessResult]:
    """``process_infidelity`` of each ``(sequence, noise, target)`` point, in order.

    Every point shares one draw of detunings, so each must have the first
    point's ``t2_star``, ``samples``, ``seed`` and ``larmor_period``; a point
    that differs is refused with a ``ValueError`` naming the field.  Only
    ``pulse_error``, the segments and the target vary.  Every point is
    checked before any runs.  All points run in one pass, one block of
    samples at a time: per block each distinct ``(segment, scale)`` rotation
    and each distinct run product of the grid is computed once, and each
    point's 1 - F is reduced at once (``_moments``) and merged (``_merge``).
    Each result's bytes equal those of the point run alone.
    """
    points = [(sequence, noise, _checked_target(target)) for sequence, noise, target in points]

    def shared(sequence: PulseSequence, noise: NoiseModel, _) -> dict:
        return {"t2_star": noise.t2_star, "samples": noise.samples, "seed": noise.seed,
                "larmor_period": sequence.larmor_period}

    first = shared(*points[0]) if points else {}
    for i, point in enumerate(points):
        for name, value in shared(*point).items():
            if value != first[name]:
                raise ValueError(
                    f"the points of a grid share one {name}: point {i} has {value!r}, "
                    f"point 0 has {first[name]!r}"
                )
    moments = [(0, 0.0, 0.0)] * len(points)

    def reduce_block(i: int, u: tuple) -> np.ndarray:
        fidelities = _fidelities(points[i][2], *u)
        moments[i] = _merge(moments[i], _moments(1.0 - fidelities))
        return fidelities

    if points:
        chains = [_chain(sequence.segments, noise.pulse_error) for sequence, noise, _ in points]
        _compose_blocks(chains, points[0][0].larmor_period, detuning_samples(points[0][1]), reduce_block)
    return [ProcessResult(mean, math.sqrt(m2 / n) / math.sqrt(n)) for n, mean, m2 in moments]


def _fidelities(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample fidelity |tr(T^dag U)|^2 / 4, clipped to [0, 1], of U = [[a, b], [-b*, a*]]:
    tr(T^dag U) = T*00 a + T*01 b - T*10 b* + T*11 a*, read from the pair.  NaN where the pair is."""
    t = target.conj()
    overlap = t[0, 0] * a + t[0, 1] * b - t[1, 0] * np.conj(b) + t[1, 1] * np.conj(a)
    return np.clip(np.abs(overlap) ** 2 / 4, 0.0, 1.0)


def _moments(errors: np.ndarray) -> tuple[int, float, float]:
    """A block's count, mean and M2, its sum of squared deviations, by the
    corrected two-pass algorithm: the deviations' sum s corrects the mean by
    s / n and M2 by -s^2 / n, so equal values give M2 = 0 exactly."""
    n, mean = len(errors), np.mean(errors)
    deviations = errors - mean
    s = float(np.sum(deviations))
    return n, float(mean) + s / n, max(float(np.sum(deviations * deviations)) - s * s / n, 0.0)


def _merge(x: tuple[int, float, float], y: tuple[int, float, float]) -> tuple[int, float, float]:
    """Two blocks' ``_moments`` as one, by the pairwise update of Chan, Golub &
    LeVeque ("Algorithms for computing the sample variance", The American
    Statistician 37(3), 1983).  Merged into (0, 0.0, 0.0), a block keeps its bytes."""
    (n1, mean1, m1), (n2, mean2, m2) = x, y
    n, delta = n1 + n2, mean2 - mean1
    return n, mean1 + delta * (n2 / n), m1 + m2 + delta * delta * (n1 * n2 / n)


def _checked_target(target) -> np.ndarray:
    target = IDENTITY2 if target is None else np.asarray(target, dtype=complex)
    if target.shape != (2, 2) or not _is_unitary(target):
        raise ValueError("target must be a 2x2 unitary")
    return target


def _is_unitary(matrix: np.ndarray) -> bool:
    """U^dag U equals the identity within 1e-9.

    Entries of a unitary have modulus at most 1, so a NaN, infinite or large
    entry fails before the product could overflow.
    """
    if not np.max(np.abs(matrix)) <= 2:
        return False
    return bool(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))) <= 1e-9)
