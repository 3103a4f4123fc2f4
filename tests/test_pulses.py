import functools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qparch import pulses as P

LARMOR = 40e-12
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rot_x(theta):
    return expm(-0.5j * theta * SX)


def phase_distance(a, b):
    """0 when a equals b up to a global phase."""
    return abs(abs(np.trace(a.conj().T @ b)) / a.shape[0] - 1.0)


NON_UNITARY = [np.eye(2) * 1.5, np.full((2, 2), math.nan), np.diag([math.inf, 1.0]), np.eye(2) * 1e200]
NON_UNITARY_IDS = ["scaled", "nan", "inf", "huge"]


def oracle_unitary(segment, larmor_period, detuning=0.0, pulse_error=0.0):
    """Independent propagator: exponentiate the documented Hamiltonian directly."""
    drift = 2 * math.pi / larmor_period + detuning
    if segment.axis is None:
        v = np.array([0.0, 0.0, drift * segment.duration])
    elif segment.duration == 0:
        return np.eye(2, dtype=complex)
    else:
        v = segment.nominal_angle * np.array(segment.axis) + np.array(
            [0.0, 0.0, drift * segment.duration]
        )
        v = (1 + pulse_error) * v
    return expm(-0.5j * (v[0] * SX + v[1] * SY + v[2] * SZ))


def oracle_sequence_unitary(segments, larmor_period, detuning=0.0, pulse_error=0.0):
    """Dense time-ordered product of the per-segment exponentials."""
    u = np.eye(2, dtype=complex)
    for segment in segments:
        u = oracle_unitary(segment, larmor_period, detuning, pulse_error) @ u
    return u


def oracle_detunings(seed, samples, t2_star):
    """One generator on the seed, drawing N(0, sqrt(2)/T2*) directly."""
    sigma = math.sqrt(2) / t2_star
    return np.random.default_rng(seed).normal(0.0, sigma, samples)


def detunings_of(noise):
    """Every block ``detuning_samples`` yields, as one array."""
    return np.concatenate(list(P.detuning_samples(noise)))


def fidelities_of(sequence, noise, target):
    """The per-sample fidelities a run reduces: ``_fidelities`` of ``_compose``'s pairs."""
    pairs = P._compose(sequence.segments, sequence.larmor_period, detunings_of(noise), noise.pulse_error)
    return P._fidelities(target, *pairs)


def segment_unitary(segment, detuning=0.0, pulse_error=0.0):
    """One segment's unitary, as ``sequence_unitary`` of a one-segment sequence."""
    return P.sequence_unitary(P.PulseSequence((segment,), larmor_period=LARMOR), detuning, pulse_error)


class TestSegmentUnitary:
    def test_full_larmor_turn_is_identity_up_to_phase(self):
        seg = P.PulseSegment(LARMOR)
        u = segment_unitary(seg)
        assert phase_distance(u, np.eye(2)) < 1e-12

    def test_hadamard_pulse_enacts_hadamard(self):
        u = segment_unitary(P.hadamard_pulse(LARMOR))
        fidelity = abs(np.trace(HADAMARD.conj().T @ u)) ** 2 / 4
        assert fidelity > 1 - 1e-9

    def test_zero_duration_pulse_is_identity(self):
        # A sequence needs a positive duration, so the zero-length pulse sits
        # beside a whole Larmor turn, which is -I.
        seq = P.PulseSequence((P.PulseSegment(0.0, (1.0, 0.0, 0.0), math.pi), P.PulseSegment(LARMOR)),
                              larmor_period=LARMOR)
        assert np.allclose(P.sequence_unitary(seq, pulse_error=0.3), -np.eye(2))

    def test_outputs_are_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            seg = P.PulseSegment(rng.uniform(0, 1e-10), tuple(axis), rng.uniform(0, 2 * math.pi))
            u = segment_unitary(seg, rng.normal(0, 1e9), rng.uniform(-0.02, 0.02))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            if rng.random() < 0.4:
                seg = P.PulseSegment(rng.uniform(0, 5e-10))
            else:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                seg = P.PulseSegment(rng.uniform(0, 1e-10), tuple(axis), rng.uniform(0, 2 * math.pi))
            detuning = rng.normal(0, 1e9)
            err = rng.uniform(-0.02, 0.02)
            got = segment_unitary(seg, detuning, err)
            want = oracle_unitary(seg, LARMOR, detuning, err)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            P.PulseSegment(1e-11, (1.0, 1.0, 0.0), math.pi)
        for axis in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match=r"axis must have three components, got \(1\.0, 0\.0"):
                P.PulseSegment(1e-11, axis, math.pi)
        for axis in (5, 1.0, object()):
            with pytest.raises(ValueError, match="axis must have three components, got "):
                P.PulseSegment(duration=1e-11, axis=axis, nominal_angle=1.0)
        for axis, angle in (((1.0, 0.0, 0.0), None), (None, 1.0)):
            with pytest.raises(ValueError, match="an axis and a nominal angle together"):
                P.PulseSegment(1e-11, axis, angle)
        with pytest.raises(ValueError):
            P.PulseSegment(-1e-12)

    def test_a_segment_without_an_axis_is_free_precession(self):
        assert P.PulseSegment._fields == ("duration", "axis", "nominal_angle")
        assert P.PulseSegment(LARMOR) == (LARMOR, None, None)

    @pytest.mark.parametrize("segments, message", [
        (None, "segments must be an iterable of PulseSegment, got None"),
        (1e-11, "segments must be an iterable of PulseSegment, got 1e-11"),
        ([1e-11], "a sequence holds only PulseSegment records, got 1e-11"),
        ([P.PulseSegment(1e-11), (1e-11, None, None)],
         "a sequence holds only PulseSegment records, got (1e-11, None, None)"),
        ("ab", "a sequence holds only PulseSegment records, got 'a'"),
    ], ids=["none", "float", "float-item", "plain-tuple", "str"])
    def test_anything_but_segments_is_refused_by_name(self, segments, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            P.PulseSequence(segments, larmor_period=LARMOR)

    @pytest.mark.parametrize("segments", [
        [P.PulseSegment(0.0)], [P.PulseSegment(0.0, (1.0, 0.0, 0.0), math.pi)] * 2,
    ], ids=["free-precession", "pulses"])
    def test_a_total_duration_of_zero_is_named(self, segments):
        message = "non-empty sequences must have positive total duration, got 0.0 s"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            P.PulseSequence(segments, larmor_period=LARMOR)

    @pytest.mark.parametrize("field, build", [
        ("duration", P.PulseSegment),
        ("duration", lambda v: P.PulseSegment(v, (1.0, 0.0, 0.0), math.pi)),
        ("nominal_angle", lambda v: P.PulseSegment(1e-11, (1.0, 0.0, 0.0), v)),
        ("axis", lambda v: P.PulseSegment(1e-11, (v, 0.0, 0.0), math.pi)),
        ("larmor_period", lambda v: P.PulseSequence((P.PulseSegment(1e-9),), larmor_period=v)),
    ], ids=["free-duration", "pulse-duration", "nominal-angle", "axis", "larmor-period"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True, 10 ** 400, "1e-11", 1e-11j],
                             ids=["nan", "inf", "bool", "int-beyond-float", "str", "complex"])
    def test_non_finite_field_is_rejected_at_construction(self, field, build, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda v: P.composite_x_gate(math.pi, v),
        lambda v: P.build_sequence("8H", 1e-9, v),
        lambda v: P.build_sequence("CP", 1e-9, v),
        lambda v: P.build_sequence("UDD", 1e-9, v),
        lambda v: P.bb1_virtual_gate(1.0, 1e-9, v),
        lambda v: P.free_evolution(1e-9, v),
        P.hadamard_pulse,
        lambda v: P.z_axis_pulse(1.0, v),
    ], ids=["composite-x", "8h", "cp", "udd", "bb1", "free-evolution", "hadamard", "z-axis"])
    @pytest.mark.parametrize("larmor_period", [0.0, -4e-11, math.nan, 10 ** 400, True],
                             ids=["zero", "negative", "nan", "int-beyond-float", "bool"])
    def test_builders_reject_a_bad_larmor_period(self, build, larmor_period):
        with pytest.raises(ValueError, match="larmor_period must be positive and finite"):
            build(larmor_period)

    @pytest.mark.parametrize("build", [
        lambda v: P.hadamard_pulse(LARMOR, v),
    ], ids=["hadamard"])
    @pytest.mark.parametrize("polarity", [True, False, 1.0, -1.0, 0, 2, "1", None])
    def test_builders_reject_a_polarity_that_is_not_the_int_plus_or_minus_one(self, build, polarity):
        with pytest.raises(ValueError, match=f"polarity must be the integer \\+1 or -1, got {polarity!r}"):
            build(polarity)


class TestCompositeX:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 2.0])
    def test_net_unitary_matches_rotation(self, theta):
        seq = P.composite_x_gate(theta, LARMOR)
        assert phase_distance(P.sequence_unitary(seq), rot_x(theta)) < 1e-9

    def test_pi_gate_is_x(self):
        seq = P.composite_x_gate(math.pi, LARMOR)
        assert phase_distance(P.sequence_unitary(seq), SX) < 1e-9

    def test_sequence_product_matches_chunked_product(self):
        seq = P.build_sequence("CP", 1e-9, LARMOR)
        one_pass = P.sequence_unitary(seq, detuning=3e8, pulse_error=0.01)
        split = len(seq.segments) // 2
        first = P.PulseSequence(seq.segments[:split], larmor_period=LARMOR)
        second = P.PulseSequence(seq.segments[split:], larmor_period=LARMOR)
        chunked = P.sequence_unitary(second, 3e8, 0.01) @ P.sequence_unitary(first, 3e8, 0.01)
        assert np.max(np.abs(one_pass - chunked)) < 1e-12

    def test_angle_range(self):
        with pytest.raises(ValueError):
            P.composite_x_gate(4 * math.pi + 0.1, LARMOR)

    def test_takes_no_polarity(self):
        with pytest.raises(TypeError):
            P.composite_x_gate(math.pi, LARMOR, polarity=-1)


class TestBuildSequence:
    def test_8h_has_eight_pulses_over_eight_tau(self):
        seq = P.build_sequence("8H", 1e-9, LARMOR)
        assert sum(seg.axis is not None for seg in seq.segments) == 8
        assert seq.duration == pytest.approx(8e-9, rel=0.02)
        # every inter-gate delay (the free segments outside the composite
        # gates) is a whole number of Larmor periods
        for delay in inter_gate_delays(seq):
            ticks = delay / LARMOR
            assert ticks == pytest.approx(round(ticks), abs=1e-9)

    def test_cp_pulse_centers_symmetric(self):
        seq = P.build_sequence("CP", 1e-9, LARMOR)
        assert sum(seg.axis is not None for seg in seq.segments) == 8
        assert seq.duration == pytest.approx(8e-9, rel=1e-12)
        centers = gate_centers(seq)
        assert len(centers) == 4
        window = seq.duration
        for early, late in zip(centers, reversed(centers)):
            assert early + late == pytest.approx(window, rel=1e-9)
        assert centers[0] == pytest.approx(1e-9, rel=1e-3)

    def test_udd_centers_match_formula(self):
        tau = 1e-9
        seq = P.build_sequence("UDD", tau, LARMOR)
        centers = gate_centers(seq)
        for j, center in enumerate(centers, start=1):
            assert center == pytest.approx(8 * tau * math.sin(j * math.pi / 10) ** 2, rel=1e-3)

    def test_tau_too_small(self):
        with pytest.raises(ValueError, match="tau too small"):
            P.build_sequence("CP", 2e-11, LARMOR)

    @pytest.mark.parametrize("kind", ["8H", "CP", "UDD"])
    @pytest.mark.parametrize("larmor_period", [LARMOR, 1e-15, 3.3e-11, 7e-9])
    def test_tau_too_small_names_tau_and_the_smallest_tau_that_fits(self, kind, larmor_period):
        tau = larmor_period / 10
        with pytest.raises(ValueError) as exc:
            P.build_sequence(kind, tau, larmor_period)
        message = str(exc.value)
        prefix = (f"tau too small to fit pulses: got {tau!r} s, but {kind} at larmor_period "
                  f"{larmor_period!r} s needs tau of at least ")
        assert message.startswith(prefix) and message.endswith(" s")
        smallest = float(message[len(prefix):-2])
        # A composite X gate is two Hadamard pulses around half a Larmor period.  CP's
        # tightest gaps hold a whole gate in 2 tau; UDD's are its first and last, which
        # hold half a gate in 8 tau sin^2(pi/10).
        width = larmor_period * (1 / math.sqrt(2) + 0.5)
        share = 0.5 if kind != "UDD" else 1 / (16 * math.sin(math.pi / 10) ** 2)
        assert smallest == pytest.approx(width * share, rel=1e-12)
        P.build_sequence(kind, smallest, larmor_period)
        below = smallest
        for _ in range(8):  # no float a few steps below it fits
            below = math.nextafter(below, 0)
            with pytest.raises(ValueError, match="^tau too small to fit pulses"):
                P.build_sequence(kind, below, larmor_period)

    @pytest.mark.parametrize("kind", ["8H", "CP", "UDD"])
    @pytest.mark.parametrize("larmor_period", [4e307, 5.5e307])
    def test_a_larmor_period_whose_window_overflows_fits_no_tau(self, kind, larmor_period, monkeypatch):
        gate_delays, calls = P._gate_delays, []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 2 * P._TAU_STEPS + 1, "the search for the smallest tau does not end"
            return gate_delays(*args)

        monkeypatch.setattr(P, "_gate_delays", counted)
        message = (f"tau too small to fit pulses: got 1e-09 s, but {kind} at larmor_period "
                   f"{larmor_period!r} s fits no tau: its 8*tau window would overflow a float")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            P.build_sequence(kind, 1e-9, larmor_period)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            P.build_sequence("XY8", 1e-9, LARMOR)

    @pytest.mark.parametrize("kind", [None, 8, b"CP", ("CP",)])
    def test_a_kind_that_is_not_a_string_is_an_unknown_kind(self, kind):
        message = f"unknown sequence kind: {kind!r} (choose from 8H, CP, UDD)"
        with pytest.raises(ValueError, match=re.escape(message)):
            P.build_sequence(kind, 1e-9, LARMOR)

    @pytest.mark.parametrize("kind", ["XY8", "", "8H ", "C P", "free"])
    def test_an_unknown_name_names_the_choices(self, kind):
        message = f"unknown sequence kind: {kind!r} (choose from 8H, CP, UDD)"
        with pytest.raises(ValueError, match=re.escape(message)):
            P.build_sequence(kind, 1e-9, LARMOR)

    @pytest.mark.parametrize("kind", ["8H", "CP", "UDD"])
    def test_a_name_in_any_case_builds_the_same_sequence(self, kind):
        expected = P.build_sequence(kind, 1e-9, LARMOR)
        assert P.build_sequence(kind.lower(), 1e-9, LARMOR) == expected
        assert P.build_sequence(kind.capitalize(), 1e-9, LARMOR) == expected


def gate_centers(seq):
    """Mid-times of the composite gates (each spans three consecutive segments)."""
    centers = []
    t = 0.0
    segments = list(seq.segments)
    i = 0
    while i < len(segments):
        seg = segments[i]
        if seg.axis is not None:
            width = seg.duration + segments[i + 1].duration + segments[i + 2].duration
            centers.append(t + width / 2)
            t += width
            i += 3
        else:
            t += seg.duration
            i += 1
    return centers


def inter_gate_delays(seq):
    """Durations of the free segments between composite gates."""
    delays = []
    segments = list(seq.segments)
    i = 0
    while i < len(segments):
        if segments[i].axis is not None:
            i += 3
        else:
            delays.append(segments[i].duration)
            i += 1
    return delays


class TestProcessInfidelity:
    def test_noiseless_composite_gates_are_exact(self):
        noise = P.NoiseModel(t2_star=None, pulse_error=0.0, samples=4, seed=0)
        for kind in ("8H", "CP", "UDD"):
            result = P.process_infidelity(P.build_sequence(kind, 1e-9, LARMOR), noise)
            assert result.infidelity < 1e-9

    def test_closed_form_gaussian_dephasing(self):
        # mean of |tr U|^2/4 for U = R_Z((w0+d)t) over d ~ N(0, sqrt(2)/T2*)
        t, t2_star = 1e-9, 2e-9
        noise = P.NoiseModel(t2_star=t2_star, samples=100000, seed=3)
        result = P.process_infidelity(P.free_evolution(t, LARMOR), noise)
        analytic = 0.5 - 0.5 * math.exp(-((t / t2_star) ** 2)) * math.cos(2 * math.pi * t / LARMOR)
        assert result.infidelity == pytest.approx(analytic, rel=0.02)

    def test_decoupling_beats_free_evolution_tenfold(self):
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.0, samples=4000, seed=7)
        free = P.process_infidelity(P.free_evolution(8e-9, LARMOR), noise).infidelity
        for kind in ("8H", "CP", "UDD"):
            seq = P.build_sequence(kind, 1e-9, LARMOR)
            assert P.process_infidelity(seq, noise).infidelity * 10 < free

    def test_monotone_in_pulse_error(self):
        for kind in ("8H", "CP", "UDD"):
            seq = P.build_sequence(kind, 1e-9, LARMOR)
            values = [
                P.process_infidelity(
                    seq, P.NoiseModel(t2_star=2e-9, pulse_error=e, samples=4000, seed=7)
                ).infidelity
                for e in (0, 0.0025, 0.005, 0.01, 0.02)
            ]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_deterministic_and_partition_independent(self):
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=64, seed=21)
        seq = P.build_sequence("CP", 1e-9, LARMOR)
        first = P.process_infidelity(seq, noise)
        second = P.process_infidelity(seq, noise)
        assert [x.hex() for x in first] == [x.hex() for x in second]
        prefix = detunings_of(P.NoiseModel(t2_star=2e-9, samples=16, seed=21))
        full = detunings_of(P.NoiseModel(t2_star=2e-9, samples=64, seed=21))
        assert np.array_equal(full[:16], prefix)

    def test_composition_is_partition_independent(self):
        sequence = P.bb1_virtual_gate(1.0, 1e-9, LARMOR)
        segments = sequence.segments
        # Over 2**14 samples, so numpy reuses temporaries of the full-length products.
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=2 * P._BLOCK + 3, seed=21)
        prefix = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=40, seed=21)
        target = expm(-0.5j * (0.3 * SX - 0.4 * SY + 0.5 * SZ))  # complex entries, none 0 or 1
        assert (fidelities_of(sequence, prefix, target).tobytes()
                == fidelities_of(sequence, noise, target)[:40].tobytes())
        detunings = detunings_of(noise)
        whole = P._compose(segments, LARMOR, detunings, noise.pulse_error)
        # Chunks of 1 over a prefix (one call per sample), and chunks that
        # straddle the sample blocks over all of them.
        for size, stop in ((1, 40), (P._BLOCK - 1, len(detunings)), (P._BLOCK + 1, len(detunings))):
            chunks = [P._compose(segments, LARMOR, detunings[i:min(i + size, stop)], noise.pulse_error)
                      for i in range(0, stop, size)]
            assert np.concatenate(chunks, axis=1).tobytes() == whole[:, :stop].tobytes()

    @pytest.mark.parametrize("target", NON_UNITARY + [np.eye(3)], ids=NON_UNITARY_IDS + ["3x3"])
    def test_target_must_be_a_2x2_unitary(self, target):
        noise = P.NoiseModel(samples=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="target must be a 2x2 unitary"):
                P.process_infidelity(P.free_evolution(1e-9, LARMOR), noise, target)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            P.NoiseModel(samples=0)
        assert P.NoiseModel(samples=P.MAX_SAMPLES).samples == 2 ** 20
        with pytest.raises(ValueError, match="samples must be between 1 and 1048576"):
            P.NoiseModel(samples=P.MAX_SAMPLES + 1)
        with pytest.raises(ValueError):
            P.NoiseModel(t2_star=-1.0)

    @pytest.mark.parametrize("field", ["t2_star", "pulse_error"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="int-beyond-float"), pytest.param(-(10 ** 400), id="-int-beyond-float"),
        True, False, "2e-9",
    ])
    def test_noise_model_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            P.NoiseModel(**{field: value})

    @pytest.mark.parametrize("field", ["samples", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2", None])
    def test_noise_model_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            P.NoiseModel(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2 ** 53 + 1, 2 ** 200, 10 ** 400])
    def test_seed_is_a_count_from_0_to_2_53(self, seed):
        assert P.NoiseModel(seed=2 ** 53).seed == 2 ** 53
        message = (f"seed must be between 0 and 2**53 (the largest integer a float holds exactly), "
                   f"got {seed}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            P.NoiseModel(seed=seed)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, pytest.param(10 ** 400, id="int-beyond-float"),
                                     True, False, "1e-9"])
    def test_build_sequence_rejects_non_finite_tau(self, tau):
        for kind in ("8H", "CP", "UDD"):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                P.build_sequence(kind, tau, LARMOR)

    @pytest.mark.parametrize("tau", [1e300, 1e308, 1.7e308])
    def test_build_sequence_rejects_tau_beyond_finite_larmor_periods(self, tau):
        for kind in ("8H", "CP", "UDD"):
            with pytest.raises(ValueError, match="tau is too long to time: .* up to inf rad"):
                P.build_sequence(kind, tau, LARMOR)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(("8H", "CP", "UDD")), st.floats(1e-9, 7.5e-3))
    @example("UDD", 7e-3)
    @example("UDD", 0.007167701424028323)  # the largest tau admitted at this period
    @example("CP", 0.006324299975138389)
    def test_every_admitted_noiseless_sequence_is_exact_within_a_stated_bound(self, kind, tau):
        largest = P.PHASE_RESOLUTION * 2 ** 53 * LARMOR / (16 * math.pi)
        try:
            sequence = P.build_sequence(kind, tau, LARMOR)
        except ValueError as exc:
            assert tau > largest * (1 - 1e-12) and str(exc).startswith("tau is too long to time")
            with pytest.raises(ValueError, match="^tau is too long to time"):
                P.free_evolution(8 * tau, LARMOR)
            return
        assert tau < largest * (1 + 1e-12)
        P.free_evolution(8 * tau, LARMOR)
        # Each rounding of a center, a delay or a delay's phase turns the Larmor
        # phase by at most PHASE_RESOLUTION.  Five delays take under 20 of them,
        # so the phase is off by under 2e-5 rad and the infidelity by under
        # (2e-5 / 2) ** 2 = 1e-10.  The largest seen is 3.0e-12 (UDD at the largest tau).
        noise = P.NoiseModel(t2_star=None, pulse_error=0.0, samples=1, seed=0)
        assert P.process_infidelity(sequence, noise).infidelity <= 1e-10

    def test_standard_error(self):
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.01, samples=500, seed=4)
        sequence = P.build_sequence("CP", 1e-9, LARMOR)
        result = P.process_infidelity(sequence, noise)
        errors = 1 - fidelities_of(sequence, noise, P.IDENTITY2)
        assert result.std_error == pytest.approx(np.std(errors) / math.sqrt(500), rel=1e-14)
        assert 0 < result.std_error < result.infidelity

    def test_standard_error_of_one_sample_is_zero(self):
        noise = P.NoiseModel(t2_star=2e-9, samples=1, seed=4)
        result = P.process_infidelity(P.free_evolution(1e-9, LARMOR), noise)
        assert result.std_error == 0.0


class TestDetuningDraws:
    @pytest.mark.parametrize("seed,samples,t2_star", [
        (0, 1, 2e-9), (21, 64, 2e-9), (7, 300, 1e-9), (20101022, 33, 5e-8),
    ])
    def test_matches_per_sample_generator_draws(self, seed, samples, t2_star):
        got = detunings_of(P.NoiseModel(t2_star=t2_star, samples=samples, seed=seed))
        assert np.array_equal(got, oracle_detunings(seed, samples, t2_star))

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**53]), st.integers(0, 2**53)),
        st.integers(1, 2 * P._BLOCK + 3),
        st.integers(1, 2 * P._BLOCK + 3),
    )
    @example(0, 1, 2 * P._BLOCK + 3)
    @example(2**32 - 1, P._BLOCK, P._BLOCK + 1)
    @example(2**32, P._BLOCK + 1, 2 * P._BLOCK + 3)
    @example(2**53, 40, 2 * P._BLOCK + 3)
    def test_a_run_is_a_prefix_of_any_longer_run_on_its_seed(self, seed, n, m):
        n, m = sorted((n, m))
        short = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=n, seed=seed)
        long = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=m, seed=seed)
        assert detunings_of(short).tobytes() == detunings_of(long)[:n].tobytes()
        # Drawn a block at a time: every block holds _BLOCK samples but the last.
        sizes = [len(block) for block in P.detuning_samples(long)]
        assert sizes == [BLOCK] * (m // BLOCK) + ([m % BLOCK] if m % BLOCK else [])
        sequence = P.build_sequence("8H", 1e-9, LARMOR)
        target = expm(-0.5j * (0.3 * SX - 0.4 * SY + 0.5 * SZ))  # complex entries, none 0 or 1
        assert (fidelities_of(sequence, short, target).tobytes()
                == fidelities_of(sequence, long, target)[:n].tobytes())

    def test_each_t2_star_gets_its_own_scale_on_one_seed(self):
        short = detunings_of(P.NoiseModel(t2_star=1e-9, samples=40, seed=9))
        long = detunings_of(P.NoiseModel(t2_star=4e-9, samples=40, seed=9))
        assert np.array_equal(short, oracle_detunings(9, 40, 1e-9))
        assert np.array_equal(long, oracle_detunings(9, 40, 4e-9))


def _unit_axis(v):
    v = np.array(v)
    return tuple(v / np.linalg.norm(v))


unit_axes = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(_unit_axis)
)
segment_lists = st.lists(
    st.one_of(
        st.builds(P.PulseSegment, st.floats(0.0, 5e-10)),
        st.builds(P.PulseSegment, st.floats(0.0, 1e-10), unit_axes, st.floats(0.0, 2 * math.pi)),
    ),
    max_size=8,
)
pulse_errors = st.floats(-0.05, 0.05)


def custom_sequence(segments):
    assume(not segments or sum(seg.duration for seg in segments) > 0)
    return P.PulseSequence(tuple(segments), larmor_period=LARMOR)


class TestCompositionProperties:
    """The closed-form SU(2) product against the dense per-segment expm product."""

    @settings(max_examples=60, deadline=None)
    @given(segment_lists, st.floats(-2e9, 2e9), pulse_errors)
    # A tilted rotation whose squares underflow: k = sin(n/2)/n must stay 1/2 at n = 0.
    @example([P.PulseSegment(3.4446008499403967e-214, _unit_axis((0.0, 1.0, 0.0)), 3.4446008499403967e-214)],
             0.0, 0.0)
    def test_sequence_unitary_matches_dense_product(self, segments, detuning, pulse_error):
        seq = custom_sequence(segments)
        got = P.sequence_unitary(seq, detuning, pulse_error)
        want = oracle_sequence_unitary(segments, LARMOR, detuning, pulse_error)
        assert np.max(np.abs(got - want)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        segment_lists,
        pulse_errors,
        st.integers(0, 2**32),
        st.integers(1, 4),
        st.one_of(st.none(), st.floats(5e-10, 1e-7)),
        st.tuples(*[st.floats(-4.0, 4.0)] * 3),
    )
    def test_process_fidelities_match_dense_product(
        self, segments, pulse_error, seed, samples, t2_star, target_vector
    ):
        seq = custom_sequence(segments)
        target = expm(-0.5j * sum(c * s for c, s in zip(target_vector, (SX, SY, SZ))))
        noise = P.NoiseModel(t2_star=t2_star, pulse_error=pulse_error, samples=samples, seed=seed)
        result = P.process_infidelity(seq, noise, target)

        detunings = np.zeros(samples) if t2_star is None else oracle_detunings(seed, samples, t2_star)
        want = []
        for detuning in detunings:
            u = oracle_sequence_unitary(segments, LARMOR, detuning, pulse_error)
            fidelity = abs(np.trace(target.conj().T @ u)) ** 2 / 4
            want.append(min(max(fidelity, 0.0), 1.0))
        assert np.max(np.abs(fidelities_of(seq, noise, target) - np.array(want))) < 1e-12
        assert result.infidelity == pytest.approx(np.mean(1 - np.array(want)), abs=1e-12)


def oracle_pair(segment, larmor_period, detunings, pulse_error):
    """A segment's pair (a, b) over all samples, b an array of zeros for a
    rotation about Z alone.

    A segment's rotation vector is (vx, vy, c0 + c1 * detuning); a rotation
    about Z alone takes its Larmor phase exp(-i c0 / 2) as one scalar."""

    def rotation(vx, vy, c0, c1):
        if vx == 0 and vy == 0:
            x = (-0.5 * c1) * detunings
            phase = complex(math.cos(0.5 * c0), -math.sin(0.5 * c0))
            return (np.cos(x) + 1j * np.sin(x)) * phase, np.zeros_like(detunings, dtype=complex)
        vz = c0 + c1 * detunings
        angle = np.sqrt((vx * vx + vy * vy) + vz * vz)
        k = np.divide(np.sin(angle / 2), angle, out=np.full_like(angle, 0.5), where=angle > 0)
        return np.cos(angle / 2) - 1j * (k * vz), -(k * vy) - 1j * (k * vx)

    omega = 2 * math.pi / larmor_period
    if segment.axis is None:
        return rotation(0.0, 0.0, omega * segment.duration, segment.duration)
    if segment.duration == 0:
        return np.ones_like(detunings, dtype=complex), np.zeros_like(detunings, dtype=complex)
    (ax, ay, az), angle, scale = segment.axis, segment.nominal_angle, 1 + pulse_error
    return rotation(
        scale * angle * ax,
        scale * angle * ay,
        scale * (angle * az + omega * segment.duration),
        scale * segment.duration,
    )


def oracle_product(u, u2):
    """U2 U1 of the pairs u = U1 and u2 = U2, every term kept, on fresh arrays."""
    (a, b), (a2, b2) = u, u2
    return a2 * a - np.conj(b) * b2, a2 * b + np.conj(a) * b2


def left_fold_compose(segments, larmor_period, detunings, pulse_error):
    """The plain per-segment loop: each segment's pair over all samples,
    however often it repeats, multiplied onto the product in time order."""
    u = np.ones_like(detunings, dtype=complex), np.zeros_like(detunings, dtype=complex)
    for segment in segments:
        u = oracle_product(u, oracle_pair(segment, larmor_period, detunings, pulse_error))
    return np.array(u)


def oracle_compose(segments, larmor_period, detunings, pulse_error):
    """The library's product tree for the chain (``_pair_runs``), composed on
    full arrays: each node's pair or product over all samples, with every
    term of the pair formula kept."""
    nodes, (root,) = P._pair_runs([P._chain(tuple(segments), pulse_error)])
    pairs = []
    for content in nodes:
        if isinstance(content[0], P.PulseSegment):
            pairs.append(oracle_pair(content[0], larmor_period, detunings, pulse_error))
        else:
            pairs.append(oracle_product(pairs[content[0]], pairs[content[1]]))
    if root is None:
        return left_fold_compose((), larmor_period, detunings, pulse_error)
    return np.array(pairs[root])


# The library composes a chain as its pairing tree, not as the left fold
# over segments; the two round differently.  Measured: at most 4.7e-15 on
# BB1 over 20 000 samples at a pulse error of 0.01.
LEFT_FOLD_BOUND = 1e-13


def oracle_fidelities(sequence, noise, target):
    """process_infidelity's per-sample fidelity applied to the oracle's pairs."""
    a, b = oracle_compose(
        sequence.segments, sequence.larmor_period, detunings_of(noise), noise.pulse_error
    )
    t = target.conj()
    overlap = t[0, 0] * a + t[0, 1] * b - t[1, 0] * np.conj(b) + t[1, 1] * np.conj(a)
    return np.clip(np.abs(overlap) ** 2 / 4, 0.0, 1.0)


def merged(errors, edges):
    """``_merge`` of the ``_moments`` of each block of ``errors`` between ``edges``, in order."""
    blocks = (errors[start:stop] for start, stop in zip(edges, edges[1:]))
    return functools.reduce(P._merge, map(P._moments, blocks), (0, 0.0, 0.0))


def assert_reduces(result, fidelities):
    """The result is its fidelities' 1 - F reduced block by block, byte for byte."""
    n, mean, m2 = merged(1.0 - fidelities, [*range(0, len(fidelities), P._BLOCK), len(fidelities)])
    assert (result.infidelity.hex(), result.std_error.hex()) == (
        mean.hex(), (math.sqrt(m2 / n) / math.sqrt(n)).hex())


def dense_compose(segments, larmor_period, detunings, pulse_error):
    """Independent of the pair algebra: each segment's 2x2 in closed form,
    cos(t/2) I - i sin(t/2) (n . sigma) for the rotation vector t n,
    multiplied with ``@``, one (samples, 2, 2) stack per segment."""
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(detunings), 2, 2))
    for segment in segments:
        if segment.axis is not None and segment.duration == 0:
            continue  # the identity
        drift = 2 * math.pi / larmor_period + detunings
        v = np.zeros((len(detunings), 3))
        v[:, 2] = drift * segment.duration
        if segment.axis is not None:
            v = (1 + pulse_error) * (v + segment.nominal_angle * np.array(segment.axis))
        angle = np.linalg.norm(v, axis=1)
        half_sin = np.divide(np.sin(angle / 2), angle, out=np.full_like(angle, 0.5), where=angle > 0)
        v_sigma = v[:, 0, None, None] * SX + v[:, 1, None, None] * SY + v[:, 2, None, None] * SZ
        m = np.cos(angle / 2)[:, None, None] * np.eye(2) - 1j * half_sin[:, None, None] * v_sigma
        u = m @ u
    return u


BLOCK = P._BLOCK
# Segments a composition can meet: free precession, driven rotations about
# +Z and -Z, zero-length pulses, and tilted axes with a y component.
distinct_segments = st.one_of(
    st.builds(P.PulseSegment, st.floats(0.0, 5e-10)),
    st.builds(P.z_axis_pulse, st.floats(0.0, 4 * math.pi, exclude_max=True)),
    st.builds(P.PulseSegment, st.floats(0.0, 1e-10),
              st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]), st.floats(0.0, 2 * math.pi)),
    st.builds(P.PulseSegment, st.just(0.0), unit_axes, st.floats(0.0, 2 * math.pi)),
    st.builds(P.PulseSegment, st.floats(1e-12, 1e-10),
              unit_axes.filter(lambda a: abs(a[1]) > 0.1), st.floats(0.0, 2 * math.pi)),
)


@st.composite
def repeating_segment_lists(draw):
    """Up to 12 segments drawn, with repeats, from a pool of up to 4."""
    pool = draw(st.lists(distinct_segments, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return [pool[i] for i in picks]


class TestBlockedComposition:
    """_compose (distinct segments and runs once, sample blocks, Z steps
    without their zero terms) against its pairing tree composed on full
    arrays, bit for bit, and the plain per-segment loop within a bound."""

    @settings(max_examples=30, deadline=None)
    @given(
        repeating_segment_lists(),
        st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        st.integers(0, 2**31),
        pulse_errors,
        st.floats(0.0, 2 * math.pi),
    )
    # No segment varies with the detuning, so the product stays scalar.
    @example([], 2 * BLOCK + 3, 7, 0.01, 1.0)
    @example([P.PulseSegment(0.0, (1.0, 0.0, 0.0), math.pi), P.PulseSegment(0.0, (0.0, 0.0, -1.0), 1.0),
              P.PulseSegment(0.0, _unit_axis((1.0, 2.0, 3.0)), 2.0)], BLOCK + 1, 7, 0.01, 1.0)
    def test_matches_per_segment_loop_exactly(self, segments, samples, seed, pulse_error, theta):
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=pulse_error, samples=samples, seed=seed)
        detunings = detunings_of(noise)
        got = P._compose(tuple(segments), LARMOR, detunings, pulse_error)
        # == treats 0.0 and -0.0 as equal: only the sign of a zero may differ
        assert np.array_equal(got, oracle_compose(segments, LARMOR, detunings, pulse_error))
        left_fold = left_fold_compose(segments, LARMOR, detunings, pulse_error)
        assert np.max(np.abs(got - left_fold), initial=0.0) <= LEFT_FOLD_BOUND
        # The pair is the first row of U = [[a, b], [-b*, a*]]: entries agree
        # with the dense product up to rounding.
        (a, b), want = got, dense_compose(segments, LARMOR, detunings, pulse_error)
        u = np.array([[a, b], [-np.conj(b), np.conj(a)]]).transpose(2, 0, 1)
        assert np.max(np.abs(u - want)) <= 1e-12
        # A sequence needs a positive duration; the composition above does not.
        sequence = custom_sequence(segments)
        target = rot_x(theta)
        fidelities = P._fidelities(target, *got)
        assert fidelities.tobytes() == oracle_fidelities(sequence, noise, target).tobytes()
        assert_reduces(P.process_infidelity(sequence, noise, target), fidelities)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.just(P.PulseSegment(0.0)),
            st.builds(P.PulseSegment, st.just(0.0), unit_axes, st.floats(0.0, 1e300)),
        ),
        repeating_segment_lists(),
        st.integers(0, 12),
        st.floats(-1e300, 1e300),
        pulse_errors,
        st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=5),
    )
    def test_a_zero_length_segment_is_the_exact_identity(
        self, zero, segments, position, any_error, pulse_error, detunings
    ):
        detunings = np.array(detunings)
        a, b = P._compose((zero,), LARMOR, detunings, any_error)
        assert (a == 1).all() and (b == 0).all()
        # Put anywhere in a sequence, it leaves the product exactly as it was
        # (== treats 0.0 and -0.0 as equal: only the sign of a zero may differ).
        inserted = (*segments[:position], zero, *segments[position:])
        got = P._compose(inserted, LARMOR, detunings, pulse_error)
        assert np.array_equal(got, P._compose(tuple(segments), LARMOR, detunings, pulse_error))

    def test_free_precession_and_a_pulse_of_equal_duration_stay_distinct(self):
        # A Z pulse of angle 0 differs from free precession only in taking the pulse error.
        free, pulse = P.PulseSegment(1e-11), P.PulseSegment(1e-11, (0.0, 0.0, 1.0), 0.0)
        detunings = detunings_of(P.NoiseModel(t2_star=2e-9, samples=5, seed=1))
        for segments in ((free, pulse), (pulse, free), (free, pulse, free, pulse)):
            got = P._compose(segments, LARMOR, detunings, 0.1)
            assert np.array_equal(got, oracle_compose(segments, LARMOR, detunings, 0.1))
        assert not np.allclose(P._compose((free, pulse), LARMOR, detunings, 0.1),
                               P._compose((free, free), LARMOR, detunings, 0.1))

    def test_bb1_full_size_matches_per_segment_loop(self):
        sequence = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.01, samples=20000, seed=7)
        detunings = detunings_of(noise)
        got = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        assert np.array_equal(got, oracle_compose(sequence.segments, LARMOR, detunings, 0.01))
        left_fold = left_fold_compose(sequence.segments, LARMOR, detunings, 0.01)
        assert np.max(np.abs(got - left_fold)) <= LEFT_FOLD_BOUND
        target = rot_x(math.pi)
        fidelities = P._fidelities(target, *got)
        assert fidelities.tobytes() == oracle_fidelities(sequence, noise, target).tobytes()
        assert_reduces(P.process_infidelity(sequence, noise, target), fidelities)

    @pytest.mark.parametrize("flags", [{"detuning": 1e300}, {"pulse_error": 1e308}])
    def test_overflowing_rotation_raises_without_warnings(self, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ValueError, match="a segment's rotation overflows"):
                P.sequence_unitary(P.build_sequence("8H", 1e-9, LARMOR), **flags)
            with pytest.raises(ValueError, match="a segment's rotation overflows"):
                segment_unitary(P.hadamard_pulse(LARMOR), **flags)
            # Rotations about Z alone whose Larmor phase, a scalar, is not finite.
            with pytest.raises(ValueError, match="a segment's rotation overflows"):
                segment_unitary(P.PulseSegment(1e300), **flags)
            with pytest.raises(ValueError, match="a segment's rotation overflows"):
                segment_unitary(P.z_axis_pulse(1.0, LARMOR), pulse_error=1e308)

    def test_larmor_phase_from_2_to_52_rad_is_unresolved(self):
        # With a Larmor period of 2 pi a free precession's phase equals its duration.
        def unitary(duration):
            sequence = P.PulseSequence((P.PulseSegment(duration),), larmor_period=2 * math.pi)
            return P.sequence_unitary(sequence)

        assert np.isfinite(unitary(2.0 ** 53 - 2)).all()
        with pytest.raises(ValueError, match="too large to resolve"):
            unitary(2.0 ** 53)

    def test_partition_independent_when_numpy_reuses_temporaries(self, monkeypatch):
        # Blocks of 2**15 samples hold 512 KiB complex arrays, above the size
        # from which numpy reuses a temporary as a product's output: each
        # complex product must still put its temporary first.
        sequence = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.01, samples=2**15 + 3, seed=7)
        detunings = detunings_of(noise)
        default = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        monkeypatch.setattr(P, "_BLOCK", 2**15)
        large = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        assert large.tobytes() == default.tobytes()


@st.composite
def split_errors(draw):
    """1 - F for fidelities F in [0, 1], and the edges of arbitrary blocks of
    them, 1-sample blocks included."""
    errors = 1.0 - np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64)))
    return errors, sorted({0, len(errors), *draw(st.sets(st.integers(0, len(errors))))})


class TestReduction:
    """_moments and _merge: each block reduced to its count, mean and M2, then merged."""

    @settings(max_examples=200, deadline=None)
    @given(split_errors())
    # np.mean of three 1 - 0.3 reads 0.6999999999999998, and np.std 1.1e-16.
    @example((np.full(4, 1.0 - 0.3), [0, 3, 4]))
    @example((np.array([0.25]), [0, 1]))
    @example((np.array([1e-5, 0.0, 1e-5, 1e-5, 1e-5]), [0, 1, 3, 4, 5]))
    def test_merged_blocks_match_the_whole_array(self, split):
        errors, edges = split
        n, mean, m2 = merged(errors, edges)
        std_error = math.sqrt(m2 / n) / math.sqrt(n)
        assert n == len(errors) and m2 >= 0  # neither negative nor NaN
        # Against the exact mean: np.mean rounds too, up to 3.2 ulps from it on such arrays.
        exact = float(sum(map(Fraction, errors)) / n)
        assert abs(mean - exact) <= 4 * math.ulp(exact)
        if n == 1 or (errors == errors[0]).all():
            assert std_error == 0.0 and mean == errors[0]
        else:
            # Each merged mean is rounded to a float, which moves M2 by the
            # mean's shift times that rounding: below about an ulp of the
            # mean, no spread is resolved.
            want = np.std(errors) / math.sqrt(n)
            assert abs(std_error - want) <= 1e-14 * want + math.ulp(mean) / math.sqrt(n)

    def test_a_fidelity_rounded_past_1_is_clipped(self):
        a, b = np.array([1.0 + 2.0 ** -52, 1.0]), np.zeros(2, dtype=complex)
        assert P._fidelities(P.IDENTITY2, a, b).tolist() == [1.0, 1.0]


@st.composite
def grids(draw):
    """(sequence, noise, target) points sharing one draw of detunings: up to
    27, each up to 8 segments from one pool of up to 5, with pulse errors
    from a pool of 3 and mixed targets."""
    samples = draw(st.sampled_from([1, 40, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3]))
    seed = draw(st.integers(0, 2**31))
    t2_star = draw(st.one_of(st.none(), st.floats(5e-10, 1e-7)))
    positive = P.PulseSegment(draw(st.floats(1e-12, 5e-10)))
    pool = [positive, *draw(st.lists(distinct_segments, max_size=4))]
    errors = draw(st.lists(pulse_errors, min_size=1, max_size=3))
    targets = st.one_of(st.none(), st.floats(0.0, 2 * math.pi).map(rot_x),
                        st.tuples(*[st.floats(-4.0, 4.0)] * 3).map(
                            lambda v: expm(-0.5j * (v[0] * SX + v[1] * SY + v[2] * SZ))))
    points = []
    for _ in range(draw(st.integers(1, 27))):
        segments = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))]
        if segments and not sum(segment.duration for segment in segments) > 0:
            segments.append(positive)  # a non-empty sequence needs a positive duration
        noise = P.NoiseModel(t2_star, draw(st.sampled_from(errors)), samples, seed)
        points.append((P.PulseSequence(segments, LARMOR), noise, draw(targets)))
    return points


def sweep_points(samples, seed, target=None):
    """The README sweep's ten points: 8H, CP and UDD at three pulse errors, and the free baseline."""
    noise = functools.partial(P.NoiseModel, 2e-9, samples=samples, seed=seed)
    points = [(P.build_sequence(kind, 1e-9, LARMOR), noise(pulse_error), target)
              for kind in ("8H", "CP", "UDD") for pulse_error in (0.0, 0.005, 0.01)]
    return points + [(P.free_evolution(8e-9, LARMOR), noise(0.0), target)]


class TestGrid:
    """process_infidelities: one draw of detunings and each distinct rotation
    once per block for the whole grid, each point's bytes as if run alone."""

    @settings(max_examples=25, deadline=None)
    @given(grids())
    # 8H, CP and UDD twice over, then the baseline.
    @example(sweep_points(BLOCK + 1, 7, rot_x(math.pi / 2)) * 2 + sweep_points(BLOCK + 1, 7)[-1:])
    def test_each_point_matches_its_lone_run_and_the_oracle(self, points):
        results = list(P.process_infidelities(points))
        assert len(results) == len(points)
        for (sequence, noise, target), result in zip(points, results):
            lone = P.process_infidelity(sequence, noise, target)
            assert [x.hex() for x in result] == [x.hex() for x in lone]
            assert_reduces(result, oracle_fidelities(sequence, noise, P.IDENTITY2 if target is None else target))

    def test_partition_independent_when_numpy_reuses_temporaries(self, monkeypatch):
        # Blocks of 2**15 samples make the streamed reduction's complex
        # temporaries 512 KiB, above the size from which numpy reuses one as
        # a product's output: the 1 - F it reduces keep their bytes.
        target = expm(-0.5j * (0.3 * SX - 0.4 * SY + 0.5 * SZ))  # complex entries, none 0 or 1
        points = sweep_points(2**15 + 3, 7, target)
        moments, reduced = P._moments, []

        def recorded(errors):
            reduced.append(errors.copy())
            return moments(errors)

        def errors_per_point():
            reduced.clear()
            list(P.process_infidelities(points))
            # Each block reduces every point in order.
            return [np.concatenate(reduced[i::len(points)]).tobytes() for i in range(len(points))]

        monkeypatch.setattr(P, "_moments", recorded)
        default = errors_per_point()
        monkeypatch.setattr(P, "_BLOCK", 2**15)
        large = errors_per_point()
        assert large == default
        assert default == [(1.0 - oracle_fidelities(*point)).tobytes() for point in points]

    @pytest.mark.parametrize("field, other", [
        ("t2_star", {"t2_star": 1e-9}),
        ("t2_star", {"t2_star": None}),
        ("samples", {"samples": 41}),
        ("seed", {"seed": 8}),
        ("larmor_period", {"larmor_period": 2 * LARMOR}),
    ])
    def test_a_point_that_does_not_share_the_draw_is_refused_by_name(self, field, other):
        shared = {"t2_star": 2e-9, "samples": 40, "seed": 7, "larmor_period": LARMOR}
        changed = {**shared, **other}

        def point(t2_star, samples, seed, larmor_period):
            sequence = P.build_sequence("CP", 1e-9, larmor_period)
            return sequence, P.NoiseModel(t2_star, 0.01, samples, seed), None

        points = [point(**shared), point(**shared), point(**changed)]
        message = (f"the points of a grid share one {field}: point 2 has {changed[field]!r}, "
                   f"point 0 has {shared[field]!r}")
        # Refused when called, before any point runs.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            P.process_infidelities(points)

    def test_every_target_is_checked_when_called(self):
        points = sweep_points(40, 7)
        points[-1] = (*points[-1][:2], np.eye(2) * 1.5)
        with pytest.raises(ValueError, match="^target must be a 2x2 unitary$"):
            P.process_infidelities(points)

    def test_a_grid_runs_in_one_pass(self, monkeypatch):
        runs = []
        compose_blocks = P._compose_blocks

        def counted(chains, *args):
            runs.append(len(chains))
            compose_blocks(chains, *args)

        monkeypatch.setattr(P, "_compose_blocks", counted)
        points = sweep_points(40, 7) * 3
        assert len(list(P.process_infidelities(points))) == len(points)
        assert runs == [len(points)]
        assert list(P.process_infidelities([])) == []
        assert runs == [len(points)]

    def test_memory_does_not_grow_with_the_samples(self):
        # A run holds one block at a time.  Measured: 1.31 MiB at 2**13
        # samples and 1.37 MiB at 2**16 (2**20: 1.33 MiB).  When a run held a
        # float64 row per point, 2**16 samples took 6.84 MiB.
        def peak(samples):
            points = sweep_points(samples, 7)
            tracemalloc.start()
            try:
                list(P.process_infidelities(points))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2**13)  # numpy's first use of each ufunc and the generator allocates once
        assert peak(2**16) <= peak(2**13) + 256 * 1024

    def test_the_sweep_computes_each_distinct_rotation_once_per_block(self, monkeypatch):
        rotations = []
        segment_rotation = P._segment_rotation

        def counted(segment, larmor_period, scale):
            def rotation(block):
                rotations.append((segment, scale))
                return segment_rotation(segment, larmor_period, scale)(block)
            return rotation

        monkeypatch.setattr(P, "_segment_rotation", counted)
        points = sweep_points(2 * BLOCK + 3, 7)
        list(P.process_infidelities(points))
        # 8H, CP and UDD share the Hadamard pulses and the inner delay; free
        # precession takes no pulse error.  Run one point at a time, the ten
        # points hold 55 distinct rotations.
        assert len(rotations) == 3 * 18 and len(set(rotations)) == 18
        rotations.clear()
        for point in points:
            P.process_infidelity(*point)
        assert len(rotations) == 3 * 55


def pairing_tree(nodes, node):
    """A node of ``_pair_runs`` as nested tuples: ("step", (segment, scale)) or ("run", left, right)."""
    content = nodes[node]
    if isinstance(content[0], P.PulseSegment):
        return "step", content
    return ("run", *(pairing_tree(nodes, child) for child in content))


def expanded(tree):
    """The steps under a pairing tree, in time order."""
    return [tree[1]] if tree[0] == "step" else expanded(tree[1]) + expanded(tree[2])


class TestPairing:
    """_pair_runs: each chain's repeated runs become one node, composed once per block."""

    @settings(max_examples=60, deadline=None)
    @given(
        repeating_segment_lists(),
        pulse_errors,
        st.lists(st.tuples(repeating_segment_lists(), pulse_errors), max_size=3),
        st.integers(0, 3),
    )
    def test_a_chain_pairs_alone_as_in_a_grid_and_expands_to_its_steps(
        self, segments, pulse_error, others, position
    ):
        chain = P._chain(tuple(segments), pulse_error)
        kept = [step for step in chain if step[0].duration > 0]
        nodes, (root,) = P._pair_runs([chain])
        tree = None if root is None else pairing_tree(nodes, root)
        assert (kept == []) if tree is None else expanded(tree) == kept
        # One block of samples takes at most one product per step after the first.
        with mock.patch.object(P, "_step", wraps=P._step) as step:
            P._compose(tuple(segments), LARMOR, np.linspace(-1e9, 1e9, 3), pulse_error)
        assert step.call_count <= max(len(kept) - 1, 0)
        # Beside other chains, before or after them, the chain pairs the same way.
        chains = [P._chain(tuple(other), error) for other, error in others]
        chains.insert(min(position, len(chains)), chain)
        nodes, roots = P._pair_runs(chains)
        root = roots[min(position, len(others))]
        assert (root is None) if tree is None else pairing_tree(nodes, root) == tree

    def test_the_most_frequent_pair_without_overlap_and_the_first_of_a_tie_pair_first(self):
        x, y, z = (("step", (P.PulseSegment(d), 1.0)) for d in (1e-12, 2e-12, 3e-12))

        def tree(*leaves):
            nodes, (root,) = P._pair_runs([[leaf[1] for leaf in leaves]])
            return pairing_tree(nodes, root)

        def fold(*items):
            return functools.reduce(lambda u, v: ("run", u, v), items)

        # x x x holds x x once without overlap, so no run forms.
        assert tree(y, x, x, x) == fold(y, x, x, x)
        # x y and y z both occur twice; x y occurs first.
        xyz = fold(x, y, z)
        assert tree(x, y, z, x, y, z) == fold(xyz, xyz)
        # y z occurs three times, x y twice.
        yz = fold(y, z)
        assert tree(x, y, z, x, y, z, y, z) == fold(fold(x, yz), fold(x, yz), yz)

    def test_bb1_and_the_readme_sweep_compose_each_run_once_per_block(self, monkeypatch):
        steps = []
        step = P._step

        def counted(u, u2):
            steps.append(1)
            return step(u, u2)

        monkeypatch.setattr(P, "_step", counted)
        sequence = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        P.process_infidelity(sequence, P.NoiseModel(2e-9, 0.01, 2 * BLOCK + 3, 7))
        # Three blocks; the left fold over BB1's 91 segments took 91 per block.
        assert len(steps) <= 3 * 25
        steps.clear()
        list(P.process_infidelities(sweep_points(2 * BLOCK + 3, 7)))
        # The left fold over the sweep's ten chains took 9 * 17 + 1 = 154 per block.
        assert len(steps) <= 3 * 90


def mp_pair(segment, detuning, pulse_error):
    """A segment's pair (a, b) and rotation angle at 50 digits, from the documented
    Hamiltonian with every float input taken as exact."""
    with mpmath.workdps(50):
        drift = 2 * mpmath.pi / mpmath.mpf(LARMOR) + mpmath.mpf(detuning)
        v = [mpmath.mpf(0)] * 3
        scale = mpmath.mpf(1)
        if segment.axis is not None:
            scale += mpmath.mpf(pulse_error)
            v = [mpmath.mpf(segment.nominal_angle) * mpmath.mpf(c) for c in segment.axis]
        v[2] += drift * mpmath.mpf(segment.duration)
        v = [scale * c for c in v]
        n = mpmath.sqrt(sum(c * c for c in v))
        k = mpmath.sin(n / 2) / n if n else mpmath.mpf(0.5)
        a = mpmath.mpc(mpmath.cos(n / 2), -k * v[2])
        b = mpmath.mpc(-k * v[1], -k * v[0])
        return complex(a), complex(b), float(n)


class TestPairAccuracy:
    """Each segment's pair against a 50-digit evaluation of the same rotation."""

    SIGMA = math.sqrt(2) / 2e-9  # the detuning width at T2* = 2 ns

    @pytest.mark.parametrize("segment, pulse_error", [
        *[(P.PulseSegment(t), 0.0) for t in (0.0, 1e-12, 3.7e-11, 2.5e-10, 7.77e-10, 1e-9, 1.999e-9, 2e-9)],
        *[(segment, error) for error in (0.0, 0.01) for segment in (
            P.hadamard_pulse(LARMOR, 1), P.hadamard_pulse(LARMOR, -1),
            P.z_axis_pulse(1.0, LARMOR), P.z_axis_pulse(math.pi, LARMOR), P.z_axis_pulse(3.9, LARMOR))],
    ])
    def test_matches_50_digit_pair(self, segment, pulse_error):
        detunings = np.linspace(-5 * self.SIGMA, 5 * self.SIGMA, 21)
        a, b = P._compose((segment,), LARMOR, detunings, pulse_error)
        for i, detuning in enumerate(detunings):
            want_a, want_b, angle = mp_pair(segment, detuning, pulse_error)
            # Measured: at most 0.62 of this bound (2.0e-14 on free precession
            # of up to 2 ns, whose Larmor phase reaches 321 rad; 4.1e-16 on
            # pulses).  It rejects a pair that takes the cos of the whole
            # phase per sample, which reaches 1.58 of it (4.4e-14).
            bound = 1e-15 + 1e-16 * angle
            assert max(abs(a[i] - want_a), abs(b[i] - want_b)) <= bound


class TestBB1VirtualGate:
    def test_zero_angle_nets_identity(self):
        seq = P.bb1_virtual_gate(0.0, 1e-9, LARMOR)
        assert phase_distance(P.sequence_unitary(seq), np.eye(2)) < 1e-9

    @pytest.mark.parametrize("theta", [0.7, math.pi / 2, math.pi, 4.0])
    def test_nets_target_rotation_without_noise(self, theta):
        seq = P.bb1_virtual_gate(theta, 1e-9, LARMOR)
        assert phase_distance(P.sequence_unitary(seq), rot_x(theta)) < 1e-9

    def test_duration_is_four_decoupling_blocks(self):
        seq = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        assert seq.duration == pytest.approx(32e-9, rel=0.03)

    def test_amplitude_error_slope(self):
        # oracle: ideal instantaneous rotations with scaled angles give the
        # textbook sixth-power law; the pulse train must stay above 3.5
        grid = (1e-3, 3e-3, 1e-2)
        phi = math.acos(-1 / 4.0)

        def ideal_infidelity(eps):
            u = np.eye(2, dtype=complex)
            for angle, ax in ((math.pi, 0.0), (math.pi, phi), (2 * math.pi, 3 * phi), (math.pi, phi)):
                axis = np.cos(ax) * SX + np.sin(ax) * SY
                u = expm(-0.5j * angle * (1 + eps) * axis) @ u
            return 1 - abs(np.trace(rot_x(math.pi).conj().T @ u)) ** 2 / 4

        # fit the oracle on larger errors where its sixth-power values sit
        # safely above double-precision noise
        oracle_grid = (1e-2, 3e-2, 1e-1)
        ideal = [ideal_infidelity(e) for e in oracle_grid]
        ideal_slope = np.polyfit(np.log(oracle_grid), np.log(ideal), 1)[0]
        assert ideal_slope == pytest.approx(6.0, abs=0.3)

        seq = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        target = rot_x(math.pi)
        sim = []
        for eps in grid:
            u = P.sequence_unitary(seq, detuning=0.0, pulse_error=eps)
            sim.append(1 - abs(np.trace(target.conj().T @ u)) ** 2 / 4)
        slope = np.polyfit(np.log(grid), np.log(sim), 1)[0]
        assert slope >= 3.5

    def test_beats_uncompensated_composite_gate(self):
        noise = P.NoiseModel(t2_star=None, pulse_error=1e-2, samples=1, seed=0)
        target = rot_x(math.pi)
        bare = P.process_infidelity(P.composite_x_gate(math.pi, LARMOR), noise, target)
        compensated = P.process_infidelity(P.bb1_virtual_gate(math.pi, 1e-9, LARMOR), noise, target)
        assert compensated.infidelity < bare.infidelity

    def test_angle_range(self):
        with pytest.raises(ValueError):
            P.bb1_virtual_gate(2 * math.pi, 1e-9, LARMOR)
