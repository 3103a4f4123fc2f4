import math
import re
import warnings

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
        assert first.infidelity == second.infidelity
        assert np.array_equal(first.fidelities, second.fidelities)
        prefix = P.detuning_samples(P.NoiseModel(t2_star=2e-9, samples=16, seed=21))
        full = P.detuning_samples(P.NoiseModel(t2_star=2e-9, samples=64, seed=21))
        assert np.array_equal(full[:16], prefix)

    def test_composition_is_partition_independent(self):
        sequence = P.bb1_virtual_gate(1.0, 1e-9, LARMOR)
        segments = sequence.segments
        # Over 2**14 samples, so numpy reuses temporaries of the full-length products.
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=2 * P._BLOCK + 3, seed=21)
        prefix = P.NoiseModel(t2_star=2e-9, pulse_error=0.005, samples=40, seed=21)
        target = expm(-0.5j * (0.3 * SX - 0.4 * SY + 0.5 * SZ))  # complex entries, none 0 or 1
        assert (P.process_infidelity(sequence, prefix, target).fidelities.tobytes()
                == P.process_infidelity(sequence, noise, target).fidelities[:40].tobytes())
        detunings = P.detuning_samples(noise)
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
        result = P.process_infidelity(P.build_sequence("CP", 1e-9, LARMOR), noise)
        assert result.std_error == pytest.approx(np.std(1 - result.fidelities) / math.sqrt(500))
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
        got = P.detuning_samples(P.NoiseModel(t2_star=t2_star, samples=samples, seed=seed))
        assert np.array_equal(got, oracle_detunings(seed, samples, t2_star))

    def test_cached_normals_are_read_only(self):
        normals = P._standard_normals(3, 8)
        assert not normals.flags.writeable
        with pytest.raises(ValueError):
            normals[0] = 0.0
        noise = P.NoiseModel(t2_star=2e-9, samples=8, seed=3)
        scratch = P.detuning_samples(noise)
        scratch[:] = 0.0
        assert np.array_equal(P.detuning_samples(noise), oracle_detunings(3, 8, 2e-9))

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
        assert P.detuning_samples(short).tobytes() == P.detuning_samples(long)[:n].tobytes()
        sequence = P.build_sequence("8H", 1e-9, LARMOR)
        target = expm(-0.5j * (0.3 * SX - 0.4 * SY + 0.5 * SZ))  # complex entries, none 0 or 1
        assert (P.process_infidelity(sequence, short, target).fidelities.tobytes()
                == P.process_infidelity(sequence, long, target).fidelities[:n].tobytes())

    def test_each_t2_star_gets_its_own_scale_on_one_seed(self):
        short = P.detuning_samples(P.NoiseModel(t2_star=1e-9, samples=40, seed=9))
        long = P.detuning_samples(P.NoiseModel(t2_star=4e-9, samples=40, seed=9))
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
        assert np.max(np.abs(result.fidelities - np.array(want))) < 1e-12


def oracle_compose(segments, larmor_period, detunings, pulse_error):
    """The plain per-segment loop: every segment's pair (a, b) over all samples,
    however often it repeats, and the full product on fresh arrays each step.

    A segment's rotation vector is (vx, vy, c0 + c1 * detuning); a rotation
    about Z alone takes its Larmor phase exp(-i c0 / 2) as one scalar."""

    def rotation(vx, vy, c0, c1):
        if vx == 0 and vy == 0:
            x = (-0.5 * c1) * detunings
            phase = complex(math.cos(0.5 * c0), -math.sin(0.5 * c0))
            return (np.cos(x) + 1j * np.sin(x)) * phase, zero
        vz = c0 + c1 * detunings
        angle = np.sqrt((vx * vx + vy * vy) + vz * vz)
        k = np.divide(np.sin(angle / 2), angle, out=np.full_like(angle, 0.5), where=angle > 0)
        return np.cos(angle / 2) - 1j * (k * vz), -(k * vy) - 1j * (k * vx)

    one, zero = np.ones_like(detunings, dtype=complex), np.zeros_like(detunings, dtype=complex)
    omega = 2 * math.pi / larmor_period
    a, b = one, zero
    for segment in segments:
        if segment.axis is None:
            a2, b2 = rotation(0.0, 0.0, omega * segment.duration, segment.duration)
        elif segment.duration == 0:
            a2, b2 = one, zero
        else:
            (ax, ay, az), angle, scale = segment.axis, segment.nominal_angle, 1 + pulse_error
            a2, b2 = rotation(
                scale * angle * ax,
                scale * angle * ay,
                scale * (angle * az + omega * segment.duration),
                scale * segment.duration,
            )
        a, b = a2 * a - np.conj(b) * b2, a2 * b + np.conj(a) * b2
    return np.array([a, b])


def oracle_fidelities(sequence, noise, target):
    """process_infidelity's reduction applied to the oracle's pairs."""
    a, b = oracle_compose(
        sequence.segments, sequence.larmor_period, P.detuning_samples(noise), noise.pulse_error
    )
    t = target.conj()
    overlap = t[0, 0] * a + t[0, 1] * b - t[1, 0] * np.conj(b) + t[1, 1] * np.conj(a)
    return np.clip(np.abs(overlap) ** 2 / 4, 0.0, 1.0)


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
    """_compose (distinct segments once, sample blocks, Z steps without their
    zero terms) against the plain per-segment loop, bit for bit."""

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
        detunings = P.detuning_samples(noise)
        got = P._compose(tuple(segments), LARMOR, detunings, pulse_error)
        # == treats 0.0 and -0.0 as equal: only the sign of a zero may differ
        assert np.array_equal(got, oracle_compose(segments, LARMOR, detunings, pulse_error))
        # The pair is the first row of U = [[a, b], [-b*, a*]]: entries agree
        # with the dense product up to rounding.
        (a, b), want = got, dense_compose(segments, LARMOR, detunings, pulse_error)
        u = np.array([[a, b], [-np.conj(b), np.conj(a)]]).transpose(2, 0, 1)
        assert np.max(np.abs(u - want)) <= 1e-12
        # A sequence needs a positive duration; the composition above does not.
        sequence = custom_sequence(segments)
        target = rot_x(theta)
        fidelities = P.process_infidelity(sequence, noise, target).fidelities
        assert fidelities.tobytes() == oracle_fidelities(sequence, noise, target).tobytes()

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
        detunings = P.detuning_samples(P.NoiseModel(t2_star=2e-9, samples=5, seed=1))
        for segments in ((free, pulse), (pulse, free), (free, pulse, free, pulse)):
            got = P._compose(segments, LARMOR, detunings, 0.1)
            assert np.array_equal(got, oracle_compose(segments, LARMOR, detunings, 0.1))
        assert not np.allclose(P._compose((free, pulse), LARMOR, detunings, 0.1),
                               P._compose((free, free), LARMOR, detunings, 0.1))

    def test_bb1_full_size_matches_per_segment_loop(self):
        sequence = P.bb1_virtual_gate(math.pi, 1e-9, LARMOR)
        noise = P.NoiseModel(t2_star=2e-9, pulse_error=0.01, samples=20000, seed=7)
        detunings = P.detuning_samples(noise)
        got = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        assert np.array_equal(got, oracle_compose(sequence.segments, LARMOR, detunings, 0.01))
        target = rot_x(math.pi)
        fidelities = P.process_infidelity(sequence, noise, target).fidelities
        assert fidelities.tobytes() == oracle_fidelities(sequence, noise, target).tobytes()

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
        detunings = P.detuning_samples(noise)
        default = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        monkeypatch.setattr(P, "_BLOCK", 2**15)
        large = P._compose(sequence.segments, LARMOR, detunings, noise.pulse_error)
        assert large.tobytes() == default.tobytes()


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
