import json
import math
import re

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparch import pulses, qec
from qparch.errors import InfeasibleInputError, RateUnderflowError

DEFAULTS = qec.HardwareProfile()

# Below-threshold profiles with a suppression base of at most 0.89, so the
# minimal distance stays small enough to check by its neighbours.
profiles = st.builds(
    qec.HardwareProfile,
    error_per_virtual_gate=st.floats(1e-6, 8e-3),
    c1=st.floats(1e-3, 1.0),
    c2=st.floats(1e-2, 1.0),
)
# Targets and per-gate rates spread over many decades.
targets = st.floats(-30.0, 0.0).map(lambda e: 10.0 ** e)
counts = st.floats(0.0, 12.0).map(lambda e: 10.0 ** e)


def brute_force_min_distance(profile, target, max_distance=401):
    """Independent oracle: scan odd distances until the scaling law meets the target."""
    base = profile.c2 * profile.error_per_virtual_gate / profile.threshold
    for d in range(1, max_distance + 1, 2):
        if profile.c1 * base ** ((d + 1) // 2) <= target:
            return d
    raise AssertionError("oracle scan exhausted")


class TestFailureProbability:
    def test_zero_error_rate(self):
        assert qec.failure_probability(0.0, 1e6, 1e3) == 0.0

    @pytest.mark.parametrize("eps", [0.0, -0.0, 0, 1.0, 1])
    def test_exact_rates_survive_an_overflowing_gate_count(self, eps):
        p = qec.failure_probability(eps, 1e308, 1e308)  # depth * qubits is inf
        assert p == eps and math.copysign(1.0, p) == 1.0 and type(p) is float

    def test_certain_failure(self):
        assert qec.failure_probability(1.0, 1, 1) == 1.0

    def test_small_rate_matches_high_precision_oracle(self):
        eps, depth, qubits = 2.6e-20, 1.6e11, 72708
        got = qec.failure_probability(eps, depth, qubits)
        with mpmath.workdps(60):
            exact = float(1 - (1 - mpmath.mpf(eps)) ** (mpmath.mpf(depth) * qubits))
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(3.0e-4, rel=1e-2)
        # second-order expansion KQ*eps - C(KQ,2)*eps^2, itself truncated at
        # a relative (KQ*eps)^2/6 ~ 1.5e-8
        kq = depth * qubits
        expansion = kq * eps - kq * (kq - 1) / 2 * eps ** 2
        assert got == pytest.approx(expansion, rel=1e-7)

    def test_never_exceeds_union_bound(self):
        for eps in (1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.9):
            for kq in ((1, 1), (10, 7), (1e5, 1e3)):
                p = qec.failure_probability(eps, *kq)
                union = kq[0] * kq[1] * eps
                assert p <= union + 1e-18
                if union < 1e-3:
                    # gap union - p ~ union^2/2 stays below 1e-6 on this range
                    assert union - p < 1e-6

    def test_ancillas_of_zero_error_or_count_add_nothing(self):
        p = qec.failure_probability(2.6e-20, 1.6e11, 72708)
        assert qec.failure_probability(2.6e-20, 1.6e11, 72708, 3e11, 0.0) == p
        assert qec.failure_probability(2.6e-20, 1.6e11, 72708, 0, 0.5) == p
        assert qec.failure_probability(0.0, 1e308, 1e308, 0, 1.0) == 0.0

    def test_a_certain_ancilla_failure_fails_the_run(self):
        assert qec.failure_probability(0.0, 1, 1, 1, 1.0) == 1.0

    def test_ancilla_term_matches_high_precision_oracle(self):
        # The reference factoring run: 3.0e11 ancillas distilled twice from 1e-3.
        eps, depth, qubits, ancillas, ancilla_error = 2.6e-20, 1.6e11, 72708, 3.0e11, 1.5e-21
        got = qec.failure_probability(eps, depth, qubits, ancillas, ancilla_error)
        with mpmath.workdps(60):
            survival = ((1 - mpmath.mpf(eps)) ** (mpmath.mpf(depth) * qubits)
                        * (1 - mpmath.mpf(ancilla_error)) ** mpmath.mpf(ancillas))
            exact = float(1 - survival)
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_out_of_range_rate(self, bad):
        with pytest.raises(ValueError):
            qec.failure_probability(bad, 1, 1)

    def test_rejects_small_depth(self):
        with pytest.raises(ValueError):
            qec.failure_probability(0.5, 0, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(targets, st.floats(0.0, 1.0)), min_size=2, max_size=2),
        st.lists(counts, min_size=2, max_size=2),
        st.lists(counts, min_size=2, max_size=2),
    )
    def test_monotone_in_each_argument(self, rates, depths, widths):
        rates, depths, widths = sorted(rates), sorted(depths), sorted(widths)
        base = (rates[0], depths[0], widths[0])
        p = qec.failure_probability(*base)
        assert 0.0 <= p <= 1.0
        for index, larger in enumerate((rates[1], depths[1], widths[1])):
            args = list(base)
            args[index] = larger
            # log1p and expm1 are faithfully rounded, not promised monotone
            # to the last bit, so a few ulps of slack are allowed.
            assert p <= qec.failure_probability(*args) + 4 * math.ulp(p)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, 0.5), counts, st.floats(1.0, 1e5))
    @example(1e-2, 1.6e11, 72708)
    def test_round_trip_from_the_per_gate_budget(self, p, depth, qubits):
        # The per-gate rate at which a run of K*Q gates fails with probability p.
        eps = -math.expm1(math.log1p(-p) / (depth * qubits))
        if (p, depth, qubits) == (1e-2, 1.6e11, 72708):  # the reference factoring run
            assert eps == pytest.approx(8.6e-19, rel=1e-2)
        assert qec.failure_probability(eps, depth, qubits) == pytest.approx(p, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-280.0, -6.0), counts, counts)
    def test_never_underflows(self, log_union, depth, qubits):
        # Choose eps so that K*Q*eps = 10**log_union <= 1e-6.
        eps = 10.0 ** log_union / (depth * qubits)
        union = depth * qubits * eps
        p = qec.failure_probability(eps, depth, qubits)
        assert p > 0.0
        # 1 - (1 - eps)^(KQ) = KQ*eps * (1 - (KQ - 1)*eps/2 + ...), relative gap < KQ*eps.
        assert p == pytest.approx(union, rel=union + 1e-12)


class TestLogicalErrorRate:
    def test_reference_distance_31(self):
        # published value for the default platform constants
        assert qec.logical_error_rate(DEFAULTS, 31) == pytest.approx(2.6e-20, rel=0.05)

    def test_distance_1_hand_evaluation(self):
        expected = 0.13 * (0.61 * 1e-3 / 9e-3)
        assert qec.logical_error_rate(DEFAULTS, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.81e-3, rel=1e-3)

    def test_unit_base_gives_constant_c1(self):
        profile = qec.HardwareProfile(error_per_virtual_gate=4.5e-3, threshold=9e-3, c2=2.0)
        assert profile.suppression_base == pytest.approx(1.0)
        for d in (1, 3, 11, 31):
            assert qec.logical_error_rate(profile, d) == pytest.approx(profile.c1)

    def test_rejects_even_distance(self):
        with pytest.raises(ValueError, match="^code distance must be odd, got 30$"):
            qec.logical_error_rate(DEFAULTS, 30)
        # Nor a bool or a float: True is not distance 1, and 31.0 is no distance.
        point = qec.code_point(DEFAULTS, 31)
        for distance in (True, 31.0):
            message = f"^code distance must be an integer, got {distance!r}$"
            for call in (lambda: qec.logical_error_rate(DEFAULTS, distance),
                         lambda: qec.code_point(DEFAULTS, distance),
                         lambda: qec.CodePoint(**{**point._asdict(), "distance": distance})):
                with pytest.raises(ValueError, match=message):
                    call()

    def test_rate_that_underflows_names_the_distance(self):
        assert qec.logical_error_rate(DEFAULTS, 551) > 0.0  # the last distance still a float
        for distance in (553, 99999999999):
            with pytest.raises(ValueError, match=f"code distance {distance} underflows to 0.0"):
                qec.logical_error_rate(DEFAULTS, distance)

    def test_rate_that_overflows_names_the_distance(self):
        # a suppression base above 1: c2 * eps_V / eps_thresh = 5 * 4e-3 / 9e-3
        profile = qec.HardwareProfile(error_per_virtual_gate=4e-3, c2=5.0)
        with pytest.raises(ValueError, match="code distance 99999999999 overflows a float"):
            qec.logical_error_rate(profile, 99999999999)

    def test_rate_above_one_names_the_distance_and_base(self):
        # the same suppression base above 1, at a distance whose rate is still a float
        profile = qec.HardwareProfile(error_per_virtual_gate=4e-3, c2=5.0)
        with pytest.raises(
            ValueError,
            match=r"code distance 31 is 45977\.3, above 1 \(c1 = 0\.13, suppression base .* = 2\.222\)",
        ):
            qec.logical_error_rate(profile, 31)

    @pytest.mark.parametrize("distance", range(545, 559, 2))
    def test_a_subnormal_power_is_rounded_once(self, distance):
        """At c1 = 1e10 the power underflows before the product: d = 551 read 2.4703e-313
        (3% off) and 553 to 557 raised, though the exact rates are floats."""
        profile = qec.HardwareProfile(c1=1e10)
        with mpmath.workdps(60):
            exact = mpmath.mpf(profile.c1) * mpmath.mpf(profile.suppression_base) ** ((distance + 1) // 2)
        rate = qec.logical_error_rate(profile, distance)
        assert abs(mpmath.mpf(rate) - exact) <= math.ulp(float(exact))

    def test_the_default_profiles_rates_are_unchanged(self):
        """Every nonzero default rate is still ``c1 * base ** exponent``, also from d = 525 on,
        where the power is subnormal and the rate is rounded once."""
        base = DEFAULTS.suppression_base
        for distance in range(1, 552, 2):
            assert qec.logical_error_rate(DEFAULTS, distance) == DEFAULTS.c1 * base ** ((distance + 1) // 2)

    def test_strictly_decreasing_and_exact_step_ratio(self):
        base = DEFAULTS.suppression_base
        previous = qec.logical_error_rate(DEFAULTS, 1)
        for d in range(3, 62, 2):
            current = qec.logical_error_rate(DEFAULTS, d)
            assert current < previous
            assert current / previous == pytest.approx(base, rel=1e-12)
            previous = current


class TestMinCodeDistance:
    def test_reference_workload_target(self):
        target = 1e-2 / (1.6e11 * 72708)
        assert target == pytest.approx(8.6e-19, rel=1e-2)
        point = qec.min_code_distance(DEFAULTS, target)
        assert point.distance == 29
        assert point.distance == brute_force_min_distance(DEFAULTS, target)

    def test_loose_target_gives_distance_1(self):
        assert qec.min_code_distance(DEFAULTS, 1e-2).distance == 1
        assert qec.min_code_distance(DEFAULTS, 1.0).distance == 1

    @pytest.mark.parametrize("target", [1.5, math.nextafter(1, 2), 1e300])
    def test_rejects_target_above_one(self, target):
        """A per-gate error target above 1 is not a probability."""
        message = re.escape(f"target_logical_error must be a finite number in (0, 1], got {target!r}")
        with pytest.raises(ValueError, match=message):
            qec.min_code_distance(DEFAULTS, target)

    @pytest.mark.parametrize("c1, distance", [(2.0, 553), (1e10, 569)])
    def test_a_target_below_c1_times_the_smallest_float_is_met(self, c1, distance):
        """target / c1 underflows to 0.0, but the exponent is taken in the log domain,
        and the walk reads the same subnormal rates as ``logical_error_rate``."""
        point = qec.min_code_distance(qec.HardwareProfile(c1=c1), 5e-324)
        assert (point.distance, point.logical_error_rate) == (distance, 5e-324)

    @pytest.mark.parametrize("c1, distance", [(2.0, 299), (1e10, 307)])
    def test_a_minimal_distance_whose_rate_rounds_to_0_is_named(self, c1, distance):
        profile = qec.HardwareProfile(c1=c1, error_per_virtual_gate=1e-4)
        message = f"the logical error rate at code distance {distance} underflows to 0.0"
        with pytest.raises(RateUnderflowError, match=f"^{message}$"):
            qec.min_code_distance(profile, 5e-324)

    def test_unreachable_when_base_at_least_one(self):
        profile = qec.HardwareProfile(error_per_virtual_gate=6e-3, threshold=9e-3, c2=2.0)
        with pytest.raises(InfeasibleInputError, match="unreachable target"):
            qec.min_code_distance(profile, 1e-9)

    def test_matches_brute_force_scan_over_targets(self):
        for exponent in range(1, 40, 3):
            target = 10.0 ** -exponent
            assert qec.min_code_distance(DEFAULTS, target).distance == brute_force_min_distance(
                DEFAULTS, target
            )

    def test_round_trip_identity(self):
        for d in range(1, 62, 2):
            eps = qec.logical_error_rate(DEFAULTS, d)
            assert qec.min_code_distance(DEFAULTS, eps).distance == d

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            qec.min_code_distance(DEFAULTS, 0.0)

    @pytest.mark.parametrize("target", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="target_logical_error must be a finite number"):
            qec.min_code_distance(DEFAULTS, target)

    @settings(max_examples=200, deadline=None)
    @given(profiles, targets)
    def test_minimal(self, profile, target):
        distance = qec.min_code_distance(profile, target).distance
        assert qec.logical_error_rate(profile, distance) <= target
        assert distance == 1 or qec.logical_error_rate(profile, distance - 2) > target

    @settings(max_examples=200, deadline=None)
    @given(profiles, targets, targets)
    def test_monotone_non_increasing_in_target(self, profile, first, second):
        loose, tight = max(first, second), min(first, second)
        assert (
            qec.min_code_distance(profile, tight).distance
            >= qec.min_code_distance(profile, loose).distance
        )


class TestFootprint:
    def test_reference_point(self):
        assert qec.footprint(31) == 6240

    def test_quadratic_scaling_from_reference(self):
        assert qec.footprint(62) == 4 * 6240

    def test_extrapolation_to_distance_1(self):
        assert qec.footprint(1) == 6

    def test_quadratic_ratio_window(self):
        for d in range(15, 80):
            ratio = qec.footprint(2 * d) / qec.footprint(d)
            assert 3.99 <= ratio <= 4.01


class TestLogicalGateTimes:
    def test_distance_31(self):
        point = qec.code_point(DEFAULTS, 31)
        assert point.cnot_time_s == pytest.approx(104 * 256e-9)
        assert point.cnot_time_s == pytest.approx(26.6e-6, rel=1e-2)
        assert point.hadamard_time_s == pytest.approx(52 * 256e-9)
        assert point.hadamard_time_s == pytest.approx(13.3e-6, rel=1e-2)
        assert point.measurement_time_s == pytest.approx(256e-9)

    def test_distance_3_step_count(self):
        # code_point takes only odd distances; d = 3 is one ceil(d/4) step.
        point = qec.code_point(DEFAULTS, 3)
        assert point.cnot_time_s == pytest.approx(13 * 256e-9)

    def test_code_point_step_counts(self):
        point = qec.code_point(DEFAULTS, 31)
        assert point.cnot_lattice_steps == 13 * math.ceil(31 / 4) == 104
        assert point.hadamard_lattice_steps == 13 * math.ceil(31 / 8) == 52
        assert point.virtual_per_logical == 6240


class TestHardwareProfile:
    def test_default_pulse_matches_larmor_relation(self):
        # The pulse layer keeps its own default so that it never imports qec.
        assert pulses.DEFAULT_LARMOR_PERIOD == DEFAULTS.larmor_period
        assert pulses.hadamard_pulse().duration == DEFAULTS.larmor_period / math.sqrt(8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"larmor_period": 0.0},
            {"lattice_cycle_time": -1e-9},
            {"error_per_virtual_gate": 0.0},
            {"error_per_virtual_gate": 9e-3},
            {"threshold": 1.0},
            {"c1": 0.0},
            {"c2": -1.0},
            {"c1": "0.1"},
            {"c1": float("nan")},
            {"c2": float("inf")},
            {"threshold": True},
            {"logical_cycle_time": None},
            {"c1": 10 ** 400},
        ],
    )
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            qec.HardwareProfile(**kwargs)

    def test_json_round_trip_with_missing_fields(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"logical_cycle_time": 40e-6}))
        profile = qec.HardwareProfile.from_json(path)
        assert profile.logical_cycle_time == 40e-6
        assert profile.larmor_period == DEFAULTS.larmor_period

    # A typo, and the four times no formula read (the pulse layer derives the
    # pulse and virtual-gate durations from the Larmor period).
    @pytest.mark.parametrize("name", [
        "logical_cycle_tme", "pulse_duration", "virtual_gate_time", "entangling_gate_time",
        "qnd_readout_time",
    ])
    def test_unknown_field_fails_fast(self, name, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({name: 40e-6}))
        with pytest.raises(ValueError, match=f"unknown hardware profile field\\(s\\): {name}$"):
            qec.HardwareProfile.from_json(path)
