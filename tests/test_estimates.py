import copy
import csv
import io
import math
import pickle

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparch import distillation as dist
from qparch import estimates as est
from qparch import qec
from qparch.errors import InfeasibleInputError

PROFILE = qec.HardwareProfile()
CODE = qec.code_point(PROFILE, 31)

# Reference machine with 1e5 logical qubits: cross-section, production rate,
# peak consumption rate per bit size.
REFERENCE_FACTORY_TABLE = {
    512: (96928, 84.1, 32.1),
    1024: (93856, 81.5, 57.8),
    2048: (87712, 76.1, 105.1),
    4096: (75424, 65.5, 192.7),
    8192: (50848, 44.1, 355.7),
    16384: (1696, 1.5, 660.6),
}


class TestShorConsumptionRate:
    @pytest.mark.parametrize("bits,expected", [(512, 32.1), (1024, 57.8), (2048, 105.1)])
    def test_reference_rows(self, bits, expected):
        assert est.ShorWorkload(bits=bits).consumption_rate == pytest.approx(expected, abs=0.1)

    def test_algebraic_identity(self):
        for bits in (16, 100, 512, 1024, 5000):
            rate = est.ShorWorkload(bits=bits).consumption_rate
            assert rate * 124 * math.log2(bits) == pytest.approx(70 * bits, rel=1e-12)

    def test_rejects_tiny_keys(self):
        with pytest.raises(ValueError):
            est.ShorWorkload(bits=2).consumption_rate
        # A count is an int, not a bool or a float: True is not one particle.
        for make, field, value in ((est.ShorWorkload, "bits", True),
                                   (est.ShorWorkload, "bits", 1024.5),
                                   (est.SimWorkload, "particles", True),
                                   (est.SimWorkload, "particles", 61.0)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
                make(**{field: value})
        with pytest.raises(ValueError, match="^machine_logical_qubits must be an integer, got 100"):
            est.ShorWorkload(bits=1024, machine_logical_qubits=100000.0)
        with pytest.raises(ValueError, match="^distillation level must be an integer, got True$"):
            est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE, level=True)


class TestShorEstimate:
    def test_unconstrained_reference_workload(self):
        report = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        assert report.app_qubits == 6144
        assert report.distillation_qubits == pytest.approx(66564, rel=1e-3)
        assert report.total_logical_qubits == pytest.approx(72708, rel=1e-3)
        assert report.toffoli_depth == pytest.approx(1.68e8, rel=0.01)
        assert report.logical_cycles == pytest.approx(5.21e9, rel=0.01)
        assert report.virtual_qubits == pytest.approx(4.54e8, rel=0.005)
        assert report.chip_area_cm2 == pytest.approx(4.54, rel=0.005)
        assert report.runtime_days == pytest.approx(1.81, rel=0.02)
        assert report.throttle_factor == 1.0

    def test_fixed_machine_throttles_large_keys(self):
        report = est.shor_estimate(
            est.ShorWorkload(bits=4096, machine_logical_qubits=100000), PROFILE, CODE
        )
        assert report.production_rate == pytest.approx(65.5, abs=0.1)
        assert report.consumption_rate == pytest.approx(192.7, abs=0.1)
        assert 2.8 <= report.throttle_factor <= 3.1

    def test_fixed_machine_not_throttled_at_1024(self):
        constrained = est.shor_estimate(
            est.ShorWorkload(bits=1024, machine_logical_qubits=100000), PROFILE, CODE
        )
        unconstrained = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        assert constrained.throttle_factor == 1.0
        assert constrained.runtime_seconds == unconstrained.runtime_seconds

    def test_machine_without_factory_capacity(self):
        with pytest.raises(InfeasibleInputError, match="no factory capacity"):
            est.shor_estimate(
                est.ShorWorkload(bits=1024, machine_logical_qubits=6144), PROFILE, CODE
            )

    def test_machine_must_fit_one_distillation_circuit(self):
        app = est.ShorWorkload(bits=1024).app_qubits
        spare = dist.LEVEL1_CROSS_SECTION
        with pytest.raises(InfeasibleInputError, match="one distillation circuit"):
            est.ShorWorkload(bits=1024, machine_logical_qubits=app + spare - 1)
        report = est.shor_estimate(
            est.ShorWorkload(bits=1024, machine_logical_qubits=app + spare), PROFILE, CODE
        )
        assert report.distillation_qubits == spare
        assert report.production_rate > 0

    def test_depth_doubling_identity(self):
        for bits in (64, 512, 1024):
            small = est.shor_estimate(est.ShorWorkload(bits=bits), PROFILE, CODE)
            large = est.shor_estimate(est.ShorWorkload(bits=2 * bits), PROFILE, CODE)
            expected = 4 * (math.log2(bits) + 1) / math.log2(bits)
            assert large.toffoli_depth / small.toffoli_depth == pytest.approx(expected, rel=1e-12)

    def test_report_consistency_invariants(self):
        report = est.shor_estimate(
            est.ShorWorkload(bits=2048, machine_logical_qubits=100000), PROFILE, CODE
        )
        assert report.total_logical_qubits == report.app_qubits + report.distillation_qubits
        assert report.virtual_qubits == report.total_logical_qubits * qec.footprint(31)
        assert report.runtime_seconds == pytest.approx(
            report.logical_cycles * PROFILE.logical_cycle_time * report.throttle_factor
        )
        assert report.throttle_factor >= 1.0
        # The constructor derives the other fields and refuses them as arguments.
        inputs = {
            "app_qubits": report.app_qubits,
            "distillation_qubits": report.distillation_qubits,
            "toffoli_depth": report.toffoli_depth,
            "logical_cycles": report.logical_cycles,
            "consumption_rate": report.consumption_rate,
            "profile": PROFILE,
            "code": CODE,
            "level": dist.DEFAULT_DISTILLATION_LEVEL,
            "details": report.details,
        }
        assert est.ResourceReport(**inputs) == report
        with pytest.raises(TypeError):
            est.ResourceReport(**inputs, total_logical_qubits=report.total_logical_qubits + 1)
        with pytest.raises(TypeError):
            est.ResourceReport(**inputs, throttle_factor=0.5)
        with pytest.raises(TypeError):
            est.ResourceReport(**inputs, production_rate=report.production_rate)

    def test_copies_and_pickles_keep_the_report(self):
        report = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            copied = clone(report)
            assert copied == report and type(copied) is est.ResourceReport

    def test_failure_probability_uses_report_depth_and_width(self):
        report = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        expected = qec.failure_probability(
            CODE.logical_error_rate, report.logical_cycles, report.total_logical_qubits,
            report.consumption_rate * report.logical_cycles,
            dist.distilled_error(dist.DEFAULT_DISTILLATION_LEVEL, PROFILE.error_per_virtual_gate),
        )
        assert report.failure_probability == expected
        assert report.details["depth_units"] == "logical_cycles"


def one_step_cycles(particles):
    """Logical cycles of a one-timestep run less its readout QFT: one propagator step."""
    workload = est.SimWorkload(particles=particles, timesteps=1)
    return est.sim_estimate(workload, PROFILE, CODE).logical_cycles - est.SIM_QFT_CYCLES


class TestRequiredArguments:
    @pytest.mark.parametrize("estimate, workload", [
        (est.shor_estimate, est.ShorWorkload(bits=1024)),
        (est.sim_estimate, est.SimWorkload(particles=61)),
    ], ids=["shor", "sim"])
    def test_estimators_require_profile_and_code(self, estimate, workload):
        with pytest.raises(TypeError):
            estimate(workload)
        with pytest.raises(TypeError):
            estimate(workload, PROFILE)

    def test_report_requires_details(self):
        report = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        inputs = {
            name: getattr(report, name)
            for name in ("app_qubits", "distillation_qubits", "toffoli_depth", "logical_cycles",
                         "consumption_rate")
        }
        inputs.update(profile=PROFILE, code=CODE, level=dist.DEFAULT_DISTILLATION_LEVEL)
        assert est.ResourceReport(**inputs, details=report.details) == report
        with pytest.raises(TypeError):
            est.ResourceReport(**inputs)


class TestSimEstimate:
    def test_per_step_cycles_alanine(self):
        assert one_step_cycles(61) == pytest.approx(3.84e7, rel=0.01)

    def test_per_step_cycles_single_particle(self):
        # 832 400 per step (potential, kinetic, QFT pair) plus the 25 700 readout QFT
        report = est.sim_estimate(est.SimWorkload(particles=1, timesteps=1), PROFILE, CODE)
        assert report.logical_cycles == 858100.0
        assert one_step_cycles(1) == pytest.approx(832400.0)

    def test_potential_term_linear_in_particles(self):
        assert one_step_cycles(2) - one_step_cycles(1) == pytest.approx(
            est.SIM_POTENTIAL_CYCLES_PER_PARTICLE
        )

    def test_alanine_reference_report(self):
        report = est.sim_estimate(est.SimWorkload(particles=61), PROFILE, CODE)
        assert report.app_qubits == pytest.approx(6650, rel=0.01)
        assert report.distillation_qubits == 15860
        assert report.logical_cycles == pytest.approx(3.94e10, rel=0.01)
        assert report.toffoli_depth == pytest.approx(1.27e9, rel=0.01)
        assert report.virtual_qubits == pytest.approx(1.40e8, rel=0.01)
        assert report.chip_area_cm2 == pytest.approx(1.40, rel=0.01)
        assert report.runtime_days == pytest.approx(13.7, rel=0.02)

    def test_alanine_particle_count_from_formula(self):
        # C3 H7 N O2: every electron plus every nucleus
        electrons = 3 * 6 + 7 * 1 + 7 + 2 * 8
        nuclei = 3 + 7 + 1 + 2
        assert electrons + nuclei == 61
        assert 15860 // est.SIM_DISTILL_QUBITS_PER_PARTICLE == 61

    def test_single_particle_runtime(self):
        report = est.sim_estimate(est.SimWorkload(particles=1), PROFILE, CODE)
        assert report.runtime_seconds / 3600 == pytest.approx(7.1, rel=0.02)

    def test_runtime_affine_in_particles(self):
        runtimes = [
            est.sim_estimate(est.SimWorkload(particles=b), PROFILE, CODE).runtime_seconds
            for b in (1, 2, 3, 10, 11)
        ]
        step = runtimes[1] - runtimes[0]
        assert step > 0
        assert runtimes[2] - runtimes[1] == pytest.approx(step, rel=1e-9)
        assert runtimes[4] - runtimes[3] == pytest.approx(step, rel=1e-9)

    def test_register_size(self):
        workload = est.SimWorkload(particles=5)
        assert workload.register_qubits_per_particle == 36
        report = est.sim_estimate(workload, PROFILE, CODE)
        assert report.details["operator_memory_logical_qubits"] == {
            "kinetic": 334 * 5,
            "potential": 369 * 5,
            "qft": 272 * 5,
        }


def shor_reports(bit_sizes, machine_logical_qubits=None, level=dist.DEFAULT_DISTILLATION_LEVEL):
    """One factoring report per bit size, in input order, as ``estimate shor`` sweeps them."""
    return [
        est.shor_estimate(est.ShorWorkload(bits, machine_logical_qubits), PROFILE, CODE, level)
        for bits in bit_sizes
    ]


class TestShorSweep:
    def test_reference_table_reproduction(self):
        reports = shor_reports(sorted(REFERENCE_FACTORY_TABLE), machine_logical_qubits=100000)
        for report, (bits, row) in zip(reports, sorted(REFERENCE_FACTORY_TABLE.items())):
            cross_section, production, consumption = row
            assert report.distillation_qubits == cross_section == 100000 - 6 * bits
            assert report.production_rate == pytest.approx(production, abs=0.1)
            assert report.consumption_rate == pytest.approx(consumption, abs=0.1)

    def test_throttle_onset(self):
        reports = shor_reports([512, 1024, 2048, 4096], machine_logical_qubits=100000)
        for report in reports[:2]:
            assert report.throttle_factor == 1.0
        for report in reports[2:]:
            assert report.throttle_factor > 1.0

    def test_depth_monotone(self):
        reports = shor_reports([512, 1024, 2048, 4096, 8192])
        depths = [r.toffoli_depth for r in reports]
        assert depths == sorted(depths)

    def test_single_size_matches_estimate(self):
        sweep = shor_reports([1024])[0]
        single = est.shor_estimate(est.ShorWorkload(bits=1024), PROFILE, CODE)
        assert sweep.toffoli_depth == single.toffoli_depth
        assert sweep.runtime_seconds == single.runtime_seconds

    def test_csv_header_and_shape(self):
        reports = shor_reports([512, 1024], machine_logical_qubits=100000)
        text = est.sweep_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == est.SWEEP_CSV_HEADER
        assert len(lines) == 3
        assert all(line.count(",") == lines[0].count(",") for line in lines)
        assert lines[1].startswith("512,3072,96928,")


def csv_module_sweep(reports):
    """The sweep CSV as ``csv.writer`` writes it: the oracle for ``sweep_to_csv``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(est.SWEEP_CSV_HEADER.split(","))
    for report in reports:
        writer.writerow([
            report.details["bits"], report.app_qubits, report.distillation_qubits,
            repr(report.production_rate), repr(report.consumption_rate),
            repr(report.throttle_factor), repr(report.toffoli_depth), repr(report.runtime_seconds),
        ])
    return buffer.getvalue()


@settings(max_examples=50, deadline=None)
@given(
    bit_sizes=st.lists(st.integers(4, 20000), min_size=1, max_size=6),
    machine=st.one_of(st.none(), st.integers(200000, 10 ** 7)),
    level=st.integers(1, dist.MAX_DISTILLATION_LEVEL),
)
@example(bit_sizes=[512, 1024, 2048, 4096, 8192, 16384], machine=100000, level=2)
def test_sweep_csv_matches_the_csv_module(bit_sizes, machine, level):
    reports = shor_reports(bit_sizes, machine, level)
    assert est.sweep_to_csv(reports) == csv_module_sweep(reports)


def assert_follows_the_chain(report, profile, distance, level=dist.DEFAULT_DISTILLATION_LEVEL):
    """Every derived field equals the chain recomputed from public functions."""
    total = report.app_qubits + report.distillation_qubits
    virtual = total * qec.footprint(distance)
    throttle = 1.0
    if report.consumption_rate is not None:
        throttle = max(1.0, report.consumption_rate / report.production_rate)
    runtime = report.logical_cycles * profile.logical_cycle_time * throttle
    assert report.total_logical_qubits == total
    assert report.code_distance == distance
    assert report.virtual_qubits == virtual
    assert report.chip_area_cm2 == virtual * est.CM2_PER_VIRTUAL_QUBIT
    assert report.throttle_factor == throttle
    assert report.runtime_seconds == runtime
    assert report.runtime_days == runtime / 86400
    ancilla_rate = report.production_rate if report.consumption_rate is None else report.consumption_rate
    assert report.failure_probability == qec.failure_probability(
        qec.logical_error_rate(profile, distance), report.logical_cycles, total,
        ancilla_rate * report.logical_cycles, dist.distilled_error(level, profile.error_per_virtual_gate)
    )


def refuses_a_cnot_longer_than_the_cycle(code, cycle_time, estimate, *args):
    """True, after checking the refusal, when the code's CNOT outlasts the logical cycle."""
    cnot_time = 13 * math.ceil(code.distance / 4) * qec.HardwareProfile().lattice_cycle_time
    assert code.cnot_time_s == cnot_time
    if cnot_time <= cycle_time:
        return False
    with pytest.raises(InfeasibleInputError) as refused:
        estimate(*args)
    assert str(refused.value) == (
        f"a CNOT at distance {code.distance} takes {cnot_time!r} s, longer than the "
        f"{cycle_time!r} s logical cycle: raise logical_cycle_time or lower the distance"
    )
    return True


odd_distances = st.integers(0, 100).map(lambda k: 2 * k + 1)
cycle_times = st.floats(1e-6, 1e-3)


@settings(max_examples=100, deadline=None)
@given(
    bits=st.integers(4, 20000),
    spare=st.one_of(st.none(), st.integers(dist.LEVEL1_CROSS_SECTION, 200000)),
    level=st.integers(1, dist.MAX_DISTILLATION_LEVEL),
    distance=odd_distances,
    cycle_time=cycle_times,
)
@example(bits=4096, spare=100000 - 6 * 4096, level=2, distance=31, cycle_time=30e-6)
@example(bits=1024, spare=None, level=2, distance=37, cycle_time=30e-6)
def test_shor_report_fields_follow_the_chain(bits, spare, level, distance, cycle_time):
    profile = qec.HardwareProfile(logical_cycle_time=cycle_time)
    machine = None if spare is None else est.ShorWorkload(bits=bits).app_qubits + spare
    workload = est.ShorWorkload(bits=bits, machine_logical_qubits=machine)
    code = qec.code_point(profile, distance)
    if refuses_a_cnot_longer_than_the_cycle(code, cycle_time, est.shor_estimate, workload, profile,
                                            code, level):
        return
    report = est.shor_estimate(workload, profile, code, level)
    assert report.consumption_rate == workload.consumption_rate
    assert report.production_rate == dist.factory_rate(report.distillation_qubits, level)
    assert_follows_the_chain(report, profile, distance, level)


@settings(max_examples=60, deadline=None)
@given(
    particles=st.integers(1, 10000),
    bits_precision=st.integers(1, 64),
    timesteps=st.integers(1, 2 ** 20),
    distance=odd_distances,
    cycle_time=cycle_times,
)
@example(particles=61, bits_precision=12, timesteps=1, distance=37, cycle_time=30e-6)
def test_sim_report_fields_follow_the_chain(particles, bits_precision, timesteps, distance,
                                           cycle_time):
    profile = qec.HardwareProfile(logical_cycle_time=cycle_time)
    workload = est.SimWorkload(particles, bits_precision, timesteps)
    code = qec.code_point(profile, distance)
    if refuses_a_cnot_longer_than_the_cycle(code, cycle_time, est.sim_estimate, workload, profile,
                                            code):
        return
    report = est.sim_estimate(workload, profile, code)
    assert report.consumption_rate is None
    assert report.throttle_factor == 1.0
    assert_follows_the_chain(report, profile, distance)


def two_term_failure(report, profile, distance, level, ancillas):
    """1 - (1 - p_L)^(K*Q) (1 - p_A)^n_A at 60 digits, in the log domain, with
    p_A iterated from the profile's error per virtual gate."""
    ancilla_error = profile.error_per_virtual_gate
    for _ in range(level):
        ancilla_error = 35 * ancilla_error ** 3
    p_l = profile.c1 * (profile.c2 * profile.error_per_virtual_gate / profile.threshold) ** ((distance + 1) // 2)
    with mpmath.workdps(60):
        gates = mpmath.mpf(report.logical_cycles) * report.total_logical_qubits
        log_survival = gates * mpmath.log1p(-p_l) + mpmath.mpf(ancillas) * mpmath.log1p(-ancilla_error)
        return float(-mpmath.expm1(log_survival))


@settings(max_examples=150, deadline=None)
@given(
    workload=st.one_of(
        st.builds(est.ShorWorkload, st.integers(4, 20000),
                  st.one_of(st.none(), st.integers(200000, 10 ** 7))),
        st.builds(est.SimWorkload, st.integers(1, 10000), st.integers(1, 64), st.integers(1, 2 ** 20)),
    ),
    distance=st.integers(0, 17).map(lambda k: 2 * k + 1),
    level=st.integers(1, dist.MAX_DISTILLATION_LEVEL),
    error_per_gate=st.floats(1e-6, 8e-3),
)
@example(workload=est.ShorWorkload(1024), distance=31, level=1, error_per_gate=1e-3)
@example(workload=est.ShorWorkload(1024), distance=31, level=2, error_per_gate=1e-3)
@example(workload=est.SimWorkload(61), distance=31, level=2, error_per_gate=1e-3)
def test_failure_probability_counts_logical_gates_and_consumed_ancillas(
    workload, distance, level, error_per_gate
):
    """Factoring consumes the 7 ancillas of every Toffoli; simulation states no
    consumption, so every ancilla its factory makes counts (an upper bound)."""
    profile = qec.HardwareProfile(error_per_virtual_gate=error_per_gate)
    code = qec.code_point(profile, distance)
    if isinstance(workload, est.ShorWorkload):
        report = est.shor_estimate(workload, profile, code, level)
        ancillas = dist.TOFFOLI_ANCILLAS * workload.adders_sequential * workload.toffolis_per_adder
    else:
        report = est.sim_estimate(workload, profile, code, level)
        ancillas = report.production_rate * report.logical_cycles
    expected = two_term_failure(report, profile, distance, level, ancillas)
    assert report.failure_probability == pytest.approx(expected, rel=1e-12, abs=0)
    if (workload, distance, error_per_gate) == (est.ShorWorkload(1024), 31, 1e-3):
        assert report.failure_probability == {1: 1.0, 2: 9.754420553131885e-06}[level]


def test_an_injected_error_distillation_cannot_lower_is_infeasible():
    profile = qec.HardwareProfile(error_per_virtual_gate=0.2, threshold=0.5)
    with pytest.raises(InfeasibleInputError, match="the injected ancilla error 0.2 is at or above"):
        est.sim_estimate(est.SimWorkload(61), profile, qec.code_point(profile, 3))
